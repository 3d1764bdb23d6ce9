"""Batch front-end: read a job file, run each query, report the verdicts.

Usage:
    nsgraph --job jobs.json [--json] [--seed 0] [--budget N] [--horizon N]

The job file is a JSON array of job documents; each document names a
graph, a command, and the command's operands as literals (see the
literals module for the grammar). Reports come out one per job, in input
order, as aligned text or as line-delimited JSON. Exit code 0 means
every job succeeded with a definite verdict, 2 means at least one
verdict was filter-dependent or ran out of evidence, 1 means at least
one job failed outright.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .galaxy import (GalaxyRelation, anchor_hypernode, boundary_ray_witness,
                     build_galaxy_chain, closer_than, in_principal_galaxy,
                     konig_ray_witness, limitedly_distant)
from .checks import run_check_suite
from .graphs import Exhausted, UnreachableError
from .kernel import DEFAULT_HORIZON, IndeterminateError
from .literals import graph_label, parse_graph, parse_hypernode, parse_node
from .ordinal import render_ordinal
from .sequences import sym_start, sym_value
from .transfinite import wdistance
from .ultrapower import is_standard, node_at

COMMANDS = ("distance", "wdistance", "classify", "closer", "chain",
            "witness", "check", "describe")

OK, CAVEAT, ERROR = 0, 2, 1


class JobError(ValueError):
    """The job document itself is unusable."""


def _operand(job: dict, key: str, required: bool = True):
    value = job.get(key)
    if value is None and required:
        raise JobError(f"command {job.get('command')!r} needs operand {key!r}")
    return value


def _int_operand(value, key: str) -> int:
    # JSON gives int, float, bool or str; only an int is an integer operand
    if isinstance(value, bool) or not isinstance(value, int):
        raise JobError(f"operand {key!r} must be an integer, got {value!r}")
    return value


def _verdict_record(v) -> dict:
    record = {"relation": v.relation.value}
    record["bound"] = (render_ordinal(v.certified_bound)
                       if v.certified_bound is not None else None)
    record["tight"] = v.tight
    return record


# ====== command bodies; each returns (result dict, exit code) ======

def _cmd_distance(graph, job, opts):
    if graph.rank != 0:
        raise JobError("distance expects a rank-0 family; use wdistance")
    x = parse_node(graph, _operand(job, "x"))
    y = parse_node(graph, _operand(job, "y"))
    d = graph.distance(x, y, budget=opts["budget"])
    if isinstance(d, Exhausted):
        return {"verdict": "exhausted", "budget": opts["budget"]}, CAVEAT
    return {"distance": d}, OK


def _cmd_wdistance(graph, job, opts):
    if graph.rank != 1:
        raise JobError("wdistance expects a rank-1 family; use distance")
    x = parse_node(graph, _operand(job, "x"))
    y = parse_node(graph, _operand(job, "y"))
    return {"wdistance": render_ordinal(wdistance(graph, x, y))}, OK


def _cmd_classify(graph, job, opts):
    x = parse_hypernode(graph, _operand(job, "x"))
    y_text = _operand(job, "y", required=False)
    if y_text is None:
        v = in_principal_galaxy(x)
    else:
        v = limitedly_distant(x, parse_hypernode(graph, y_text))
    code = CAVEAT if v.relation is GalaxyRelation.FILTER_DEPENDENT else OK
    return _verdict_record(v), code


def _cmd_closer(graph, job, opts):
    x = parse_hypernode(graph, _operand(job, "x"))
    y = parse_hypernode(graph, _operand(job, "y"))
    base_text = _operand(job, "base", required=False)
    base = (parse_hypernode(graph, base_text) if base_text
            else anchor_hypernode(graph))
    v = closer_than(base, x, y)
    return {"verdict": v.value}, CAVEAT if v.is_filter_dependent else OK


def _cmd_chain(graph, job, opts):
    seed = parse_hypernode(graph, _operand(job, "seed"))
    depth = _int_operand(job.get("m", 3), "m")
    base_text = _operand(job, "base", required=False)
    base = parse_hypernode(graph, base_text) if base_text else None
    chain = build_galaxy_chain(seed, depth, base=base)
    entries = [{"grade": e.grade, "term": e.hypernode.term.describe()}
               for e in chain.entries]
    return {"count": len(entries), "entries": entries}, OK


def _cmd_witness(graph, job, opts):
    origin_text = _operand(job, "origin", required=False)
    if graph.rank == 0:
        origin = parse_node(graph, origin_text) if origin_text else None
        w = konig_ray_witness(graph, origin)
    else:
        origin = parse_node(graph, origin_text) if origin_text else None
        w = boundary_ray_witness(graph, origin)
    return {
        "term": w.term.describe(),
        "relation": in_principal_galaxy(w).relation.value,
        "samples": [str(node_at(w, n)) for n in range(6)],
    }, OK


def _cmd_check(graph, job, opts):
    suite = _operand(job, "suite")
    if not isinstance(suite, str):
        raise JobError(f"operand 'suite' must be a suite name, got {suite!r}")
    samples = job.get("samples")
    if samples is not None:
        samples = _int_operand(samples, "samples")
    report = run_check_suite(graph, suite, seed=opts["seed"], samples=samples)
    results = [{"name": r.name, "passed": r.passed, "checked": r.checked,
                "detail": r.detail} for r in report.results]
    return ({"suite": report.suite, "passed": report.passed,
             "results": results}, OK if report.passed else ERROR)


def _cmd_describe(graph, job, opts):
    x_text = _operand(job, "x", required=False)
    if x_text is None:
        facts = {"family": graph.family, "rank": graph.rank}
        if graph.rank == 0:
            facts["locally_finite"] = graph.locally_finite
        else:
            facts["locally_1_finite"] = graph.locally_1_finite
            facts["locally_section_finite"] = graph.locally_section_finite
            facts["one_wconnected"] = graph.one_wconnected
        return facts, OK
    h = parse_hypernode(graph, x_text)
    try:
        standard = is_standard(h, horizon=opts["horizon"]).value
    except IndeterminateError as exc:
        standard = f"indeterminate: {exc}"
    relation = in_principal_galaxy(h).relation
    # the profile is the distance only from its start on
    start = max(sym_start(h.profile.omega), sym_start(h.profile.finite))
    scale = h.profile.omega if h.rank else h.profile.finite
    facts = {
        "term": h.term.describe(),
        "rank": h.rank,
        "standard": standard,
        "galaxy": relation.value,
        "scale": [sym_value(scale, n) for n in range(start, start + 4)],
        "scale_from": start,
    }
    caveat = (standard not in ("true", "false")
              or relation is GalaxyRelation.FILTER_DEPENDENT)
    return facts, CAVEAT if caveat else OK


_BODIES = {
    "distance": _cmd_distance,
    "wdistance": _cmd_wdistance,
    "classify": _cmd_classify,
    "closer": _cmd_closer,
    "chain": _cmd_chain,
    "witness": _cmd_witness,
    "check": _cmd_check,
    "describe": _cmd_describe,
}

_ECHO_KEYS = ("x", "y", "base", "seed", "m", "suite", "origin", "samples")


def run_job(job: dict, opts: dict) -> tuple[dict, int]:
    """Run one job document; never raises, the record carries the outcome."""
    if not isinstance(job, dict):
        return {"command": None, "graph": None, "inputs": {},
                "status": "error", "wall_time_ms": 0.0,
                "error": "job document must be a JSON object"}, ERROR
    record = {
        "command": job.get("command"),
        "graph": None,
        "inputs": {k: job[k] for k in _ECHO_KEYS if k in job},
    }
    started = time.perf_counter()
    try:
        command = job.get("command")
        if command not in COMMANDS:
            raise JobError(f"unknown command {command!r}; "
                           f"known: {', '.join(COMMANDS)}")
        graph = parse_graph(job.get("graph"))
        record["graph"] = graph_label(graph)
        # "seed" stays a CLI-level flag: jobs use the key for chain operands
        local = dict(opts)
        for key in ("budget", "horizon"):
            if key in job:
                local[key] = _int_operand(job[key], key)
        result, code = _BODIES[command](graph, job, local)
        record["result"] = result
        record["status"] = {OK: "ok", CAVEAT: "caveat", ERROR: "error"}[code]
    except (IndeterminateError, UnreachableError) as exc:
        # out of evidence, or a search stopped short of its target: refuse
        verdict = "exhausted" if isinstance(exc, UnreachableError) else "indeterminate"
        record["result"] = {"verdict": verdict}
        record["status"] = "caveat"
        record["error"] = str(exc)
        code = CAVEAT
    except (JobError, ValueError) as exc:
        record["status"] = "error"
        record["error"] = str(exc)
        code = ERROR
    record["wall_time_ms"] = round((time.perf_counter() - started) * 1000, 2)
    return record, code


def _human(record: dict, index: int) -> str:
    rows = [("job", str(index)),
            ("command", str(record.get("command"))),
            ("graph", json.dumps(record.get("graph")))]
    for key, value in record.get("inputs", {}).items():
        rows.append((key, str(value)))
    for key, value in record.get("result", {}).items():
        if key == "entries":
            for e in value:
                rows.append((f"grade {e['grade']:+d}", e["term"]))
        elif key == "results":
            for r in value:
                mark = "pass" if r["passed"] else "FAIL"
                note = f" [{r['detail']}]" if r["detail"] else ""
                rows.append((mark, f"{r['name']} (checked {r['checked']}){note}"))
        else:
            rows.append((key, json.dumps(value)))
    if "error" in record:
        rows.append(("error", record["error"]))
    rows.append(("status", f"{record['status']} "
                           f"({record['wall_time_ms']} ms)"))
    width = max(len(k) for k, _ in rows)
    return "\n".join(f"  {k.ljust(width)}  {v}" for k, v in rows)


class _Parser(argparse.ArgumentParser):
    # parse failures must exit 1: exit 2 is reserved for filter-dependence
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(ERROR)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="nsgraph", description=__doc__.partition("\n")[0])
    parser.add_argument("--job", required=True,
                        help="path to a JSON array of job documents")
    parser.add_argument("--json", action="store_true",
                        help="emit line-delimited JSON instead of tables")
    parser.add_argument("--seed", type=int, default=0,
                        help="RNG seed for every sampling suite (default 0)")
    parser.add_argument("--budget", type=int, default=200_000,
                        help="budget of a distance job: one unit per neighbour "
                             "read of whichever search runs")
    parser.add_argument("--horizon", type=int, default=DEFAULT_HORIZON,
                        help="index horizon for pointwise evidence sweeps")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with open(args.job, encoding="utf-8") as fh:
            jobs = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"nsgraph: cannot read job file: {exc}", file=sys.stderr)
        return ERROR
    if not isinstance(jobs, list):
        print("nsgraph: job file must hold a JSON array", file=sys.stderr)
        return ERROR
    opts = {"seed": args.seed, "budget": args.budget, "horizon": args.horizon}
    codes = []
    for index, job in enumerate(jobs):
        record, code = run_job(job, opts)
        codes.append(code)
        if args.json:
            print(json.dumps(record, sort_keys=True))
        else:
            print(_human(record, index))
            print()
    if ERROR in codes:
        return ERROR
    if CAVEAT in codes:
        return CAVEAT
    return OK


if __name__ == "__main__":
    sys.exit(main())
