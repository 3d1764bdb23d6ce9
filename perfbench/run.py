"""Benchmark of the nsgraph batch runner and library.

    python3 perfbench/run.py --workload symbolic|search|certify \\
        --seed N --seconds S --trace 0|1

Run from the repository root.  The workload's corpus is drawn from the
seed (``corpus.py``).  One pass runs every operation once, in corpus
order, in this process.  Whole passes repeat until ``--seconds`` are
spent; each operation's latency is its median over the passes.  Between
passes a fresh interpreter is launched to time set-up.  After the timed
passes every answer is checked against ``refs.py``, outside the timed
region.

With ``--trace 0`` the end-to-end metrics are printed.  With ``--trace 1``
untraced and traced passes alternate, and the per-layer metrics of the
traced passes are printed; ``tracing.py`` wraps the library from outside.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True  # every launch compiles the package afresh

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import corpus
import verify
from tracing import Tracer, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

OPTS = {"seed": 0, "budget": 200_000, "horizon": 512}
SETUP_LAUNCHES = 15
MIN_PASSES = 3

# a fresh interpreter: import the entry point, load the corpus, report the
# moment the first operation could start
SETUP_CODE = ("import sys, json, time; sys.path.insert(0, sys.argv[1]); "
              "import nsgraph.cli; json.load(sys.stdin); print(time.perf_counter())")

END_TO_END = {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms",
              "decided_ops": "count", "setup_s": "s", "peak_rss_mb": "MB"}


def launch_setup(corpus_text: str) -> float:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    started = perf_counter()
    done = subprocess.run([sys.executable, "-B", "-c", SETUP_CODE, str(SRC)],
                          input=corpus_text, capture_output=True, text=True,
                          env=env, timeout=120, check=True)
    return float(done.stdout.strip()) - started


class Runner:
    """Runs operations through the library's public entry points."""

    def __init__(self):
        import nsgraph.cli
        self.cli = nsgraph.cli
        self.literals = sys.modules["nsgraph.literals"]
        self.up = sys.modules["nsgraph.ultrapower"]
        self.refusal = sys.modules["nsgraph.kernel"].IndeterminateError

    def execute(self, op: dict) -> dict:
        if "job" in op:
            record, _ = self.cli.run_job(op["job"], {**OPTS, "seed": op.get("suite_seed", 0)})
            record.pop("wall_time_ms", None)
            return record
        try:
            return self._call(op)
        except self.refusal:
            return {"verdict": "indeterminate"}

    def _call(self, op: dict) -> dict:
        graph = self.literals.parse_graph(op["graph"])
        terms = [self.literals.parse_term(graph, text) for text in op["args"]]
        if op["call"] == "make_hyperbranch":
            ev = self.up.make_hyperbranch(graph, *terms).evidence
            return {"evidence": [ev.kind, ev.threshold, ev.even_true]}
        points = [self.up.make_hypernode(graph, t) for t in terms]
        if op["call"] == "hypernode_eq":
            return {"verdict": self.up.hypernode_eq(*points).value}
        order = self.up.compare_hyperordinals(self.up.hyperdistance(*points[:2]),
                                              self.up.hyperdistance(*points[2:]))
        return {"order": order.value}

    def run_pass(self, ops: list[dict], execute=None) -> tuple[float, list, list]:
        execute = execute or self.execute
        gc.collect()
        latency, records = [], []
        started = perf_counter()
        for op in ops:
            t0 = perf_counter()
            try:
                record = execute(op)
            except Exception as exc:  # run_job promises never to raise
                record = {"raised": type(exc).__name__, "error": str(exc)}
            latency.append(perf_counter() - t0)
            records.append(record)
        return perf_counter() - started, latency, records


def tail_index(count: int) -> int:
    """Index of the highest percentile with ten samples beyond it."""
    return max(0, count - 11)


def verify_pass(ops, records) -> tuple[int, int, list[str]]:
    """(decided, failed, problems) for one pass's records."""
    decided = failed = 0
    problems = []
    for i, (op, record) in enumerate(zip(ops, records)):
        kind = verify.outcome(record)
        if kind == "failed":
            failed += 1
            note = "known fault" if "known_fault" in op else "FAILED"
            print(f"  op {i} {note}: {record.get('error') or record.get('result')}"[:300],
                  file=sys.stderr)
        elif kind == "decided":
            decided += 1
            reason = verify.check(op, record)
            if reason is not None:
                problems.append(f"op {i} {json.dumps(op.get('job') or op)[:200]}: {reason}")
    return decided, failed, problems


@dataclass
class Timings:
    walls: list = field(default_factory=list)          # untraced pass wall times
    latencies: list = field(default_factory=list)      # per pass, per operation
    setups: list = field(default_factory=list)
    traced_walls: list = field(default_factory=list)
    layers: list = field(default_factory=list)         # per traced pass
    records: list | None = None                        # the first pass's answers
    mismatched: int = 0                                # passes that answered otherwise
    peak_rss_mb: float = 0.0

    @property
    def passes(self) -> int:
        return len(self.walls) + len(self.traced_walls)


def timed_passes(args, ops: list[dict]) -> Timings:
    """Whole passes for ``--seconds``, with set-up launches in between."""
    corpus_text = json.dumps(ops)
    runner = Runner()
    tracer = Tracer() if args.trace else None
    t = Timings(setups=[launch_setup(corpus_text) for _ in range(2)])
    started = perf_counter()
    while True:
        wall, latency, records = runner.run_pass(ops)
        t.walls.append(wall)
        t.latencies.append(latency)
        if t.records is None:
            t.records = records
        t.mismatched += records != t.records
        if tracer is not None:
            tracer.install()
            try:
                wall, _, records = runner.run_pass(ops, tracer.traced("bench.op", runner.execute))
            finally:
                tracer.uninstall()
            t.traced_walls.append(wall)
            t.layers.append(layer_metrics(tracer.spans, tracer.loose))
            t.mismatched += records != t.records  # identical apart from timings
            OUT.mkdir(exist_ok=True)
            tracer.dump(OUT / f"trace-{args.workload}-seed{args.seed}.json")
            tracer.reset()
        if len(t.setups) < SETUP_LAUNCHES:
            t.setups.append(launch_setup(corpus_text))
        elapsed = perf_counter() - started
        if elapsed >= args.seconds - statistics.median(t.walls + t.traced_walls) / 2 \
                and (t.passes >= MIN_PASSES or tracer is not None):
            break
    t.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    while len(t.setups) < SETUP_LAUNCHES:
        t.setups.append(launch_setup(corpus_text))
    return t


def measure(args) -> dict:
    ops = corpus.WORKLOADS[args.workload](args.seed)
    t = timed_passes(args, ops)
    problems = verify.selftest()
    decided, failed_per_pass, wrong = verify_pass(ops, t.records)
    problems += wrong
    if t.mismatched:
        problems.append(f"{t.mismatched} passes gave records unlike the first pass")
    for line in problems:
        print("  PROBLEM " + line, file=sys.stderr)

    per_op = [statistics.median(col) * 1000 for col in zip(*t.latencies)]
    if not args.trace:
        metrics = {
            "ops_per_s": len(ops) / statistics.median(t.walls),
            "op_p50_ms": statistics.median(per_op),
            "op_tail_ms": sorted(per_op)[tail_index(len(per_op))],
            "decided_ops": decided,
            "setup_s": statistics.median(t.setups),
            "peak_rss_mb": t.peak_rss_mb,
        }
        units = END_TO_END
    else:
        metrics = {name: statistics.median(layer[name] for layer in t.layers)
                   for name in t.layers[0]}
        metrics["trace.wall_ratio"] = statistics.median(t.traced_walls) / statistics.median(t.walls)
        metrics["trace.base_pass_ms"] = statistics.median(t.walls) * 1000
        units = {name: "ms" if name.endswith(("_ms", ".ms")) else "count" for name in metrics}
        units["trace.wall_ratio"] = "ratio"
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"ops-{args.workload}-seed{args.seed}.json", "w", encoding="utf-8") as fh:
        json.dump([{"op": op.get("job") or {k: op[k] for k in ("call", "graph", "args")},
                    "median_ms": ms} for op, ms in zip(ops, per_op)], fh, indent=0)
    print(f"{args.workload} seed {args.seed}: {len(ops)} operations x {t.passes} passes, "
          f"tail at sorted index {tail_index(len(ops))}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"  {name:32s} {value:14.4f} {units[name]}")
    return {"correct": not problems,
            "attempted": t.passes * len(ops),
            "failed": t.passes * failed_per_pass,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("--workload", required=True, choices=("symbolic", "search", "certify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "nsgraph" / "__init__.py").is_file():
        print(f"perfbench: no nsgraph package under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result = measure(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
