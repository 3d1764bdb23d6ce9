"""Check each operation's output against the references in ``refs.py``.

``outcome`` sorts a record into failed, refused (``exhausted`` or
``indeterminate``) or decided.  ``check`` returns ``None`` for a correct
decided answer and a reason otherwise.  Chains are the one place where the
library is called again: their records name entries only by description, so
the chain is rebuilt to evaluate its entries, and the record must match it.

Run ``python3 perfbench/verify.py`` for the self-test: every checker gets a
right answer, which it must accept, and a corrupted one, which it must
reject.
"""

from __future__ import annotations

import refs

REFUSALS = ("exhausted", "indeterminate")


def outcome(record: dict) -> str:
    if "raised" in record or record.get("status") == "error":
        return "failed"
    result = record.get("result", {})
    if result.get("passed") is False:
        return "failed"  # a suite's own verdict, whatever the status says
    if result.get("verdict") in REFUSALS or result.get("order") in REFUSALS:
        return "refused"
    if str(result.get("standard", "")).startswith("indeterminate"):
        return "refused"
    return "decided"


def node_literal(text: str) -> tuple:
    """A constant node literal such as ``grid:3,-4`` or ``const lad:2``."""
    body = text.split(" ")[-1]
    ctor, _, args = body.partition(":")
    return (ctor, *(int(v) for v in args.split(","))) if args else (ctor,)


def _at(spec: dict):
    return lambda n: refs.spec_node(spec, n)


def _anchor_pair(graph, spec):
    base = refs.anchor(graph)
    return lambda n: (base, refs.spec_node(spec, n))


def _check_job(op: dict, record: dict) -> str | None:
    job, result = op["job"], record["result"]
    graph, command, spec = job["graph"], job["command"], op.get("spec", {})
    if command in ("distance", "wdistance"):
        want = refs.distance(graph, node_literal(job["x"]), node_literal(job["y"]))
        got = ((0, result["distance"]) if command == "distance"
               else refs.parse_ordinal(result["wdistance"]))
        return None if got == want else f"got {refs.render(got)}, want {refs.render(want)}"
    if command == "classify":
        if "y" in job:
            pair_at = lambda n: (refs.spec_node(spec["x"], n), refs.spec_node(spec["y"], n))
        else:
            pair_at = _anchor_pair(graph, spec["x"])
        return refs.check_relation(graph, result["relation"], result["bound"], pair_at)
    if command == "closer":
        return refs.check_gap(graph, result["verdict"], _at(spec["x"]), _at(spec["y"]))
    if command == "describe":
        return (refs.check_standard(result["standard"], _at(spec["x"]))
                or refs.check_relation(graph, result["galaxy"], None,
                                       _anchor_pair(graph, spec["x"])))
    if command == "chain":
        return _check_chain(job, result)
    if command == "witness":
        origin = refs.spec_node(spec["origin"], 0)
        if result["relation"] != "different-galaxy":
            return f"witness sits in the {result['relation']} galaxy"
        if refs.family_of(graph) in refs.RANK1:
            return refs.check_boundary_ray(graph, origin, result["samples"])
        return refs.check_konig(graph, origin, result["samples"])
    if command == "check":
        return None  # outcome() already read the suite's passed field
    return f"no checker for {command!r}"


def _check_chain(job: dict, result: dict) -> str | None:
    from nsgraph import build_galaxy_chain, node_at
    from nsgraph.literals import parse_graph, parse_hypernode
    m = job["m"]
    grades = [e["grade"] for e in result["entries"]]
    if result["count"] != 2 * m + 1 or grades != list(range(-m, m + 1)):
        return f"chain of depth {m} has grades {grades}"
    graph = parse_graph(job["graph"])
    chain = build_galaxy_chain(parse_hypernode(graph, job["seed"]), m)
    terms = [e.hypernode.term.describe() for e in chain.entries]
    if terms != [e["term"] for e in result["entries"]]:
        return "chain entries differ from a rebuilt chain"
    at = [(lambda n, h=e.hypernode: refs.node_tuple(repr(node_at(h, n))))
          for e in chain.entries]
    return refs.check_chain_gaps(job["graph"], at)


def _check_call(op: dict, record: dict) -> str | None:
    graph, spec = op["graph"], op["spec"]
    if op["call"] == "make_hyperbranch":
        kind, threshold, _ = record["evidence"]
        return refs.check_adjacent(graph, threshold, kind, _at(spec["u"]), _at(spec["v"]))
    if op["call"] == "hypernode_eq":
        return refs.check_equality(record["verdict"], _at(spec["a"]), _at(spec["b"]))
    if op["call"] == "compare_hyperordinals":
        p = [_at(s) for s in spec["points"]]
        return refs.check_order(graph, record["order"],
                                lambda n: (p[0](n), p[1](n)), lambda n: (p[2](n), p[3](n)))
    return f"no checker for {op['call']!r}"


def check(op: dict, record: dict) -> str | None:
    try:
        if "job" in op:
            return _check_job(op, record)
        return _check_call(op, record)
    except refs.Unsettled as exc:
        return f"reference could not settle: {exc}"


# ====== self-test ======

def _spec(ctor, even, odd=None):
    return {"ctor": ctor, "even": even, "odd": odd or even}


def _job_case(graph, command, result, spec=None, **operands):
    op = {"job": {"graph": graph, "command": command, **operands}}
    if spec:
        op["spec"] = spec
    return op, {"status": "ok", "result": result}


def _cases():
    """(operation, right record or None, corrupted record) per checker."""
    path_n = _spec("p", [(1, 0)])
    path_5 = _spec("p", [(0, 5)])
    split = _spec("p", [(1, 0)], [(0, 3)])
    x1_n = _spec("x1", [(2, 1)])
    grid_n = _spec("grid", [(1, 2), (0, 1)])
    grid_n_up = _spec("grid", [(1, 2), (0, 2)])
    cases = []

    def pair(graph, command, good, bad, spec=None, **operands):
        op, right = _job_case(graph, command, good, spec, **operands)
        cases.append((op, right, {"status": "ok", "result": bad}))

    pair("grid2d", "distance", {"distance": 7}, {"distance": 8}, x="grid:0,0", y="grid:3,4")
    pair({"family": "perturbed_grid", "edits": [{"op": "remove", "a": [0, 0], "b": [1, 0]}]},
         "distance", {"distance": 3}, {"distance": 1}, x="grid:0,0", y="grid:1,0")
    pair("diamond_chain", "wdistance", {"wdistance": "w*6"}, {"wdistance": "w*4"},
         x="x1:1", y="x1:4")
    pair("partial_ladder", "wdistance", {"wdistance": "2"}, {"wdistance": "w*2"},
         x="x1:0", y="x1:9")
    pair("endless_path", "classify", {"relation": "same-galaxy", "bound": "5", "tight": True},
         {"relation": "same-galaxy", "bound": "4", "tight": True},
         spec={"x": path_5}, x="p:5")
    pair("endless_path", "classify", {"relation": "different-galaxy", "bound": None, "tight": False},
         {"relation": "same-galaxy", "bound": "9", "tight": False},
         spec={"x": path_n, "y": path_5}, x="p:n", y="p:5")
    pair("endless_path", "classify", {"relation": "filter-dependent", "bound": None, "tight": False},
         {"relation": "different-galaxy", "bound": None, "tight": False},
         spec={"x": split}, x="parity(p:n, p:3)")
    pair("diamond_chain", "classify", {"relation": "different-galaxy", "bound": None, "tight": False},
         {"relation": "same-galaxy", "bound": "w*9", "tight": False},
         spec={"x": x1_n}, x="x1:2n+1")
    pair("endless_path", "closer", {"verdict": "true"}, {"verdict": "false"},
         spec={"x": path_5, "y": path_n}, x="p:5", y="p:n")
    pair("endless_path", "closer", {"verdict": "filter-dependent"}, {"verdict": "true"},
         spec={"x": path_5, "y": split}, x="p:5", y="parity(p:n, p:3)")
    pair("endless_path", "describe",
         {"standard": "filter-dependent", "galaxy": "filter-dependent"},
         {"standard": "false", "galaxy": "filter-dependent"},
         spec={"x": split}, x="parity(p:n, p:3)")
    pair("endless_path", "describe",
         {"standard": "true", "galaxy": "same-galaxy"},
         {"standard": "true", "galaxy": "different-galaxy"},
         spec={"x": path_5}, x="p:5")
    pair("grid2d", "witness",
         {"relation": "different-galaxy", "samples": [f"GridNode(k={-n}, l=0)" for n in range(6)]},
         {"relation": "different-galaxy", "samples": [f"GridNode(k={-n}, l=1)" for n in range(6)]},
         spec={"origin": _spec("grid", [(0, 0), (0, 0)])})
    pair("diamond_chain", "witness",
         {"relation": "different-galaxy",
          "samples": [f"OneNodeId(kind='x1', index={n})" for n in range(6)]},
         {"relation": "different-galaxy",
          "samples": [f"OneNodeId(kind='x1', index={n // 4})" for n in range(6)]},
         spec={"origin": _spec("x1", [(0, 0)])})
    chain = {"count": 3, "entries": [{"grade": g, "term": t} for g, t in (
        (-1, "p:chain[-1](affine(1,0))"), (0, "p:chain[+0](affine(1,0))"),
        (1, "p:chain[+1](affine(1,0))"))]}
    swapped = {"count": 3, "entries": chain["entries"][::-1]}
    pair("endless_path", "chain", chain, swapped, seed="p:n", m=1)
    cases.append(({"call": "make_hyperbranch", "graph": "grid2d",
                   "spec": {"u": grid_n, "v": grid_n_up}},
                  {"evidence": ["cofinite", 0, True]}, {"evidence": ["split", 0, True]}))
    cases.append(({"call": "make_hyperbranch", "graph": "grid2d",
                   "spec": {"u": grid_n, "v": _spec("grid", [(1, 2), (0, 3)])}},
                  None, {"evidence": ["cofinite", 0, True]}))
    cases.append(({"call": "hypernode_eq", "graph": "endless_path",
                   "spec": {"a": _spec("p", [(1, 1)]), "b": split}},
                  {"verdict": "false"}, {"verdict": "true"}))
    cases.append(({"call": "hypernode_eq", "graph": "endless_path",
                   "spec": {"a": _spec("p", [(0, 3)]), "b": split}},
                  {"verdict": "filter-dependent"}, {"verdict": "false"}))
    cases.append(({"call": "compare_hyperordinals", "graph": "diamond_chain",
                   "spec": {"points": [_spec("x1", [(0, 0)]), _spec("x1", [(0, 3)]),
                                       _spec("x1", [(0, 0)]), x1_n]}},
                  {"order": "less"}, {"order": "greater"}))
    return cases


def selftest() -> list[str]:
    """Problems found; empty when every checker behaves."""
    problems = []
    for op, right, wrong in _cases():
        what = op.get("call") or f"{op['job']['command']} on {op['job']['graph']}"
        reason = None if right is None else check(op, right)
        if reason is not None:
            problems.append(f"{what}: right answer rejected ({reason})")
        if check(op, wrong) is None:
            problems.append(f"{what}: corrupted answer accepted")
    # the gap checker on its own: reversed chain entries must be rejected
    entries = [lambda n, s=s: ("p", s * n) for s in (1, 2, 3)]
    if refs.check_chain_gaps("endless_path", entries) is not None:
        problems.append("chain gaps: growing chain rejected")
    if refs.check_chain_gaps("endless_path", entries[::-1]) is None:
        problems.append("chain gaps: shrinking chain accepted")
    return problems


if __name__ == "__main__":
    import sys
    from pathlib import Path
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    found = selftest()
    for line in found:
        print(line)
    print(f"{len(_cases()) + 1} checker cases, {len(found)} problems")
    sys.exit(1 if found else 0)
