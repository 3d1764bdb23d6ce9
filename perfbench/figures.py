"""Reference figures from a traced run's span dump.

    python3 perfbench/figures.py --workload search --seed 1

Reads ``perfbench/out/trace-<workload>-seed<n>.json`` (written by
``run.py --trace 1``) and prints, for the operations that ROADMAP item 1
names, the traced duration of the whole operation and the self time of its busiest
layer.  The corpus is drawn again from the seed: the i-th top-level
``bench.op`` span is the corpus's i-th operation.
"""

from __future__ import annotations

import argparse
import json

import corpus
from run import OUT

# (label, predicate on an operation)
WANTED = [
    ("grid2d (-15,-15)->(15,15)", lambda op: op.get("job", {}).get("graph") == "grid2d"
     and op["job"].get("x") == "grid:-15,-15"),
    ("perturbed_grid (-15,-15)->(15,15)", lambda op: op.get("job", {}).get("x") == "grid:-15,-15"
     and op["job"]["y"] == "grid:15,15" and op["job"]["graph"] != "grid2d"),
    *[(f"wdistance {family} x1:0->x1:{k}",
       lambda op, f=family, k=k: op.get("job", {}).get("graph") == f
       and op["job"].get("x") == "x1:0" and op["job"].get("y") == f"x1:{k}")
      for family in ("diamond_chain", "partial_ladder") for k in (50, 100, 200, 400)],
    ("make_hyperbranch diamond_chain", lambda op: op.get("call") == "make_hyperbranch"
     and op["graph"] == "diamond_chain"),
    ("boundary_ray_witness diamond_chain", lambda op: op.get("job", {}).get("graph")
     == "diamond_chain" and op["job"]["command"] == "witness"),
]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(corpus.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    ops = corpus.WORKLOADS[args.workload](args.seed)
    with open(OUT / f"trace-{args.workload}-seed{args.seed}.json", encoding="utf-8") as fh:
        spans = json.load(fh)["spans"]
    roots = [i for i, s in enumerate(spans) if s[0] == "bench.op"]
    owner, child = {}, [0.0] * len(spans)
    for i, (_, start, end, parent, _) in enumerate(spans):
        owner[i] = i if parent < 0 else owner[parent]
        if parent >= 0:
            child[parent] += end - start
    busy: dict[int, dict[str, float]] = {}  # self time per layer, per operation
    for i, (name, start, end, _, _) in enumerate(spans):
        per = busy.setdefault(owner[i], {})
        per[name] = per.get(name, 0.0) + (end - start - child[i]) * 1000
    for label, match in WANTED:
        for op, root in zip(ops, roots):
            if match(op):
                _, start, end, _, _ = spans[root]
                layers = busy[root]
                top = max(layers, key=layers.get)
                print(f"{label:40s} {(end - start) * 1000:10.2f} ms  "
                      f"(busiest layer {top}: {layers[top]:.2f} ms self)")
                break


if __name__ == "__main__":
    main()
