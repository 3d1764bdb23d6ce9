"""Seeded corpora for the three workloads.

An operation is a dict.  ``{"job": {...}}`` is one job document for
``nsgraph.cli.run_job``; ``{"call": name, ...}`` is one call of a public
library function.  ``spec`` entries describe each presentation as plain
numbers so that the checkers in ``refs.py`` can evaluate it without the
library; the library only ever sees the literal text.  The number of
operations of every kind is fixed; the seed only draws their inputs.
"""

from __future__ import annotations

import random

RANK0 = ("endless_path", "one_ended_path", "ladder", "ladder_with_ray",
         "grid2d", "perturbed_grid")
RANK1 = ("diamond_chain", "one_path_of_endless_paths",
         "ladder_of_endless_paths", "partial_ladder")

# constructor -> least value of each parameter (None: any integer)
CTORS = {
    "endless_path": {"p": (None,)},
    "one_ended_path": {"p": (0,)},
    "ladder": {"lad": (0,), "ladg": ()},
    "ladder_with_ray": {"lad": (0,), "ladg": (), "ray": (1,)},
    "grid2d": {"grid": (None, None)},
    "perturbed_grid": {"grid": (None, None)},
    "diamond_chain": {"x1": (0,), "j": (0, 0), "l": (0, 0), "r": (0, 0)},
    "one_path_of_endless_paths": {"x1": (None,), "e": (None, None)},
    "ladder_of_endless_paths": {"x1": (0,), "xg": ()},
    "partial_ladder": {"x1": (0,), "zg": (0,), "xg": ()},
}

# families and constructors whose moving presentations leave the principal
# galaxy, so they can seed a galaxy chain
CHAIN_SEEDS = {"endless_path": "p", "one_ended_path": "p",
               "ladder_with_ray": "ray", "grid2d": "grid",
               "diamond_chain": "x1", "one_path_of_endless_paths": "x1"}

# the edit set ROADMAP's starting numbers were measured with
REFERENCE_EDITS = [{"op": "remove", "a": [1, 0], "b": [1, 1]}]
SYMBOLIC_EDITS = [REFERENCE_EDITS, [{"op": "add", "a": [-1, -1], "b": [1, 1]}]]


# ====== literals ======

def _param_text(a: int, b: int) -> str:
    if a == 0:
        return str(b)
    head = {1: "n", -1: "-n"}.get(a, f"{a}n")
    return head + (f"+{b}" if b > 0 else f"{b}" if b < 0 else "")


def _term_text(ctor: str, params) -> str:
    if not params:
        return ctor
    return f"{ctor}:{','.join(_param_text(a, b) for a, b in params)}"


def literal(spec: dict) -> str:
    even = _term_text(spec["ctor"], spec["even"])
    if spec["even"] == spec["odd"]:
        moving = any(a for a, _ in spec["even"])
        word = spec.get("word")
        if word == "const" and not moving or word == "affine" and moving:
            return f"{word} {even}"
        return even
    return f"parity({even}, {_term_text(spec['ctor'], spec['odd'])})"


# ====== presentations ======

KINDS = ("const", "affine", "parity")

# (largest slope, largest constant) of a parameter.  On perturbed_grid the
# library runs a BFS per constant point and the reference a BFS per sample,
# so its points stay near the origin and move slowly.
REACH = {"perturbed_grid": (1, 5)}


def _param(rng: random.Random, least, moving: bool, reach) -> tuple[int, int]:
    slope, span = reach
    if not moving:
        return 0, rng.randint(-span, span) if least is None else rng.randint(least, least + span)
    if least is None:
        return rng.choice((-1, 1)) * rng.randint(1, slope), rng.randint(-8, 8)
    return rng.randint(1, slope), rng.randint(least, least + 8)


def _params(rng, family: str, least: tuple, moving: bool) -> list:
    if not least:
        return []
    mover = rng.randrange(len(least))
    reach = REACH.get(family, (3, 12))
    return [_param(rng, lo, moving and (i == mover or rng.random() < 0.5), reach)
            for i, lo in enumerate(least)]


def presentation(rng: random.Random, family: str, ctor: str | None = None,
                 kind: str | None = None) -> dict:
    """A constant, affine or parity presentation on the family."""
    ctors = CTORS[family]
    if ctor is None:
        ctor = rng.choice(sorted(ctors))
    least = ctors[ctor]
    kind = kind or rng.choice(KINDS)
    if not least:
        kind = "const"
    even = _params(rng, family, least, kind != "const")
    odd = even
    if kind == "parity":
        odd = _params(rng, family, least, rng.random() < 0.5)
        if odd == even:
            odd = [(a, b + 1) for a, b in even]
    return {"ctor": ctor, "even": even, "odd": odd,
            "word": rng.choice(("const", "affine", None))}


def _edit_set(rng: random.Random) -> list:
    """One or two edits in a small window; a removal never isolates a node."""
    edits, used = [], set()
    for _ in range(rng.randint(1, 2)):
        while True:
            a = (rng.randint(-3, 3), rng.randint(-3, 3))
            if rng.random() < 0.5:
                dk, dl = rng.choice(((1, 0), (0, 1)))
                op, b = "remove", (a[0] + dk, a[1] + dl)
            else:
                op, b = "add", (a[0] + rng.randint(1, 3), a[1] + rng.randint(1, 3))
            key = frozenset((a, b))
            if key not in used:
                used.add(key)
                edits.append({"op": op, "a": list(a), "b": list(b)})
                break
    return edits


def _graph(family: str, edits) -> object:
    return {"family": family, "edits": edits} if edits else family


def _job(graph, command: str, **operands) -> dict:
    return {"graph": graph, "command": command, **operands}


# ====== symbolic ======

def symbolic(seed: int) -> list[dict]:
    """Short verdict jobs over all ten families."""
    rng = random.Random(seed)
    ops = []
    for family in RANK0 + RANK1:
        # few perturbed_grid jobs on fixed edits: BFS cost should not steer
        # this workload
        for i in range(24 if family == "perturbed_grid" else 96):
            edits = SYMBOLIC_EDITS[i % 2] if family == "perturbed_grid" else None
            graph = _graph(family, edits)
            # commands and presentation kinds cycle, so the mix is the same
            # on every seed and only the numbers are drawn
            x = presentation(rng, family, kind=KINDS[i // 4 % 3])
            y = presentation(rng, family, kind=KINDS[i // 12 % 3])
            command = ("classify", "classify-pair", "closer", "describe")[i % 4]
            if command == "classify":
                job = _job(graph, "classify", x=literal(x))
            elif command == "classify-pair":
                job = _job(graph, "classify", x=literal(x), y=literal(y))
            elif command == "closer":
                job = _job(graph, "closer", x=literal(x), y=literal(y))
            else:
                job = _job(graph, "describe", x=literal(x))
            ops.append({"job": job, "spec": {"x": x, "y": y}})
        if family in CHAIN_SEEDS:
            for _ in range(8):
                seed_spec = presentation(rng, family, CHAIN_SEEDS[family], "affine")
                job = _job(family, "chain", seed=literal(seed_spec), m=rng.randint(1, 3))
                ops.append({"job": job, "spec": {"seed": seed_spec}})
    return ops


# ====== search ======

def _grid_pair(rng: random.Random, separation: int) -> tuple[list, list]:
    x = [rng.randint(-10, 10), rng.randint(-10, 10)]
    dk = rng.randint(0, separation)
    y = [x[0] + rng.choice((-1, 1)) * dk,
         x[1] + rng.choice((-1, 1)) * (separation - dk)]
    return x, y


def _node_text(ctor: str, args) -> str:
    return f"{ctor}:{','.join(str(v) for v in args)}" if args else ctor


def search(seed: int) -> list[dict]:
    """Concrete distances: BFS sweeps, closed forms and rank-1 searches."""
    rng = random.Random(seed)
    pool = [_edit_set(rng) for _ in range(3)]
    ops = []
    for separation in range(4, 40, 4):
        for i in range(4):
            edits = pool[rng.randrange(3)] if i < 2 else _edit_set(rng)
            x, y = _grid_pair(rng, separation)
            ops.append({"job": _job(_graph("perturbed_grid", edits), "distance",
                                    x=_node_text("grid", x), y=_node_text("grid", y))})
    # fixed queries longer than any seeded one.  The slowest operations are
    # the fixed rank-1 searches and budget-bound queries below and nine
    # diagonals of 76 steps shifted along the diagonal, so the latency tail
    # (the eleventh slowest) falls among near-equal fixed queries on every
    # seed instead of on one operation or on a seeded draw.
    for shift in (0, 1, -1, 2, -2, 3, -3, 4, -4):
        ops.append({"job": _job(_graph("perturbed_grid", REFERENCE_EDITS), "distance",
                                x=f"grid:{shift - 19},{shift - 19}",
                                y=f"grid:{shift + 19},{shift + 19}")})
    for family in ("grid2d", "perturbed_grid"):
        ops.append({"job": _job(_graph(family, REFERENCE_EDITS if family != "grid2d" else None),
                                "distance", x="grid:-15,-15", y="grid:15,15")})
    # budget-bound queries; they end exhausted, a caveat and not a failure
    far = _graph("perturbed_grid", REFERENCE_EDITS)
    ops.append({"job": _job(far, "distance", x="grid:-200,0", y="grid:200,50")})
    ops.append({"job": {**_job(far, "distance", x="grid:-40,0", y="grid:40,0"),
                        "budget": 20_000}})
    # closed forms: enough cheap jobs that the median latency falls well
    # inside them rather than at their slow edge
    for family in ("endless_path", "one_ended_path", "ladder", "ladder_with_ray", "grid2d"):
        for _ in range(36):
            x = presentation(rng, family, kind="const")
            y = presentation(rng, family, kind="const")
            ops.append({"job": _job(family, "distance", x=literal(x), y=literal(y))})
    for family in RANK1:
        least = 0 if family != "one_path_of_endless_paths" else -300
        # partial_ladder searches are quadratic in the separation; its long
        # ones are the fixed sweep below
        reach = 40 if family == "partial_ladder" else 300
        for _ in range(12):
            i = rng.randint(max(least, -20), 20)
            j = rng.randint(max(least, i - reach), i + reach)
            ops.append({"job": _job(family, "wdistance", x=f"x1:{i}", y=f"x1:{j}")})
    for k in (50, 100, 200, 400):
        ops.append({"job": _job("partial_ladder", "wdistance", x="x1:0", y=f"x1:{k}")})
    for k in (50, 100, 200, 400):
        ops.append({"job": _job("diamond_chain", "wdistance", x="x1:0", y=f"x1:{k}")})
    # fails every time: the rank-1 search runs out of pops and raises
    ops.append({"job": _job("diamond_chain", "wdistance", x="x1:0", y="x1:30000"),
                "known_fault": "wdistance exhausts SEARCH_POP_BUDGET and raises"})
    return ops


# ====== certify ======

# (family, suite, samples range): the suites that pass on every seed today.
# The cheap ones draw their sample count and sampling seed and run three
# times.  The costly ones (family, suite, samples, sampling seed), with the
# witnesses and the rank-1 comparison, are the fifteen slowest operations;
# they run fixed inputs, and the eleventh slowest, the latency tail, falls
# among the nine near-equal rank-1 walk-oracle and partition suites.
SUITE_PLAN = [
    *[(f, "metric", (20, 40)) for f in RANK0 if f != "perturbed_grid"],
    *[(f, "metric", (10, 20)) for f in RANK1],
    *[(f, "galaxy-partition", (8, 16)) for f in RANK0 + RANK1 if f != "perturbed_grid"],
    *[(f, "order", (4, 6)) for f in ("endless_path", "one_ended_path", "ladder",
                                     "ladder_with_ray", "grid2d",
                                     "ladder_of_endless_paths", "partial_ladder")],
    *[(f, "walk-oracle", (6, 10)) for f in ("endless_path", "one_ended_path",
                                           "ladder", "ladder_with_ray")],
    *[(f, "kernel", (8, 16)) for f in ("endless_path", "diamond_chain")],
]
COSTLY_SUITES = [
    ("perturbed_grid", "metric", 8, 1),
    ("perturbed_grid", "galaxy-partition", 12, 1),
    *[(f, "walk-oracle", 3, 1) for f in ("grid2d", "perturbed_grid")],
    *[(f, "walk-oracle", 6, seed) for f in RANK1 for seed in (1, 2)],
]

# pairs of presentations adjacent at every index, for make_hyperbranch
BRANCHES = {
    "endless_path": lambda a, b: ({"ctor": "p", "even": [(a, b)], "odd": [(a, b)]},
                                  {"ctor": "p", "even": [(a, b + 1)], "odd": [(a, b + 1)]}),
    "grid2d": lambda a, b: ({"ctor": "grid", "even": [(a, b), (0, 1)], "odd": [(a, b), (0, 1)]},
                            {"ctor": "grid", "even": [(a, b), (0, 2)], "odd": [(a, b), (0, 2)]}),
    "diamond_chain": lambda a, b: ({"ctor": "j", "even": [(a, b), (0, 2)], "odd": [(a, b), (0, 2)]},
                                   {"ctor": "l", "even": [(a, b), (0, 2)], "odd": [(a, b), (0, 2)]}),
}


def certify(seed: int) -> list[dict]:
    """Evidence sweeps: suites, witnesses, deep chains, library certificates."""
    rng = random.Random(seed)
    ops = []
    for family, suite, (lo, hi) in SUITE_PLAN * 3:
        ops.append({"job": _job(family, "check", suite=suite, samples=rng.randint(lo, hi)),
                    "suite_seed": rng.randrange(1 << 30)})
    for family, suite, samples, suite_seed in COSTLY_SUITES:
        ops.append({"job": _job(family, "check", suite=suite, samples=samples),
                    "suite_seed": suite_seed})
    # fails every time: closer_than refuses a reflexive pair, the suite
    # reports the refusal as an irreflexivity violation
    ops.append({"job": _job("diamond_chain", "check", suite="order"), "suite_seed": 0,
                "known_fault": "order suite counts an IndeterminateError as a violation"})
    for family, ctor in (("endless_path", "p"), ("grid2d", "grid")):
        for _ in range(2):
            origin = presentation(rng, family, ctor, "const")
            ops.append({"job": _job(family, "witness", origin=literal(origin)),
                        "spec": {"origin": origin}})
    # from the anchor only: off it the greedy ray stalls on one_ended_path
    ops.append({"job": _job("one_ended_path", "witness"),
                "spec": {"origin": {"ctor": "p", "even": [(0, 0)], "odd": [(0, 0)]}}})
    ops.append({"job": _job(_graph("perturbed_grid", REFERENCE_EDITS), "witness"),
                "spec": {"origin": {"ctor": "grid", "even": [(0, 0), (0, 0)],
                                    "odd": [(0, 0), (0, 0)]}}})
    # the boundary ray on one_path_of_endless_paths runs the same sweep as on
    # diamond_chain but takes 4.4 s, half a pass, so it stays out
    ops.append({"job": _job("diamond_chain", "witness"),
                "spec": {"origin": {"ctor": "x1", "even": [(0, 0)], "odd": [(0, 0)]}}})
    for family, ctor in CHAIN_SEEDS.items():
        seed_spec = presentation(rng, family, ctor, "affine")
        ops.append({"job": _job(family, "chain", seed=literal(seed_spec), m=rng.randint(4, 5)),
                    "spec": {"seed": seed_spec}})
    for family, make in BRANCHES.items():
        for _ in range(2):
            u, v = make(rng.randint(1, 3), rng.randint(0, 6))
            ops.append({"call": "make_hyperbranch", "graph": family,
                        "args": [literal(u), literal(v)], "spec": {"u": u, "v": v}})
    # each kind of presentation against itself and against a fresh draw:
    # these calls sit at the median latency, so their mix is fixed
    for family in RANK0[:5] + RANK1:
        for kind in ("const", "affine", "parity"):
            a = presentation(rng, family, kind=kind)
            for b in (dict(a), presentation(rng, family, a["ctor"], kind)):
                ops.append({"call": "hypernode_eq", "graph": family,
                            "args": [literal(a), literal(b)], "spec": {"a": a, "b": b}})
    # the comparison probes both distances past the horizon; on rank 1 that
    # is a search whose cost follows the presentation, so rank 1 gets one
    # comparison of slope-1 x1 points on diamond_chain
    for family in RANK0[:5] + ("diamond_chain",):
        for _ in range(1 if family == "diamond_chain" else 3):
            if family == "diamond_chain":
                specs = [{"ctor": "x1", "even": [e], "odd": [e]} for e in (
                    (slope, rng.randint(0, 8)) for slope in (1, 0, 1, 0))]
            else:
                specs = [presentation(rng, family, kind=rng.choice(("const", "affine")))
                         for _ in range(4)]
            ops.append({"call": "compare_hyperordinals", "graph": family,
                        "args": [literal(s) for s in specs], "spec": {"points": specs}})
    return ops


WORKLOADS = {"symbolic": symbolic, "search": search, "certify": certify}
