"""Outside-in tracing of nsgraph: wrap public functions, record spans.

``Tracer.install()`` replaces each traced function in every ``nsgraph.*``
namespace that holds it (``ultrapower`` keeps its own ``in_filter``, for
example) and the counted methods on the family classes.  ``uninstall()``
puts every original back.  Untraced passes install nothing.

A span is ``[name, start, end, parent, counts]``, kept in memory.  Counts
go to the innermost open span.  ``layer_metrics`` turns one pass's spans
into the per-layer metrics: ``_ms`` values are self time, the span's
duration minus its child spans' durations.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from time import perf_counter

# (module, function, span name); the span name's prefix is the layer
SPANS = [
    ("cli", "run_job", "cli"),
    ("literals", "parse_graph", "literals.parse"),
    ("literals", "parse_term", "literals.parse"),
    ("literals", "parse_node", "literals.parse"),
    ("literals", "parse_hypernode", "literals.parse"),
    ("graphs", "make_family", "graphs.build"),
    ("transfinite", "make_one_graph", "graphs.build"),
    ("graphs", "bfs_distance", "graphs.bfs"),
    ("transfinite", "wdistance_witness", "transfinite.wdistance"),
    ("sequences", "validate_declaration", "sequences.validate"),
    ("kernel", "in_filter", "kernel.in_filter"),
    ("ultrapower", "make_hypernode", "ultrapower.make_hypernode"),
    ("ultrapower", "hyperdistance", "ultrapower.hyperdistance"),
    ("ultrapower", "make_hyperbranch", "ultrapower.hyperbranch"),
    ("galaxy", "in_principal_galaxy", "galaxy.verdict"),
    ("galaxy", "limitedly_distant", "galaxy.verdict"),
    ("galaxy", "closer_than", "galaxy.verdict"),
    ("galaxy", "build_galaxy_chain", "galaxy.chain"),
    ("galaxy", "konig_ray_witness", "galaxy.witness"),
    ("galaxy", "boundary_ray_witness", "galaxy.witness"),
    ("checks", "run_check_suite", "checks.suite"),
    ("oracles", "enumeration_wdistance", "oracles"),
    ("oracles", "oracle_distance", "oracles"),
]
SYM_OPS = ("sym_add", "sym_sub", "sym_neg", "sym_abs", "sym_scale")
# (module, function, count key): calls counted, no span
COUNTED = [("sequences", "classify", "classify"),
           ("transfinite", "is_boundary", "boundary_checks")]
# methods counted on the family classes: (method, count key, counts items?)
METHODS = [("neighbors", "neighbors", False), ("incidences", "incidence_entries", True),
           ("term_node", "term_node", False)]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.loose: dict[str, int] = {}   # counts made outside every span
        self._undo: list[tuple] = []

    # -- recording --
    def count(self, key: str, n: int = 1) -> None:
        counts = self._counts()
        counts[key] = counts.get(key, 0) + n

    def _counts(self) -> dict:
        if not self.stack:
            return self.loose
        rec = self.spans[self.stack[-1]]
        if rec[4] is None:
            rec[4] = {}
        return rec[4]

    def traced(self, name: str, fn, on_result=None, on_error=None):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec[2] = perf_counter()
                stack.pop()
                if on_error is not None:
                    on_error(rec, exc)
                raise
            rec[2] = perf_counter()
            stack.pop()
            if on_result is not None:
                on_result(rec, result)
            return result
        return wrapper

    # -- wrappers for the special cases --
    def _sym(self, fn):
        span = self.traced("sequences.sym", fn)
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.count("sym_ops")
            if stack and spans[stack[-1]][0] == "sequences.sym":
                return fn(*args, **kwargs)  # nested arithmetic: one span
            return span(*args, **kwargs)
        return wrapper

    def _counted(self, key: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.count(key)
            return fn(*args, **kwargs)
        return wrapper

    def _in_filter(self, fn):
        count = self.count

        def sampled(predicate):
            def counted(n):
                count("evidence")
                return predicate(n)
            return counted

        @functools.wraps(fn)
        def with_counted_predicate(predicate, *args, **kwargs):
            return fn(sampled(predicate), *args, **kwargs)
        return self.traced("kernel.in_filter", with_counted_predicate)

    def _method(self, owner: type, attr: str, key: str, items: bool, fn):
        definer: dict[type, type] = {}

        def counts_here(obj) -> bool:
            # a super() call from an overriding method is the same call
            cls = type(obj)
            if cls not in definer:
                definer[cls] = next(c for c in cls.__mro__ if attr in c.__dict__)
            return definer[cls] is owner

        @functools.wraps(fn)
        def wrapper(obj, *args, **kwargs):
            result = fn(obj, *args, **kwargs)
            if counts_here(obj):
                self.count(key, len(result) if items else 1)
            return result
        return wrapper

    # -- installing --
    def _replace(self, original, replacement) -> None:
        for name, module in list(sys.modules.items()):
            if name != "nsgraph" and not name.startswith("nsgraph."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, replacement)

    def install(self) -> None:
        mods = {name: importlib.import_module(f"nsgraph.{name}") for name in (
            "cli", "literals", "graphs", "transfinite", "sequences", "kernel",
            "ultrapower", "galaxy", "checks", "oracles")}
        graphs, transfinite = mods["graphs"], mods["transfinite"]

        def on_bfs(rec, result):
            if isinstance(result, graphs.Exhausted):
                rec[4] = {**(rec[4] or {}), "bfs_exhausted": 1}

        def on_search_error(rec, exc):
            if isinstance(exc, graphs.UnreachableError) and "budget" in str(exc):
                rec[4] = {**(rec[4] or {}), "budget_exhausted": 1}

        hooks = {"graphs.bfs": (on_bfs, None),
                 "transfinite.wdistance": (None, on_search_error)}
        for module, fn_name, span in SPANS:
            original = getattr(mods[module], fn_name)
            if span == "kernel.in_filter":
                wrapped = self._in_filter(original)
            else:
                wrapped = self.traced(span, original, *hooks.get(span, (None, None)))
            self._replace(original, wrapped)
        for fn_name in SYM_OPS:
            original = getattr(mods["sequences"], fn_name)
            self._replace(original, self._sym(original))
        for module, fn_name, key in COUNTED:
            original = getattr(mods[module], fn_name)
            self._replace(original, self._counted(key, original))
        classes = {graphs.GraphInstance, transfinite.OneGraph,
                   *graphs.FAMILIES.values(), *transfinite.ONE_FAMILIES.values()}
        for cls in classes:
            for attr, key, items in METHODS:
                if attr in cls.__dict__:
                    original = cls.__dict__[attr]
                    self._undo.append((cls, attr, original))
                    setattr(cls, attr, self._method(cls, attr, key, items, original))

    def uninstall(self) -> None:
        while self._undo:
            target, attr, original = self._undo.pop()
            setattr(target, attr, original)

    def reset(self) -> None:
        # cleared in place: the installed wrappers hold these objects
        self.spans.clear()
        self.stack.clear()
        self.loose.clear()

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "counts"],
                       "spans": self.spans}, fh)


def layer_metrics(spans: list[list], loose: dict) -> dict[str, float]:
    """Per-layer metrics of one traced pass."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    self_ms: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts_in: dict[str, dict] = {}
    totals = dict(loose)
    for i, (name, start, end, _, counts) in enumerate(spans):
        self_ms[name] = self_ms.get(name, 0.0) + (end - start - child[i]) * 1000
        calls[name] = calls.get(name, 0) + 1
        if counts:
            per = counts_in.setdefault(name, {})
            for key, n in counts.items():
                per[key] = per.get(key, 0) + n
                totals[key] = totals.get(key, 0) + n

    def ms(name):
        return self_ms.get(name, 0.0)

    def n(name, key=None):
        if key is None:
            return calls.get(name, 0)
        return counts_in.get(name, {}).get(key, 0)

    return {
        "cli.self_ms": ms("cli"),
        "literals.parse_ms": ms("literals.parse"),
        "graphs.builds": n("graphs.build"),
        "graphs.build_ms": ms("graphs.build"),
        "graphs.bfs_calls": n("graphs.bfs"),
        "graphs.bfs_ms": ms("graphs.bfs"),
        "graphs.bfs_expansions": n("graphs.bfs", "neighbors"),
        "graphs.bfs_exhausted": n("graphs.bfs", "bfs_exhausted"),
        "transfinite.wdistance_calls": n("transfinite.wdistance"),
        "transfinite.wdistance_ms": ms("transfinite.wdistance"),
        "transfinite.incidence_entries": n("transfinite.wdistance", "incidence_entries"),
        "transfinite.budget_exhausted": n("transfinite.wdistance", "budget_exhausted"),
        "transfinite.boundary_checks": totals.get("boundary_checks", 0),
        "sequences.sym_ops": totals.get("sym_ops", 0),
        "sequences.classify_calls": totals.get("classify", 0),
        "sequences.sym_ms": ms("sequences.sym"),
        "sequences.validate_ms": ms("sequences.validate"),
        "kernel.in_filter_calls": n("kernel.in_filter"),
        "kernel.evidence_samples": n("kernel.in_filter", "evidence"),
        "kernel.in_filter_ms": ms("kernel.in_filter"),
        "ultrapower.hypernodes": n("ultrapower.make_hypernode"),
        "ultrapower.prefix_probes": n("ultrapower.make_hypernode", "term_node"),
        "ultrapower.make_hypernode_ms": ms("ultrapower.make_hypernode"),
        "ultrapower.hyperdistance_ms": ms("ultrapower.hyperdistance"),
        "ultrapower.hyperbranch_ms": ms("ultrapower.hyperbranch"),
        "galaxy.verdict_ms": ms("galaxy.verdict"),
        "galaxy.chain_ms": ms("galaxy.chain"),
        "galaxy.witness_ms": ms("galaxy.witness"),
        "checks.suite_ms": ms("checks.suite"),
        "oracles.calls": n("oracles"),
        "oracles.ms": ms("oracles"),
    }

