"""Invariant suites pass on the catalog and report deterministically."""

import pytest

from nsgraph import checks
from nsgraph.checks import SUITES, CheckResult, CheckTally, run_check_suite
from nsgraph.galaxy import limitedly_distant
from nsgraph.literals import parse_graph

EDITED = {"family": "perturbed_grid",
          "edits": [{"op": "add", "a": [0, 0], "b": [2, 2]},
                    {"op": "remove", "a": [0, 0], "b": [0, 1]}]}


def test_metric_suite_both_ranks():
    rep = run_check_suite(parse_graph("ladder"), "metric")
    assert rep.passed and [r.checked for r in rep.results] == [1000] * 3
    rep = run_check_suite(parse_graph("diamond_chain"), "metric")
    assert rep.passed and [r.checked for r in rep.results] == [200] * 3


def test_partition_suite():
    for family in ("grid2d", "ladder", "one_ended_path"):
        rep = run_check_suite(parse_graph(family), "galaxy-partition")
        assert rep.passed, (family, rep)


def test_partition_suite_on_an_edited_grid():
    # reflexivity needs d(x, x) = 0 exactly, with or without edits
    edited = {"family": "perturbed_grid",
              "edits": [{"op": "remove", "a": [1, 0], "b": [1, 1]}]}
    rep = run_check_suite(parse_graph(edited), "galaxy-partition", seed=0)
    assert rep.passed, rep


def test_partition_suite_decides_each_ordered_pair_once(monkeypatch):
    graph = parse_graph("endless_path")
    want = run_check_suite(graph, "galaxy-partition", seed=3)
    calls = []

    def counted(x, y):
        calls.append((id(x), id(y)))
        return limitedly_distant(x, y)

    monkeypatch.setattr(checks, "limitedly_distant", counted)
    assert run_check_suite(graph, "galaxy-partition", seed=3) == want
    assert len(calls) == len(set(calls))
    # symmetry reads (y, x) from a verdict of its own
    assert any((y, x) in set(calls) for x, y in calls if x != y)


def test_tally_formats_a_detail_only_on_failure():
    tally = CheckTally("t")
    tally.check(True, lambda: 1 / 0)
    tally.check(False, lambda: "first")
    tally.check(False, lambda: 1 / 0)  # only the first counterexample is kept
    assert tally.result() == CheckResult("t", False, 3, "2 failed; first: first")


def test_order_suite():
    rep = run_check_suite(parse_graph("one_ended_path"), "order")
    assert rep.passed
    names = [r.name for r in rep.results]
    assert names == ["irreflexivity", "antisymmetry", "transitivity"]


def test_walk_oracle_suite():
    for descriptor in ("diamond_chain", "endless_path", EDITED):
        rep = run_check_suite(parse_graph(descriptor), "walk-oracle",
                              samples=20)
        assert rep.passed, (descriptor, rep)
        assert all(r.checked == 20 for r in rep.results)
    rank1 = run_check_suite(parse_graph("ladder_of_endless_paths"), "walk-oracle", samples=5)
    assert [r.name for r in rank1.results] == ["wdistance equals bounded enumeration",
                                               "quotient search equals bounded enumeration"]


def test_kernel_suite():
    rep = run_check_suite(parse_graph("ladder"), "kernel")
    assert rep.passed
    sound, excl, tri = rep.results
    assert sound.checked == 96 and excl.checked == 48


def test_unknown_suite_rejected():
    with pytest.raises(ValueError, match="unknown suite"):
        run_check_suite(parse_graph("ladder"), "nonsense")


def test_reports_are_deterministic_per_seed():
    g = parse_graph("grid2d")
    for suite in SUITES:
        assert (run_check_suite(g, suite, seed=7)
                == run_check_suite(g, suite, seed=7)), suite
    # a different seed still passes, on different samples
    assert run_check_suite(g, "metric", seed=3, samples=50).passed


def test_samples_override_scales_the_sweep():
    rep = run_check_suite(parse_graph("ladder"), "metric", samples=64)
    assert all(r.checked == 64 for r in rep.results)
