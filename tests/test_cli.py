"""The batch runner: exit codes, report shape, and determinism."""

import json

import pytest

from nsgraph import cli
from nsgraph.checks import CheckResult, SuiteReport
from nsgraph.cli import main
from nsgraph.graphs import UnreachableError
from nsgraph.transfinite import OneNodeId, make_one_graph, wdistance, wdistance_witness

LADDER_CLASSIFY = {"graph": "ladder", "command": "classify",
                   "x": "const lad:5", "y": "affine lad:n"}
OEP_CHAIN = {"graph": "one_ended_path", "command": "chain",
             "seed": "affine p:n", "m": 3}
PARITY_CLASSIFY = {"graph": "one_ended_path", "command": "classify",
                   "x": "parity(p:n, p:0)", "y": "const p:0"}


def run(tmp_path, capsys, jobs, *flags):
    path = tmp_path / "jobs.json"
    path.write_text(json.dumps(jobs), encoding="utf-8")
    code = main(["--job", str(path), "--json", *flags])
    lines = capsys.readouterr().out.strip().splitlines()
    return code, [json.loads(line) for line in lines]


def test_classify_bound_and_exit_zero(tmp_path, capsys):
    code, records = run(tmp_path, capsys, [LADDER_CLASSIFY])
    assert code == 0
    assert records[0]["result"] == {"relation": "same-galaxy",
                                    "bound": "2", "tight": True}
    assert records[0]["status"] == "ok"


def test_chain_emits_all_grades(tmp_path, capsys):
    code, records = run(tmp_path, capsys, [OEP_CHAIN])
    assert code == 0
    result = records[0]["result"]
    assert result["count"] == 7
    assert [e["grade"] for e in result["entries"]] == list(range(-3, 4))


def test_filter_dependent_verdict_exits_two(tmp_path, capsys):
    code, records = run(tmp_path, capsys, [PARITY_CLASSIFY])
    assert code == 2
    assert records[0]["result"]["relation"] == "filter-dependent"
    assert records[0]["result"]["bound"] is None
    assert records[0]["status"] == "caveat"


def test_batch_exit_code_prefers_errors_over_caveats(tmp_path, capsys):
    bad = {"graph": "ladder", "command": "mystery"}
    code, records = run(tmp_path, capsys, [LADDER_CLASSIFY, PARITY_CLASSIFY, bad])
    assert code == 1
    assert [r["status"] for r in records] == ["ok", "caveat", "error"]
    assert "unknown command" in records[2]["error"]


def test_distance_and_wdistance(tmp_path, capsys):
    jobs = [
        {"graph": "grid2d", "command": "distance", "x": "grid:5,7", "y": "grid:0,0"},
        {"graph": "diamond_chain", "command": "wdistance", "x": "x1:0", "y": "x1:3"},
        {"graph": "diamond_chain", "command": "wdistance", "x": "j:2,0", "y": "x1:0"},
    ]
    code, records = run(tmp_path, capsys, jobs)
    assert code == 0
    assert records[0]["result"] == {"distance": 12}
    assert records[1]["result"] == {"wdistance": "w*6"}
    assert records[2]["result"] == {"wdistance": "w*5"}


def test_rank_mismatch_is_an_error(tmp_path, capsys):
    jobs = [
        {"graph": "diamond_chain", "command": "distance", "x": "x1:0", "y": "x1:1"},
        {"graph": "grid2d", "command": "wdistance", "x": "grid:0,0", "y": "grid:1,0"},
    ]
    code, records = run(tmp_path, capsys, jobs)
    assert code == 1
    assert "rank-0" in records[0]["error"]
    assert "rank-1" in records[1]["error"]


def test_budget_exhaustion_is_a_caveat(tmp_path, capsys):
    edited = {"family": "perturbed_grid",
              "edits": [{"op": "add", "a": [0, 0], "b": [2, 2]}]}
    jobs = [
        {"graph": edited, "command": "distance",
         "x": "grid:-6,0", "y": "grid:7,5", "budget": 4},
        {"graph": edited, "command": "distance",
         "x": "grid:-6,0", "y": "grid:7,5"},
    ]
    code, records = run(tmp_path, capsys, jobs)
    assert code == 2
    assert records[0]["result"] == {"verdict": "exhausted", "budget": 4}
    assert records[1]["result"] == {"distance": 15}


def test_search_exhaustion_is_a_caveat_and_the_batch_goes_on(tmp_path, capsys, monkeypatch):
    # every catalog pair has a closed form, so the search is made to run out here
    def exhausting(graph, x, y):
        if y == OneNodeId("x1", 30000):
            raise UnreachableError("search budget exhausted before reaching the target")
        return wdistance(graph, x, y)

    monkeypatch.setattr(cli, "wdistance", exhausting)
    jobs = [
        {"graph": "diamond_chain", "command": "wdistance", "x": "x1:0", "y": "x1:30000"},
        {"graph": "diamond_chain", "command": "wdistance", "x": "x1:0", "y": "x1:3"},
    ]
    code, records = run(tmp_path, capsys, jobs)
    assert code == 2
    assert len(records) == 2
    assert records[0]["result"] == {"verdict": "exhausted"}
    assert records[0]["status"] == "caveat"
    assert "budget exhausted" in records[0]["error"]
    assert records[1]["result"] == {"wdistance": "w*6"}


def test_far_rank1_pair_answers_from_its_closed_form(tmp_path, capsys):
    jobs = [{"graph": "diamond_chain", "command": "wdistance", "x": "x1:0", "y": "x1:30000"}]
    code, records = run(tmp_path, capsys, jobs)
    assert code == 0
    assert records[0]["result"] == {"wdistance": "w*60000"}
    assert records[0]["status"] == "ok"


def test_far_rank1_pair_still_exhausts_the_search():
    g = make_one_graph("diamond_chain")
    with pytest.raises(UnreachableError, match="budget exhausted"):
        wdistance_witness(g, OneNodeId("x1", 0), OneNodeId("x1", 30000))


def test_failed_check_suite_is_an_error(tmp_path, capsys, monkeypatch):
    failing = SuiteReport("metric", "ladder", (CheckResult("symmetry", False, 1),))
    monkeypatch.setattr(cli, "run_check_suite", lambda *args, **kwargs: failing)
    jobs = [{"graph": "ladder", "command": "check", "suite": "metric"}]
    code, records = run(tmp_path, capsys, jobs)
    assert code == 1
    assert records[0]["result"]["passed"] is False
    assert records[0]["status"] == "error"


@pytest.mark.parametrize("family", ["diamond_chain", "one_path_of_endless_paths",
                                    "perturbed_grid"])
def test_order_suite_passes_at_seed_zero(tmp_path, capsys, family):
    # the seed-0 samples hold points whose gap to themselves is opaque
    jobs = [{"graph": family, "command": "check", "suite": "order"}]
    code, records = run(tmp_path, capsys, jobs, "--seed", "0")
    assert code == 0
    assert records[0]["result"]["passed"] is True
    assert records[0]["status"] == "ok"


def test_witness_command_on_both_ranks(tmp_path, capsys):
    jobs = [{"graph": "grid2d", "command": "witness"},
            {"graph": "diamond_chain", "command": "witness"},
            {"graph": "ladder", "command": "witness"}]
    code, records = run(tmp_path, capsys, jobs)
    assert code == 1  # the ladder has no locally finite shells
    assert records[0]["result"]["term"] == "grid:affine(-1,0),const(0)"
    assert records[1]["result"]["term"] == "x1:patched({0:1},floor(1,0,2,1))"
    assert all(r["result"]["relation"] == "different-galaxy"
               for r in records[:2])
    assert "not locally finite" in records[2]["error"]


def test_check_command_reports_per_invariant(tmp_path, capsys):
    jobs = [{"graph": "ladder", "command": "check", "suite": "metric",
             "samples": 100}]
    code, records = run(tmp_path, capsys, jobs)
    assert code == 0
    result = records[0]["result"]
    assert result["passed"] and len(result["results"]) == 3
    assert all(r["checked"] == 100 for r in result["results"])


def test_order_suite_samples_an_incomparable_pair(tmp_path, capsys):
    # slopes of both signs: on the endless path p:an+b and p:-cn+d recede on
    # opposite sides, and neither galaxy is closer
    jobs = [{"graph": "endless_path", "command": "check", "suite": "order",
             "samples": 6}]
    code, records = run(tmp_path, capsys, jobs, "--seed", "7")
    assert code == 0 and records[0]["status"] == "ok"
    detail = records[0]["result"]["results"][0]["detail"]
    assert detail == ("1 same-galaxy, 3 incomparable, 0 filter-dependent, "
                      "0 indeterminate")


def test_chain_deeper_than_the_cap_is_one_error_record(tmp_path, capsys):
    jobs = [dict(OEP_CHAIN, m=1001), OEP_CHAIN]
    code, records = run(tmp_path, capsys, jobs)
    assert code == 1 and len(records) == 2
    assert records[0]["status"] == "error" and "result" not in records[0]
    assert "exceeds the cap 1000" in records[0]["error"]
    assert records[1]["status"] == "ok"


def test_describe_graph_and_point(tmp_path, capsys):
    jobs = [{"graph": "partial_ladder", "command": "describe"},
            {"graph": "diamond_chain", "command": "describe", "x": "x1:n"},
            {"graph": "one_ended_path", "command": "describe",
             "x": "parity(p:n, p:0)"}]
    code, records = run(tmp_path, capsys, jobs)
    assert code == 2  # the parity point's standardness is filter-dependent
    assert records[0]["result"]["locally_1_finite"] is False
    assert records[1]["result"]["standard"] == "false"
    assert records[1]["result"]["galaxy"] == "different-galaxy"
    assert records[2]["result"]["standard"] == "filter-dependent"


def test_describe_reads_the_scale_from_the_profile_start(tmp_path, capsys):
    # |n - 5| is the distance only from n = 5 on; before it, n - 5 is negative
    jobs = [{"graph": "endless_path", "command": "describe", "x": "p:n-5"},
            {"graph": "endless_path", "command": "describe", "x": "p:n"}]
    _, records = run(tmp_path, capsys, jobs)
    assert records[0]["result"]["scale"] == [0, 1, 2, 3]
    assert records[0]["result"]["scale_from"] == 5
    assert records[1]["result"]["scale"] == [0, 1, 2, 3]
    assert records[1]["result"]["scale_from"] == 0


def test_operand_and_literal_failures_exit_one(tmp_path, capsys):
    jobs = [
        {"graph": "ladder", "command": "classify"},
        {"graph": "nowhere", "command": "classify", "x": "lad:5"},
        {"graph": "ladder", "command": "classify", "x": "lad:oops"},
        "not an object",
    ]
    code, records = run(tmp_path, capsys, jobs)
    assert code == 1
    assert all(r["status"] == "error" for r in records)
    assert "needs operand" in records[0]["error"]
    assert "unknown family" in records[1]["error"]
    assert "neither an integer" in records[2]["error"]
    assert "JSON object" in records[3]["error"]


def test_reports_are_deterministic_apart_from_timing(tmp_path, capsys):
    jobs = [LADDER_CLASSIFY, OEP_CHAIN, PARITY_CLASSIFY,
            {"graph": "ladder", "command": "check", "suite": "kernel"}]
    _, first = run(tmp_path, capsys, jobs)
    _, second = run(tmp_path, capsys, jobs)
    for a, b in zip(first, second):
        a.pop("wall_time_ms")
        b.pop("wall_time_ms")
        assert a == b


def test_human_mode_prints_tables(tmp_path, capsys):
    path = tmp_path / "jobs.json"
    path.write_text(json.dumps([LADDER_CLASSIFY]), encoding="utf-8")
    code = main(["--job", str(path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "relation" in out and "same-galaxy" in out
    assert not out.lstrip().startswith("{")


def test_unreadable_job_files_exit_one(tmp_path, capsys):
    assert main(["--job", str(tmp_path / "missing.json")]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{\"not\": \"an array\"}", encoding="utf-8")
    assert main(["--job", str(bad)]) == 1
    capsys.readouterr()


def test_usage_errors_exit_one():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 1


EDITED_GRID = {"family": "perturbed_grid",
               "edits": [{"op": "add", "a": [-1, -1], "b": [1, 1]},
                         {"op": "remove", "a": [1, 0], "b": [1, 1]}]}


@pytest.mark.parametrize("job", [
    {"graph": {"family": "perturbed_grid", "edits": "x"}, "command": "distance",
     "x": "grid:0,0", "y": "grid:1,1"},
    {"graph": {"family": "perturbed_grid",
               "edits": [{"op": "add", "a": ["a", 0], "b": [2, 2]}]},
     "command": "distance", "x": "grid:0,0", "y": "grid:1,1"},
    {"graph": "grid2d", "command": "check", "suite": ["metric"]},
    ["distance", "grid2d"],
    {"graph": "one_ended_path", "command": "chain", "seed": "p:n", "m": [1]},
    {"graph": "grid2d", "command": "distance", "x": "grid:0,0", "y": "grid:1,1",
     "budget": None},
    *[{"graph": "endless_path", "command": "check", "suite": suite, "samples": -3}
      for suite in ("metric", "galaxy-partition", "order", "walk-oracle", "kernel")],
    {"graph": "endless_path", "command": "check", "suite": "metric", "samples": 0},
    {"graph": "endless_path", "command": "check", "suite": "metric", "samples": 2.0},
    {"graph": "one_ended_path", "command": "chain", "seed": "p:n", "m": 2.7},
    {"graph": "one_ended_path", "command": "chain", "seed": "p:n", "m": True},
    {"graph": "grid2d", "command": "distance", "x": "grid:0,0", "y": "grid:1,1",
     "budget": 2.9},
    {"graph": "grid2d", "command": "distance", "x": "grid:0,0", "y": "grid:1,1",
     "budget": "300"},
], ids=["edits-not-a-list", "string-coordinate", "suite-not-a-name", "job-not-an-object",
        "depth-not-a-number", "budget-not-a-number",
        *[f"negative-samples-{suite}" for suite in ("metric", "galaxy-partition", "order",
                                                    "walk-oracle", "kernel")],
        "zero-samples", "float-samples", "float-depth", "bool-depth", "float-budget",
        "string-budget"])
def test_malformed_documents_yield_one_error_record(job):
    record, code = cli.run_job(job, {"seed": 0, "budget": 1000, "horizon": 64})
    assert code == cli.ERROR
    assert record["status"] == "error" and record["error"]


def test_edited_grid_is_echoed_with_its_edits(tmp_path, capsys):
    job = {"graph": EDITED_GRID, "command": "distance",
           "x": "grid:-1,-1", "y": "grid:1,1"}
    code, records = run(tmp_path, capsys, [job])
    assert code == 0
    assert records[0]["graph"] == EDITED_GRID
    assert records[0]["result"] == {"distance": 1}


def test_witness_on_an_edited_grid_samples_grid_nodes(tmp_path, capsys):
    code, records = run(tmp_path, capsys, [{"graph": EDITED_GRID, "command": "witness"}])
    assert code == 0
    samples = records[0]["result"]["samples"]
    assert samples[:2] == ["GridNode(k=0, l=0)", "GridNode(k=-1, l=0)"]
    assert all(s.startswith("GridNode(k=") for s in samples)
