"""Scenario files, reports and the command-line surface."""

import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from ffgmc import cli, enumerator, tables
from ffgmc.cli import main
from ffgmc.model import (
    GENESIS,
    GENESIS_CHECKPOINT,
    Block,
    BlockForest,
    Checkpoint,
    FfgVote,
    InputError,
    ProtocolState,
    SignedVote,
)
from ffgmc.mutation import Mutation
from ffgmc.scenario import parse_scenario, scenario_to_json

FINALIZING_SCENARIO = {
    "n_validators": 4,
    "slot_rule": "nonstrict",
    "blocks": [{"id": "b1", "slot": 1, "parent": "genesis"}],
    "votes": [
        {"validator": i, "source": {"block": "genesis", "c": 0}, "target": {"block": "b1", "c": 1}}
        for i in range(3)
    ],
}


def _write(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_scenario_round_trip():
    state = parse_scenario(FINALIZING_SCENARIO)
    assert state.n_validators == 4
    assert len(state.votes) == 3
    assert parse_scenario(scenario_to_json(state)) == state


def test_scenario_round_trip_arbitrary_state():
    forest = BlockForest([Block("b1", 1, GENESIS), Block("b2", 3, "b1"), Block("r", 2)])
    votes = frozenset(
        {
            SignedVote(FfgVote(GENESIS_CHECKPOINT, Checkpoint("b2", 4, 3)), 1),
            SignedVote(FfgVote(Checkpoint("r", 5, 2), Checkpoint("r", 9, 2)), 0),
        }
    )
    state = ProtocolState(forest, 3, votes, "strict")
    assert parse_scenario(scenario_to_json(state)) == state


def test_scenario_positioned_errors():
    with pytest.raises(InputError, match="n_validators"):
        parse_scenario({"blocks": [], "votes": []})
    with pytest.raises(InputError, match=r"blocks\[0\]\.slot"):
        parse_scenario({"n_validators": 2, "blocks": [{"id": "x", "slot": "one"}], "votes": []})
    with pytest.raises(InputError, match=r"votes\[0\]\.source\.block: unknown"):
        parse_scenario(
            {
                "n_validators": 2,
                "blocks": [],
                "votes": [
                    {"validator": 0, "source": {"block": "zz", "c": 0}, "target": {"block": "genesis", "c": 1}}
                ],
            }
        )
    with pytest.raises(InputError, match="genesis"):
        parse_scenario(
            {"n_validators": 2, "blocks": [{"id": "genesis", "slot": 3, "parent": None}], "votes": []}
        )


def test_explicit_genesis_row_accepted():
    doc = dict(FINALIZING_SCENARIO)
    doc["blocks"] = [{"id": "genesis", "slot": 0, "parent": None}] + doc["blocks"]
    assert parse_scenario(doc) == parse_scenario(FINALIZING_SCENARIO)


def test_cmd_check_exit_codes(tmp_path, capsys):
    path = _write(tmp_path, FINALIZING_SCENARIO)
    assert main(["check", path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["holds"] is True
    assert {"block": "genesis", "c": 0, "p": 0} in report["finalized"]
    assert report["justified"] == [
        {"block": "genesis", "c": 0, "p": 0},
        {"block": "genesis", "c": 1, "p": 0},
        {"block": "b1", "c": 1, "p": 1},
    ]

    bad = dict(FINALIZING_SCENARIO, votes=[
        {"validator": 0, "source": {"block": "nope", "c": 0}, "target": {"block": "b1", "c": 1}}
    ])
    assert main(["check", _write(tmp_path, bad, "bad.json")]) == 2

    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert main(["check", str(broken)]) == 2
    assert main(["check", str(tmp_path / "missing.json")]) == 2


def test_cmd_check_empty_votes(tmp_path, capsys):
    doc = {"n_validators": 4, "blocks": [], "votes": []}
    assert main(["check", _write(tmp_path, doc)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["holds"] and not report["disagreement"]


def test_cmd_search_and_replay(tmp_path, capsys):
    args = [
        "search", "--blocks", "2", "--validators", "4", "--max-votes", "12",
        "--max-ffg", "4", "--max-chkp-slot", "3",
    ]
    out = str(tmp_path / "report.json")
    assert main(args + ["--out", out]) == 0
    report = json.loads(open(out).read())
    assert report["verdict"] == "holds-exhaustively"
    assert report["counterexample"] is None
    assert report["counters"]["states_checked"] > 0

    assert main(args + ["--mutation", "quorum-half", "--out", out]) == 1
    report = json.loads(open(out).read())
    assert report["verdict"] == "counterexample-found"
    cex = report["counterexample"]
    assert cex["holds"] is False and cex["disagreement"] is True

    # the emitted counterexample replays through check to the same violation
    cex_path = _write(tmp_path, cex["scenario"], "cex.json")
    assert main(["check", cex_path, "--mutation", "quorum-half"]) == 1
    replay = json.loads(capsys.readouterr().out)
    assert replay["holds"] is False
    assert replay["slashable"] == cex["slashable"]
    # and is safe without the mutation
    assert main(["check", cex_path]) == 0


def test_cmd_search_budget_and_flag_errors(tmp_path):
    out = str(tmp_path / "r.json")
    assert main([
        "search", "--blocks", "2", "--validators", "4", "--max-votes", "6",
        "--max-ffg", "4", "--budget", "50", "--out", out,
    ]) == 3
    assert json.loads(open(out).read())["verdict"] == "inconclusive"
    assert main(["search", "--blocks", "-2", "--validators", "4", "--max-votes", "3"]) == 2
    assert main(["search", "--validators", "4", "--max-votes", "3"]) == 2  # --blocks missing
    assert main([
        "search", "--blocks", "1", "--validators", "4", "--max-votes", "3",
        "--mutation", "grue",
    ]) == 2


def test_cmd_search_rejects_negative_checkpoint_slot(capsys):
    assert main(["search", "--blocks", "1", "--max-chkp-slot", "-1"]) == 2
    assert "max_chkp_slot" in capsys.readouterr().err


# every non-genesis block needs a slot of at least 1, so free slot mode with
# --max-slot 0 has no unit: a refusal, never a verdict on an empty space
FREE_SLOT_ZERO = ["--blocks", "1", "--validators", "2", "--max-votes", "2",
                  "--slot-mode", "free", "--max-slot", "0"]


def test_cmd_search_rejects_free_slots_below_one(capsys):
    assert main(["search", *FREE_SLOT_ZERO]) == 2
    assert "max_slot" in capsys.readouterr().err


def test_cmd_example_rejects_free_slots_below_one(capsys):
    assert main(["example", *FREE_SLOT_ZERO, "--property", "justified-nongenesis"]) == 2
    assert "max_slot" in capsys.readouterr().err


def test_cmd_search_rejects_zero_jobs(capsys):
    assert main(["search", "--blocks", "1", "--jobs", "0"]) == 2
    assert "jobs" in capsys.readouterr().err


def test_cmd_search_rejects_negative_budget(capsys):
    assert main(["search", "--blocks", "1", "--budget", "-5"]) == 2
    assert "budget" in capsys.readouterr().err


# --- size limits: the plan ends at the first level over one -----------------

SIZE_LIMITS = [
    # (extra flags, patched limit, message).  u=3 at N=34 is estimated at
    # ~22.5 M rows, and with 24 votes it has 1,243 rows under the signer
    # floor of 23; the other limits are lowered to fail at u=4 of the first
    # unit, the fork, whose levels below 4 the monotone bound drops whole
    (["--validators", "34", "--max-votes", "24"], None, "state table"),
    ([], ("MAX_STATE_ROWS", 1000), "state table"),
    ([], ("MAX_FAMILY_KEY_BYTES", 1 << 12), "quorum families"),
    ([], ("MAX_VOTE_BITS", 3), "distinct votes exceed"),
    (["--max-chkp-slot", "40"], None, "checkpoint universe"),
]


@pytest.mark.parametrize("flags,limit,message", SIZE_LIMITS,
                         ids=["rows", "rows-scanned", "family-keys", "vote-bits",
                              "checkpoint-bits"])
def test_size_limits_refuse_before_any_scan(monkeypatch, capsys, flags, limit, message):
    def refuse(*args, **kwargs):
        raise AssertionError("rows were scanned before the refusal")

    monkeypatch.setattr(enumerator, "scan_states", refuse)
    if limit:
        monkeypatch.setattr(tables, *limit)
    assert main([
        "search", "--blocks", "2", "--validators", "4", "--max-votes", "12",
        "--max-ffg", "4", "--max-chkp-slot", "3", *flags,
    ]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


@pytest.mark.parametrize("argv,code", [
    (["search", "--mutation", "quorum-half"], 1),        # hit at u=4
    (["search", "--budget", "1000", "--jobs", "2"], 3),  # budget cut at u=4
    (["example", "--property", "justified-nongenesis"], 0),  # example at u=1
])
def test_a_run_that_ends_before_an_oversized_level_is_not_refused(capsys, argv, code):
    # u=8 at N=4 is over the row limit, but these runs end in the fork unit
    # at a smaller u: their reports equal those of bounds that stop at u=7
    base = ["--blocks", "2", "--validators", "4", "--max-votes", "24",
            "--max-chkp-slot", "3"]
    reports = []
    for max_ffg in ("8", "7"):
        assert main(argv + base + ["--max-ffg", max_ffg]) == code
        report = json.loads(capsys.readouterr().out)
        report.pop("wall_time_s", None)
        report.get("bounds", {}).pop("max_ffg_votes", None)
        reports.append(report)
    assert reports[0] == reports[1]


def test_size_limits_count_rows_before_refusing(monkeypatch, capsys):
    # the family keys are sized on the exact row count: the rows of u=4 at
    # N=4 left after the signer floor fit the limit exactly, so the run goes on
    argv = ["search", "--blocks", "2", "--validators", "4", "--max-votes", "12",
            "--max-ffg", "4", "--max-chkp-slot", "3"]
    assert main(argv) == 0
    expected = json.loads(capsys.readouterr().out)["counters"]
    rows = tables.state_table(4, 4, 12, 3, Mutation.NONE)[0].shape[0]
    assert rows < 3876   # multisets of 4 subsets of 4 votes, the size estimate
    monkeypatch.setattr(tables, "MAX_FAMILY_KEY_BYTES", rows * 8)
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["counters"] == expected


def test_a_vacuous_class_is_counted_at_any_size(monkeypatch, capsys):
    # one block forks nothing: u=8 at N=4 is far over the row limit, but a
    # vacuous class is counted by arithmetic, never scanned, so nothing is
    # refused and no row table is built
    monkeypatch.setattr(enumerator, "state_table", None)
    assert main([
        "search", "--blocks", "1", "--validators", "4", "--max-votes", "24",
        "--max-ffg", "8", "--max-chkp-slot", "3",
    ]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "holds-exhaustively"
    assert report["counters"]["states_checked"] == 0
    assert report["counters"]["states_pruned"] == 59_767_584_684


@pytest.mark.parametrize("flags,graphs,pruned", [
    # 5 of 7 validators must sign, but 4 votes are allowed: every class
    # scanned before, checking nothing
    (["--blocks", "3", "--validators", "7", "--max-votes", "4",
      "--max-chkp-slot", "4"], 16, 34_967_033),
    # 23 of 34 validators must sign in 12 votes: refused before at u=3,
    # whose multisets are over the row limit although it has no row
    (["--blocks", "2", "--validators", "34", "--max-votes", "12",
      "--max-chkp-slot", "3"], 3, 494_478_630),
])
def test_a_class_empty_under_the_signer_floor_is_counted(monkeypatch, capsys, flags, graphs, pruned):
    # settled like a vacuous class: no combination is bounded, no table built
    for name in ("_kept_combinations", "state_table", "scan_states"):
        monkeypatch.setattr(enumerator, name, None)
    assert main(["search", "--max-ffg", "4", *flags]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "holds-exhaustively"
    assert report["counters"] == {
        "graphs_checked": graphs, "states_bounded": 0, "states_checked": 0,
        "states_pruned": pruned, "states_symmetric": 0,
    }


def test_cmd_example_rejects_negative_budget(capsys):
    assert main([
        "example", "--blocks", "1", "--property", "justified-nongenesis", "--budget", "-5",
    ]) == 2
    assert "budget" in capsys.readouterr().err


def test_cmd_emit_smt_rejects_zero_checkpoints(capsys):
    assert main(["emit-smt", "--blocks", "1", "--smt-checkpoints", "0"]) == 2
    assert "n_checkpoints" in capsys.readouterr().err


def test_cmd_search_reports_bounded_rows(tmp_path):
    out = str(tmp_path / "r.json")
    assert main([
        "search", "--blocks", "2", "--validators", "4", "--max-votes", "6",
        "--max-ffg", "4", "--jobs", "2", "--out", out,
    ]) == 0
    counters = json.loads(open(out).read())["counters"]
    assert 0 < counters["states_bounded"] <= counters["states_pruned"]
    assert counters["states_checked"] > 0
    assert 0 <= counters["states_symmetric"] <= counters["states_checked"]


def test_cmd_search_graph_vacuity(tmp_path):
    out = str(tmp_path / "r.json")
    assert main([
        "search", "--graph", "single-chain", "--validators", "4",
        "--max-votes", "12", "--max-ffg", "4", "--max-chkp-slot", "3", "--out", out,
    ]) == 0
    report = json.loads(open(out).read())
    assert report["verdict"] == "holds-exhaustively"
    assert report["counters"]["states_checked"] == 0
    assert report["counters"]["states_pruned"] > 0


def _refuse(*args, **kwargs):
    raise AssertionError("work started before the bounds were checked")


@pytest.mark.parametrize("argv,work", [
    (["search"], "search"),
    (["example", "--property", "justified-nongenesis"], "find_example"),
])
def test_a_catalog_graph_with_blocks_is_refused_before_any_work(monkeypatch, capsys, argv, work):
    # a catalog graph fixes its own blocks, so --blocks beside --graph
    # contradicts it instead of being ignored
    monkeypatch.setattr(cli, work, _refuse)
    assert main([*argv, "--graph", "m3", "--blocks", "3"]) == 2
    err = capsys.readouterr().err
    assert "n_blocks" in err and "Traceback" not in err
    with pytest.raises(InputError):
        enumerator.Bounds(n_blocks=3, n_validators=1, max_votes=2, graph_filter="m3")


@pytest.mark.parametrize("command", ["emit-smt", "solve"])
def test_smt_commands_refuse_a_catalog_graph(monkeypatch, capsys, command):
    # an SMT instance encodes every forest of --blocks blocks; with --graph
    # it used to encode a 0-block instance without a word
    monkeypatch.setattr(cli, "emit_smt", _refuse)
    monkeypatch.setattr(cli, "run_solver", _refuse)
    for flags in (["--graph", "m3"], ["--graph", "m3", "--blocks", "2"]):
        assert main([command, *flags]) == 2
        err = capsys.readouterr().err
        assert "--graph" in err and "Traceback" not in err


def test_cmd_example(tmp_path, capsys):
    assert main([
        "example", "--blocks", "1", "--validators", "4", "--max-votes", "6",
        "--property", "finalized-nongenesis",
    ]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["found"] is True
    nongenesis = [c for c in report["finalized"] if c != {"block": "genesis", "c": 0, "p": 0}]
    assert nongenesis

    assert main([
        "example", "--blocks", "1", "--validators", "4", "--max-votes", "2",
        "--property", "justified-nongenesis",
    ]) == 1
    assert json.loads(capsys.readouterr().out)["found"] is False

    assert main([
        "example", "--blocks", "2", "--validators", "4", "--max-votes", "12",
        "--max-ffg", "4", "--max-chkp-slot", "3", "--property", "conflicting-finalized",
    ]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["disagreement"] is True
    assert 3 * len(report["slashable"]) >= 4


def test_cmd_emit_smt_and_solve(tmp_path, capsys):
    out = str(tmp_path / "inst.smt2")
    args = [
        "emit-smt", "--blocks", "2", "--validators", "4", "--max-votes", "12",
        "--max-ffg", "4", "--max-chkp-slot", "3", "--out", out,
    ]
    assert main(args) == 0
    first = open(out).read()
    assert main(args) == 0
    assert open(out).read() == first  # deterministic emission

    stub = tmp_path / "solver.sh"
    stub.write_text("#!/bin/sh\necho unsat\n")
    stub.chmod(0o755)
    solve = [
        "solve", "--blocks", "2", "--validators", "4", "--max-votes", "12",
        "--max-ffg", "4", "--max-chkp-slot", "3",
    ]
    assert main(solve + ["--solver-cmd", str(stub)]) == 0
    assert json.loads(capsys.readouterr().out)["status"] == "unsat"
    assert main(solve + ["--solver-cmd", "/missing/solver"]) == 3
    assert json.loads(capsys.readouterr().out)["status"] == "solver-absent"

    sat_stub = tmp_path / "sat.sh"
    sat_stub.write_text("#!/bin/sh\necho sat\n")
    sat_stub.chmod(0o755)
    assert main(solve + ["--solver-cmd", str(sat_stub)]) == 1


@pytest.mark.parametrize("timeout", ["0", "-1", "nan", "inf"])
def test_solve_refuses_a_bad_timeout_before_any_work(monkeypatch, capsys, timeout):
    def refuse(*args, **kwargs):
        raise AssertionError("an instance was written before --timeout was checked")

    monkeypatch.setattr(cli, "emit_smt", refuse)
    monkeypatch.setattr(cli, "run_solver", refuse)
    assert main(["solve", "--blocks", "1", "--solver-cmd", "sleep 5",
                 "--timeout", timeout]) == 2
    err = capsys.readouterr().err
    assert "--timeout" in err and "Traceback" not in err


@pytest.mark.parametrize("argv,code", [
    (["search", "--blocks", "1", "--validators", "2", "--max-votes", "2"], 0),
    (["search", "--blocks", "2", "--validators", "2", "--max-votes", "8", "--max-ffg", "4",
      "--max-chkp-slot", "3", "--mutation", "quorum-half"], 1),
    (["emit-smt", "--blocks", "1"], 0),
])
def test_a_closed_stdout_keeps_the_exit_code(argv, code):
    # the reader closes the pipe before the child writes its report, as
    # `| head -1` may: the report is lost, the command's exit code stands
    read, write = os.pipe()
    os.close(read)
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    try:
        child = subprocess.run([sys.executable, "-m", "ffgmc.cli", *argv], stdout=write,
                               stderr=subprocess.PIPE, text=True, env=env, timeout=300)
    finally:
        os.close(write)
    assert child.returncode == code, child.stderr
    assert "Traceback" not in child.stderr and "internal failure" not in child.stderr


def test_cmd_forests(capsys):
    assert main(["forests", "--n", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["count"] == 1
    assert main(["forests", "--n", "3"]) == 0
    assert json.loads(capsys.readouterr().out)["count"] == 16
    assert main(["forests", "--n", "4", "--list"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["count"] == 125 and len(report["forests"]) == 125


def test_a_forest_listing_short_of_the_count_exits_internal(monkeypatch, capsys):
    # a listing that disagrees with the forest count is an internal failure
    # (exit 4) with no listing written, under `python -O` too
    monkeypatch.setattr(cli, "enumerate_forests", lambda n: iter([]))
    assert main(["forests", "--n", "2", "--list"]) == 4
    out, err = capsys.readouterr()
    assert out == "" and "listed 0 forests on 2 blocks, not 3" in err


@pytest.mark.parametrize("argv,work", [
    (["forests", "--n", "1"], "forest_count"),
    (["search", "--blocks", "1", "--validators", "2", "--max-votes", "2"], "search"),
])
def test_unwritable_out_exits_before_any_work(monkeypatch, tmp_path, capsys, argv, work):
    def refuse(*args, **kwargs):
        raise AssertionError("work started before --out was checked")

    monkeypatch.setattr(cli, work, refuse)
    for out in (tmp_path / "missing" / "x.json", tmp_path):
        assert main(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "--out" in err and "Traceback" not in err


def test_replay_mismatch_exits_internal(monkeypatch, capsys):
    # a kernel hit that the reference semantics does not confirm is an
    # internal failure, never the counterexample verdict (exit 1)
    from ffgmc import enumerator

    monkeypatch.setattr(
        enumerator, "accountable_safety", lambda state, mutation: SimpleNamespace(holds=True)
    )
    assert main([
        "search", "--blocks", "2", "--validators", "2", "--max-votes", "8",
        "--max-ffg", "4", "--max-chkp-slot", "3", "--mutation", "quorum-half",
    ]) == 4
    assert "does not replay" in capsys.readouterr().err


@pytest.mark.parametrize("prop", sorted(enumerator.PROPERTY_MODES))
def test_example_replay_mismatch_exits_internal(monkeypatch, capsys, prop):
    # an example the reference finality view does not confirm is an internal
    # failure, never a found example (exit 0)
    nothing = SimpleNamespace(
        justified=frozenset(), finalized=frozenset(), finalized_blocks=frozenset()
    )
    monkeypatch.setattr(enumerator, "finality_view", lambda state: nothing)
    assert main([
        "example", "--blocks", "2", "--validators", "2", "--max-votes", "8",
        "--max-ffg", "4", "--max-chkp-slot", "3", "--property", prop,
    ]) == 4
    assert "does not replay" in capsys.readouterr().err


def test_tables_out_of_slot_order_are_an_internal_error(monkeypatch, capsys):
    # a planted fault: the fork's last vote also sandwiches its own source,
    # which no valid vote can.  The order check refuses the fork's tables in
    # the fixpoint comparison, in a search at one or two jobs and in the CLI
    bounds = enumerator.Bounds(n_blocks=2, n_validators=2, max_votes=4)
    fork = next(enumerator.iter_units(bounds))
    victim = enumerator._graph_tables(bounds, fork, Mutation.NONE).votes[-1]
    supports = tables.supports
    monkeypatch.setattr(
        tables, "supports",
        lambda forest, vote, cp, mutation: supports(forest, vote, cp, mutation)
        or (vote == victim and cp == vote.source),
    )
    with pytest.raises(RuntimeError, match="slot order"):
        enumerator.check_lfp_gfp(bounds)
    for jobs in (1, 2):
        with pytest.raises(RuntimeError, match="slot order"):
            enumerator.search(bounds, jobs=jobs)
    assert main(["search", "--blocks", "2", "--validators", "2", "--max-votes", "4"]) == 4
    assert "slot order" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["search"], ["example", "--property", "justified-nongenesis"]])
def test_smt_checkpoints_is_refused_outside_the_smt_commands(capsys, command):
    with pytest.raises(SystemExit) as exit_info:
        main([*command, "--blocks", "1", "--smt-checkpoints", "3"])
    assert exit_info.value.code == 2
    assert "--smt-checkpoints" in capsys.readouterr().err


def test_unknown_mutation_exits_input_error(tmp_path, capsys):
    path = _write(tmp_path, FINALIZING_SCENARIO)
    assert main(["check", path, "--mutation", "grue"]) == 2
    assert main(["emit-smt", "--blocks", "1", "--mutation", "quorum-half,grue"]) == 2
    err = capsys.readouterr().err
    assert err.count("unknown mutation") == 2 and "Traceback" not in err
