"""SMT-LIB emission and the external solver driver."""

import os
import stat

import pytest

from ffgmc.enumerator import Bounds
from ffgmc.model import InputError
from ffgmc.mutation import Mutation
from ffgmc.smt import (
    QUERY_FINALIZED_NONGENESIS,
    QUERY_NO_ACCOUNTABLE_SAFETY,
    SAT,
    SOLVER_ABSENT,
    UNKNOWN,
    UNSAT,
    default_checkpoint_atoms,
    emit_smt,
    run_solver,
)

TABLE4_BOUNDS = Bounds(
    n_blocks=2, n_validators=4, max_votes=12, max_ffg_votes=4, max_chkp_slot=3
)


def test_emission_deterministic():
    a = emit_smt(TABLE4_BOUNDS)
    b = emit_smt(TABLE4_BOUNDS)
    assert a.text == b.text
    assert a.query == QUERY_NO_ACCOUNTABLE_SAFETY


def test_skeleton_for_three_five_four():
    # 3 hashes, 5 checkpoints, 4 nodes is the canonical small instance shape
    text = emit_smt(TABLE4_BOUNDS).text
    assert default_checkpoint_atoms(TABLE4_BOUNDS) == 5
    assert "(declare-datatype Hash ((Hash1) (Hash2) (Hash3)))" in text
    assert "(declare-datatype Checkpoint ((C1) (C2) (C3) (C4) (C5)))" in text
    assert "(declare-datatype Node ((Alice) (Bob) (Charlie) (David)))" in text
    assert (
        "(declare-datatype Vote ((Vote (source Checkpoint) (target Checkpoint) (sender Node))))"
        in text
    )
    assert "(assert (= (slot genesis) 0))" in text
    assert "(> (slot h) (slot (parent_of h)))" in text
    assert "(* 3 (set.card" in text and "(* 2 N)" in text
    assert "(< (* 3 (set.card slashable_nodes)) N)" in text
    assert text.count("(check-sat)") == 1
    assert "justified_checkpoints" in text and "finalized_blocks" in text


def test_query_forms():
    safety = emit_smt(TABLE4_BOUNDS, QUERY_NO_ACCOUNTABLE_SAFETY).text
    assert "conflicting_blocks" in safety and "slashable_nodes" in safety
    finalized = emit_smt(TABLE4_BOUNDS, QUERY_FINALIZED_NONGENESIS).text
    assert "(set.singleton genesis_checkpoint)" in finalized
    with pytest.raises(InputError):
        emit_smt(TABLE4_BOUNDS, "halting-problem")


def test_checkpoint_atom_override():
    bounds = Bounds(n_blocks=2, n_validators=4, max_votes=12, max_ffg_votes=4)
    text = emit_smt(bounds, n_checkpoints=7).text
    assert "(C1) (C2) (C3) (C4) (C5) (C6) (C7)" in text
    with pytest.raises(InputError, match="n_checkpoints"):
        emit_smt(bounds, n_checkpoints=0)


def test_node_naming_scales():
    bounds = Bounds(n_blocks=1, n_validators=5, max_votes=3)
    text = emit_smt(bounds).text
    assert "(Node1) (Node2) (Node3) (Node4) (Node5)" in text


def test_slot_rule_mirrors_enumerator():
    strict = emit_smt(TABLE4_BOUNDS).text
    loose = emit_smt(
        Bounds(
            n_blocks=2, n_validators=4, max_votes=12, max_ffg_votes=4,
            max_chkp_slot=3, slot_rule="nonstrict",
        )
    ).text
    assert "(> (checkpoint_slot c) (slot (checkpoint_block c)))" in strict
    assert "(>= (checkpoint_slot c) (slot (checkpoint_block c)))" in loose


def test_mutated_emission():
    half = emit_smt(TABLE4_BOUNDS, mutation=Mutation.QUORUM_HALF).text
    assert half.count("(>= (* 2 (set.card") == 2
    assert "(>= (* 3 (set.card" not in half
    # the accountability threshold itself is not a quorum and stays at n/3
    assert "(< (* 3 (set.card slashable_nodes)) N)" in half
    ancestry_conjunct = "(tuple (checkpoint_block (source vote)) (checkpoint_block c))"
    dropped = emit_smt(TABLE4_BOUNDS, mutation=Mutation.DROP_ANCESTRY).text
    assert ancestry_conjunct not in dropped
    plain = emit_smt(TABLE4_BOUNDS).text
    assert ancestry_conjunct in plain
    no_slash = emit_smt(
        TABLE4_BOUNDS, mutation=Mutation.DISABLE_E1 | Mutation.DISABLE_E2
    ).text
    assert "false))\n  node)))" in no_slash


def test_emission_guards():
    with pytest.raises(InputError, match="guard"):
        emit_smt(Bounds(n_blocks=60, n_validators=4, max_votes=3))
    with pytest.raises(InputError):
        Bounds(n_blocks=2, n_validators=0, max_votes=3)  # degenerate node count


def _stub_solver(tmp_path, name, script):
    path = tmp_path / name
    path.write_text("#!/bin/sh\n" + script)
    path.chmod(path.stat().st_mode | stat.S_IEXEC)
    return str(path)


def test_run_solver_parses_status(tmp_path):
    instance = emit_smt(TABLE4_BOUNDS)
    unsat = _stub_solver(tmp_path, "unsat.sh", 'echo unsat\n')
    assert run_solver(instance, unsat).status == UNSAT
    sat = _stub_solver(tmp_path, "sat.sh", 'echo sat\necho "(model (define-fun x () Int 1))"\n')
    result = run_solver(instance, sat)
    assert result.status == SAT
    assert "define-fun" in result.model
    noise = _stub_solver(tmp_path, "noisy.sh", 'echo "c preamble"\necho unsat\n')
    assert run_solver(instance, noise).status == UNSAT
    garbage = _stub_solver(tmp_path, "garbage.sh", 'echo "segfault"\nexit 7\n')
    assert run_solver(instance, garbage).status == UNKNOWN


def test_run_solver_receives_instance_file(tmp_path):
    instance = emit_smt(TABLE4_BOUNDS)
    echoer = _stub_solver(
        tmp_path, "echoer.sh", 'grep -q "check-sat" "$1" && echo unsat || echo sat\n'
    )
    assert run_solver(instance, echoer).status == UNSAT
    templated = _stub_solver(
        tmp_path, "templated.sh", 'grep -q "declare-datatype Hash" "$1" && echo unsat || echo sat\n'
    )
    assert run_solver(instance, templated + " {file}").status == UNSAT


def test_run_solver_absent_and_timeout(tmp_path, monkeypatch):
    instance = emit_smt(TABLE4_BOUNDS)
    assert run_solver(instance, "/nonexistent/solver-binary").status == SOLVER_ABSENT
    monkeypatch.delenv("FFGMC_SOLVER", raising=False)
    assert run_solver(instance, None).status == SOLVER_ABSENT
    sleeper = _stub_solver(tmp_path, "sleeper.sh", "sleep 5\necho unsat\n")
    assert run_solver(instance, sleeper, timeout=0.2).status == UNKNOWN


def test_run_solver_env_default(tmp_path, monkeypatch):
    instance = emit_smt(TABLE4_BOUNDS)
    stub = _stub_solver(tmp_path, "envsolver.sh", "echo unsat\n")
    monkeypatch.setenv("FFGMC_SOLVER", stub)
    assert run_solver(instance).status == UNSAT
