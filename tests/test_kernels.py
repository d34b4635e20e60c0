"""Kernel backends against the pure reference semantics.

The strongest check here walks every (combination, row) of a small bounded
space in kernel scan order, evaluates the pure reference path on the
materialized state, and requires the kernel's first-hit index to equal the
reference's for every scan mode, on both backends.
"""

import itertools
from math import comb

import numpy as np
import pytest

from ffgmc.enumerator import Bounds, materialize_state
from ffgmc.finality import (
    default_universe,
    finality_view,
    justified_checkpoints,
    justified_checkpoints_gfp,
)
from ffgmc.kernels import (
    HAVE_NUMBA,
    MODE_CONFLICTING_FINALIZED,
    MODE_COUNTEREXAMPLE,
    MODE_FINALIZED_NONGENESIS,
    MODE_JUSTIFIED_NONGENESIS,
    MODE_LFP_NE_GFP,
    backend_name,
    bound_combinations,
    scan_states,
)
from ffgmc.catalog import catalog_forest
from ffgmc.model import GENESIS, GENESIS_CHECKPOINT, Block, BlockForest
from ffgmc.mutation import Mutation
from ffgmc.slashing import accountable_safety, disagreement
from ffgmc.tables import build_graph_tables, project_tables, state_table

BACKENDS = ["numpy"] + (["numba"] if HAVE_NUMBA else [])

ALL_MODES = (
    MODE_COUNTEREXAMPLE,
    MODE_FINALIZED_NONGENESIS,
    MODE_JUSTIFIED_NONGENESIS,
    MODE_CONFLICTING_FINALIZED,
    MODE_LFP_NE_GFP,
)


def reference_flags(state, mutation=Mutation.NONE):
    view = finality_view(state, mutation=mutation)
    safety = accountable_safety(state, mutation)
    universe = default_universe(state)
    lfp = justified_checkpoints(state, universe, mutation)
    gfp = justified_checkpoints_gfp(state, universe, mutation)
    return {
        MODE_COUNTEREXAMPLE: not safety.holds,
        MODE_FINALIZED_NONGENESIS: bool(view.finalized - {GENESIS_CHECKPOINT}),
        MODE_JUSTIFIED_NONGENESIS: bool(view.justified - {GENESIS_CHECKPOINT}),
        MODE_CONFLICTING_FINALIZED: disagreement(state, view),
        MODE_LFP_NE_GFP: lfp != gfp,
    }


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize(
    "mutation",
    [Mutation.NONE, Mutation.QUORUM_HALF, Mutation.DROP_ANCESTRY,
     Mutation.DISABLE_E1 | Mutation.DISABLE_E2],
    ids=lambda m: m.label(),
)
def test_kernel_first_hits_match_reference(backend, mutation):
    bounds = Bounds(
        n_blocks=2, n_validators=3, max_votes=4, max_ffg_votes=2, max_chkp_slot=2,
        slot_rule="nonstrict",
    )
    forest = BlockForest([Block("b1", 1, GENESIS), Block("b2", 1, GENESIS)])
    tables = build_graph_tables(forest, bounds.slot_rule, bounds.max_chkp_slot)
    quorum_half = Mutation.QUORUM_HALF in mutation
    checked_states = 0
    for u in range(0, 3):
        rows, _, _ = state_table(u, bounds.n_validators, bounds.max_votes, 0)
        for combo in itertools.combinations(range(len(tables.votes)), u):
            projected = project_tables(tables, combo, mutation)
            expected = {mode: -1 for mode in ALL_MODES}
            for row_idx in range(rows.shape[0]):
                state = materialize_state(
                    bounds, tables, combo, tuple(int(x) for x in rows[row_idx])
                )
                flags = reference_flags(state, mutation)
                for mode in ALL_MODES:
                    if flags[mode] and expected[mode] == -1:
                        expected[mode] = row_idx
                checked_states += 1
            for mode in ALL_MODES:
                hit, scanned = scan_states(
                    rows, projected, bounds.n_validators, mode, quorum_half, backend
                )
                assert hit == expected[mode], (mode, combo)
                want = rows.shape[0] if expected[mode] == -1 else expected[mode] + 1
                assert scanned == want
    assert checked_states > 400


@pytest.mark.skipif(not HAVE_NUMBA, reason="numba unavailable")
def test_backends_agree_on_larger_space():
    bounds = Bounds(n_blocks=2, n_validators=4, max_votes=8, max_ffg_votes=3)
    forest = BlockForest([Block("b1", 1, GENESIS), Block("b2", 1, GENESIS)])
    tables = build_graph_tables(forest, bounds.slot_rule, bounds.max_chkp_slot)
    for u in range(0, 4):
        rows, _, _ = state_table(u, 4, 8, 0)
        for combo in itertools.islice(
            itertools.combinations(range(len(tables.votes)), u), 25
        ):
            projected = project_tables(tables, combo, Mutation.NONE)
            for mode in ALL_MODES:
                got_nb = scan_states(rows, projected, 4, mode, False, "numba")
                got_np = scan_states(rows, projected, 4, mode, False, "numpy")
                assert got_nb == got_np


def test_backend_selection(monkeypatch):
    monkeypatch.setenv("FFGMC_KERNEL", "numpy")
    assert backend_name() == "numpy"
    monkeypatch.setenv("FFGMC_KERNEL", "auto")
    assert backend_name() == ("numba" if HAVE_NUMBA else "numpy")
    monkeypatch.setenv("FFGMC_KERNEL", "bogus")
    with pytest.raises(ValueError):
        backend_name()


def test_empty_scan():
    forest = BlockForest([Block("b1", 1, GENESIS)])
    tables = build_graph_tables(forest, "strict", 2)
    projected = project_tables(tables, (), Mutation.NONE)
    rows = np.zeros((0, 3), dtype=np.int64)
    assert scan_states(rows, projected, 3, MODE_COUNTEREXAMPLE, False) == (-1, 0)


BOUNDED_MODES = (
    MODE_COUNTEREXAMPLE,
    MODE_FINALIZED_NONGENESIS,
    MODE_JUSTIFIED_NONGENESIS,
    MODE_CONFLICTING_FINALIZED,
)


@pytest.mark.parametrize(
    "mutation",
    [Mutation.NONE, Mutation.QUORUM_HALF, Mutation.DROP_ANCESTRY],
    ids=lambda m: m.label(),
)
@pytest.mark.parametrize(
    "graph,slot_rule,max_chkp_slot,n_validators,max_u",
    [
        ("fork", "nonstrict", 2, 2, 4),
        ("chain", "strict", 3, 3, 3),
        ("catalog-forest", "nonstrict", 2, 1, 2),
    ],
)
def test_bound_matches_unanimity_state(
    mutation, graph, slot_rule, max_chkp_slot, n_validators, max_u
):
    # for every combination, the batched bound equals the reference semantics
    # and a one-row scan on the state where every validator casts every vote
    forests = {
        "fork": BlockForest([Block("b1", 1, GENESIS), Block("b2", 1, GENESIS)]),
        "chain": BlockForest([Block("b1", 1, GENESIS), Block("b2", 2, "b1")]),
        "catalog-forest": catalog_forest("forest"),
    }
    bounds = Bounds(
        n_blocks=2, n_validators=n_validators, max_votes=16, max_chkp_slot=max_chkp_slot,
        slot_rule=slot_rule,
    )
    tables = build_graph_tables(forests[graph], bounds.slot_rule, bounds.max_chkp_slot)
    drop = Mutation.DROP_ANCESTRY in mutation
    kept = {mode: 0 for mode in BOUNDED_MODES}
    for u in range(max_u + 1):
        m = len(tables.votes)
        combos = np.array(
            list(itertools.combinations(range(m), u)), dtype=np.int64
        ).reshape(comb(m, u), u)
        keep = {mode: bound_combinations(tables, combos, mode, drop) for mode in BOUNDED_MODES}
        row = np.full((1, n_validators), (1 << u) - 1, dtype=np.int64)
        for i, combo in enumerate(combos):
            combo = tuple(int(x) for x in combo)
            state = materialize_state(bounds, tables, combo, tuple(int(x) for x in row[0]))
            view = finality_view(state, mutation=mutation)
            conflicting = disagreement(state, view)
            reference = {
                MODE_COUNTEREXAMPLE: conflicting,
                MODE_FINALIZED_NONGENESIS: bool(view.finalized - {GENESIS_CHECKPOINT}),
                MODE_JUSTIFIED_NONGENESIS: bool(view.justified - {GENESIS_CHECKPOINT}),
                MODE_CONFLICTING_FINALIZED: conflicting,
            }
            projected = project_tables(tables, combo, mutation)
            quorum_half = Mutation.QUORUM_HALF in mutation
            for mode in BOUNDED_MODES:
                assert keep[mode][i] == reference[mode], (mode, combo)
                scan_mode = MODE_CONFLICTING_FINALIZED if mode == MODE_COUNTEREXAMPLE else mode
                hit, _ = scan_states(row, projected, n_validators, scan_mode, quorum_half)
                assert keep[mode][i] == (hit == 0), (mode, combo)
                kept[mode] += bool(keep[mode][i])
    assert kept[MODE_FINALIZED_NONGENESIS] > 0
    if graph == "fork":
        assert kept[MODE_CONFLICTING_FINALIZED] > 0


def test_bound_refuses_the_fixpoint_comparison():
    forest = BlockForest([Block("b1", 1, GENESIS)])
    tables = build_graph_tables(forest, "strict", 2)
    with pytest.raises(ValueError):
        bound_combinations(tables, np.zeros((1, 0), dtype=np.int64), MODE_LFP_NE_GFP, False)
