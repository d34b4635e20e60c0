"""The scan plan: task ranges, helper processes and the in-order fold."""

import itertools
import multiprocessing
import os
from dataclasses import replace
from math import comb

import numpy as np
import pytest

from ffgmc import enumerator, tables
from ffgmc.cli import main
from ffgmc.enumerator import (
    PROPERTY_MODES,
    Bounds,
    SearchBudgetExceeded,
    VERDICT_COUNTEREXAMPLE,
    VERDICT_HOLDS,
    VERDICT_INCONCLUSIVE,
    check_lfp_gfp,
    find_example,
    iter_units,
    search,
)
from ffgmc.finality import finality_view
from ffgmc.model import GENESIS_CHECKPOINT, are_conflicting
from ffgmc.mutation import Mutation, parse_mutation
from ffgmc.slashing import disagreement
from ffgmc.symmetry import unit_key
from parity import BOUNDS as PARITY_BOUNDS
from reference import enumerate_states

# the falsify-c3 benchmark workload: criterion-3 bounds under quorum-half
C3 = Bounds(n_blocks=2, n_validators=4, max_votes=12, max_ffg_votes=4, max_chkp_slot=3)


def _small(**kw):
    base = dict(n_blocks=3, n_validators=1, max_votes=4, max_ffg_votes=4, max_chkp_slot=3)
    base.update(kw)
    return Bounds(**base)


def _report(bounds, mutation, budget=None, jobs=1):
    return replace(search(bounds, mutation, budget=budget, jobs=jobs), wall_time=0.0)


@pytest.fixture
def started(monkeypatch):
    """The helper processes started so far, one entry each."""
    starts = []
    start = enumerator._start_helper

    def counted(*args):
        starts.append(1)
        return start(*args)

    monkeypatch.setattr(enumerator, "_start_helper", counted)
    return starts


# --- combinations from a starting rank ---------------------------------------

def test_combinations_from_rank_match_itertools():
    # every m <= 12, every u and every start rank, to the end of the level
    for m in range(13):
        for u in range(m + 1):
            expected = np.array(list(itertools.combinations(range(m), u)), dtype=np.int64)
            expected = expected.reshape(comb(m, u), u)
            for start in range(comb(m, u) + 1):
                got = enumerator._combinations(m, u, start, comb(m, u) - start)
                assert got.shape == (comb(m, u) - start, u)
                assert np.array_equal(got, expected[start:]), (m, u, start)
            assert enumerator._combinations(m, u, 0, 1 if u <= m else 0).shape[1] == u


def test_combinations_of_a_level_beyond_int64():
    # ranks are int64, so the plan refuses a scanned level of more than 2**62
    # combinations like its other size limits, after the levels before it.
    # One block with checkpoint slots up to 12 has 210 votes, and C(210, 12)
    # is about 1e19
    bounds = Bounds(n_blocks=1, n_validators=1, max_votes=16, max_chkp_slot=12)
    plan = enumerator._plan(bounds, Mutation.NONE, enumerator.MODE_JUSTIFIED_NONGENESIS, 0)
    index, error = plan.refusal
    assert index == 0 and "rank limit" in str(error)
    assert len(plan.reps[0].tables.votes) == 210
    assert plan.levels[-1] == (0, 11)
    assert comb(210, 11) <= 1 << 62 < comb(210, 12)


# --- tasks over a class's levels ------------------------------------------------

def _refused_plan(monkeypatch):
    """A plan that ends at u=5 of its first unit, with 4-bit vote masks."""
    with monkeypatch.context() as patch:
        patch.setattr(tables, "MAX_VOTE_BITS", 4)
        bounds = _small(n_blocks=2, n_validators=2, max_votes=8, max_ffg_votes=6)
        return enumerator._plan(bounds, Mutation.NONE, enumerator.MODE_COUNTEREXAMPLE, 2)


@pytest.mark.parametrize("chunk", [1, 5, 50, 4096])
def test_tasks_tile_each_class_once_in_canonical_order(monkeypatch, chunk):
    # every scanned class's levels u = 0, 1, ... laid end to end, covered by
    # its own consecutive tasks of exactly `chunk` combinations (the last
    # one at most), each combination once and in canonical order
    monkeypatch.setattr(enumerator, "_BOUND_CHUNK", chunk)
    plans = [
        enumerator._plan(bounds, parse_mutation(name), enumerator.MODE_COUNTEREXAMPLE, 0)
        for name, bounds in TASK_CASES
    ]
    lfp = enumerator.MODE_LFP_NE_GFP
    plans.append(enumerator._plan(_small(n_blocks=2), Mutation.NONE, lfp, 0))
    plans.append(_refused_plan(monkeypatch))
    assert plans[-1].refusal is not None
    for plan in plans:
        assert sorted(plan.tasks) == sorted(plan.reps)
        next_task = 0
        for index in sorted(plan.tasks):
            tasks = plan.tasks[index]
            assert tasks.start == next_task
            next_task = tasks.stop
            n_votes = len(plan.reps[index].tables.votes)
            levels = [u for owner, u in plan.levels if owner == index]
            assert levels == list(range(len(levels)))
            expected = [(u, rank) for u in levels for rank in range(comb(n_votes, u))]
            got = []
            for i in tasks:
                unit, segments = plan.task(i)
                assert unit is plan.reps[index]
                sizes = [hi - lo for _, lo, hi in segments]
                assert min(sizes) > 0
                assert sum(sizes) == chunk if i < tasks.stop - 1 else 0 < sum(sizes) <= chunk
                got += [(u, rank) for u, lo, hi in segments for rank in range(lo, hi)]
            assert got == expected
        assert next_task == plan.n_tasks


def test_a_budget_cut_in_a_later_segment_of_a_task(monkeypatch, started):
    # with 600-combination tasks, task 1 holds the end of level 3 and the
    # start of level 4, both with rows to check; a budget that runs out in
    # level 4 must carry over from level 3 within the task's count, in the
    # calling process and with a helper, and cut where one-combination
    # tasks cut
    bounds = _small(n_blocks=2, n_validators=2, max_votes=8)
    mutation = parse_mutation("drop-ancestry")
    monkeypatch.setattr(enumerator, "_BOUND_CHUNK", 600)
    plan = enumerator._plan(bounds, mutation, enumerator.MODE_COUNTEREXAMPLE, 0)
    before = enumerator._scan_task(plan, *plan.task(0)).checked
    unit, segments = plan.task(1)
    assert [u for u, _, _ in segments] == [3, 4]
    first, second = (enumerator._scan_range(plan, unit, *s).checked for s in segments)
    assert first > 0 and second > 1
    budget = before + first + 1
    with monkeypatch.context() as patch:
        patch.setattr(enumerator, "_BOUND_CHUNK", 1)
        expected = _report(bounds, mutation, budget)
    assert expected.verdict == VERDICT_INCONCLUSIVE and expected.states_checked == budget
    assert _report(bounds, mutation, budget) == expected
    with monkeypatch.context() as patch:
        patch.setattr(enumerator, "_usable_cpus", lambda: 2)
        assert _report(bounds, mutation, budget, jobs=2) == expected
    assert started


@pytest.mark.usefixtures("two_cpus")
def test_falsify_c3_plans_one_task_and_forks_nothing(monkeypatch):
    # unit 0's 4,048 combinations (levels of 1, 18, 153, 816 and 3,060) fit
    # one task, so --jobs 2 starts no helper and reports as --jobs 1
    mutation = parse_mutation("quorum-half")
    plan = enumerator._plan(C3, mutation, enumerator.MODE_COUNTEREXAMPLE, 0)
    assert plan.n_tasks == 1
    assert plan.task(0)[1] == [(0, 0, 1), (1, 0, 18), (2, 0, 153), (3, 0, 816), (4, 0, 3060)]
    expected = _report(C3, mutation)
    assert expected.verdict == VERDICT_COUNTEREXAMPLE

    def refuse(*args):
        raise AssertionError("a one-task plan started a helper")

    monkeypatch.setattr(enumerator, "_start_helper", refuse)
    assert _report(C3, mutation, jobs=2) == expected


# --- vacuous classes -------------------------------------------------------------

def test_a_vacuous_class_builds_no_graph_tables(monkeypatch):
    # falsify-c3 has one conflicting class and the vacuous chain class; only
    # the conflicting one gets its graph tables built
    calls = []
    build = enumerator.build_graph_tables

    def counted(*args):
        calls.append(args[0])
        return build(*args)

    monkeypatch.setattr(enumerator, "build_graph_tables", counted)
    plan = enumerator._plan(C3, parse_mutation("quorum-half"), enumerator.MODE_COUNTEREXAMPLE, 0)
    assert len(calls) == 1 and list(plan.reps) == [0] and list(plan.vacuous) == [1]


@pytest.mark.parametrize("n_validators", [1, 2, 3, 4])
def test_row_count_matches_the_row_table(n_validators):
    # the arithmetic count of a vacuous unit's rows against `state_table`'s
    # total, which the signer floor does not change
    for u in range(6):
        for max_votes in range(14):
            want = tables.state_table(u, n_validators, max_votes, 0)[2]
            assert tables.state_count(u, n_validators, max_votes) == want, (u, max_votes)


def test_a_vacuous_unit_builds_no_row_table(monkeypatch):
    # one block forks nothing, so every row is counted and none is built
    bounds = Bounds(n_blocks=1, n_validators=4, max_votes=12, max_ffg_votes=4, max_chkp_slot=3)
    monkeypatch.setattr(enumerator, "state_table", None)
    report = search(bounds)
    assert report.verdict == VERDICT_HOLDS and report.states_checked == 0
    assert report.states_pruned == sum(
        comb(len(enumerator.build_graph_tables(forest, "strict", 3).votes), u)
        * tables.state_table(u, 4, 12, 0)[2]
        for forest in iter_units(bounds) for u in range(5)
    )


VACUITY_BOUNDS = [Bounds(**spec) for spec in PARITY_BOUNDS] + [
    # blocks at slot 2 have no strict checkpoint below slot 3, so the fork of
    # b1's two children conflicts in the forest but not on checkpoints
    _small(n_validators=2, max_votes=6, max_ffg_votes=3, max_chkp_slot=2),
]


@pytest.mark.parametrize("bounds", VACUITY_BOUNDS)
def test_vote_count_and_vacuity_match_the_full_build(bounds):
    # `unit_universe` against the full tables and `are_conflicting` on the
    # checkpoints' blocks for every unit; the plan keeps the full tables of
    # a conflicting class and only the vote count of a vacuous one
    units = list(iter_units(bounds))
    plan = enumerator._plan(bounds, Mutation.NONE, enumerator.MODE_COUNTEREXAMPLE, 0)
    assert len(plan.reps) + len(plan.vacuous) == len(set(plan.keys))
    forked = 0
    for index, forest in enumerate(units):
        chkp = enumerator._chkp_bound(bounds, forest)
        full = tables.build_graph_tables(forest, bounds.slot_rule, chkp)
        cps, votes, cp_conflict = tables.unit_universe(forest, bounds.slot_rule, chkp)
        assert cps == full.checkpoints and votes == full.votes
        assert np.array_equal(cp_conflict, full.cp_conflict)
        blocks = {cp.block for cp in cps}
        conflicting = any(are_conflicting(forest, a, b) for a in blocks for b in blocks)
        assert bool(cp_conflict.any()) == conflicting
        forks = any(are_conflicting(forest, a, b) for a in forest.blocks for b in forest.blocks)
        forked += forks and not conflicting
        if index in plan.vacuous:
            assert not conflicting and plan.vacuous[index] == len(full.votes)
        elif index in plan.reps:
            assert conflicting and plan.reps[index].tables.votes == full.votes
    if bounds.max_chkp_slot == 2 and bounds.n_blocks == 3:
        assert forked, "no forked unit without conflicting checkpoints"


# --- reports do not depend on how the plan is cut or run -----------------------

TASK_CASES = [
    ("none", _small(n_validators=2, max_votes=6)),
    ("quorum-half", _small(n_blocks=2, n_validators=2, max_votes=6)),
    ("disable-e1,disable-e2", _small(n_validators=2, max_votes=8)),
    ("drop-ancestry", _small(n_validators=2, max_votes=6, max_ffg_votes=3, slot_rule="nonstrict")),
    ("quorum-half",
     _small(n_blocks=2, n_validators=3, max_votes=6, slot_mode="free", max_slot=2)),
    ("none", _small(n_blocks=0, n_validators=3, max_votes=6, graph_filter="m3")),
]


@pytest.mark.usefixtures("two_cpus")
@pytest.mark.parametrize("mutation_name,bounds", TASK_CASES)
def test_task_size_leaves_reports_unchanged(monkeypatch, started, mutation_name, bounds):
    # tasks of 50 combinations split every level into many tasks; neither the
    # split nor the helpers may change a verdict, counter or counterexample
    mutation = parse_mutation(mutation_name)
    whole = _report(bounds, mutation)
    checked = whole.states_checked
    with monkeypatch.context() as patch:
        patch.setattr(enumerator, "_BOUND_CHUNK", 50)
        for budget in (None, 0, checked // 3, max(checked - 1, 0)):
            single = _report(bounds, mutation, budget)
            assert single == _report(bounds, mutation, budget, jobs=2)
            if budget is None:
                assert single == whole
    assert started


def _cut_kinds(bounds, mutation):
    """The first budget that cuts in a scanned combination, in a combination
    the orbit filter skipped, and in a later unit of a class."""
    keys = [unit_key(f) for f in iter_units(bounds)]
    total = search(bounds, mutation).states_checked
    kinds = {}
    previous = search(bounds, mutation, budget=0)
    for budget in range(1, total):
        report = search(bounds, mutation, budget=budget)
        unit = report.graphs_checked - 1
        if keys.index(keys[unit]) < unit:
            kind = "later unit of a class"
        elif report.states_symmetric > previous.states_symmetric:
            kind = "skipped combination"
        else:
            kind = "scanned combination"
        kinds.setdefault(kind, budget)
        previous = report
    return kinds


@pytest.mark.usefixtures("two_cpus")
def test_budget_cuts_match_across_jobs(started):
    # every task is scanned without the budget, and the fold counts the cut
    # in the task whose rows exceed the budget left; with a helper scanning
    # tasks ahead, the report must equal the single-process one at budgets
    # that cut in each kind of place
    bounds = _small(max_votes=3, max_ffg_votes=3)
    mutation = parse_mutation("drop-ancestry")
    kinds = _cut_kinds(bounds, mutation)
    assert set(kinds) == {"later unit of a class", "skipped combination", "scanned combination"}
    for budget in sorted(kinds.values()) + [0]:
        expected = _report(bounds, mutation, budget)
        assert expected.verdict == VERDICT_INCONCLUSIVE
        assert _report(bounds, mutation, budget, jobs=2) == expected
    assert started


# (bounds, mutation, budget, _BOUND_CHUNK, jobs) -> (states_checked,
# graphs_checked, states_pruned, states_bounded, states_symmetric) of a cut
# run: a cut in a later unit of a class, and cuts in a task whose unlimited
# rows exceed the budget left.  The counts were pinned from a fold that
# scanned each cut with a row limit in the kernel
COUNTED_CUTS = [
    (_small(max_votes=3, max_ffg_votes=3), "drop-ancestry", 33, None, 1,
     (33, 7, 10545, 9848, 21)),
    (_small(n_blocks=2, n_validators=2, max_votes=8), "drop-ancestry", 43, 600, 1,
     (43, 1, 17063, 17063, 14)),
    (_small(n_blocks=2, n_validators=2, max_votes=8), "drop-ancestry", 43, 600, 2,
     (43, 1, 17063, 17063, 14)),
]


@pytest.mark.usefixtures("two_cpus")
@pytest.mark.parametrize("bounds,mutation_name,budget,chunk,jobs,want", COUNTED_CUTS,
                         ids=["later-unit", "over-budget-task-jobs1", "over-budget-task-jobs2"])
def test_cuts_are_counted_without_a_kernel_call(
    monkeypatch, bounds, mutation_name, budget, chunk, jobs, want
):
    # the fold counts a cut with the limit: no kernel, projection or
    # quorum-family call happens then, and the counts equal those of a
    # scan that stops at the budget
    if chunk is not None:
        monkeypatch.setattr(enumerator, "_BOUND_CHUNK", chunk)
    counted = []
    scan_task = enumerator._scan_task

    def refuse(*args):
        raise AssertionError("a counted cut reached a scan")

    def counting_only(plan, unit, segments, limit=None, stopped=None):
        if limit is None:
            return scan_task(plan, unit, segments, stopped=stopped)
        counted.append(limit)
        with monkeypatch.context() as patch:
            for name in ("scan_states", "project_tables", "quorum_families"):
                patch.setattr(enumerator, name, refuse)
            return scan_task(plan, unit, segments, limit)

    monkeypatch.setattr(enumerator, "_scan_task", counting_only)
    report = _report(bounds, parse_mutation(mutation_name), budget, jobs)
    assert report.verdict == VERDICT_INCONCLUSIVE and counted
    assert (report.states_checked, report.graphs_checked, report.states_pruned,
            report.states_bounded, report.states_symmetric) == want


# --- find_example and check_lfp_gfp through the plan -------------------------

def _holds(state, name):
    view = finality_view(state)
    if name == "conflicting-finalized":
        return disagreement(state, view)
    found = view.finalized if name == "finalized-nongenesis" else view.justified
    return bool(found - {GENESIS_CHECKPOINT})


def test_find_example_and_fixpoints_match_the_reference(monkeypatch):
    # the first state of each property and the fixpoint comparison's count,
    # with levels cut into tasks of 5 combinations, against the reference
    # enumeration of every state in canonical order
    bounds = _small(n_blocks=2)
    states = [s for unit in iter_units(bounds) for s in enumerate_states(bounds, unit)]
    monkeypatch.setattr(enumerator, "_BOUND_CHUNK", 5)
    for name in sorted(PROPERTY_MODES):
        expected = next(s for s in states if _holds(s, name))
        assert find_example(bounds, name) == expected, name
        with pytest.raises(SearchBudgetExceeded):
            find_example(bounds, name, budget=0)
    report = check_lfp_gfp(bounds)
    assert report.states_checked == len(states)
    assert report.mismatch is None


# --- helper processes ----------------------------------------------------------

def test_helpers_are_capped_by_usable_cpus(monkeypatch):
    # --jobs far beyond the host starts min(CPUs, tasks) - 1 helpers and gives
    # the single-process report; the patched start refuses to go past the
    # cap, so a broken clamp cannot fork more processes than there are CPUs
    bounds = _small(n_blocks=2, n_validators=2, max_votes=8)
    monkeypatch.setattr(enumerator, "_BOUND_CHUNK", 16)
    n_tasks = enumerator._plan(bounds, Mutation.NONE, enumerator.MODE_COUNTEREXAMPLE, 2).n_tasks
    cap = min(len(os.sched_getaffinity(0)), n_tasks) - 1
    starts = []
    start = enumerator._start_helper

    def counted(*args):
        assert len(starts) < cap, "more helpers than usable CPUs"
        starts.append(1)
        return start(*args)

    monkeypatch.setattr(enumerator, "_start_helper", counted)
    expected = _report(bounds, Mutation.NONE)
    assert not starts
    assert _report(bounds, Mutation.NONE, jobs=10**6) == expected
    assert len(starts) == cap
    assert not multiprocessing.active_children()


def test_claims_hold_with_more_processes_than_cores(monkeypatch):
    # three helpers and the calling process on one-combination tasks race
    # for the shared claim counter; a lost or repeated claim would change a
    # count or leave the fold waiting for a task nobody scans
    bounds = _small(n_blocks=2, n_validators=2, max_votes=8)
    monkeypatch.setattr(enumerator, "_BOUND_CHUNK", 1)
    expected = _report(bounds, Mutation.NONE)
    monkeypatch.setattr(enumerator, "_usable_cpus", lambda: 4)
    for _ in range(2):
        assert _report(bounds, Mutation.NONE, jobs=4) == expected
    assert not multiprocessing.active_children()


@pytest.mark.usefixtures("two_cpus")
@pytest.mark.parametrize("argv,code", [
    (["--mutation", "quorum-half"], 1),              # ends in a hit
    (["--budget", "20"], 3),                         # ends in a budget cut
    ([], 0),                                         # exhausts the space
])
def test_no_helper_outlives_a_run(monkeypatch, capsys, started, argv, code):
    monkeypatch.setattr(enumerator, "_BOUND_CHUNK", 4)
    base = ["search", "--blocks", "2", "--validators", "2", "--max-votes", "8",
            "--max-ffg", "4", "--max-chkp-slot", "3", "--jobs", "2"]
    assert main(base + argv) == code
    assert started
    assert not multiprocessing.active_children()


@pytest.mark.usefixtures("two_cpus")
def test_a_refusal_past_scanned_levels_ends_the_run(monkeypatch, capsys, started):
    # with 4-bit vote masks the plan ends at u=5 of the first unit, after
    # tasks that are scanned (64 combinations each, so there are several);
    # the fold refuses the run there (exit 2), and the helper, which never
    # claims past the end, is reaped
    monkeypatch.setattr(enumerator, "_BOUND_CHUNK", 64)
    plan = _refused_plan(monkeypatch)
    assert plan.refusal[0] == 0 and plan.levels[-1] == (0, 4) and plan.n_tasks > 1
    monkeypatch.setattr(tables, "MAX_VOTE_BITS", 4)
    assert main([
        "search", "--blocks", "2", "--validators", "2", "--max-votes", "8",
        "--max-ffg", "6", "--max-chkp-slot", "3", "--jobs", "2",
    ]) == 2
    assert "distinct votes exceed" in capsys.readouterr().err
    assert started
    assert not multiprocessing.active_children()


@pytest.mark.usefixtures("two_cpus")
@pytest.mark.parametrize("where", ["everywhere", "helpers"])
def test_a_task_that_raises_exits_internal(monkeypatch, capsys, where):
    # a failure inside a task, in the calling process or in a helper, is an
    # internal failure (exit 4), and no helper is left running.  With the
    # bound keeping everything, every one-combination task reaches the scan.
    caller = os.getpid()
    scan_states = enumerator.scan_states

    def failing(*args):
        if where == "everywhere" or os.getpid() != caller:
            raise ZeroDivisionError("planted failure")
        return scan_states(*args)

    monkeypatch.setattr(enumerator, "scan_states", failing)
    monkeypatch.setattr(
        enumerator, "bound_combinations", lambda tables, combos, *_: np.ones(len(combos), bool)
    )
    monkeypatch.setattr(enumerator, "_BOUND_CHUNK", 1)
    assert main([
        "search", "--blocks", "2", "--validators", "2", "--max-votes", "8",
        "--max-ffg", "4", "--max-chkp-slot", "3", "--jobs", "2",
    ]) == 4
    err = capsys.readouterr().err
    assert "planted failure" in err
    assert not multiprocessing.active_children()
