"""The scan plan: one task per scanned class, helper processes and the in-order fold."""

import gc
import itertools
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from dataclasses import replace
from math import comb
from pathlib import Path

import numpy as np
import pytest

from ffgmc import enumerator, kernels, tables
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
from ffgmc.finality import finality_view, justified_checkpoints, justified_checkpoints_gfp
from ffgmc.kernels import rank
from ffgmc.model import (
    GENESIS_CHECKPOINT,
    BlockForest,
    InputError,
    are_conflicting,
    checkpoints_of,
)
from ffgmc.mutation import Mutation, parse_mutation
from ffgmc.slashing import disagreement
from ffgmc.symmetry import unit_key
from parity import BOUNDS as PARITY_BOUNDS
from reference import enumerate_states, kept_combinations

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


# --- combination ranks ---------------------------------------------------------

def test_ranks_match_itertools_positions():
    # every m <= 12 and every u: a combination's rank is its position in
    # itertools order, the canonical one
    for m in range(13):
        for u in range(m + 1):
            every = itertools.combinations(range(m), u)
            assert [rank(c, m) for c in every] == list(range(comb(m, u))), (m, u)


def _rank(combo, m):
    """Lexicographic rank in Python integers: the combinations before
    `combo` that agree with it up to position i and are smaller there."""
    u, rank, previous = len(combo), 0, -1
    for i, c in enumerate(combo):
        rank += sum(comb(m - 1 - v, u - 1 - i) for v in range(previous + 1, c))
        previous = c
    return rank


def test_ranks_of_a_level_near_int64():
    # ranks are Python integers, so a scanned level may hold more than 2**63
    # combinations: one block with checkpoint slots up to 12 has 210 votes,
    # and C(210, 12) is about 1e19, yet the plan keeps every level of it up
    # to u=15, the last whose 4**u-byte meets table is within the limit
    bounds = Bounds(n_blocks=1, n_validators=1, max_votes=15, max_chkp_slot=12)
    plan = enumerator._plan(bounds, Mutation.NONE, enumerator.MODE_JUSTIFIED_NONGENESIS, 0)
    units = list(iter_units(bounds))
    assert plan.refusal is None
    assert [(units.index(t.forest), levels) for t, levels in plan.tasks] == [(0, range(16))]
    assert len(plan.tasks[0][0].votes) == 210
    assert comb(210, 11) < 2**63 < comb(210, 12)
    # the levels on both sides of 2**63 and one of 0.99 * 2**62
    # combinations: their first, their last and random ones, against the
    # reference sum
    assert 0.99 * 2**62 < comb(249, 11) <= 1 << 62
    rng = np.random.default_rng(11)
    for m, u in ((210, 11), (210, 12), (249, 11)):
        combos = [range(u), range(m - u, m),
                  *(sorted(rng.choice(m, u, replace=False).tolist()) for _ in range(50))]
        assert [rank(c, m) for c in combos] == [_rank(list(c), m) for c in combos]
        assert rank(range(m - u, m), m) == comb(m, u) - 1


# --- one task per scanned class ---------------------------------------------------

def _refused_plan(monkeypatch):
    """A plan that ends at u=5 of its first unit, with 4-bit vote masks."""
    with monkeypatch.context() as patch:
        patch.setattr(tables, "MAX_VOTE_BITS", 4)
        bounds = _small(n_blocks=2, n_validators=2, max_votes=8, max_ffg_votes=6)
        return enumerator._plan(bounds, Mutation.NONE, enumerator.MODE_COUNTEREXAMPLE, 2)


TASK_CASES = [
    ("none", _small(n_validators=2, max_votes=6)),
    ("quorum-half", _small(n_blocks=2, n_validators=2, max_votes=6)),
    ("disable-e1,disable-e2", _small(n_validators=2, max_votes=8)),
    ("drop-ancestry", _small(n_validators=2, max_votes=6, max_ffg_votes=3, slot_rule="nonstrict")),
    ("quorum-half",
     _small(n_blocks=2, n_validators=3, max_votes=6, slot_mode="free", max_slot=2)),
    ("none", _small(n_blocks=0, n_validators=3, max_votes=6, graph_filter="m3")),
]


def _counted_rows(plan, graph_tables, levels, limit):
    """(checked, checked + pruned, cut) of a task counted with `limit`,
    walking every combination of its levels in itertools order: a kept
    combination checks its rows under the signer floor, up to the limit,
    and every other row of a combination before the stop is pruned."""
    n_validators, max_votes = plan.bounds.n_validators, plan.bounds.max_votes
    n_votes = len(graph_tables.votes)
    checked = covered = 0
    for u in levels:
        n_rows = enumerator.state_count(u, n_validators, max_votes, plan.min_signers)
        total_rows = enumerator.state_count(u, n_validators, max_votes, 0)
        combos, _ = kept_combinations(plan, graph_tables, u)
        kept = {tuple(int(x) for x in c) for c in combos}
        left = limit - checked
        if len(kept) * n_rows <= left:
            checked += len(kept) * n_rows
            covered += comb(n_votes, u) * total_rows
            continue
        cut_at, part = divmod(left, n_rows)
        for combo in itertools.combinations(range(n_votes), u):
            if combo not in kept:
                covered += total_rows
            elif cut_at:
                cut_at -= 1
                checked += n_rows
                covered += total_rows
            else:
                return checked + part, covered + part + total_rows - n_rows, True
    return checked, covered, False


@pytest.mark.parametrize("limit", [1, 5, 50, 4096])
def test_tasks_tile_each_class_once_in_canonical_order(monkeypatch, limit):
    # one task per scanned class, numbered in canonical order, on the tables
    # of the class's first unit, over its levels u = 0, 1, ...; a refused
    # class is the last one planned, and its task holds the levels that fit.
    # A task counted with a limit of `limit` checked rows counts each
    # combination of its class once, in canonical order, up to that row
    plans = [
        enumerator._plan(bounds, parse_mutation(name), enumerator.MODE_COUNTEREXAMPLE, 0)
        for name, bounds in TASK_CASES
    ]
    justified = enumerator.MODE_JUSTIFIED_NONGENESIS
    plans.append(enumerator._plan(_small(n_blocks=2), Mutation.NONE, justified, 0))
    plans.append(_refused_plan(monkeypatch))
    assert plans[-1].refusal is not None
    assert max(len(plan.tasks) for plan in plans) > 1
    for plan in plans:
        last = len(plan.classes) - 1   # the refused unit, if any
        firsts = [i for i, c in enumerate(plan.classes) if plan.classes.index(c) == i]
        units = list(iter_units(plan.bounds))
        scanned = [units.index(graph_tables.forest) for graph_tables, _ in plan.tasks]
        settled = [plan.classes.index(number) for number in plan.settled]
        assert sorted([*scanned, *settled]) == firsts
        assert scanned == sorted(scanned)
        for index, (graph_tables, levels) in zip(scanned, plan.tasks):
            assert graph_tables.forest == units[index]
            n_votes = len(graph_tables.votes)
            if plan.refusal and index == last:
                assert levels == range(5)
            else:
                assert levels == enumerator._distinct_vote_range(plan.bounds, n_votes)
            counts = enumerator._scan_task(plan, graph_tables, levels, limit=limit)
            want = _counted_rows(plan, graph_tables, levels, limit)
            assert (counts.checked, counts.checked + counts.pruned, counts.cut) == want
            assert counts.hit is None


def _live_forests():
    gc.collect()
    return sum(isinstance(obj, BlockForest) for obj in gc.get_objects())


def test_the_plan_numbers_units_and_holds_none():
    # at 5 blocks the plan walks 1,296 units in 20 classes: it keeps each
    # unit's class number, numbered by first appearance of its key, and no
    # forest beyond its tasks' tables
    bounds = _small(n_blocks=5)
    keys = [unit_key(forest) for forest in iter_units(bounds)]
    first = list(dict.fromkeys(keys))
    assert (len(keys), len(first)) == (1296, 20)
    before = _live_forests()
    plan = enumerator._plan(bounds, Mutation.NONE, enumerator.MODE_COUNTEREXAMPLE, 0)
    assert _live_forests() - before <= len(first) + 2
    assert plan.classes == [first.index(key) for key in keys]


def test_a_refusal_at_the_first_unit_ends_the_walk(monkeypatch, capsys):
    # at 5 blocks a planted size limit refuses unit 0: the plan stops
    # walking there, so it numbers that one unit, not all 1,296, and the
    # run is refused (exit 2)
    def refused(*args):
        raise InputError("planted size limit")

    monkeypatch.setattr(enumerator, "build_graph_tables", refused)
    plan = enumerator._plan(_small(n_blocks=5), Mutation.NONE, enumerator.MODE_COUNTEREXAMPLE, 0)
    assert str(plan.refusal) == "planted size limit"
    assert len(plan.classes) - 1 == 0 and not plan.tasks
    assert main(["search", "--blocks", "5", "--validators", "1", "--max-votes", "4",
                 "--max-ffg", "4", "--max-chkp-slot", "3"]) == 2
    assert "planted size limit" in capsys.readouterr().err


def test_a_budget_cut_in_a_later_segment_of_a_task(monkeypatch, started):
    # a task scans its class's levels in order: a budget that runs out in
    # level L must carry over from the levels before it within the task's
    # count, in the calling process and in helpers, and cut where the
    # levels counted one by one cut
    bounds = _small(n_validators=2, max_votes=8)
    mutation = parse_mutation("drop-ancestry")
    plan = enumerator._plan(bounds, mutation, enumerator.MODE_COUNTEREXAMPLE, 0)
    assert len(plan.tasks) > 1
    graph_tables, levels = plan.tasks[0]
    combos = [kept_combinations(plan, graph_tables, u)[0] for u in levels]
    counts = [enumerator._scan_level(plan, graph_tables, combos[u]) for u in levels]
    level = next(u for u in levels[1:] if counts[u - 1].checked > 0 and counts[u].checked > 1)
    budget = sum(c.checked for c in counts[:level]) + 1
    want = sum(counts[:level], enumerator._Counts()) + enumerator._scan_level(
        plan, graph_tables, combos[level], limit=1
    )
    expected = _report(bounds, mutation, budget)
    assert expected.verdict == VERDICT_INCONCLUSIVE and expected.states_checked == budget
    assert (expected.states_checked, expected.states_pruned, expected.states_bounded,
            expected.states_symmetric) == (want.checked, want.pruned, want.bounded, want.symmetric)
    with monkeypatch.context() as patch:
        patch.setattr(enumerator, "_usable_cpus", lambda: 2)
        assert _report(bounds, mutation, budget, jobs=2) == expected
    assert started


@pytest.mark.usefixtures("two_cpus")
def test_falsify_c3_plans_one_task_and_forks_nothing(monkeypatch):
    # unit 0, the fork, is the one scanned class, and its levels u = 0 .. 4
    # are one task, so --jobs 2 starts no helper and reports as --jobs 1
    mutation = parse_mutation("quorum-half")
    plan = enumerator._plan(C3, mutation, enumerator.MODE_COUNTEREXAMPLE, 0)
    units = list(iter_units(C3))
    assert [(units.index(t.forest), levels) for t, levels in plan.tasks] == [(0, range(5))]
    expected = _report(C3, mutation)
    assert expected.verdict == VERDICT_COUNTEREXAMPLE

    def refuse(*args):
        raise AssertionError("a one-task plan started a helper")

    monkeypatch.setattr(enumerator, "_start_helper", refuse)
    assert _report(C3, mutation, jobs=2) == expected


def test_each_scanned_level_is_one_kernel_call(monkeypatch):
    # at three blocks with 5 FFG votes and checkpoint slots up to 4, every
    # (class, level) pair that holds an orbit-minimal kept combination is
    # scanned in exactly one kernel call, and no other pair is scanned
    bounds = Bounds(n_blocks=3, n_validators=4, max_votes=12, max_ffg_votes=5, max_chkp_slot=4)
    plans, calls = [], []
    plan_of, scan_states = enumerator._plan, enumerator.scan_states

    def kept_plan(*args):
        plans.append(plan_of(*args))
        return plans[-1]

    def counted(level, projected, *args):
        calls.append((id(projected._tables), projected._combos.shape[1]))
        return scan_states(level, projected, *args)

    monkeypatch.setattr(enumerator, "_plan", kept_plan)
    monkeypatch.setattr(enumerator, "scan_states", counted)
    assert search(bounds).verdict == VERDICT_HOLDS
    (plan,) = plans
    pairs = [
        (id(graph_tables), u)
        for graph_tables, levels in plan.tasks
        for u in levels
        if kept_combinations(plan, graph_tables, u)[1].any()
    ]
    assert len(plan.tasks) == 3 and len(pairs) > len(plan.tasks)
    assert sorted(calls) == sorted(pairs)


def test_a_budget_ends_a_scan_before_its_largest_level(monkeypatch, capsys):
    # at 2 blocks with 24 votes and 7 FFG votes the row table of u = 7 has
    # 7.3 M rows; a task stops after the level that takes its checked rows
    # past the run's budget, so a budget run at --jobs 1 and 2, and an
    # example search with a budget, never build it
    build = enumerator.state_table

    def below_u7(u, *args):
        assert u < 7, "a budget run built the u=7 row table"
        return build(u, *args)

    monkeypatch.setattr(enumerator, "state_table", below_u7)
    monkeypatch.setattr(enumerator, "_usable_cpus", lambda: 2)
    argv = ["search", "--blocks", "2", "--validators", "4", "--max-votes", "24",
            "--max-ffg", "7", "--max-chkp-slot", "3", "--budget", "1000"]
    for jobs in ("1", "2"):
        assert main(argv + ["--jobs", jobs]) == 3
        report = json.loads(capsys.readouterr().out)
        assert report["counters"]["states_checked"] == 1000
    bounds = Bounds(n_blocks=2, n_validators=4, max_votes=24, max_ffg_votes=7, max_chkp_slot=3)
    with pytest.raises(SearchBudgetExceeded):
        find_example(bounds, "conflicting-finalized", budget=100)


def test_falsify_c3_imports_no_process_or_smt_module():
    # the process modules load only when a helper starts, and `import ffgmc`
    # leaves out the SMT bridge, so a fresh interpreter running falsify-c3 at
    # --jobs 2 (one task) loads neither
    code = "\n".join([
        "import sys",
        "import ffgmc",
        "from ffgmc.enumerator import Bounds, search",
        "from ffgmc.mutation import parse_mutation",
        f"report = search({C3!r}, parse_mutation('quorum-half'), jobs=2)",
        "loaded = [m for m in ('multiprocessing', 'ffgmc.smt') if m in sys.modules]",
        "print(report.verdict, *loaded)",
    ])
    env = dict(os.environ, PYTHONPATH=str(Path(enumerator.__file__).parents[1]))
    child = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                           env=env, timeout=300)
    assert child.returncode == 0, child.stderr
    assert child.stdout.split() == [VERDICT_COUNTEREXAMPLE]


# --- vacuous classes -------------------------------------------------------------

@pytest.fixture
def evaluated(monkeypatch):
    """The reference-predicate calls the graph tables make, by predicate:
    the forest of each `supports` call and the vote pair of each
    `slash_kind` call."""
    calls = {"supports": [], "slash_kind": []}
    supports, slash_kind = tables.supports, tables.slash_kind

    def counted_supports(forest, *args):
        calls["supports"].append(forest)
        return supports(forest, *args)

    def counted_slash_kind(a, b, *args):
        calls["slash_kind"].append((a, b))
        return slash_kind(a, b, *args)

    monkeypatch.setattr(tables, "supports", counted_supports)
    monkeypatch.setattr(tables, "slash_kind", counted_slash_kind)
    return calls


def test_a_vacuous_class_evaluates_no_sandwich_or_slashable_pair(monkeypatch, evaluated):
    # falsify-c3 has one conflicting class and the vacuous chain class; the
    # run reads only the vacuous class's votes and checkpoint conflicts, and
    # every sandwich and slashable-pair test is on the fork's tables.  The
    # slashable pairs are those of the combinations whose rows the kernel
    # expands: at most u(u - 1) = 12 calls for one combination of u = 4
    built = []
    build = enumerator.build_graph_tables

    def kept(*args):
        built.append(build(*args))
        return built[-1]

    monkeypatch.setattr(enumerator, "build_graph_tables", kept)
    report = search(C3, parse_mutation("quorum-half"))
    assert report.verdict == VERDICT_COUNTEREXAMPLE
    fork, chain = built
    assert fork.cp_conflict.any() and not chain.cp_conflict.any()
    assert chain.__dict__.keys() & {"sandwich", "finalizing", "vote_src", "perms"} == set()
    assert evaluated["supports"] and {id(f) for f in evaluated["supports"]} == {id(fork.forest)}
    state_votes = {signed.vote for signed in report.counterexample.state.votes}
    assert 0 < len(evaluated["slash_kind"]) <= 12
    assert {v for pair in evaluated["slash_kind"] for v in pair} <= state_votes


def test_slashable_pairs_are_evaluated_only_for_expanded_combinations(evaluated):
    # an unmutated criterion-3 proof expands the rows of one combination of
    # u = 4, whose slashable validators settle every disagreeing row, and the
    # fixpoint comparison reads no slashable pair
    assert search(C3).verdict == VERDICT_HOLDS
    assert 0 < len(evaluated["slash_kind"]) <= 12
    evaluated["slash_kind"].clear()
    n3 = replace(C3, n_validators=3)
    assert check_lfp_gfp(n3).mismatch is None
    assert evaluated["slash_kind"] == []


@pytest.mark.parametrize("n_validators", [1, 2, 3, 4])
def test_row_count_matches_the_row_table(n_validators):
    # the arithmetic row count against the rows of `state_table`, for every
    # signer floor from none to more signers than validators
    for u in range(6):
        for max_votes in range(14):
            for floor in range(n_validators + 2):
                want = tables.state_table(u, n_validators, max_votes, floor, Mutation.NONE)[0]
                got = tables.state_count(u, n_validators, max_votes, floor)
                assert got == want.shape[0], (u, max_votes, floor)


def test_a_vacuous_unit_builds_no_row_table(monkeypatch):
    # one block forks nothing, so every row is counted and none is built
    bounds = Bounds(n_blocks=1, n_validators=4, max_votes=12, max_ffg_votes=4, max_chkp_slot=3)
    monkeypatch.setattr(enumerator, "state_table", None)
    report = search(bounds)
    assert report.verdict == VERDICT_HOLDS and report.states_checked == 0
    assert report.states_pruned == sum(
        comb(len(enumerator.build_graph_tables(forest, "strict", 3).votes), u)
        * tables.state_table(u, 4, 12, 0, Mutation.NONE)[0].shape[0]
        for forest in iter_units(bounds) for u in range(5)
    )


def test_row_tables_are_built_only_for_scanned_levels(monkeypatch):
    # falsify-c3's fork unit scans u=4 only: the monotone bound drops every
    # combination of u <= 3, so those levels are counted and never built
    built = []
    build = enumerator.state_table

    def recorded(u, *args):
        built.append(u)
        return build(u, *args)

    monkeypatch.setattr(enumerator, "state_table", recorded)
    assert _report(C3, parse_mutation("quorum-half")).verdict == VERDICT_COUNTEREXAMPLE
    assert set(built) == {4}


VACUITY_BOUNDS = [Bounds(**spec) for spec in PARITY_BOUNDS] + [
    # blocks at slot 2 have no strict checkpoint below slot 3, so the fork of
    # b1's two children conflicts in the forest but not on checkpoints
    _small(n_validators=2, max_votes=6, max_ffg_votes=3, max_chkp_slot=2),
]


@pytest.mark.parametrize("bounds", VACUITY_BOUNDS)
def test_vote_count_and_vacuity_match_the_full_build(bounds):
    # the plan's vote counts and vacuity against tables built apart and
    # `are_conflicting` on the checkpoints' blocks for every unit; the plan
    # keeps the tables of a conflicting class and only the counts of a
    # vacuous one, read from its vote count
    units = list(iter_units(bounds))
    plan = enumerator._plan(bounds, Mutation.NONE, enumerator.MODE_COUNTEREXAMPLE, 0)
    reps = {units.index(graph_tables.forest): graph_tables for graph_tables, _ in plan.tasks}
    settled = {plan.classes.index(number): counts for number, counts in plan.settled.items()}
    assert len(reps) + len(settled) == len(set(plan.classes))
    forked = 0
    for index, forest in enumerate(units):
        full = tables.build_graph_tables(forest, bounds.slot_rule, bounds.max_chkp_slot)
        blocks = {cp.block for cp in full.checkpoints}
        conflicting = any(are_conflicting(forest, a, b) for a in blocks for b in blocks)
        assert bool(full.cp_conflict.any()) == conflicting
        forks = any(are_conflicting(forest, a, b) for a in forest.blocks for b in forest.blocks)
        forked += forks and not conflicting
        if index in settled:
            pruned = enumerator._unit_total_states(bounds, len(full.votes))
            assert not conflicting and settled[index] == enumerator._Counts(pruned=pruned)
        elif index in reps:
            assert conflicting and reps[index].votes == full.votes
    if bounds.max_chkp_slot == 2 and bounds.n_blocks == 3:
        assert forked, "no forked unit without conflicting checkpoints"


# --- reports do not depend on how the plan is run -------------------------------

# the cases whose plans hold more than one task, so --jobs 2 starts a helper
HELPER_CASES = [case for case in TASK_CASES if case[1].n_blocks == 3 or case[1].slot_mode == "free"]


@pytest.mark.usefixtures("two_cpus")
@pytest.mark.parametrize("mutation_name,bounds", HELPER_CASES)
def test_helpers_leave_reports_unchanged(started, mutation_name, bounds):
    # a helper scanning whole classes ahead of the fold may change no
    # verdict, counter or counterexample, with or without a budget
    mutation = parse_mutation(mutation_name)
    checked = _report(bounds, mutation).states_checked
    for budget in (None, 0, checked // 3, max(checked - 1, 0)):
        assert _report(bounds, mutation, budget, jobs=2) == _report(bounds, mutation, budget)
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


# (bounds, mutation, budget, jobs) -> (states_checked, graphs_checked,
# states_pruned, states_bounded, states_symmetric) of a cut run: a cut in a
# later unit of a class, and cuts in a task whose unlimited rows exceed the
# budget left.  The checked, pruned and bounded rows equal those of a scan
# that stops at the budget; every checked row of a later unit before its
# cut is settled by symmetry: 24 symmetric rows are the 21 of the units
# before it and its own 3.  At checkpoint slots up to 4, unit 2, a later
# unit of class 1, begins at checked row 324, where 152 rows are symmetric,
# and a budget of 340 adds its first 16 rows
COUNTED_CUTS = [
    (_small(max_votes=3, max_ffg_votes=3), "drop-ancestry", 33, 1,
     (33, 7, 10545, 9848, 24)),
    (_small(n_validators=2, max_votes=3, max_ffg_votes=3, max_chkp_slot=4), "drop-ancestry",
     340, 1, (340, 3, 136555, 136555, 168)),
    (_small(n_blocks=2, n_validators=2, max_votes=8), "drop-ancestry", 43, 1,
     (43, 1, 17063, 17063, 14)),
    (_small(n_blocks=2, n_validators=2, max_votes=8), "drop-ancestry", 43, 2,
     (43, 1, 17063, 17063, 14)),
]


@pytest.mark.usefixtures("two_cpus")
@pytest.mark.parametrize("bounds,mutation_name,budget,jobs,want", COUNTED_CUTS,
                         ids=["later-unit", "later-unit-at-its-16th-row", "over-budget-task-jobs1",
                              "over-budget-task-jobs2"])
def test_cuts_are_counted_without_a_kernel_call(
    monkeypatch, bounds, mutation_name, budget, jobs, want
):
    # the fold counts a cut with the limit: no kernel, projection or
    # row-table call happens then, and the counts equal those of a scan
    # that stops at the budget
    counted = []
    scan_task = enumerator._scan_task

    def refuse(*args):
        raise AssertionError("a counted cut reached a scan")

    def counting_only(plan, graph_tables, levels, limit=None):
        if limit is None:
            return scan_task(plan, graph_tables, levels)
        counted.append(limit)
        with monkeypatch.context() as patch:
            for name in ("scan_states", "project_tables", "state_table"):
                patch.setattr(enumerator, name, refuse)
            return scan_task(plan, graph_tables, levels, limit)

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


def test_find_example_and_fixpoints_match_the_reference():
    # the first state of each property and the fixpoint comparison's count,
    # against the reference enumeration of every state in canonical order,
    # on each of which the reference fixpoints agree
    bounds = _small(n_blocks=2)
    states = [s for unit in iter_units(bounds) for s in enumerate_states(bounds, unit)]
    for state in states:
        universe = checkpoints_of(state, bounds.max_chkp_slot)
        assert justified_checkpoints(state, universe) == justified_checkpoints_gfp(
            state, universe
        )
    for name in sorted(PROPERTY_MODES):
        expected = next(s for s in states if _holds(s, name))
        assert find_example(bounds, name) == expected, name
        with pytest.raises(SearchBudgetExceeded):
            find_example(bounds, name, budget=0)
    report = check_lfp_gfp(bounds)
    assert report.states_checked == len(states)
    assert report.mismatch is None


def test_fixpoint_comparison_counts_without_the_kernel(monkeypatch):
    # at the fixpoint-n3 benchmark bounds every row is counted, and no row
    # table is built and nothing is scanned
    def refuse(*args):
        raise AssertionError("check_lfp_gfp reached the kernel")

    monkeypatch.setattr(enumerator, "scan_states", refuse)
    monkeypatch.setattr(enumerator, "state_table", refuse)
    bounds = Bounds(n_blocks=2, n_validators=3, max_votes=12, max_ffg_votes=4, max_chkp_slot=3)
    assert check_lfp_gfp(bounds) == enumerator.FixpointReport(3_097_418, None)


# --- helper processes ----------------------------------------------------------

def test_helpers_are_capped_by_usable_cpus(monkeypatch):
    # --jobs far beyond the host starts min(CPUs, tasks) helpers, none if that
    # is below 2, and gives the single-process report; the patched start
    # refuses to go past the cap, so a broken clamp cannot fork more
    # processes than there are CPUs.  Three blocks plan one task for each of
    # their three conflicting classes
    bounds = _small(n_validators=2, max_votes=8)
    n_tasks = len(enumerator._plan(bounds, Mutation.NONE, enumerator.MODE_COUNTEREXAMPLE, 2).tasks)
    assert n_tasks == 3
    cap = min(len(os.sched_getaffinity(0)), n_tasks)
    cap = cap if cap >= 2 else 0
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
    # four helpers on a two-CPU host take the seven tasks of four blocks in
    # striped shares, {0, 4}, {1, 5}, {2, 6} and {3}; a lost or repeated
    # task would change a count or leave the fold waiting for a task nobody
    # scans
    bounds = _small(n_blocks=4, n_validators=2, max_votes=8)
    mutation = parse_mutation("drop-ancestry")
    assert len(enumerator._plan(bounds, mutation, enumerator.MODE_COUNTEREXAMPLE, 0).tasks) == 7
    expected = _report(bounds, mutation)
    monkeypatch.setattr(enumerator, "_usable_cpus", lambda: 4)
    for _ in range(2):
        assert _report(bounds, mutation, jobs=4) == expected
    assert not multiprocessing.active_children()


@pytest.mark.usefixtures("two_cpus")
@pytest.mark.parametrize("argv,code", [
    (["--mutation", "quorum-half"], 1),              # ends in a hit
    (["--budget", "20"], 3),                         # ends in a budget cut
    ([], 0),                                         # exhausts the space
])
def test_no_helper_outlives_a_run(capsys, started, argv, code):
    # three blocks plan three tasks, so --jobs 2 starts a helper
    base = ["search", "--blocks", "3", "--validators", "2", "--max-votes", "8",
            "--max-ffg", "4", "--max-chkp-slot", "3", "--jobs", "2"]
    assert main(base + argv) == code
    assert started
    assert not multiprocessing.active_children()


@pytest.mark.usefixtures("two_cpus")
def test_a_refusal_past_scanned_levels_ends_the_run(monkeypatch, capsys, started):
    # at three blocks the plan scans the classes of units 0 and 1 and ends
    # at the third scanned class, whose tables are over a planted size
    # limit; the fold scans the tasks before it, refuses the run there
    # (exit 2), and the helpers, whose shares hold no task past the end,
    # are reaped
    argv = ["search", "--blocks", "3", "--validators", "2", "--max-votes", "8",
            "--max-ffg", "4", "--max-chkp-slot", "3", "--jobs", "2"]
    bounds = _small(n_validators=2, max_votes=8)
    units = list(iter_units(bounds))
    refused = unit_key(units[4])
    graph_tables = enumerator.build_graph_tables

    def limited(forest, *args):
        if unit_key(forest) == refused:
            raise InputError("planted size limit")
        return graph_tables(forest, *args)

    monkeypatch.setattr(enumerator, "build_graph_tables", limited)
    plan = enumerator._plan(bounds, Mutation.NONE, enumerator.MODE_COUNTEREXAMPLE, 2)
    assert str(plan.refusal) == "planted size limit" and len(plan.classes) - 1 == 4
    assert [units.index(t.forest) for t, _ in plan.tasks] == [0, 1]
    assert main(argv) == 2
    assert "planted size limit" in capsys.readouterr().err
    assert started
    assert not multiprocessing.active_children()


@pytest.mark.usefixtures("two_cpus")
@pytest.mark.parametrize("where", ["everywhere", "helpers"])
def test_a_task_that_raises_exits_internal(monkeypatch, capsys, where):
    # a failure inside a task, in the calling process or in a helper, is an
    # internal failure (exit 4), and no helper is left running.  With the
    # bound keeping everything, every task reaches the scan.  "everywhere"
    # runs at --jobs 1, so the calling process scans and fails; "helpers"
    # fails only outside the calling process, at --jobs 2, where helpers
    # scan every task.
    caller = os.getpid()
    scan_states = enumerator.scan_states

    def failing(*args):
        if where == "everywhere" or os.getpid() != caller:
            raise ZeroDivisionError("planted failure")
        return scan_states(*args)

    monkeypatch.setattr(enumerator, "scan_states", failing)
    monkeypatch.setattr(kernels, "keeps", lambda justified, *_: np.ones(justified.shape, bool))
    assert main([
        "search", "--blocks", "3", "--validators", "2", "--max-votes", "8",
        "--max-ffg", "4", "--max-chkp-slot", "3",
        "--jobs", "1" if where == "everywhere" else "2",
    ]) == 4
    err = capsys.readouterr().err
    assert "planted failure" in err
    if where == "helpers":
        assert "failed in a helper process" in err
    assert not multiprocessing.active_children()


def _planted_tasks(monkeypatch, log, outcome):
    """A three-task plan whose `_scan_task` logs each task it scans and
    ends task 0 in `outcome` (a hit, or a failure) after a pause, so task 1
    reports first; task 1 checks one row, task 2 two."""
    bounds = _small(n_validators=2, max_votes=8)
    plan = enumerator._plan(bounds, Mutation.NONE, enumerator.MODE_COUNTEREXAMPLE, 2)
    assert len(plan.tasks) == 3

    def planted(plan, graph_tables, levels, limit=None):
        i = next(i for i, (tables, _) in enumerate(plan.tasks) if tables is graph_tables)
        with open(log, "a") as out:
            out.write(f"{i}\n")
        if i:
            return enumerator._Counts(checked=i)
        time.sleep(0.5)
        if outcome == "failure":
            raise ZeroDivisionError("planted failure")
        return enumerator._Counts(hit=((), ()))

    monkeypatch.setattr(enumerator, "_scan_task", planted)
    return plan


@pytest.mark.parametrize("outcome", ["hit", "failure"])
def test_a_helper_stops_after_its_own_hit_or_failure(monkeypatch, tmp_path, outcome):
    # the share {0, 2} of two helpers: a helper that hits or fails in task
    # 0 sends that one result and scans no task 2, past which the fold
    # reads nothing; the helper's loop runs here, over a one-way pipe
    log = tmp_path / "scanned"
    plan = _planted_tasks(monkeypatch, log, outcome)
    theirs, pipe = multiprocessing.Pipe(duplex=False)
    enumerator._help(plan, pipe, range(0, 3, 2), [])
    pipe.close()
    result = theirs.recv()
    if outcome == "hit":
        assert result.hit == ((), ())
    else:
        assert "planted failure" in result
    with pytest.raises(EOFError):
        theirs.recv()
    assert log.read_text().split() == ["0"]


@pytest.mark.usefixtures("two_cpus")
def test_striped_shares_reach_the_fold_in_plan_order(monkeypatch, tmp_path):
    # two helpers take the shares {0, 2} and {1} of three tasks; task 1
    # reports first, yet the counts come in plan order, and the helper
    # whose task 0 hit scans no task 2, so reading on past the hit finds
    # task 2 lost
    log = tmp_path / "scanned"
    scans = enumerator._scans(_planted_tasks(monkeypatch, log, "hit"), 2)
    assert [(c.hit, c.checked) for c in itertools.islice(scans, 2)] == [(((), ()), 0), (None, 1)]
    with pytest.raises(RuntimeError, match="scan task 2 was lost"):
        next(scans)
    assert sorted(log.read_text().split()) == ["0", "1"]
    assert not multiprocessing.active_children()


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads process states in /proc")
def test_no_helper_outlives_a_killed_caller(tmp_path):
    # a calling process scans the 16 tasks of five blocks at --jobs 2 with
    # two helpers, whose planted tasks each report the helper's PID and
    # take 4 s, so a share takes 32 s; once both helpers have reported, the
    # caller is killed (SIGKILL, so no `finally` runs), and each helper must
    # exit within 20 s, at its next send.  A zombie counts as exited
    pids = tmp_path / "helpers"
    code = "\n".join([
        "import os, sys, time",
        "from ffgmc import enumerator",
        "from ffgmc.cli import main",
        "caller, scan_task = os.getpid(), enumerator._scan_task",
        "def slow(*args, **kw):",
        "    if os.getpid() != caller:",
        f"        with open({str(pids)!r}, 'a') as out:",
        "            out.write(f'{os.getpid()}\\n')",
        "        time.sleep(4)",
        "    return scan_task(*args, **kw)",
        "enumerator._usable_cpus, enumerator._scan_task = (lambda: 2), slow",
        "sys.exit(main(['search', '--blocks', '5', '--validators', '2', '--max-votes', '8',",
        "               '--max-ffg', '4', '--max-chkp-slot', '3', '--jobs', '2',",
        f"               '--out', {str(tmp_path / 'report.json')!r}]))",
    ])

    def running(pid):
        """Whether `pid` is a helper of this test's caller that has not exited."""
        try:
            stat = Path(f"/proc/{pid}/stat").read_text()
            cmdline = Path(f"/proc/{pid}/cmdline").read_bytes()
        except OSError:
            return False
        return stat.rsplit(")", 1)[1].split()[0] != "Z" and str(pids).encode() in cmdline

    env = dict(os.environ, PYTHONPATH=str(Path(enumerator.__file__).parents[1]))
    caller = subprocess.Popen([sys.executable, "-c", code], env=env,
                              stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    helpers = set()
    try:
        deadline = time.monotonic() + 60
        while len(helpers) < 2 and caller.poll() is None and time.monotonic() < deadline:
            time.sleep(0.05)
            helpers = set(pids.read_text().split()) if pids.exists() else set()
        assert len(helpers) == 2, "the caller did not start two helpers"
        caller.kill()
        caller.wait()
        deadline = time.monotonic() + 20
        while any(map(running, helpers)) and time.monotonic() < deadline:
            time.sleep(0.1)
        assert not [pid for pid in helpers if running(pid)], "a helper outlived its caller"
    finally:
        caller.kill()
        caller.wait()
        for pid in filter(running, helpers):
            os.kill(int(pid), signal.SIGKILL)


@pytest.mark.usefixtures("two_cpus")
def test_a_helper_that_dies_loses_its_task(monkeypatch, capsys, started):
    # a helper that exits without sending a result loses its task: the fold
    # raises that when it reaches the task (exit 4) instead of waiting for
    # it, and every helper is reaped
    caller = os.getpid()
    scan_task = enumerator._scan_task

    def dying(*args, **kw):
        if os.getpid() != caller:
            os._exit(1)
        return scan_task(*args, **kw)

    monkeypatch.setattr(enumerator, "_scan_task", dying)
    start = time.perf_counter()
    assert main([
        "search", "--blocks", "3", "--validators", "2", "--max-votes", "8",
        "--max-ffg", "4", "--max-chkp-slot", "3", "--jobs", "2",
    ]) == 4
    assert time.perf_counter() - start < 30
    assert "was lost" in capsys.readouterr().err
    assert started
    assert not multiprocessing.active_children()
