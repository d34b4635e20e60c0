"""Forest/state enumeration, symmetry reduction and the bounded search."""

import itertools
from dataclasses import replace

import numpy as np
import pytest

from ffgmc import enumerator, kernels
from ffgmc.enumerator import (
    PROPERTY_MODES,
    Bounds,
    SearchBudgetExceeded,
    VERDICT_COUNTEREXAMPLE,
    VERDICT_HOLDS,
    VERDICT_INCONCLUSIVE,
    check_lfp_gfp,
    enumerate_forests,
    find_example,
    forest_count,
    search,
)
from ffgmc.catalog import catalog_forest
from ffgmc.finality import finality_view
from ffgmc.model import (
    GENESIS,
    GENESIS_CHECKPOINT,
    Block,
    BlockForest,
    InputError,
    ProtocolState,
    SignedVote,
)
from ffgmc.mutation import Mutation, parse_mutation
from ffgmc.slashing import accountable_safety
from ffgmc.tables import build_graph_tables, project_tables
from reference import enumerate_states, reference_forests


def brute_force_forests(n):
    """Direct enumeration oracle: acyclic parent functions over {genesis, b1..bn}."""
    names = [f"b{i}" for i in range(1, n + 1)]
    found = set()
    for parents in itertools.product([GENESIS] + names, repeat=n):
        if any(parents[i] == names[i] for i in range(n)):
            continue
        assignment = dict(zip(names, parents))
        ok = True
        for start in names:
            seen = set()
            cur = start
            while cur != GENESIS:
                if cur in seen:
                    ok = False
                    break
                seen.add(cur)
                cur = assignment[cur]
            if not ok:
                break
        if ok:
            found.add(tuple(sorted(assignment.items())))
    return found


@pytest.mark.parametrize("n,expected", [(1, 1), (2, 3), (3, 16), (4, 125)])
def test_forest_counts_match_formula_and_oracle(n, expected):
    forests = list(enumerate_forests(n))
    assert forest_count(n) == (n + 1) ** (n - 1) == expected
    assert len(forests) == expected
    emitted = {
        tuple(sorted((b.id, b.parent) for b in f if b.id != GENESIS)) for f in forests
    }
    assert len(emitted) == expected  # no duplicates
    assert emitted == brute_force_forests(n)


def test_forest_slots_are_depths():
    for forest in enumerate_forests(3):
        for block in forest:
            if block.id == GENESIS:
                assert block.slot == 0
            else:
                assert block.slot == forest.slot_of(block.parent) + 1


@pytest.mark.parametrize("n", range(7))
def test_forests_follow_the_reference_order(n):
    # the canonical unit order: the acyclic parent vectors in lexicographic
    # order, each forest's slots equal to its blocks' depths, as filtering
    # every vector of itertools.product gives them
    assert list(enumerate_forests(n)) == list(reference_forests(n))


def test_state_count_example():
    # one valid FFG vote, N=4, max_votes=2: assignment multisets over {0, {f}}
    # with at most two signed votes -> 3 states (counting oracle)
    forest = BlockForest([Block("b1", 1, GENESIS)])
    bounds = Bounds(
        n_blocks=1, n_validators=4, max_votes=2, max_ffg_votes=1, max_chkp_slot=2
    )
    tables = build_graph_tables(forest, bounds.slot_rule, 2)
    votes_per_state = sorted(
        len(state.votes) for state in enumerate_states(bounds, forest)
        if not state.votes or len({sv.vote for sv in state.votes}) == 1
    )
    per_vote = len(tables.votes)
    # u=0 gives the empty state; u=1 gives one or two copies of each vote
    assert votes_per_state == sorted([0] + [1] * per_vote + [2] * per_vote)


def test_max_votes_zero_emits_only_vote_free_states():
    forest = BlockForest([Block("b1", 1, GENESIS)])
    bounds = Bounds(n_blocks=1, n_validators=4, max_votes=0)
    states = list(enumerate_states(bounds, forest))
    assert len(states) == 1 and states[0].votes == frozenset()


def _canonical_class(state, n):
    per_validator = [frozenset() for _ in range(n)]
    for sv in state.votes:
        per_validator[sv.validator] = per_validator[sv.validator] | {sv.vote}
    return tuple(sorted(per_validator, key=lambda s: sorted(s)))


def test_emitted_states_are_canonical_and_permutation_free():
    forest = BlockForest([Block("b1", 1, GENESIS)])
    bounds = Bounds(n_blocks=1, n_validators=3, max_votes=3)
    seen = set()
    for state in enumerate_states(bounds, forest):
        cls = _canonical_class(state, 3)
        assert cls not in seen  # permuting validators never yields another emitted state
        seen.add(cls)


def test_symmetry_reduction_soundness_tiny():
    # brute-force (unreduced) space vs the reduced enumeration: identical
    # class sets, counts, and per-class safety verdicts
    n, max_votes = 3, 3
    forest = BlockForest([Block("b1", 1, GENESIS)])
    bounds = Bounds(n_blocks=1, n_validators=n, max_votes=max_votes)
    tables = build_graph_tables(forest, bounds.slot_rule, bounds.max_chkp_slot)
    votes = tables.votes
    subsets = [
        frozenset(combo)
        for size in range(max_votes + 1)
        for combo in itertools.combinations(votes, size)
    ]
    brute = {}
    for assign in itertools.product(subsets, repeat=n):
        if sum(len(s) for s in assign) > max_votes:
            continue
        if len(frozenset().union(*assign)) > bounds.max_ffg_votes:
            continue
        cls = tuple(sorted(assign, key=lambda s: sorted(s)))
        if cls in brute:
            continue
        state = ProtocolState(
            forest,
            n,
            frozenset(
                SignedVote(v, i) for i, subset in enumerate(assign) for v in subset
            ),
            bounds.slot_rule,
        )
        brute[cls] = accountable_safety(state).holds
    reduced = {}
    for state in enumerate_states(bounds, forest):
        cls = _canonical_class(state, n)
        assert cls not in reduced
        reduced[cls] = accountable_safety(state).holds
    assert set(brute) == set(reduced)
    assert len(brute) == len(reduced)
    assert brute == reduced


def test_free_slot_mode_units():
    from ffgmc.enumerator import iter_units

    bounds = Bounds(n_blocks=2, n_validators=3, max_votes=2, slot_mode="free", max_slot=2)
    units = list(iter_units(bounds))
    # chains admit one strictly increasing assignment within max_slot=2, the
    # fork admits all four combinations over {1, 2}
    assert len(units) == 1 + 1 + 4
    fork_units = [
        u for u in units
        if all(b.parent == GENESIS for b in u if b.id != GENESIS)
    ]
    slots = sorted((u.slot_of("b1"), u.slot_of("b2")) for u in fork_units)
    assert slots == [(1, 1), (1, 2), (2, 1), (2, 2)]
    report = search(bounds)
    assert report.verdict == VERDICT_HOLDS
    assert report.graphs_checked == 6


def test_bounds_validation():
    with pytest.raises(InputError):
        Bounds(n_blocks=-1, n_validators=4, max_votes=3)
    with pytest.raises(InputError):
        Bounds(n_blocks=2, n_validators=0, max_votes=3)
    with pytest.raises(InputError):
        Bounds(n_blocks=2, n_validators=4, max_votes=3, max_slot=1)  # below depth
    with pytest.raises(InputError):
        Bounds(n_blocks=2, n_validators=4, max_votes=3, slot_mode="sideways")
    with pytest.raises(InputError):
        Bounds(n_blocks=1, n_validators=4, max_votes=3, slot_mode="free", max_slot=0)
    assert Bounds(n_blocks=0, n_validators=4, max_votes=3, slot_mode="free").max_slot == 0
    bounds = Bounds(n_blocks=2, n_validators=4, max_votes=5)
    assert bounds.max_ffg_votes == 5
    assert bounds.max_slot == 2
    assert bounds.max_chkp_slot == 3


def test_search_single_block_holds():
    report = search(Bounds(n_blocks=1, n_validators=4, max_votes=4))
    assert report.verdict == VERDICT_HOLDS
    assert report.states_checked == 0  # no conflicts anywhere: all pruned
    assert report.states_pruned > 0


def test_search_accounts_for_every_state():
    bounds = Bounds(n_blocks=2, n_validators=3, max_votes=3, max_ffg_votes=2)
    report = search(bounds)
    total = sum(
        1 for forest in enumerate_forests(2) for _ in enumerate_states(bounds, forest)
    )
    assert report.states_checked + report.states_pruned == total
    assert report.graphs_checked == 3


def test_search_determinism():
    bounds = Bounds(n_blocks=2, n_validators=4, max_votes=6, max_ffg_votes=2)
    a = search(bounds)
    b = search(bounds)
    assert (a.verdict, a.states_checked, a.graphs_checked, a.states_pruned) == (
        b.verdict,
        b.states_checked,
        b.graphs_checked,
        b.states_pruned,
    )


@pytest.mark.usefixtures("two_cpus")
def test_search_jobs_parity():
    # every report field but the wall time agrees.  The smallest quorum-half
    # violation needs four distinct votes: one justifying and one finalizing
    # link per branch; it lies in the first unit, so the later tasks are
    # skipped.  The unmutated three-block search holds over 16 units.  Every
    # mutation runs at two small bounds as well.
    cases = [
        (Bounds(n_blocks=2, n_validators=4, max_votes=8, max_ffg_votes=4),
         Mutation.QUORUM_HALF, VERDICT_COUNTEREXAMPLE),
        (Bounds(n_blocks=3, n_validators=4, max_votes=8, max_ffg_votes=4, max_chkp_slot=3),
         Mutation.NONE, VERDICT_HOLDS),
    ]
    fork = Bounds(n_blocks=2, n_validators=2, max_votes=8, max_ffg_votes=4, max_chkp_slot=3)
    nonstrict = Bounds(n_blocks=3, n_validators=2, max_votes=6, max_ffg_votes=3,
                       max_chkp_slot=3, slot_rule="nonstrict")
    hit, holds = VERDICT_COUNTEREXAMPLE, VERDICT_HOLDS
    for name, fork_verdict, nonstrict_verdict in [
        ("none", holds, holds),
        ("quorum-half", hit, holds),
        ("disable-e1", hit, holds),
        ("disable-e2", holds, holds),
        ("disable-e1,disable-e2", hit, holds),
        ("drop-ancestry", holds, hit),
        ("quorum-half,drop-ancestry", hit, hit),
    ]:
        mutation = parse_mutation(name)
        cases += [(fork, mutation, fork_verdict), (nonstrict, mutation, nonstrict_verdict)]
    for bounds, mutation, verdict in cases:
        seq = replace(search(bounds, mutation, jobs=1), wall_time=0.0)
        par = replace(search(bounds, mutation, jobs=2), wall_time=0.0)
        assert seq.verdict == verdict
        assert seq == par
        assert seq.states_bounded > 0


def test_search_budget_inconclusive():
    # four FFG votes: the monotone bound leaves the fork unit's two-branch
    # combinations, whose rows are still scanned
    bounds = Bounds(n_blocks=2, n_validators=4, max_votes=6, max_ffg_votes=4)
    report = search(bounds, budget=100)
    assert report.verdict == VERDICT_INCONCLUSIVE
    assert report.states_checked == 100
    full = search(bounds)
    capped = search(bounds, budget=full.states_checked)
    assert capped.verdict == VERDICT_HOLDS  # budget exactly sufficient


def test_mutation_counterexamples_replay():
    bounds = Bounds(
        n_blocks=2, n_validators=4, max_votes=12, max_ffg_votes=4, max_chkp_slot=3
    )
    for name in ("quorum-half", "disable-e1,disable-e2"):
        mutation = parse_mutation(name)
        report = search(bounds, mutation)
        assert report.verdict == VERDICT_COUNTEREXAMPLE, name
        cex = report.counterexample
        assert not cex.safety.holds
        replayed = accountable_safety(cex.state, mutation)
        assert not replayed.holds
        assert replayed.disagreement
        # the same state is safe without the mutation
        assert accountable_safety(cex.state).holds


@pytest.mark.parametrize("n_validators", [1, 2, 3])
def test_counterexample_with_genesis_in_the_conflicting_pair(n_validators):
    # under drop-ancestry the catalog forest's first counterexample finalizes
    # genesis and c1, which lies on a detached chain and so conflicts with it
    bounds = Bounds(n_blocks=0, n_validators=n_validators, max_votes=6, max_ffg_votes=4,
                    max_chkp_slot=3, graph_filter="forest")
    mutation = parse_mutation("drop-ancestry")
    expected = next(state for state in enumerate_states(bounds, catalog_forest("forest"))
                    if not accountable_safety(state, mutation).holds)
    assert finality_view(expected, mutation=mutation).finalized_blocks == {GENESIS, "c1"}
    report = search(bounds, mutation)
    assert report.verdict == VERDICT_COUNTEREXAMPLE
    assert report.counterexample.state == expected


def test_every_primitive_mutation_is_detected():
    # documented smallest bounds per primitive mutation: quorum-half,
    # disable-e1 and drop-ancestry(nonstrict) fall at the criterion-3 sizes;
    # disable-e2 alone needs slot-separated justification rounds, so the
    # surround pair only appears once checkpoint slots reach 4
    chk3 = Bounds(n_blocks=2, n_validators=4, max_votes=12, max_ffg_votes=4, max_chkp_slot=3)
    chk3_loose = replace(chk3, slot_rule="nonstrict")
    chk4_loose = replace(chk3_loose, max_chkp_slot=4)
    cases = [
        (Mutation.QUORUM_HALF, chk3),
        (Mutation.DISABLE_E1, chk3),
        (Mutation.DISABLE_E2, chk4_loose),
        (Mutation.DROP_ANCESTRY, chk3_loose),
    ]
    for mutation, bounds in cases:
        report = search(bounds, mutation)
        assert report.verdict == VERDICT_COUNTEREXAMPLE, mutation
        assert not accountable_safety(report.counterexample.state, mutation).holds


def test_counterexample_scenarios_round_trip():
    from ffgmc.scenario import parse_scenario, scenario_to_json

    bounds = Bounds(n_blocks=2, n_validators=4, max_votes=12, max_ffg_votes=4, max_chkp_slot=3)
    report = search(bounds, Mutation.QUORUM_HALF)
    state = report.counterexample.state
    assert parse_scenario(scenario_to_json(state)) == state


def test_drop_ancestry_needs_nonstrict_at_chk3():
    strict = Bounds(
        n_blocks=2, n_validators=4, max_votes=12, max_ffg_votes=4, max_chkp_slot=3
    )
    assert search(strict, Mutation.DROP_ANCESTRY).verdict == VERDICT_HOLDS
    loose = replace(strict, slot_rule="nonstrict")
    report = search(loose, Mutation.DROP_ANCESTRY)
    assert report.verdict == VERDICT_COUNTEREXAMPLE
    assert not accountable_safety(report.counterexample.state, Mutation.DROP_ANCESTRY).holds


def test_unmutated_search_holds_small():
    report = search(Bounds(n_blocks=2, n_validators=4, max_votes=9, max_ffg_votes=3))
    assert report.verdict == VERDICT_HOLDS


def test_check_lfp_gfp_small():
    report = check_lfp_gfp(Bounds(n_blocks=1, n_validators=3, max_votes=3))
    assert report.mismatch is None
    assert report.states_checked > 0


def test_find_example_properties():
    bounds = Bounds(n_blocks=1, n_validators=4, max_votes=6)
    state = find_example(bounds, "finalized-nongenesis")
    view = finality_view(state)
    assert view.finalized - {GENESIS_CHECKPOINT}

    state = find_example(bounds, "justified-nongenesis")
    assert finality_view(state).justified - {GENESIS_CHECKPOINT}

    # quorum unreachable: 2 signed votes cannot hit ceil(2*4/3) = 3 senders
    none = find_example(
        Bounds(n_blocks=1, n_validators=4, max_votes=2), "justified-nongenesis"
    )
    assert none is None

    confl = find_example(
        Bounds(n_blocks=2, n_validators=4, max_votes=12, max_ffg_votes=4, max_chkp_slot=3),
        "conflicting-finalized",
    )
    verdict = accountable_safety(confl)
    assert verdict.disagreement
    assert 3 * len(verdict.slashable) >= 4  # safety still holds

    with pytest.raises(InputError):
        find_example(bounds, "perpetual-motion")


def test_find_example_budget():
    # at N=5 the first combination the monotone bound keeps has its first
    # hit past row 10
    with pytest.raises(SearchBudgetExceeded):
        find_example(
            Bounds(n_blocks=1, n_validators=5, max_votes=8), "finalized-nongenesis", budget=10
        )


def test_run_arguments_validated():
    bounds = Bounds(n_blocks=1, n_validators=4, max_votes=3)
    with pytest.raises(InputError):
        search(bounds, jobs=0)
    with pytest.raises(InputError):
        search(bounds, budget=-5)
    with pytest.raises(InputError):
        find_example(bounds, "justified-nongenesis", budget=-1)
    with pytest.raises(InputError):
        Bounds(n_blocks=1, n_validators=4, max_votes=3, max_chkp_slot=-1)


# --- the monotone combination bound against the unreduced space -----------

@pytest.mark.parametrize("property_name,largest", [
    ("justified-nongenesis", 1),    # hits with one distinct vote
    ("finalized-nongenesis", 2),
    ("conflicting-finalized", 4),   # the top level
])
def test_a_scan_grows_no_core_past_the_level_it_stops_at(monkeypatch, property_name, largest):
    # at 2 blocks (N=4, 12 votes, 4 FFG votes, checkpoint slots up to 3) the
    # cores are grown one size per level read, so a search that stops at
    # level u grows no core of more than u votes
    grow, sizes = kernels._grow, []

    def recorded(*args):
        grown = grow(*args)
        sizes.append(grown[0].shape[1])
        return grown

    monkeypatch.setattr(kernels, "_grow", recorded)
    bounds = Bounds(n_blocks=2, n_validators=4, max_votes=12, max_ffg_votes=4, max_chkp_slot=3)
    assert find_example(bounds, property_name) is not None
    assert max(sizes) == largest


def _keep_every_core(justified, finalized, clash, mode):
    return np.ones(justified.shape, dtype=bool)


def _unbounded(monkeypatch, fn, *args):
    # every core kept pads into every combination
    with monkeypatch.context() as patch:
        patch.setattr(kernels, "keeps", _keep_every_core)
        return fn(*args)


def _small(**kw):
    base = dict(n_blocks=2, max_ffg_votes=4, max_chkp_slot=3)
    base.update(kw)
    return Bounds(**base)


REDUCTION_SEARCHES = [
    ("none", _small(n_validators=3, max_votes=6, max_ffg_votes=3)),
    ("none", _small(n_validators=1, max_votes=4, max_chkp_slot=2, slot_rule="nonstrict")),
    ("quorum-half", _small(n_validators=2, max_votes=4)),
    ("disable-e1", _small(n_validators=1, max_votes=4)),
    ("disable-e2", _small(n_validators=1, max_votes=4)),
    ("disable-e1,disable-e2", _small(n_validators=2, max_votes=8)),
    ("drop-ancestry", _small(n_validators=2, max_votes=6, slot_rule="nonstrict")),
    ("disable-e1,disable-e2",
     _small(n_validators=1, max_votes=4, slot_mode="free", max_slot=2)),
    ("quorum-half", _small(n_blocks=0, n_validators=2, max_votes=4, graph_filter="m3")),
    ("disable-e1,disable-e2",
     _small(n_blocks=0, n_validators=1, max_votes=4, max_chkp_slot=2, slot_rule="nonstrict",
            graph_filter="forest")),
]


@pytest.mark.parametrize(
    "mutation_name,bounds", REDUCTION_SEARCHES,
    ids=[f"{m}-{b.slot_rule}-{b.slot_mode}-{b.graph_filter}" for m, b in REDUCTION_SEARCHES],
)
def test_monotone_bound_matches_unreduced_search(monkeypatch, mutation_name, bounds):
    mutation = parse_mutation(mutation_name)
    reduced = search(bounds, mutation)
    full = _unbounded(monkeypatch, search, bounds, mutation)
    assert reduced.verdict == full.verdict
    assert reduced.counterexample == full.counterexample  # state, verdict, graph_index
    assert reduced.graphs_checked == full.graphs_checked
    assert (reduced.states_checked + reduced.states_pruned
            == full.states_checked + full.states_pruned)
    # the bound only moves rows from checked to pruned
    assert full.states_bounded == 0
    assert reduced.states_checked + reduced.states_bounded == full.states_checked
    assert reduced.states_bounded > 0


@pytest.mark.parametrize("bounds,covered,bounded", [
    # 3 blocks, 5 FFG votes, checkpoint slots up to 4
    (Bounds(n_blocks=3, n_validators=4, max_votes=12, max_ffg_votes=5, max_chkp_slot=4),
     465_750_014_138, 348_313_022_186),
    # 4 blocks, 4 FFG votes, checkpoint slots up to 5
    (Bounds(n_blocks=4, n_validators=4, max_votes=12, max_ffg_votes=4, max_chkp_slot=5),
     1_001_144_805_202, 856_939_558_361),
], ids=["3-blocks", "4-blocks"])
def test_bound_dominated_searches_hold(bounds, covered, bounded):
    # unmutated N=4 proofs past the benchmark workloads, in which the
    # monotone bound drops almost every combination: the verdict and the
    # covered and bounded totals are pinned
    report = search(bounds)
    assert report.verdict == VERDICT_HOLDS
    assert report.states_checked + report.states_pruned == covered
    assert report.states_bounded == bounded


REDUCTION_EXAMPLES = [
    Bounds(n_blocks=1, n_validators=3, max_votes=4),
    _small(n_validators=2, max_votes=8),
    _small(n_validators=1, max_votes=4, slot_mode="free", max_slot=2),
    _small(n_blocks=0, n_validators=2, max_votes=4, max_ffg_votes=3, max_chkp_slot=2,
           slot_rule="nonstrict", graph_filter="forest"),
]


@pytest.mark.parametrize("bounds", REDUCTION_EXAMPLES,
                         ids=["one-block", "fork", "free-slots", "catalog-forest"])
@pytest.mark.parametrize("property_name", sorted(PROPERTY_MODES))
def test_monotone_bound_matches_unreduced_examples(monkeypatch, bounds, property_name):
    reduced = find_example(bounds, property_name)
    assert reduced == _unbounded(monkeypatch, find_example, bounds, property_name)


# --- combination batches against one combination per scan call -------------

BATCHING_CASES = [
    # a budget cut inside a batch of several kept combinations, signer floor on
    (Bounds(n_blocks=2, n_validators=3, max_votes=9, max_ffg_votes=5, max_chkp_slot=3),
     "none", 20000),
    (Bounds(n_blocks=2, n_validators=3, max_votes=9, max_ffg_votes=5, max_chkp_slot=3),
     "none", None),
    (Bounds(n_blocks=2, n_validators=2, max_votes=8, max_ffg_votes=4, max_chkp_slot=3),
     "quorum-half", None),
    (Bounds(n_blocks=2, n_validators=2, max_votes=8, max_ffg_votes=4, max_chkp_slot=3),
     "disable-e1,disable-e2", 700),
]


@pytest.mark.parametrize("bounds,mutation_name,budget", BATCHING_CASES)
def test_combination_batches_leave_reports_unchanged(monkeypatch, bounds, mutation_name, budget):
    # a level's combinations scanned one per kernel call, as the
    # per-combination scan did, up to the first hit; batching may change no
    # verdict or counter
    mutation = parse_mutation(mutation_name)
    batched = replace(search(bounds, mutation, budget=budget), wall_time=0.0)
    scan_states = enumerator.scan_states

    def one_at_a_time(level, projected, *args):
        n_rows, combos = level[0].shape[0], projected._combos
        for c in range(len(combos)):
            hit, _ = scan_states(level, project_tables(projected._tables, combos[c : c + 1]), *args)
            if hit >= 0:
                return c * n_rows + hit, c * n_rows + hit + 1
        return -1, len(combos) * n_rows

    with monkeypatch.context() as patch:
        patch.setattr(enumerator, "scan_states", one_at_a_time)
        assert batched == replace(search(bounds, mutation, budget=budget), wall_time=0.0)


# --- scanning the kept cores against scanning every kept combination --------

MUTATION_LABELS = (
    "none", "quorum-half", "disable-e1", "disable-e2", "disable-e1,disable-e2",
    "drop-ancestry", "quorum-half,drop-ancestry",
)
CORE_BOUNDS = [
    Bounds(n_blocks=2, n_validators=2, max_votes=8, max_ffg_votes=5, max_chkp_slot=3),
    Bounds(n_blocks=3, n_validators=2, max_votes=6, max_ffg_votes=5, max_chkp_slot=3,
           slot_rule="nonstrict"),
    Bounds(n_blocks=3, n_validators=1, max_votes=5, max_ffg_votes=5, max_chkp_slot=3,
           slot_rule="nonstrict"),
]


def _every_kept_a_core(kept, source, padded=kernels._padded):
    combos, core = padded(kept, source)
    return combos, np.ones_like(core)


def _core_reports(bounds):
    """Every report over `bounds`: a search under each mutation, whole and
    cut by a budget of half its checked rows, and an example search for each
    property at budgets that cut at several depths, or none."""
    reports = []
    for name in MUTATION_LABELS:
        mutation = parse_mutation(name)
        whole = search(bounds, mutation)
        cut = search(bounds, mutation, budget=whole.states_checked // 2)
        reports += [replace(report, wall_time=0.0) for report in (whole, cut)]
    for property_name in sorted(PROPERTY_MODES):
        for budget in (None, 0, 5, 50, 500):
            try:
                reports.append(find_example(bounds, property_name, budget))
            except SearchBudgetExceeded as cut:
                reports.append(("cut", cut.states_checked))
    return reports


@pytest.mark.parametrize("bounds", CORE_BOUNDS, ids=["2-blocks", "3-blocks", "3-blocks-N1"])
def test_scanning_only_cores_leaves_reports_unchanged(monkeypatch, bounds):
    # a padded kept combination holds no first hit (`kernels.kept_levels`):
    # with every kept combination marked a core, so that the minimal padded
    # ones are scanned too, every search and example search reports the
    # same, while fewer combinations reach the kernel.  Scanning only the
    # padded ones, or none, changes some report
    scan_states, scanned = enumerator.scan_states, []

    def counted(level, projected, mode):
        scanned[-1] += len(projected._combos)
        return scan_states(level, projected, mode)

    monkeypatch.setattr(enumerator, "scan_states", counted)
    scanned.append(0)
    cores = _core_reports(bounds)
    with monkeypatch.context() as patch:
        patch.setattr(kernels, "_padded", _every_kept_a_core)
        scanned.append(0)
        assert cores == _core_reports(bounds)
    assert scanned[0] < scanned[1]
    verdicts = {report.verdict for report in cores[: 2 * len(MUTATION_LABELS)]}
    assert {VERDICT_COUNTEREXAMPLE, VERDICT_INCONCLUSIVE} <= verdicts
    assert any(isinstance(report, tuple) for report in cores)
