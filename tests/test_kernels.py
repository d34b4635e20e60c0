"""The scan kernel against the pure reference semantics.

The strongest checks here walk (combination, row) pairs of small bounded
spaces in kernel scan order, evaluate the pure reference path on each
materialized state, and require the kernel's first hit and scanned count to
equal the reference's, for every scan mode.
"""

import itertools
import tracemalloc
from math import comb
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from ffgmc.enumerator import Bounds, iter_units, materialize_state
from ffgmc.finality import finality_view
import ffgmc.tables
from ffgmc import kernels
from ffgmc.kernels import (
    MODE_CONFLICTING_FINALIZED,
    MODE_COUNTEREXAMPLE,
    MODE_FINALIZED_NONGENESIS,
    MODE_JUSTIFIED_NONGENESIS,
    kept_levels,
    scan_states,
)
from ffgmc.catalog import catalog_forest, catalog_ids
from ffgmc.model import (
    GENESIS, GENESIS_CHECKPOINT, Block, BlockForest, InputError, are_conflicting,
)
from ffgmc.finality import finalizes, supports
from ffgmc.mutation import Mutation, parse_mutation, quorum_met
from ffgmc.slashing import accountable_safety, disagreement, slash_kind
from ffgmc.tables import (
    MAX_STATE_ROWS,
    MAX_VOTE_BITS,
    build_graph_tables,
    check_level,
    distinct_rows,
    min_signers_for_quorum,
    project_tables,
    state_count,
    state_table,
)
from reference import canonical_rows

ALL_MODES = (
    MODE_COUNTEREXAMPLE,
    MODE_FINALIZED_NONGENESIS,
    MODE_JUSTIFIED_NONGENESIS,
    MODE_CONFLICTING_FINALIZED,
)

MUTATIONS = [
    Mutation.NONE, Mutation.QUORUM_HALF, Mutation.DROP_ANCESTRY,
    Mutation.DISABLE_E1 | Mutation.DISABLE_E2,
]
# every mutation label the searches are tested under
ALL_MUTATIONS = [
    parse_mutation(name) for name in (
        "none", "quorum-half", "disable-e1", "disable-e2", "disable-e1,disable-e2",
        "drop-ancestry", "quorum-half,drop-ancestry",
    )
]


def reference_flags(state, mutation=Mutation.NONE):
    view = finality_view(state, mutation=mutation)
    safety = accountable_safety(state, mutation)
    return {
        MODE_COUNTEREXAMPLE: not safety.holds,
        MODE_FINALIZED_NONGENESIS: bool(view.finalized - {GENESIS_CHECKPOINT}),
        MODE_JUSTIFIED_NONGENESIS: bool(view.justified - {GENESIS_CHECKPOINT}),
        MODE_CONFLICTING_FINALIZED: disagreement(state, view),
    }


def all_combinations(m, u):
    return np.array(list(itertools.combinations(range(m), u)), dtype=np.int64).reshape(
        comb(m, u), u
    )


def kept_level(tables, every, mode):
    """The kept combinations at the level of `every` (its `all_combinations`),
    the last level `kept_levels` yields up to there, as a mask over it, once
    they are checked to be rows of `every` in its order: read as base-M
    numbers, both are ascending."""
    u = every.shape[1]
    *_, combos = kept_levels(tables, mode, u)
    digits = len(tables.votes) ** np.arange(u - 1, -1, -1, dtype=np.int64)
    positions = np.searchsorted(every @ digits, combos @ digits)
    assert (np.diff(positions) > 0).all(), (mode, u)
    assert np.array_equal(combos, every[positions]), (mode, u)
    keep = np.zeros(len(every), dtype=bool)
    keep[positions] = True
    return keep


@pytest.mark.parametrize("mutation", MUTATIONS, ids=lambda m: m.label())
def test_kernel_first_hits_match_reference(mutation):
    bounds = Bounds(
        n_blocks=2, n_validators=3, max_votes=4, max_ffg_votes=2, max_chkp_slot=2,
        slot_rule="nonstrict",
    )
    forest = BlockForest([Block("b1", 1, GENESIS), Block("b2", 1, GENESIS)])
    tables = build_graph_tables(forest, bounds.slot_rule, bounds.max_chkp_slot, mutation)
    checked_states = 0
    for u in range(0, 3):
        level = state_table(u, bounds.n_validators, bounds.max_votes, 0, mutation)
        rows = level[0]
        combos = all_combinations(len(tables.votes), u)
        n_rows = rows.shape[0]
        first = {mode: -1 for mode in ALL_MODES}   # flat index over all combinations
        for c, combo in enumerate(combos):
            projected = project_tables(tables, combos[c : c + 1])
            expected = {mode: -1 for mode in ALL_MODES}
            for row_idx in range(n_rows):
                state = materialize_state(
                    bounds, tables, tuple(int(x) for x in combo),
                    tuple(int(x) for x in rows[row_idx]),
                )
                flags = reference_flags(state, mutation)
                for mode in ALL_MODES:
                    if flags[mode] and expected[mode] == -1:
                        expected[mode] = row_idx
                checked_states += 1
            for mode in ALL_MODES:
                if first[mode] == -1 and expected[mode] != -1:
                    first[mode] = c * n_rows + expected[mode]
                hit, scanned = scan_states(level, projected, mode)
                assert hit == expected[mode], (mode, combo)
                want = n_rows if expected[mode] == -1 else expected[mode] + 1
                assert scanned == want
        projected = project_tables(tables, combos)
        for mode in ALL_MODES:
            hit, scanned = scan_states(level, projected, mode)
            assert hit == first[mode], (mode, u)
            assert scanned == (len(combos) * n_rows if first[mode] == -1 else first[mode] + 1)
    assert checked_states > 400


@pytest.mark.parametrize(
    "mutation", MUTATIONS + [Mutation.DISABLE_E1, Mutation.DISABLE_E2], ids=lambda m: m.label()
)
def test_counterexample_hits_match_reference(mutation):
    # four distinct votes finalize both branches of the fork; at N=3 some of
    # those rows leave exactly one validator slashable, which is no
    # counterexample (3 * 1 < 3 fails), so the slashing threshold is exercised
    bounds = Bounds(n_blocks=2, n_validators=3, max_votes=8, max_chkp_slot=2,
                    slot_rule="nonstrict")
    forest = BlockForest([Block("b1", 1, GENESIS), Block("b2", 1, GENESIS)])
    tables = build_graph_tables(forest, bounds.slot_rule, bounds.max_chkp_slot, mutation)
    every = all_combinations(len(tables.votes), 4)
    # the combinations are picked by the unmutated bound, whatever the mutation
    plain = build_graph_tables(forest, bounds.slot_rule, bounds.max_chkp_slot)
    keep = kept_level(plain, every, MODE_COUNTEREXAMPLE)
    combos = every[np.flatnonzero(keep | (np.arange(len(every)) < 2))]
    level = state_table(4, 3, bounds.max_votes, 0, mutation)
    rows = level[0]
    expected = {MODE_COUNTEREXAMPLE: -1, MODE_CONFLICTING_FINALIZED: -1}
    for flat in range(len(combos) * rows.shape[0]):
        combo, row = combos[flat // rows.shape[0]], rows[flat % rows.shape[0]]
        state = materialize_state(
            bounds, tables, tuple(int(x) for x in combo), tuple(int(x) for x in row)
        )
        safety = accountable_safety(state, mutation)
        for mode, flag in ((MODE_COUNTEREXAMPLE, not safety.holds),
                           (MODE_CONFLICTING_FINALIZED, safety.disagreement)):
            if flag and expected[mode] == -1:
                expected[mode] = flat
        if -1 not in expected.values():
            break
    assert expected[MODE_CONFLICTING_FINALIZED] >= 0
    projected = project_tables(tables, combos)
    for mode, first in expected.items():
        want = (first, first + 1) if first >= 0 else (-1, len(combos) * rows.shape[0])
        assert scan_states(level, projected, mode) == want, mode


def counterexample_rows(level, projected):
    """The rows of `level` that the kernel reports as counterexamples in
    `projected`'s one combination: each next hit, scanning past the last."""
    rows, families, index = level
    hits, start = [], 0
    while True:
        hit, _ = scan_states((rows[start:], families, index[start:]), projected,
                             MODE_COUNTEREXAMPLE)
        if hit < 0:
            return hits
        hits.append(start + hit)
        start += hit + 1


@pytest.mark.parametrize("n_validators,mutation,max_votes,floor", [
    (3, Mutation.NONE, 8, 0),
    (6, Mutation.QUORUM_HALF, 12, 6),
], ids=["N=3", "N=6-quorum-half"])
def test_a_third_slashable_is_no_counterexample(n_validators, mutation, max_votes, floor):
    # the four votes that finalize both branches of the fork, the one
    # combination of four the bound keeps: on every row of the level the
    # kernel's counterexample verdict is accountable_safety's, and some
    # rows finalize both branches with exactly N/3 validators slashable,
    # which is no hit (3 * N/3 >= N); at N=6 under quorum-half others,
    # with fewer, are
    bounds = Bounds(n_blocks=2, n_validators=n_validators, max_votes=max_votes,
                    max_chkp_slot=2, slot_rule="nonstrict")
    forest = BlockForest([Block("b1", 1, GENESIS), Block("b2", 1, GENESIS)])
    tables = build_graph_tables(forest, bounds.slot_rule, bounds.max_chkp_slot, mutation)
    *_, (combo,) = kept_levels(tables, MODE_COUNTEREXAMPLE, 4)
    level = state_table(4, n_validators, max_votes, floor, mutation)
    want, boundary = [], []
    for r, row in enumerate(level[0].tolist()):
        safety = accountable_safety(materialize_state(bounds, tables, combo.tolist(), row),
                                    mutation)
        if not safety.holds:
            want.append(r)
        if safety.disagreement and 3 * len(safety.slashable) == n_validators:
            boundary.append(r)
    assert counterexample_rows(level, project_tables(tables, combo[None])) == want
    assert boundary and not set(boundary) & set(want)
    assert bool(want) == (mutation == Mutation.QUORUM_HALF)


@pytest.mark.parametrize("mutation", ALL_MUTATIONS, ids=lambda m: m.label())
def test_projection_matches_graph_tables(mutation):
    # every packed mask, bit by bit, against the reference predicates: bit i
    # of src_sandwich[c, j] says vote i supports vote j's source checkpoint,
    # of src_fin[c, j] that vote i finalizes it, of clashes[c, j] that the
    # sources of votes i and j conflict, and of partners(c)[j] that votes i
    # and j form a slashable pair
    forests = [
        BlockForest([Block("b1", 1, GENESIS), Block("b2", 1, GENESIS)]),
        BlockForest([Block("b1", 1, GENESIS), Block("b2", 2, "b1")]),
        catalog_forest("forest"),
    ]
    for forest in forests:
        tables = build_graph_tables(forest, "nonstrict", 2, mutation)
        cps, votes = tables.checkpoints, tables.votes
        for u in range(4):
            combos = all_combinations(len(votes), u)
            projected = project_tables(tables, combos)
            for c, combo in enumerate(combos):
                for j, vote in enumerate(combo):
                    src = tables.vote_src[vote]
                    assert votes[vote].source == cps[src]
                    assert (projected.from_genesis[c] >> j & 1) == (src == 0)
                    for i, other in enumerate(combo):
                        supported = supports(forest, votes[other], cps[src], mutation)
                        assert (projected.src_sandwich[c, j] >> i & 1) == supported
                        finalizing = finalizes(votes[other], cps[src])
                        assert (projected.src_fin[c, j] >> i & 1) == finalizing
                        clash = are_conflicting(forest, cps[src].block, votes[other].source.block)
                        assert (projected.clashes[c, j] >> i & 1) == clash, (combo, i, j)
                        for k, cp in enumerate(cps):
                            supported = supports(forest, votes[other], cp, mutation)
                            assert (projected.sandwich[c, k] >> i & 1) == supported
                    for i, other in enumerate(combo):
                        paired = i != j and slash_kind(votes[vote], votes[other], mutation)
                        assert (projected.partners(c)[j] >> i & 1) == bool(paired), (combo, i, j)
                # a vote subset is slashable iff it holds a slashable pair
                subsets = np.arange(2**u, dtype=np.int64)[:, None]
                counts = kernels._holds_pair(subsets, projected.partners(c)).sum(axis=1)
                for t in range(2**u):
                    held = [votes[v] for i, v in enumerate(combo) if t >> i & 1]
                    slashable = any(
                        slash_kind(a, b, mutation) for a, b in itertools.combinations(held, 2)
                    )
                    assert counts[t] == slashable, (combo, t)


COLUMNS = ("sandwich", "src_sandwich", "from_genesis", "src_fin", "clashes")
# the catalog graphs that build (i1 and i2 are broken on purpose)
CATALOG_GRAPHS = [name for name in catalog_ids() if name not in ("i1", "i2")]


def derived_columns(tables, combo):
    """Every projected column of one combination, bit by bit from the graph tables."""
    src = [int(tables.vote_src[v]) for v in combo]

    def mask(bit):
        return sum(1 << i for i in range(len(combo)) if bit(i))

    return {
        "sandwich": [mask(lambda i: tables.sandwich[k, combo[i]])
                     for k in range(len(tables.checkpoints))],
        "src_sandwich": [mask(lambda i: tables.sandwich[s, combo[i]]) for s in src],
        "from_genesis": mask(lambda i: src[i] == 0),
        "src_fin": [mask(lambda i: tables.finalizing[combo[i]] and src[i] == s) for s in src],
        "clashes": [mask(lambda i: tables.cp_conflict[s] >> src[i] & 1) for s in src],
    }


@pytest.mark.parametrize("mutation", [Mutation.NONE, Mutation.QUORUM_HALF, Mutation.DROP_ANCESTRY],
                         ids=lambda m: m.label())
@pytest.mark.parametrize("graph", CATALOG_GRAPHS)
def test_lazy_columns_match_the_graph_tables(graph, mutation):
    # each column, computed on its first read in a shuffled order, equals its
    # per-combination derivation; up to 100 combinations of each size u <= 4,
    # in shuffled order, so no column can lean on the combinations' order
    tables = build_graph_tables(catalog_forest(graph), "nonstrict", 3, mutation)
    rng = np.random.default_rng(len(tables.votes))
    for u in range(5):
        every = all_combinations(len(tables.votes), u)
        combos = every[rng.permutation(len(every))[:100]]
        projected = project_tables(tables, combos)
        derived = [derived_columns(tables, [int(v) for v in combo]) for combo in combos]
        for name in rng.permutation(COLUMNS):
            column = getattr(projected, name)
            assert column.dtype == np.int64, name
            assert column.tolist() == [columns[name] for columns in derived], (name, u)


@pytest.mark.parametrize("mutation", ALL_MUTATIONS, ids=lambda m: m.label())
@pytest.mark.parametrize("graph", CATALOG_GRAPHS)
def test_partners_match_slash_kind(graph, mutation):
    # bit i of partners(c)[j] against `slash_kind` on votes i and j, in both
    # orders, for up to 100 combinations of each size u <= 4 in shuffled order
    tables = build_graph_tables(catalog_forest(graph), "nonstrict", 3, mutation)
    votes = tables.votes
    rng = np.random.default_rng(len(votes))
    paired = 0
    for u in range(5):
        every = all_combinations(len(votes), u)
        combos = every[rng.permutation(len(every))[:100]]
        projected = project_tables(tables, combos)
        for c, combo in enumerate(combos):
            partners = projected.partners(c)
            assert partners.dtype == np.int64 and partners.shape == (u,)
            for i, j in itertools.product(range(u), repeat=2):
                kind = slash_kind(votes[combo[i]], votes[combo[j]], mutation)
                want = i != j and kind is not None
                assert (int(partners[j]) >> i & 1) == want, (combo, i, j)
                paired += want
    assert paired or Mutation.DISABLE_E1 | Mutation.DISABLE_E2 in mutation


# (mode, u, N, mutation, whether the scan hits, the columns it reads) on
# the fork: a conflicting finalized pair takes four votes, and under
# quorum-half two disjoint pairs of four validators finalize it
SCAN_READS = [
    (MODE_JUSTIFIED_NONGENESIS, 3, 3, Mutation.NONE, True,
     {"src_sandwich", "from_genesis", "sandwich"}),
    (MODE_FINALIZED_NONGENESIS, 3, 3, Mutation.NONE, True,
     {"src_sandwich", "from_genesis", "src_fin", "clashes"}),
    (MODE_COUNTEREXAMPLE, 3, 3, Mutation.NONE, False,
     {"src_sandwich", "from_genesis", "src_fin", "clashes"}),
    (MODE_COUNTEREXAMPLE, 4, 4, Mutation.QUORUM_HALF, True,
     {"src_sandwich", "from_genesis", "src_fin", "clashes"}),
]


@pytest.mark.parametrize("mode,u,n_validators,mutation,hits,read", SCAN_READS,
                         ids=["justified", "finalized", "counterexample-no-hit",
                              "counterexample-hit"])
def test_a_scan_computes_only_the_columns_it_reads(
    monkeypatch, mode, u, n_validators, mutation, hits, read
):
    # and evaluates slashable pairs only to expand a counterexample's rows
    pairs = []
    slash_kind = ffgmc.tables.slash_kind
    monkeypatch.setattr(ffgmc.tables, "slash_kind", lambda *a: pairs.append(a) or slash_kind(*a))
    forest = BlockForest([Block("b1", 1, GENESIS), Block("b2", 1, GENESIS)])
    tables = build_graph_tables(forest, "nonstrict", 2, mutation)
    level = state_table(u, n_validators, 2 * n_validators, 0, mutation)
    projected = project_tables(tables, all_combinations(len(tables.votes), u))
    assert not projected.__dict__.keys() & set(COLUMNS)
    hit, _ = scan_states(level, projected, mode)
    assert (hit >= 0) == hits
    assert projected.__dict__.keys() & set(COLUMNS) == read
    assert bool(pairs) == (hits and mode == MODE_COUNTEREXAMPLE)


# Hand-made combinations.  A combination is (sources, sandwich columns, fin
# masks, partner masks): vote j has source checkpoint sources[j], sandwiches
# the checkpoints of the K-bit mask columns[j], and forms a slashable pair
# with the votes of partners[j] (a symmetric relation, see `symmetric`);
# fin[cp] holds the votes that finalize checkpoint cp.  Three properties of
# real tables hold here too: the votes come in source order and sandwich
# only checkpoints above their source (see `above`), the order that
# `tables.GraphTables.sandwich` checks; a vote finalizes only its own source
# (see `sourced`); and checkpoint conflict is symmetric and irreflexive.


def symmetric(raw):
    """Masks of the symmetric, irreflexive closure of the relation that n
    drawn n-bit masks give."""
    n = len(raw)
    return [sum(1 << j for j in range(n) if j != i and (raw[i] >> j & 1 or raw[j] >> i & 1))
            for i in range(n)]


def above(sources, cols):
    """Each vote's sandwich column kept to the checkpoints above its source."""
    return [col & ~((2 << s) - 1) for s, col in zip(sources, cols)]


def sourced(sources, raw):
    """fin masks kept to the votes sourced at each checkpoint, from K drawn masks."""
    return [mask & sum(1 << j for j, s in enumerate(sources) if s == cp)
            for cp, mask in enumerate(raw)]


def vote_masks(rows):
    return np.array(rows, dtype=np.int64).reshape(len(rows), -1)


def hand_made_tables(k, combos, cp_conflict):
    """The projected columns of hand-made combinations over K checkpoints,
    under the names the kernel reads."""
    sandwich = np.array(
        [[sum(((col >> cp) & 1) << j for j, col in enumerate(cols)) for cp in range(k)]
         for _, cols, _, _ in combos],
        dtype=np.int64,
    )
    return SimpleNamespace(
        sandwich=sandwich,
        src_sandwich=vote_masks(
            [[sandwich[c, s] for s in src] for c, (src, _, _, _) in enumerate(combos)]
        ),
        from_genesis=np.array(
            [sum(1 << j for j, s in enumerate(src) if s == 0) for src, _, _, _ in combos],
            dtype=np.int64,
        ),
        src_fin=vote_masks([[fin[s] for s in src] for src, _, fin, _ in combos]),
        clashes=vote_masks(
            [[sum((cp_conflict[s] >> t & 1) << i for i, t in enumerate(src)) for s in src]
             for src, _, _, _ in combos]
        ),
        partners=vote_masks([partners for _, _, _, partners in combos]).__getitem__,
    )


def hand_made_flags(k, combo, cp_conflict, row, n_validators, mutation):
    """Every mode's verdict on one row, iterating checkpoint sets directly."""
    src, cols, fin, partners = combo
    sandwich = [sum(((col >> cp) & 1) << j for j, col in enumerate(cols)) for cp in range(k)]

    def quorum(votes):
        return quorum_met(sum(1 for m in row if int(m) & votes), n_validators, mutation)

    def fixpoint(justified):
        while True:
            eligible = sum(1 << j for j, s in enumerate(src) if justified >> s & 1)
            grown = 1 | sum(1 << cp for cp in range(k) if quorum(sandwich[cp] & eligible))
            if grown == justified:
                return justified
            justified = grown

    justified = fixpoint(1)
    finalized = 1 | sum(1 << cp for cp in range(k) if justified >> cp & 1 and quorum(fin[cp]))
    disagreement = any(
        finalized >> a & 1 and finalized >> b & 1 and cp_conflict[a] >> b & 1
        for a in range(k) for b in range(k)
    )
    slashable = sum(
        1 for m in row
        if any(int(m) >> i & 1 and int(m) >> j & 1 and partners[i] >> j & 1
               for i, j in itertools.combinations(range(len(src)), 2))
    )
    return {
        MODE_COUNTEREXAMPLE: disagreement and 3 * slashable < n_validators,
        MODE_FINALIZED_NONGENESIS: finalized > 1,
        MODE_JUSTIFIED_NONGENESIS: justified > 1,
        MODE_CONFLICTING_FINALIZED: disagreement,
    }


def check_hand_made_scans(k, combos, cp_conflict, n_validators, max_votes, mutation,
                          modes, pair_batch=None):
    """Compare scan_states in each mode on hand-made tables with one
    row-by-row reference loop; return each mode's first hit."""
    u = len(combos[0][0])
    level = state_table(u, n_validators, max_votes, 0, mutation)
    rows = level[0]
    total = len(combos) * rows.shape[0]
    first = {}
    for flat in range(total):
        combo, row = combos[flat // rows.shape[0]], rows[flat % rows.shape[0]]
        flags = hand_made_flags(k, combo, cp_conflict, row, n_validators, mutation)
        for mode in modes:
            if flags[mode]:
                first.setdefault(mode, flat)
        if len(first) == len(modes):
            break
    projected = hand_made_tables(k, combos, cp_conflict)
    for mode in modes:
        expected = first.setdefault(mode, -1)
        with mock.patch.object(kernels, "_PAIR_BATCH", pair_batch or kernels._PAIR_BATCH):
            got = scan_states(level, projected, mode)
        assert got == (expected, expected + 1 if expected >= 0 else total), (mode, pair_batch)
    return first


def check_hand_made_scan(k, combos, cp_conflict, n_validators, max_votes, mutation,
                         mode, pair_batch=None):
    """Compare scan_states on hand-made tables with a row-by-row reference loop."""
    return check_hand_made_scans(k, combos, cp_conflict, n_validators, max_votes, mutation,
                                 (mode,), pair_batch)[mode]


def hand_made_combination(k, u):
    """A strategy for one hand-made combination of u votes over K checkpoints,
    in vote order: ascending sources, each vote sandwiching only checkpoints
    above its source.  Each vote draws at most one slashable partner, and
    some combinations plant a finalizing link from genesis (`finalizing`),
    so that counterexamples are common."""
    return st.tuples(
        st.lists(st.integers(0, k - 1), min_size=u, max_size=u).map(sorted),
        st.lists(st.integers(0, 2**k - 1), min_size=u, max_size=u),
        st.lists(st.integers(0, 2**u - 1), min_size=k, max_size=k),
        st.lists(st.sampled_from([0] + [1 << j for j in range(u)]), min_size=u, max_size=u)
        .map(symmetric),
        st.booleans(),
    ).map(lambda c: finalizing(*c[:4]) if c[4] else c[:4]).map(
        lambda c: (c[0], above(c[0], c[1]), sourced(c[0], c[2]), c[3])
    )


def finalizing(sources, cols, fin, partners):
    """Vote 0 leaves genesis and sandwiches vote 1's source, and vote 1
    finalizes that source (with two votes or more); later sources are raised
    to it, so the sources stay ascending."""
    if len(sources) < 2:
        return sources, cols, fin, partners
    target = sources[1] or 1
    fin = list(fin)
    fin[target] |= 0b10
    sources = [0, target, *(max(s, target) for s in sources[2:])]
    return sources, [cols[0] | 1 << target, *cols[1:]], fin, partners


def variant(k, combo, flip_sandwich, flip_fin, partners):
    """`combo` with some columns changed: its sandwich columns away from the
    votes' sources, above each vote's own, or which vote finalizes its source
    (each flipped or kept), or its slashable pairs (kept, none or all).  The
    justification pattern stays the same, and so does every other mode's
    pattern that does not read the changed columns."""
    sources, cols, fin, kept = combo
    u = len(sources)
    if flip_sandwich:
        elsewhere = (2**k - 1) & ~sum(1 << s for s in sources)
        cols = above(sources, [col ^ elsewhere for col in cols])
    if flip_fin:
        fin = sourced(sources, [mask ^ (2**u - 1) for mask in fin])
    if partners == "none":
        kept = [0] * u
    elif partners == "all":
        kept = [(2**u - 1) ^ (1 << i) for i in range(u)]
    return sources, cols, fin, kept


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_scan_matches_checkpoint_set_reference_on_hand_made_tables(data):
    # besides independent combinations, the draw holds variants of them:
    # each shares its combination's pattern in the modes that do not read
    # the columns it changes, and the scan meets them in any order
    k = data.draw(st.integers(2, 6), label="K")
    u = data.draw(st.integers(0, 4), label="u")
    n_validators = data.draw(st.integers(1, 3), label="N")
    max_votes = data.draw(st.integers(u, min(u * n_validators, 6)), label="max_votes")
    combos = data.draw(st.lists(hand_made_combination(k, u), min_size=1, max_size=2),
                       label="combinations")
    variants = data.draw(st.lists(st.tuples(
        st.integers(0, len(combos) - 1), st.booleans(), st.booleans(),
        st.sampled_from(["kept", "none", "all"]),
    ), min_size=1, max_size=4), label="variants")
    combos = data.draw(st.permutations(
        combos + [variant(k, combos[i], *changes) for i, *changes in variants]
    ), label="order")
    cp_conflict = data.draw(
        st.lists(st.integers(0, 2**k - 1), min_size=k, max_size=k).map(symmetric),
        label="cp_conflict",
    )
    mutation = data.draw(st.sampled_from([Mutation.NONE, Mutation.QUORUM_HALF]),
                         label="mutation")
    pair_batch = data.draw(st.sampled_from([1, 5, 1024, None]), label="pair batch")
    check_hand_made_scans(k, combos, cp_conflict, n_validators, max_votes, mutation,
                          ALL_MODES, pair_batch)


# Each (pattern, family) pair is decided once.  These batches repeat a few
# patterns: combinations of one pattern share their votes' sources, the
# sandwich columns at those sources and `fin`, and differ in the sandwich
# columns at every other checkpoint (which only the justified test reads)
# and in `partners` (which only the per-row slashable count reads).


def repeated_pattern_combos(rng, k, u, n_patterns, n_combos):
    """Hand-made combinations, each drawing one of `n_patterns` patterns."""
    patterns = []
    for _ in range(n_patterns):
        sources = [int(s) for s in rng.integers(0, k, u)]
        at_sources = sum(1 << s for s in set(sources))
        cols = [int(c) & at_sources for c in rng.integers(0, 2**k, u)]
        fin = sourced(sources, [int(f) for f in rng.integers(0, 2**u, k)])
        patterns.append((sources, at_sources, cols, fin))
    combos = []
    for p in rng.integers(0, n_patterns, n_combos):
        sources, at_sources, cols, fin = patterns[p]
        elsewhere = rng.integers(0, 2**k, u) & ~at_sources
        combos.append((
            sources,
            [col | int(e) for col, e in zip(cols, elsewhere)],
            fin,
            symmetric([int(r) for r in rng.integers(0, 2**u, u)]),
        ))
    return combos


def pattern_keys(projected, *names):
    """The distinct rows of the named ProjectedTables columns."""
    columns = [getattr(projected, name).reshape(len(projected.sandwich), -1) for name in names]
    return {tuple(row) for row in np.hstack(columns).tolist()}


COUNTEREXAMPLE_KEY = ("src_sandwich", "from_genesis", "src_fin", "clashes")


def scan_per_combination(k, combos, cp_conflict, level, mode):
    """What one scan over `combos` must report, from one scan call per combination."""
    n_rows = level[0].shape[0]
    for c, combo in enumerate(combos):
        projected = hand_made_tables(k, [combo], cp_conflict)
        hit, _ = scan_states(level, projected, mode)
        if hit >= 0:
            return c * n_rows + hit, c * n_rows + hit + 1
    return -1, len(combos) * n_rows


@pytest.mark.parametrize("seed", range(8))
def test_one_scan_equals_one_scan_per_combination(seed):
    rng = np.random.default_rng(seed)
    k, u, n_validators = 5, int(rng.integers(1, 4)), int(rng.integers(1, 4))
    combos = repeated_pattern_combos(rng, k, u, n_patterns=3, n_combos=10)
    cp_conflict = symmetric([int(c) for c in rng.integers(0, 2**k, k)])
    projected = hand_made_tables(k, combos, cp_conflict)
    assert len(pattern_keys(projected, *COUNTEREXAMPLE_KEY)) <= 3
    mutation = Mutation.QUORUM_HALF if seed % 2 else Mutation.NONE
    level = state_table(u, n_validators, u * n_validators, 0, mutation)
    for mode in ALL_MODES:
        want = scan_per_combination(k, combos, cp_conflict, level, mode)
        for pair_batch in (1, 5, kernels._PAIR_BATCH):
            with mock.patch.object(kernels, "_PAIR_BATCH", pair_batch):
                got = scan_states(level, projected, mode)
            assert got == want, (mode, pair_batch)


def test_hit_in_a_later_batch_than_its_pattern():
    # votes 0 and 1 justify the conflicting checkpoints 1 and 2 from genesis,
    # and votes 2 and 3 finalize them, so the one row of combinations 0, 1
    # and 3 disagrees.  Those three share their counterexample pattern and
    # differ only in `partners`: votes 2 and 3 make the lone validator
    # slashable in combinations 0 and 1, so only combination 3 is a
    # counterexample.  Combination 2 sandwiches nothing, so it has a pattern
    # of its own and hits nothing.  With one pair per batch, combination 3's
    # pattern is decided in an earlier batch than combination 2's, and
    # combination 3 reuses that decision
    k, cp_conflict = 3, [0, 0b100, 0b010]
    sources, fin = [0, 0, 1, 2], [0, 0b0100, 0b1000]
    disagreeing, idle = (sources, [0b010, 0b100, 0, 0], fin), (sources, [0] * 4, fin)
    slashable = (*disagreeing, [0, 0, 0b1000, 0b0100])
    combos = [slashable, slashable, (*idle, [0] * 4), (*disagreeing, [0] * 4)]
    projected = hand_made_tables(k, combos, cp_conflict)
    assert len(pattern_keys(projected, *COUNTEREXAMPLE_KEY)) == 2
    for pair_batch in (1, 5, None):
        for mode in ALL_MODES:
            for mutation in (Mutation.NONE, Mutation.QUORUM_HALF):
                first = check_hand_made_scan(k, combos, cp_conflict, 1, 4, mutation, mode,
                                             pair_batch=pair_batch)
                if mode == MODE_COUNTEREXAMPLE:
                    assert first == 3, mutation


def swapped(sources, cols, fin, partners):
    """The combination with its first two votes' sandwich columns swapped:
    in `test_hit_in_a_later_batch_than_its_pattern`'s combinations, votes 0
    and 1 then justify checkpoints 2 and 1, so checkpoint 1 (finalized by
    vote 2) needs a quorum of vote 1 rather than vote 0.  The pattern
    differs (vote 2's and vote 3's `src_sandwich` trade places), but the
    disagreeing families are the same: those with a quorum for each vote."""
    return sources, [cols[1], cols[0], *cols[2:]], fin, partners


def test_a_hitting_pattern_is_expanded_once(monkeypatch):
    # the combinations of `test_hit_in_a_later_batch_than_its_pattern` at
    # N = 2, with combination 1 swapped: combinations 0 and 3 share a
    # counterexample pattern, and combination 1 has another one with the
    # same disagreeing families, whose row has both validators cast all four
    # votes.  Both are slashable in 0 and 1, so the scan expands the rows of
    # all three before its hit in 3, and finds the rows of that one set of
    # families in one pass over the level's family index
    k, cp_conflict = 3, [0, 0b100, 0b010]
    sources, fin = [0, 0, 1, 2], [0, 0b0100, 0b1000]
    disagreeing, idle = (sources, [0b010, 0b100, 0, 0], fin), (sources, [0] * 4, fin)
    slashable = (*disagreeing, [0, 0, 0b1000, 0b0100])
    combos = [slashable, swapped(*slashable), (*idle, [0] * 4), (*disagreeing, [0] * 4)]
    level = state_table(4, 2, 8, 0, Mutation.NONE)
    n_rows = level[0].shape[0]
    assert n_rows > len(combos)
    assert len(pattern_keys(hand_made_tables(k, combos, cp_conflict), *COUNTEREXAMPLE_KEY)) == 3
    expanded, passes = [], []
    flatnonzero = np.flatnonzero

    def counted(a):
        if np.size(a) == n_rows:
            passes.append(1)
        return flatnonzero(a)

    monkeypatch.setattr(np, "flatnonzero", counted)
    for pair_batch in (1, 5, kernels._PAIR_BATCH):
        projected = hand_made_tables(k, combos, cp_conflict)
        partners = projected.partners
        projected.partners = lambda c: expanded.append(c) or partners(c)
        expanded.clear()
        passes.clear()
        monkeypatch.setattr(kernels, "_PAIR_BATCH", pair_batch)
        hit, _ = scan_states(level, projected, MODE_COUNTEREXAMPLE)
        assert hit // n_rows == 3 and expanded == [0, 1, 3], pair_batch
        assert len(passes) == 1, pair_batch


def test_hits_are_read_in_combination_order():
    # pattern 0 (combinations 0 and 2) hits first in the pattern order, but
    # its first combination makes every validator slashable, so the first
    # hit is combination 1, of the swapped pattern 1 that hits on the same
    # families; reading pattern 0's combinations first would report 2
    k, cp_conflict = 3, [0, 0b100, 0b010]
    sources, fin = [0, 0, 1, 2], [0, 0b0100, 0b1000]
    disagreeing = (sources, [0b010, 0b100, 0, 0], fin)
    clean = (*disagreeing, [0] * 4)
    combos = [(*disagreeing, [0, 0, 0b1000, 0b0100]), swapped(*clean), clean]
    assert len(pattern_keys(hand_made_tables(k, combos, cp_conflict), *COUNTEREXAMPLE_KEY)) == 2
    for n_validators in (1, 2):
        n_rows = state_count(4, n_validators, 4 * n_validators, 0)
        for pair_batch in (1, 5, kernels._PAIR_BATCH):
            first = check_hand_made_scan(k, combos, cp_conflict, n_validators, 4 * n_validators,
                                         Mutation.NONE, MODE_COUNTEREXAMPLE, pair_batch=pair_batch)
            assert first // n_rows == 1, (n_validators, pair_batch)


def test_patterns_tell_genesis_sourced_votes_apart():
    # both votes sandwich checkpoint 2 and no source, so their src_sandwich
    # rows are equal; only the second one's source is genesis, so only the
    # second combination justifies anything
    k, cp_conflict = 3, [0, 0, 0]
    combos = [([1], [0b100], [0, 0, 0], [0]), ([0], [0b100], [0, 0, 0], [0])]
    projected = hand_made_tables(k, combos, cp_conflict)
    assert projected.src_sandwich.tolist() == [[0], [0]]
    for pair_batch in (1, None):
        first = check_hand_made_scan(k, combos, cp_conflict, 1, 1, Mutation.NONE,
                                     MODE_JUSTIFIED_NONGENESIS, pair_batch=pair_batch)
        assert first == 1


def test_justified_patterns_tell_sandwich_rows_apart():
    # one genesis-sourced vote that no vote supports: all three combinations
    # share their justification pattern, but only the third one's vote sandwiches
    # a checkpoint, so only it justifies one
    k, cp_conflict = 3, [0, 0, 0]
    idle, justifying = ([0], [0b000], [0, 0, 0], [0]), ([0], [0b100], [0, 0, 0], [0])
    combos = [idle, idle, justifying]
    projected = hand_made_tables(k, combos, cp_conflict)
    assert len(pattern_keys(projected, "src_sandwich", "from_genesis")) == 1
    n_rows = state_count(1, 2, 2, 0)
    for pair_batch in (1, None):
        first = check_hand_made_scan(k, combos, cp_conflict, 2, 2, Mutation.NONE,
                                     MODE_JUSTIFIED_NONGENESIS, pair_batch=pair_batch)
        assert first // n_rows == 2


def test_fixpoints_run_once_per_pattern(monkeypatch):
    # a scan without a hit decides each (pattern, family) pair once: no
    # checkpoint conflicts, so no row is a counterexample.  The pairs go to
    # `_decide` in full batches, whatever pattern they belong to: the level
    # has 14 families, so a batch of 5 pairs can span two patterns
    rng = np.random.default_rng(65)
    k, u, n_validators = 5, 3, 3
    combos = repeated_pattern_combos(rng, k, u, n_patterns=2, n_combos=12)
    projected = hand_made_tables(k, combos, [0] * k)
    level = state_table(u, n_validators, 5, 0, Mutation.NONE)
    rows, n_families = level[0], level[1].shape[0]
    decided, batches = [], []
    decide = kernels._decide

    def counting(combo, family, *args):
        decided.extend(zip(combo.tolist(), family.tolist()))
        batches.append(combo.size)
        return decide(combo, family, *args)

    monkeypatch.setattr(kernels, "_decide", counting)
    n_pairs = len(pattern_keys(projected, *COUNTEREXAMPLE_KEY)) * n_families
    assert n_pairs % 5 != 0
    for pair_batch in (1, 5, kernels._PAIR_BATCH):
        decided.clear()
        batches.clear()
        monkeypatch.setattr(kernels, "_PAIR_BATCH", pair_batch)
        assert scan_states(level, projected, MODE_COUNTEREXAMPLE) == (
            -1, len(combos) * rows.shape[0])
        assert len(decided) == len(set(decided)) == n_pairs
        assert len(batches) == -(-n_pairs // pair_batch), pair_batch
        assert set(batches[:-1]) <= {pair_batch}, pair_batch


def test_keys_that_differ_only_in_finalizing_links_or_clashes():
    # votes 0 and 1 justify checkpoint 1 and checkpoint 2 or 3 from genesis,
    # and votes 2 and 3 may finalize them.  Moving the second pair from
    # checkpoint 2 to 3, which conflicts with 1, changes only `clashes`;
    # dropping a finalizing link changes only `src_fin`
    k, cp_conflict = 4, [0, 0b1000, 0, 0b0010]

    def combo(second, links):
        fin = [0] * k
        fin[1], fin[second] = links & 0b0100, links & 0b1000
        return [0, 0, 1, second], [0b0010, 1 << second, 0, 0], fin, [0] * 4

    variants = [combo(second, links) for second in (2, 3) for links in (0, 0b0100, 0b1000, 0b1100)]
    projected = hand_made_tables(k, variants, cp_conflict)
    assert len(pattern_keys(projected, "src_sandwich", "from_genesis")) == 1
    assert len(pattern_keys(projected, "src_sandwich", "from_genesis", "src_fin")) == 4
    assert len(pattern_keys(projected, "src_sandwich", "from_genesis", "clashes")) == 2
    rng = np.random.default_rng(5)
    for n_validators, mutation in ((1, Mutation.NONE), (2, Mutation.NONE), (2, Mutation.QUORUM_HALF)):
        level = state_table(4, n_validators, 4 * n_validators, 0, mutation)
        rows = level[0]
        for order in [range(len(variants))] + [rng.permutation(len(variants)) for _ in range(4)]:
            combos = [variants[i] for i in order]
            projected = hand_made_tables(k, combos, cp_conflict)
            for mode in ALL_MODES:
                first = check_hand_made_scan(k, combos, cp_conflict, n_validators,
                                             4 * n_validators, mutation, mode)
                want = scan_per_combination(k, combos, cp_conflict, level, mode)
                for pair_batch in (1, 5, kernels._PAIR_BATCH):
                    with mock.patch.object(kernels, "_PAIR_BATCH", pair_batch):
                        got = scan_states(level, projected, mode)
                    assert got == want, (mode, pair_batch)
                if mode == MODE_CONFLICTING_FINALIZED:
                    # only the variant with both links on conflicting checkpoints
                    assert first // rows.shape[0] == list(order).index(7)


def test_empty_scan():
    forest = BlockForest([Block("b1", 1, GENESIS)])
    tables = build_graph_tables(forest, "strict", 2)
    projected = project_tables(tables, np.zeros((1, 0), dtype=np.int64))
    no_rows = (np.zeros((0, 3), dtype=np.int64), np.zeros((0, 1), dtype=bool),
               np.zeros(0, dtype=np.intp))
    assert scan_states(no_rows, projected, MODE_COUNTEREXAMPLE) == (-1, 0)
    level = state_table(0, 3, 4, 0, Mutation.NONE)
    none = project_tables(tables, np.zeros((0, 0), dtype=np.int64))
    for mode in ALL_MODES:
        assert scan_states(level, none, mode) == (-1, 0)


HALF, DROP = Mutation.QUORUM_HALF, Mutation.DROP_ANCESTRY
E1_E2 = Mutation.DISABLE_E1 | Mutation.DISABLE_E2


@pytest.mark.parametrize(
    "u,n_validators,max_votes,min_signers,mutation",
    [(0, 2, 4, 0, Mutation.NONE), (2, 1, 4, 0, E1_E2), (3, 3, 9, 0, DROP),
     (3, 4, 12, 3, HALF), (4, 3, 12, 2, Mutation.NONE), (4, 4, 12, 0, HALF | DROP),
     (7, 2, 14, 0, Mutation.NONE),
     # a floor above N, no votes at all, one validator
     (2, 3, 6, 4, Mutation.NONE), (0, 3, 0, 0, HALF), (2, 3, 0, 0, Mutation.NONE),
     (3, 1, 3, 1, Mutation.NONE), (4, 1, 4, 0, HALF)],
    # the id's last field says whether the quorum is halved
    ids=lambda v: str(HALF in v) if isinstance(v, Mutation) else None,
)
def test_quorum_families_match_direct_count(
    u, n_validators, max_votes, min_signers, mutation
):
    rows, table, index = state_table(u, n_validators, max_votes, min_signers, mutation)
    assert index.shape == (rows.shape[0],)
    assert table.shape[1] == 2**u
    for r, row in enumerate(rows):
        for x in range(2**u):
            count = sum(1 for mask in row if int(mask) & x)
            assert table[index[r], x] == quorum_met(count, n_validators, mutation), (r, x)
    # one entry per distinct family, and every family is some row's
    assert len({tuple(f) for f in table}) == table.shape[0]
    assert set(index.tolist()) == set(range(table.shape[0]))
    # families are numbered by their first row: index is a restricted growth
    # string, starting at 0 and at most one above every entry before it
    assert index[:1].tolist() in ([], [0])
    assert (index[1:] <= np.maximum.accumulate(index)[:-1] + 1).all()


def first_appearance(keys):
    """Number the rows of `keys` by first appearance with a dict."""
    numbers = {}
    number = [numbers.setdefault(tuple(row), len(numbers)) for row in keys.tolist()]
    firsts = [number.index(k) for k in range(len(numbers))]
    return number, firsts


@pytest.mark.parametrize("dtype", [np.int64, np.uint64])
@pytest.mark.parametrize("n,w", [(0, 1), (0, 3), (1, 1), (1, 3), (200, 1), (200, 3)])
def test_distinct_rows_number_by_first_appearance(dtype, n, w):
    rng = np.random.default_rng(n * 10 + w)
    if dtype is np.uint64:
        # family words: bit 63 set, and the largest word
        pool = np.array([0, 1, 5, 2**63, 2**63 + 1, 2**64 - 1], dtype=np.uint64)
    else:
        pool = np.array([-(2**63), -1, 0, 1, 5, 2**63 - 1], dtype=np.int64)
    # few values per column, so rows repeat
    keys = pool[rng.integers(0, pool.size, (n, w))]
    # rows that differ only after their first column
    same_first = keys.copy()
    same_first[:, 0] = pool[-1]
    all_equal = np.repeat(keys[:1], n, axis=0)
    for case in (keys, same_first, all_equal):
        number, firsts = distinct_rows(case)
        assert (number.tolist(), firsts.tolist()) == first_appearance(case)


@pytest.mark.parametrize("mutation", [Mutation.NONE, HALF], ids=["two-thirds", "half"])
@pytest.mark.parametrize("u", range(5))
def test_row_table_is_the_reference_rows_under_the_floor(u, mutation):
    # the rows grown validator by validator against every multiset filtered,
    # in the same (lexicographic) order
    for n_validators in range(1, 6):
        for max_votes in range(15):
            reference = canonical_rows(u, n_validators, max_votes)
            for floor in range(n_validators + 2):
                want = [list(row) for row in reference if sum(map(bool, row)) >= floor]
                rows = state_table(u, n_validators, max_votes, floor, mutation)[0]
                assert rows.shape == (len(want), n_validators)
                assert rows.tolist() == want, (n_validators, max_votes, floor)


@pytest.mark.parametrize("mutation", [Mutation.NONE, HALF], ids=["two-thirds", "half"])
@pytest.mark.parametrize("n_validators", [42, 43, 255, 256])
def test_quorum_families_at_the_count_dtype_boundaries(n_validators, mutation):
    # the counts are held in the smallest unsigned dtype of N, which leaves
    # uint8 at N=256, and a count tested as 3 * count would leave int8 at
    # N=43: at u=1 the counts of each row for X = {} and X = {vote 0} reach
    # N, and the families are quorum_met on them
    rows, families, index = state_table(1, n_validators, n_validators, 0, mutation)
    counts = np.stack([((rows & x) != 0).sum(axis=1) for x in range(2)], axis=1)
    assert rows.shape[0] <= n_validators and counts.max() == n_validators
    assert np.array_equal(families[index], quorum_met(counts, n_validators, mutation))


@pytest.mark.parametrize("mutation", [Mutation.NONE, HALF], ids=["two-thirds", "half"])
def test_quorum_families_count_past_int16(mutation):
    # 11,000 validators, of whom at least 10,996 sign: 3 * count passes
    # 32,767, so the two-thirds test on an int16 count would wrap
    n_validators = 11_000
    rows, table, index = state_table(1, n_validators, n_validators, n_validators - 4, mutation)
    assert rows.shape == (5, n_validators)
    for r, row in enumerate(rows.tolist()):
        count = sum(row)
        assert 3 * count > np.iinfo(np.int16).max
        assert table[index[r]].tolist() == [False, quorum_met(count, n_validators, mutation)]


def test_vote_positions_fit_the_uint16_family_table():
    # the kernel gathers quorum bits from the bool family table and puts
    # vote position j's bit at bit j of a uint16
    assert MAX_VOTE_BITS <= np.iinfo(np.uint16).bits


@pytest.mark.parametrize("u", [0, 1, 7, 8, 9, 16])
def test_quorum_bits_match_a_loop_over_vote_positions(u):
    rng = np.random.default_rng(u)
    n_families, n_pairs = 3, 64
    table = rng.random((n_families, 2**u)) < 0.5
    family = rng.integers(0, n_families, n_pairs)
    masks = rng.integers(0, 2**u, (u, n_pairs))
    want = [sum(int(table[f, masks[j, p]]) << j for j in range(u)) for p, f in enumerate(family)]
    assert u < 9 or max(want) >= 1 << 8
    got = kernels._quorum_bits(table.ravel(), family << u, masks)
    assert got.shape == (n_pairs,)
    assert got.tolist() == want


def test_state_table_refuses_an_oversized_row_table(monkeypatch):
    # 71 rows at u=3, N=3 take 3 int64 entries each: 1,704 bytes
    monkeypatch.setattr("ffgmc.tables.MAX_ROW_TABLE_BYTES", 71 * 3 * 8 - 1)
    state_table.cache_clear()
    with pytest.raises(InputError, match="state table for u=3, N=3 would take"):
        state_table(3, 3, 9, 0, Mutation.NONE)
    monkeypatch.setattr("ffgmc.tables.MAX_ROW_TABLE_BYTES", 71 * 3 * 8)
    rows, _, index = state_table(3, 3, 9, 0, Mutation.NONE)
    assert rows.nbytes == 1704 and index.shape == (71,)


def test_the_row_table_limit_refuses_wide_rows():
    # two votes among N validators, at most 2N votes and the signer floor:
    # u=2 has a 1,010 MiB row table at N=182 and a 1,040 MiB one at N=183,
    # each far under the row estimate (C(N + 3, N) rows)
    for n, fits in ((182, True), (183, False)):
        args = (2, n, 2 * n, min_signers_for_quorum(n))
        assert comb(4 + n - 1, n) <= MAX_STATE_ROWS
        if fits:
            check_level(*args)
        else:
            with pytest.raises(InputError, match="would take 1040 MiB"):
                check_level(*args)


def test_the_meets_table_limit_refuses_one_validator_at_16_votes():
    # at N=1 a level has one row, so only its (2**u, 2**u) meets table
    # grows: 1 GiB at u=15, within the limit, and 4 GiB at u=16
    assert state_count(16, 1, 16, 1) == 1
    check_level(15, 1, 16, 1)
    with pytest.raises(InputError, match="would take 4096 MiB"):
        check_level(16, 1, 16, 1)


def test_the_meets_table_is_built_without_a_wider_array():
    # the table against an int64 outer product, 8 bytes an entry; its own
    # build holds the table and at most a quarter of it (a block copied
    # between overlapping views of the table)
    for u in range(9):
        subsets = np.arange(2**u)
        assert np.array_equal(ffgmc.tables._meets(u), (subsets[:, None] & subsets) != 0)
    tracemalloc.start()
    try:
        meets = ffgmc.tables._meets(11)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert meets.nbytes == 4**11 and peak < 1.5 * meets.nbytes


def test_the_row_estimate_caps_the_family_keys():
    # a level's quorum-family keys take ceil(2**u / 64) 8-byte words per
    # row.  Up to u = 6 that is one word per row, and the rows are at most
    # the estimate; above, every level the estimate admits has few enough
    # rows (the most, u=12 at N=2, 265,721 rows of 512 bytes).  So the keys
    # never pass 8 bytes per estimated row at the limit, 160 MB, under the
    # 256 MiB the keys were once checked against: that check could not fire
    assert 8 * MAX_STATE_ROWS <= 1 << 28
    for u in range(7, MAX_VOTE_BITS + 1):
        n = 1
        while comb(2**u + n - 1, n) <= MAX_STATE_ROWS:
            assert state_count(u, n, u * n, 0) * 8 * 2 ** (u - 6) <= 8 * MAX_STATE_ROWS
            n += 1


# Graph units for the differential test: depth and free slot modes on up to
# two blocks, and the catalog forest with its detached roots.
DIFFERENTIAL_UNITS = [
    *iter_units(Bounds(n_blocks=1, n_validators=1, max_votes=0)),
    *iter_units(Bounds(n_blocks=2, n_validators=1, max_votes=0)),
    *iter_units(Bounds(n_blocks=2, n_validators=1, max_votes=0, slot_mode="free", max_slot=3)),
    catalog_forest("forest"),
]


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_scan_matches_row_by_row_reference(data):
    forest = data.draw(st.sampled_from(DIFFERENTIAL_UNITS), label="unit")
    n_validators = data.draw(st.integers(1, 5), label="N")
    slot_rule = data.draw(st.sampled_from(["strict", "nonstrict"]), label="slot_rule")
    max_chkp_slot = data.draw(st.integers(1, 3), label="max_chkp_slot")
    mutation = data.draw(st.sampled_from(MUTATIONS), label="mutation")
    mode = data.draw(st.sampled_from(ALL_MODES), label="mode")
    tables = build_graph_tables(forest, slot_rule, max_chkp_slot, mutation)
    u = data.draw(st.integers(0, min(3, len(tables.votes))), label="u")
    max_votes = data.draw(st.integers(u, min(u * n_validators, 6)), label="max_votes")
    min_signers = data.draw(
        st.sampled_from([0, min_signers_for_quorum(n_validators)]), label="min_signers"
    )
    level = state_table(u, n_validators, max_votes, min_signers, mutation)
    rows = level[0]
    every = all_combinations(len(tables.votes), u)
    picked = sorted(data.draw(
        st.sets(st.integers(0, len(every) - 1), min_size=1, max_size=4), label="combinations"
    ))
    combos = every[picked]
    pair_batch = data.draw(st.sampled_from([1, 5, kernels._PAIR_BATCH]), label="pair batch")

    bounds = Bounds(n_blocks=0, n_validators=n_validators, max_votes=max_votes,
                    slot_rule=slot_rule, graph_filter="forest")
    expected, scanned = -1, len(combos) * rows.shape[0]
    for flat in range(scanned):
        combo, row = combos[flat // rows.shape[0]], rows[flat % rows.shape[0]]
        state = materialize_state(
            bounds, tables, tuple(int(x) for x in combo), tuple(int(x) for x in row)
        )
        if reference_flags(state, mutation)[mode]:
            expected, scanned = flat, flat + 1
            break
    projected = project_tables(tables, combos)
    with mock.patch.object(kernels, "_PAIR_BATCH", pair_batch):
        got = scan_states(level, projected, mode)
    assert got == (expected, scanned)


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
    # for every combination, whether the generator keeps it equals the
    # reference semantics and a one-row scan on the state where every
    # validator casts every vote
    forests = {
        "fork": BlockForest([Block("b1", 1, GENESIS), Block("b2", 1, GENESIS)]),
        "chain": BlockForest([Block("b1", 1, GENESIS), Block("b2", 2, "b1")]),
        "catalog-forest": catalog_forest("forest"),
    }
    bounds = Bounds(
        n_blocks=2, n_validators=n_validators, max_votes=16, max_chkp_slot=max_chkp_slot,
        slot_rule=slot_rule,
    )
    tables = build_graph_tables(
        forests[graph], bounds.slot_rule, bounds.max_chkp_slot, mutation
    )
    kept = {mode: 0 for mode in ALL_MODES}
    for u in range(max_u + 1):
        m = len(tables.votes)
        combos = all_combinations(m, u)
        keep = {mode: kept_level(tables, combos, mode) for mode in ALL_MODES}
        rows, table, index = state_table(u, n_validators, bounds.max_votes, 0, mutation)
        unanimity = int(np.flatnonzero((rows == (1 << u) - 1).all(axis=1))[0])
        row = rows[unanimity : unanimity + 1]
        level = (row, table, index[unanimity : unanimity + 1])
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
            projected = project_tables(tables, combos[i : i + 1])
            for mode in ALL_MODES:
                assert keep[mode][i] == reference[mode], (mode, combo)
                scan_mode = MODE_CONFLICTING_FINALIZED if mode == MODE_COUNTEREXAMPLE else mode
                hit, _ = scan_states(level, projected, scan_mode)
                assert keep[mode][i] == (hit == 0), (mode, combo)
                kept[mode] += bool(keep[mode][i])
    assert kept[MODE_FINALIZED_NONGENESIS] > 0
    if graph == "fork":
        assert kept[MODE_CONFLICTING_FINALIZED] > 0


@pytest.mark.parametrize("mutation", ALL_MUTATIONS, ids=lambda m: m.label())
def test_mask_bound_matches_finality_on_every_unit(mutation):
    # every unit of three blocks and of two blocks in free slot mode, up to
    # four votes: on combinations the generator keeps and drops for a
    # conflicting finalized pair, and random ones, its levels equal the
    # reference finality of the unanimity state (one validator casting
    # every vote)
    rng = np.random.default_rng(7)
    kept = 0
    for bounds in (
        Bounds(n_blocks=3, n_validators=1, max_votes=4, max_chkp_slot=3, slot_rule="nonstrict"),
        Bounds(n_blocks=2, n_validators=1, max_votes=4, max_chkp_slot=3, slot_mode="free",
               max_slot=2),
    ):
        for forest in iter_units(bounds):
            tables = build_graph_tables(
                forest, bounds.slot_rule, bounds.max_chkp_slot, mutation
            )
            m = len(tables.votes)
            for u in range(1, 5):
                every = all_combinations(m, u)
                level = {mode: kept_level(tables, every, mode) for mode in ALL_MODES}
                conflict = level[MODE_CONFLICTING_FINALIZED]
                picks = [rng.permutation(np.flatnonzero(side))[:10]
                         for side in (conflict, ~conflict)]
                picked = np.sort(np.concatenate(picks + [rng.choice(len(every), 10)]))
                combos = every[picked]
                keep = {mode: level[mode][picked] for mode in ALL_MODES}
                for i, combo in enumerate(combos):
                    combo = tuple(int(x) for x in combo)
                    state = materialize_state(bounds, tables, combo, ((1 << u) - 1,))
                    view = finality_view(state, mutation=mutation)
                    conflicting = disagreement(state, view)
                    assert keep[MODE_COUNTEREXAMPLE][i] == conflicting, combo
                    assert keep[MODE_CONFLICTING_FINALIZED][i] == conflicting, combo
                    assert keep[MODE_FINALIZED_NONGENESIS][i] == bool(
                        view.finalized - {GENESIS_CHECKPOINT}), combo
                    assert keep[MODE_JUSTIFIED_NONGENESIS][i] == bool(
                        view.justified - {GENESIS_CHECKPOINT}), combo
                    kept += conflicting
    assert kept > 0


def _bound_test_units():
    """(bounds, forest) of every unit the bound tests cover: three blocks,
    two blocks in free slot mode, and each catalog graph under both slot
    rules, with no checkpoint cap (one slot past its last block), as a
    `--graph` run builds it."""
    for bounds in (
        Bounds(n_blocks=3, n_validators=1, max_votes=4, max_chkp_slot=3, slot_rule="nonstrict"),
        Bounds(n_blocks=2, n_validators=1, max_votes=4, max_chkp_slot=3, slot_mode="free",
               max_slot=2),
    ):
        for forest in iter_units(bounds):
            yield bounds, forest
    for name in CATALOG_GRAPHS:
        for slot_rule in ("strict", "nonstrict"):
            bounds = Bounds(n_blocks=0, n_validators=1, max_votes=4, slot_rule=slot_rule,
                            graph_filter=name)
            yield bounds, catalog_forest(name)


@pytest.mark.parametrize("mutation", ALL_MUTATIONS, ids=lambda m: m.label())
def test_votes_justify_only_later_sources(mutation):
    # the order the kept cores grow in: checkpoints are c-major, votes are
    # in source order, and a vote that sandwiches checkpoint k has its
    # source below k, so in an ascending combination it comes before every
    # vote whose source is k
    sandwiching = 0
    for bounds, forest in _bound_test_units():
        tables = build_graph_tables(forest, bounds.slot_rule, bounds.max_chkp_slot, mutation)
        slots = [cp.c for cp in tables.checkpoints]
        assert slots == sorted(slots)
        assert (np.diff(tables.vote_src) >= 0).all()
        checkpoint, vote = np.nonzero(tables.sandwich)
        assert (tables.vote_src[vote] < checkpoint).all()
        sandwiching += checkpoint.size
    assert sandwiching > 0


def test_bound_matches_finality_on_two_step_chains():
    # one block with checkpoint slots up to 5: a checkpoint justified from
    # genesis can source the vote that justifies a third, so finalization
    # may need two steps of justification.  Every combination of up to four
    # votes that a conflict or finality mode keeps, and one in 40 of the
    # rest, against the reference finality of the unanimity state.  That
    # state is the one row of its level at N=1, so the kernel's verdicts on
    # the two-step ones are checked too.  Cores extended by a vote whose
    # source their J does not yet hold, or with F read from their last vote
    # only, keep some of them wrongly
    bounds = Bounds(n_blocks=1, n_validators=1, max_votes=4, max_chkp_slot=5)
    (forest,) = iter_units(bounds)
    tables = build_graph_tables(forest, bounds.slot_rule, bounds.max_chkp_slot)
    rng = np.random.default_rng(5)
    two_step = 0
    for u in range(1, 5):
        every = all_combinations(len(tables.votes), u)
        keep = {mode: kept_level(tables, every, mode) for mode in ALL_MODES}
        sample = (keep[MODE_FINALIZED_NONGENESIS] | keep[MODE_CONFLICTING_FINALIZED]
                  | (rng.random(len(every)) < 1 / 40))
        level = state_table(u, 1, u, 0, Mutation.NONE)
        assert level[0].tolist() == [[(1 << u) - 1]]
        for i in np.flatnonzero(sample):
            combo = tuple(int(v) for v in every[i])
            state = materialize_state(bounds, tables, combo, ((1 << u) - 1,))
            view = finality_view(state)
            conflicting = disagreement(state, view)
            want = {
                MODE_COUNTEREXAMPLE: conflicting,
                MODE_CONFLICTING_FINALIZED: conflicting,
                MODE_FINALIZED_NONGENESIS: bool(view.finalized - {GENESIS_CHECKPOINT}),
                MODE_JUSTIFIED_NONGENESIS: bool(view.justified - {GENESIS_CHECKPOINT}),
            }
            for mode in ALL_MODES:
                assert keep[mode][i] == want[mode], (mode, combo)
            # a finalized checkpoint that no genesis-sourced vote sandwiches
            one_step = {0} | {k for v in combo if tables.vote_src[v] == 0
                              for k in np.flatnonzero(tables.sandwich[:, v])}
            if any(tables.checkpoints.index(cp) not in one_step for cp in view.finalized):
                two_step += 1
                projected = project_tables(tables, every[i : i + 1])
                # not the counterexample mode: a lone validator may be slashable
                for mode in (MODE_FINALIZED_NONGENESIS, MODE_JUSTIFIED_NONGENESIS,
                             MODE_CONFLICTING_FINALIZED):
                    hit, _ = scan_states(level, projected, mode)
                    assert (hit == 0) == want[mode], (mode, combo)
    assert two_step > 0


@pytest.mark.parametrize("mutation", ALL_MUTATIONS, ids=lambda m: m.label())
def test_pruned_core_growth_keeps_every_level(monkeypatch, mutation):
    # the last level of `kept_levels` is grown only from the cores that may
    # still gain a conflicting finalized pair (`_may_clash`): on every unit
    # of three blocks, of two blocks in free slot mode, and of each catalog
    # graph under both slot rules, all with checkpoint slots up to 3, for
    # every mode and every top level up to five votes (four in the modes
    # with no prune), it equals the level grown from every core, and the
    # prune drops some cores.  Pruning cores that hold a pair already, or
    # keeping only those, changes some level
    may_clash, dropped = kernels._may_clash, []

    def counted(marks, clash, cp_conflict):
        may = may_clash(marks, clash, cp_conflict)
        dropped.append(int((~may).sum()))
        return may

    def every_core(marks, clash, cp_conflict):
        return np.ones(clash.shape, dtype=bool)

    for bounds, forest in _bound_test_units():
        tables = build_graph_tables(forest, bounds.slot_rule, 3, mutation)
        for mode in ALL_MODES:
            # the prune runs in the two modes that keep a conflicting pair,
            # whose cores first hold one at four votes when unmutated
            pruning = mode in (MODE_COUNTEREXAMPLE, MODE_CONFLICTING_FINALIZED)
            for top in range(1, 6 if pruning else 5):
                monkeypatch.setattr(kernels, "_may_clash", counted)
                *_, pruned = kept_levels(tables, mode, top)
                monkeypatch.setattr(kernels, "_may_clash", every_core)
                *_, grown = kept_levels(tables, mode, top)
                assert np.array_equal(pruned, grown), (forest, mode, top)
    assert sum(dropped) > 0
