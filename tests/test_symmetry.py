"""Block-relabelling symmetry: unit classes, automorphisms, and the reduced
search against the unreduced one."""

import itertools
from dataclasses import replace

import numpy as np
import pytest

from ffgmc import enumerator
from ffgmc.catalog import catalog_forest, catalog_ids
from ffgmc.enumerator import (
    PROPERTY_MODES,
    Bounds,
    SearchBudgetExceeded,
    VERDICT_INCONCLUSIVE,
    check_lfp_gfp,
    enumerate_forests,
    find_example,
    iter_units,
    search,
)
from ffgmc.model import GENESIS, Block, BlockForest
from ffgmc.mutation import Mutation, parse_mutation
from ffgmc.symmetry import automorphisms, orbit_minimal, unit_key
from ffgmc.tables import build_graph_tables, min_signers_for_quorum, state_table
from reference import kept_combinations


def _slot_preserving_bijections(f, g):
    """Every block bijection of f onto g that fixes genesis and keeps slots."""
    def by_slot(forest):
        groups = {}
        for b in forest:
            if b.id != GENESIS:
                groups.setdefault(b.slot, []).append(b.id)
        return groups

    fs, gs = by_slot(f), by_slot(g)
    if {s: len(ids) for s, ids in fs.items()} != {s: len(ids) for s, ids in gs.items()}:
        return
    slots = sorted(fs)
    for images in itertools.product(*(itertools.permutations(gs[s]) for s in slots)):
        sigma = {GENESIS: GENESIS}
        for s, image in zip(slots, images):
            sigma.update(zip(fs[s], image))
        yield sigma


def _isomorphisms(f, g):
    """Brute force: the slot-preserving bijections that also preserve parents."""
    return [
        sigma for sigma in _slot_preserving_bijections(f, g)
        if all(
            g.block(sigma[b.id]).parent == (None if b.parent is None else sigma[b.parent])
            for b in f
        )
    ]


def _units():
    units = [f for n in range(5) for f in enumerate_forests(n)]
    units += list(iter_units(Bounds(n_blocks=2, n_validators=1, max_votes=1,
                                    slot_mode="free", max_slot=3)))
    units += [catalog_forest(i) for i in catalog_ids() if i not in ("i1", "i2")]
    # a detached root shaped like genesis: no isomorphism may swap the two
    units += [BlockForest([Block("r", 0), Block("a", 1, "r")]),
              BlockForest([Block("r", 0), Block("a", 1, GENESIS)])]
    return units


UNITS = _units()


def test_unit_key_matches_brute_force_isomorphism():
    keys = [unit_key(f) for f in UNITS]
    for (f, kf), (g, kg) in itertools.combinations(zip(UNITS, keys), 2):
        assert (kf == kg) == bool(_isomorphisms(f, g)), (f.blocks, g.blocks)
    # catalog m4a and m4b are the same shape with the long branch relabelled
    assert unit_key(catalog_forest("m4a")) == unit_key(catalog_forest("m4b"))
    assert unit_key(catalog_forest("m3")) != unit_key(catalog_forest("forest"))


@pytest.mark.parametrize("n,classes", [(1, 1), (2, 2), (3, 4), (4, 9), (5, 20)])
def test_isomorphism_class_counts(n, classes):
    assert len({unit_key(f) for f in enumerate_forests(n)}) == classes


def test_automorphisms_match_brute_force():
    for f in UNITS:
        found = automorphisms(f)
        brute = [s for s in _isomorphisms(f, f) if any(k != v for k, v in s.items())]
        assert sorted(map(sorted, map(dict.items, found))) == sorted(
            map(sorted, map(dict.items, brute))
        ), f.blocks


@pytest.mark.parametrize("entry", ["m3", "m5a", "m5b"])
def test_orbit_minimal_matches_brute_force(entry):
    tables = build_graph_tables(catalog_forest(entry), "strict", 3)
    perms = tables.perms
    assert perms.shape[0] == 1   # one branch swap
    assert orbit_minimal(np.zeros((1, 0), dtype=np.int64), perms).tolist() == [True]
    for u in range(1, 4):
        combos = np.array(list(itertools.combinations(range(len(tables.votes)), u)))
        minimal = orbit_minimal(combos, perms)
        for combo, kept in zip(combos, minimal):
            images = [tuple(sorted(p[combo])) for p in perms]
            assert kept == all(tuple(combo) <= image for image in images)
        assert 0 < minimal.sum() < len(combos)


# --- the reduced search against the unreduced one --------------------------

def _no_symmetry(patch):
    """Every unit its own class, and no automorphisms."""
    patch.setattr(enumerator, "unit_key", lambda forest: object())
    patch.setattr("ffgmc.tables.automorphisms", lambda forest: [])


def _unreduced(monkeypatch, fn, *args, **kwargs):
    with monkeypatch.context() as patch:
        _no_symmetry(patch)
        return fn(*args, **kwargs)


def _same_search(monkeypatch, bounds, mutation, budget=None, jobs=1, symmetric_at=None):
    """The reduced report, after checking it against the unreduced one and
    its symmetric rows against an exact count: without a budget, the rows
    the kernel did not scan; with one, `symmetric_at(budget)` (see
    `_symmetric_oracle`)."""
    scanned = []
    scan_states = enumerator.scan_states

    def counting(*args):
        hit, rows = scan_states(*args)
        scanned.append(rows)
        return hit, rows

    with monkeypatch.context() as patch:
        patch.setattr(enumerator, "scan_states", counting)
        reduced = search(bounds, mutation, budget=budget, jobs=jobs)
    full = _unreduced(monkeypatch, search, bounds, mutation, budget=budget)
    assert full.states_symmetric == 0
    assert replace(reduced, wall_time=0.0, states_symmetric=0) == replace(full, wall_time=0.0)
    if budget is not None:
        assert reduced.states_symmetric == symmetric_at(budget)
    elif jobs == 1:   # helper processes scan out of sight
        assert reduced.states_symmetric == reduced.states_checked - sum(scanned)
    return reduced


def _symmetric_oracle(monkeypatch, bounds, mutation):
    """The symmetric rows of a budget run, as a function of the budget, from
    the prefix sums of per-combination counts: each unit's kept combinations
    in scan order, on its own tables, check n_rows rows each, all symmetric
    unless the combination is orbit-minimal.

    A budget that covers the run without a budget reports as it does.
    Otherwise no hit lies before the cut: a later unit of a class is
    symmetric up to the budget left, whole if it fits, and a first unit
    that the budget cuts counts its own combinations, the cut one adding
    its rows up to the cut only if it is not scanned."""
    forests = list(iter_units(bounds))
    classes = [unit_key(f) for f in forests]
    floor = min_signers_for_quorum(bounds.n_validators) if mutation == Mutation.NONE else 0
    with monkeypatch.context() as patch:
        patch.setattr(enumerator, "unit_key", lambda forest: object())
        plan = enumerator._plan(bounds, mutation, enumerator.MODE_COUNTEREXAMPLE, floor)
    units = []   # (later unit of a class, checked and symmetric rows per combination)
    tasks = {forests.index(graph_tables.forest): (graph_tables, levels)
             for graph_tables, levels in plan.tasks}
    for index, cls in enumerate(classes):
        checked, symmetric = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
        graph_tables, levels = tasks.get(index, (None, ()))
        for u in levels:
            rows = state_table(u, bounds.n_validators, bounds.max_votes, floor, mutation)[0]
            n_rows = rows.shape[0]
            _, minimal, _ = kept_combinations(plan, graph_tables, u)
            checked.append(np.full(minimal.size, n_rows, dtype=np.int64))
            symmetric.append(np.where(minimal, 0, n_rows))
        units.append((classes.index(cls) < index, np.concatenate(checked),
                      np.concatenate(symmetric)))
    full = search(bounds, mutation)

    def symmetric_at(budget):
        if budget >= full.states_checked:
            return full.states_symmetric
        left, symmetric = budget, 0
        for later, checked, part in units:
            if later:
                if checked.sum() > left:
                    return symmetric + left
                left, symmetric = left - checked.sum(), symmetric + checked.sum()
                continue
            ends = np.cumsum(checked)
            whole = int(np.searchsorted(ends, left, side="right"))   # combinations before the cut
            if whole < checked.size:
                before = int(ends[whole - 1]) if whole else 0
                return symmetric + int(part[:whole].sum()) + (left - before if part[whole] else 0)
            left, symmetric = left - checked.sum(), symmetric + part.sum()
        raise AssertionError("the budget cuts no unit")

    return symmetric_at


def _small(**kw):
    base = dict(n_blocks=3, n_validators=1, max_votes=4, max_ffg_votes=4, max_chkp_slot=3)
    base.update(kw)
    return Bounds(**base)


SYMMETRY_SEARCHES = [
    ("none", _small(n_validators=4, max_votes=6, slot_rule="nonstrict")),
    ("quorum-half", _small(n_validators=3, max_votes=6, slot_rule="nonstrict")),
    ("disable-e1", _small(n_validators=4, max_votes=6)),
    ("disable-e2", _small(n_validators=2, max_votes=8, max_chkp_slot=4, slot_rule="nonstrict")),
    ("disable-e1,disable-e2", _small(n_validators=4, max_votes=8)),
    ("drop-ancestry", _small(n_validators=3, max_votes=8, max_ffg_votes=3, slot_rule="nonstrict")),
    ("quorum-half,drop-ancestry", _small(n_validators=2, max_votes=3, max_ffg_votes=3)),
    ("quorum-half",
     _small(n_blocks=2, n_validators=3, max_votes=6, slot_rule="nonstrict", slot_mode="free",
            max_slot=2)),
    ("none", _small(n_blocks=0, n_validators=3, max_votes=6, slot_rule="nonstrict",
                    graph_filter="m3")),
    ("disable-e1,disable-e2",
     _small(n_blocks=0, max_chkp_slot=2, slot_rule="nonstrict", graph_filter="forest")),
]


@pytest.mark.parametrize(
    "mutation_name,bounds", SYMMETRY_SEARCHES,
    ids=[f"{m}-{b.n_blocks}-{b.slot_rule}-{b.slot_mode}-{b.graph_filter}"
         for m, b in SYMMETRY_SEARCHES],
)
def test_symmetry_matches_unreduced_search(monkeypatch, mutation_name, bounds):
    mutation = parse_mutation(mutation_name)
    reduced = _same_search(monkeypatch, bounds, mutation)
    checked = reduced.states_checked
    symmetric_at = _symmetric_oracle(monkeypatch, bounds, mutation)
    for budget in {0, 1, checked // 3, 2 * checked // 3, max(checked - 1, 0)}:
        _same_search(monkeypatch, bounds, mutation, budget=budget, symmetric_at=symmetric_at)


def test_budget_cuts_match_unreduced_everywhere(monkeypatch):
    # every budget up to the whole space: cuts land in scanned combinations,
    # in skipped (non-minimal) combinations and in units of a class already
    # scanned, which are then counted on their own tables
    bounds = _small(max_votes=3, max_ffg_votes=3)
    mutation = parse_mutation("drop-ancestry")
    keys = [unit_key(f) for f in iter_units(bounds)]
    total = search(bounds, mutation).states_checked
    kinds = set()
    previous = None
    symmetric_at = _symmetric_oracle(monkeypatch, bounds, mutation)
    for budget in range(total + 1):
        report = _same_search(monkeypatch, bounds, mutation, budget=budget,
                              symmetric_at=symmetric_at)
        if report.verdict == VERDICT_INCONCLUSIVE and budget > 0:
            unit = report.graphs_checked - 1
            if keys.index(keys[unit]) < unit:
                kinds.add("later unit of a class")
            elif report.states_symmetric > previous.states_symmetric:
                kinds.add("skipped combination")
            else:
                kinds.add("scanned combination")
        previous = report
    assert kinds == {"later unit of a class", "skipped combination", "scanned combination"}


EXAMPLE_BOUNDS = [
    _small(n_blocks=2, n_validators=2, max_votes=6),
    _small(n_validators=1, max_votes=3, max_ffg_votes=3),
    _small(n_blocks=2, slot_mode="free", max_slot=2),
    _small(n_blocks=0, n_validators=2, max_votes=4, max_ffg_votes=3, max_chkp_slot=3,
           slot_rule="nonstrict", graph_filter="m5a"),
]


def _example(bounds, property_name, budget):
    try:
        return find_example(bounds, property_name, budget=budget)
    except SearchBudgetExceeded as exc:
        return ("budget", exc.states_checked)


@pytest.mark.parametrize("bounds", EXAMPLE_BOUNDS, ids=["fork", "three-blocks", "free", "m5a"])
@pytest.mark.parametrize("property_name", sorted(PROPERTY_MODES))
def test_symmetry_matches_unreduced_examples(monkeypatch, bounds, property_name):
    for budget in (None, 0, 1, 2, 5, 20, 100, 1000):
        reduced = _example(bounds, property_name, budget)
        assert reduced == _unreduced(monkeypatch, _example, bounds, property_name, budget)


@pytest.mark.parametrize("bounds", [
    Bounds(n_blocks=2, n_validators=2, max_votes=6, max_ffg_votes=3, max_chkp_slot=3),
    Bounds(n_blocks=3, n_validators=1, max_votes=3, max_ffg_votes=3, max_chkp_slot=3,
           slot_rule="nonstrict"),
    Bounds(n_blocks=0, n_validators=2, max_votes=4, max_ffg_votes=3, max_chkp_slot=3,
           graph_filter="m5a"),
], ids=["fork", "three-blocks", "m5a"])
def test_symmetry_matches_unreduced_fixpoints(monkeypatch, bounds):
    # the fixpoint comparison builds the tables of one unit per class, and
    # reports what it reports with the tables of every unit
    built = []
    build = enumerator.build_graph_tables
    monkeypatch.setattr(enumerator, "build_graph_tables", lambda *a: built.append(a) or build(*a))
    reduced = check_lfp_gfp(bounds)
    assert len(built) == len({unit_key(forest) for forest in iter_units(bounds)})
    built.clear()
    assert _unreduced(monkeypatch, check_lfp_gfp, bounds) == reduced
    assert len(built) == len(list(iter_units(bounds)))


@pytest.mark.parametrize("mutation_name,bounds", [
    ("quorum-half", _small(n_blocks=2, n_validators=2, max_votes=6)),
    ("drop-ancestry", _small(max_votes=3, max_ffg_votes=3)),
    ("none", _small(n_validators=2, max_votes=4, max_ffg_votes=3)),
], ids=["hit", "three-blocks-holds", "vacuous"])
@pytest.mark.usefixtures("two_cpus")
def test_symmetry_jobs_parity(monkeypatch, mutation_name, bounds):
    # a helper process scans tasks too; the report equals both the
    # single-process reduced one and the unreduced one
    mutation = parse_mutation(mutation_name)
    seq = replace(search(bounds, mutation), wall_time=0.0)
    par = replace(_same_search(monkeypatch, bounds, mutation, jobs=2), wall_time=0.0)
    assert seq == par
