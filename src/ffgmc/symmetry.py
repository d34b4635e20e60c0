"""Block-relabelling symmetry of graph units.

Block ids never enter the semantics except as the last tie-break of
`model._cp_sort_key`, which fixes the order of checkpoints (and so of votes
and vote combinations) but no justified, finalized or slashable set.  The
search uses that at two levels:

* Units.  `unit_key` is a canonical form of a (forest, slot assignment)
  unit: two units get equal keys iff a bijection of their blocks that fixes
  genesis maps one onto the other preserving parent and slot.  Only the
  first unit of each class is scanned; every later one reuses its counts.
* Combinations.  `automorphisms` lists a unit's nontrivial block
  permutations; mapped onto vote indices they permute the unit's vote
  combinations, and `orbit_minimal` keeps a combination only if no
  permutation sends it to a lexicographically smaller one.

Soundness.  Let sigma be a block bijection that fixes genesis and preserves
parent and slot.  It maps checkpoints (b, c, p) to (sigma(b), c, p) and
votes and states accordingly.  Ancestry and conflict are defined by parent
links, validity by slots and the slot rule, `checkpoint_lt` by (c, p) and
equality, the sandwich clause by ancestry and c; justification,
finalization, the quorum tests and both slashing conditions are built from
these alone.  So every verdict and every bit the kernels read is invariant
under sigma, under every mutation flag.  The canonical row table of u
distinct votes is closed under permuting vote positions (a permuted row,
re-sorted, is again a canonical row with the same signer count), so a
combination c and its image sigma(c) have the same rows up to that
bijection: the same hits, and the same number of rows kept by the signer
floor.  The monotone bound reads the same invariant tables, so it keeps c
iff it keeps sigma(c).

Hence a combination that is not minimal in its orbit has an image that
precedes it in the canonical (lexicographic) order, was scanned, and had no
hit, or the scan would have stopped there; its rows count as checked
exactly as a scan would count them.  The first canonical hit is therefore
orbit-minimal and is still found, at the same row.  Likewise isomorphic
units have equal counts and equal hit existence, so a hit always lies in
the first unit of its class and a later unit of a class that finished
without a hit has none.  Counterexamples, examples and `graph_index` stay
the same.
"""

from __future__ import annotations

import numpy as np

from .model import GENESIS, BlockForest


def _encodings(forest: BlockForest) -> dict[str, tuple]:
    """AHU encoding of every block's subtree: (slot, sorted child encodings)."""
    children: dict[str, list[str]] = {}
    for block in forest:
        if block.parent is not None:
            children.setdefault(block.parent, []).append(block.id)
    encoded: dict[str, tuple] = {}
    # slots strictly increase from parent to child, so children come first
    for block in sorted(forest, key=lambda b: -b.slot):
        encoded[block.id] = (
            block.slot, tuple(sorted(encoded[c] for c in children.get(block.id, ())))
        )
    return encoded


def unit_key(forest: BlockForest) -> tuple:
    """Canonical form of a unit, equal for units isomorphic by parent and slot.

    Genesis's subtree and the parentless non-genesis roots are encoded
    separately, so no isomorphism can move genesis.
    """
    encoded = _encodings(forest)
    roots = sorted(encoded[b.id] for b in forest if b.parent is None and b.id != GENESIS)
    return encoded[GENESIS], tuple(roots)


def automorphisms(forest: BlockForest) -> list[dict[str, str]]:
    """Every nontrivial block permutation that fixes genesis and preserves
    parent and slot, as {block id: image id}.

    A brute-force search over the n! permutations, pruned as it goes: blocks
    are assigned in slot order (parents first), each to an unused block with
    the same subtree encoding whose parent is its parent's image.
    """
    encoded = _encodings(forest)
    blocks = sorted((b for b in forest if b.id != GENESIS), key=lambda b: (b.slot, b.id))
    found: list[dict[str, str]] = []

    def extend(i: int, image: dict[str, str]) -> None:
        if i == len(blocks):
            if any(k != v for k, v in image.items()):
                found.append(dict(image))
            return
        block = blocks[i]
        parent = None if block.parent is None else image[block.parent]
        for other in blocks:
            if (
                other.parent == parent
                and encoded[other.id] == encoded[block.id]
                and other.id not in image.values()
            ):
                image[block.id] = other.id
                extend(i + 1, image)
                del image[block.id]

    extend(0, {GENESIS: GENESIS})
    return found


def orbit_minimal(combos: np.ndarray, perms: np.ndarray) -> np.ndarray:
    """Which rows of `combos` ((C, u) sorted vote indices) are lexicographically
    minimal in their orbit under `perms` ((A, M) vote-index permutations,
    the nontrivial automorphisms of the unit)."""
    keep = np.ones(combos.shape[0], dtype=bool)
    if combos.shape[1] == 0:
        return keep
    rows = np.arange(combos.shape[0])
    for perm in perms:
        image = np.sort(perm[combos], axis=1)
        differ = image != combos
        first = differ.argmax(axis=1)
        keep &= ~(differ[rows, first] & (image[rows, first] < combos[rows, first]))
    return keep
