"""Built-in block graphs.

The fixed graphs are the small fork/chain/forest instances used as per-graph
search units, with slots equal to the drawn level.  Two of the entries (i1,
i2) are intentionally broken inputs and must be rejected by forest
validation: i1 gives one block two parents, i2 closes a parent cycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .model import GENESIS, Block, BlockForest, InputError


@dataclass(frozen=True)
class CatalogEntry:
    id: str
    description: str
    # (block id, level, parent id) rows; level doubles as the slot
    rows: tuple[tuple[str, int, Optional[str]], ...]


def _chain(prefix: str, length: int, base: str = GENESIS, base_level: int = 0):
    rows = []
    parent = base
    for i in range(1, length + 1):
        name = f"{prefix}{base_level + i}"
        rows.append((name, base_level + i, parent))
        parent = name
    return rows


CATALOG: dict[str, CatalogEntry] = {}


def _register(entry_id: str, description: str, rows) -> None:
    CATALOG[entry_id] = CatalogEntry(entry_id, description, tuple(rows))


_register("m3", "short fork: two conflicting children of genesis", _chain("a", 1) + _chain("b", 1))
_register("m4a", "fork with the upper branch extended to length two", _chain("a", 2) + _chain("b", 1))
_register("m4b", "fork with the lower branch extended to length two", _chain("a", 1) + _chain("b", 2))
_register("m5a", "two branches of length two from genesis", _chain("a", 2) + _chain("b", 2))
_register(
    "m5b",
    "one shared block, then a fork into two leaves",
    [("s1", 1, GENESIS), ("a2", 2, "s1"), ("b2", 2, "s1")],
)
_register("m7", "two branches of length three from genesis", _chain("a", 3) + _chain("b", 3))
_register("single-chain", "a single chain of four blocks after genesis", _chain("a", 4))
_register(
    "forest",
    "two branches plus a detached block and a detached two-chain",
    _chain("a", 4)
    + _chain("b", 3)
    + [("d1", 1, None), ("c1", 1, None), ("c2", 2, "c1")],
)
_register(
    "i1",
    "not a forest: one block with two parents",
    [("n1", 1, GENESIS), ("n2", 2, "n1"), ("n3", 3, "n2"), ("n3", 3, "n1")],
)
_register(
    "i2",
    "not a forest: a parent cycle",
    [("n1", 1, GENESIS), ("n2", 2, "n1"), ("n3", 3, "n2"), ("n1", 1, "n3")],
)


def catalog_ids() -> list[str]:
    return list(CATALOG)


def catalog_forest(entry_id: str) -> BlockForest:
    """Build a catalog graph, rejecting the intentionally broken entries."""
    try:
        entry = CATALOG[entry_id]
    except KeyError:
        raise InputError(
            f"unknown catalog graph {entry_id!r}; choose from {', '.join(CATALOG)}"
        ) from None
    return forest_from_rows(entry.rows)


def forest_from_rows(rows) -> BlockForest:
    """Validate raw (id, slot, parent) rows: cycles first, then multi-parent."""
    edges = [(child, parent) for child, _, parent in rows if parent is not None]
    parents_of: dict[str, list[str]] = {}
    for child, parent in edges:
        parents_of.setdefault(child, []).append(parent)
    _reject_cycles(parents_of)
    for child, parents in parents_of.items():
        if len(parents) > 1:
            raise InputError(
                f"block {child!r} has {len(parents)} parents; a forest allows one"
            )
    return BlockForest(Block(child, slot, parent) for child, slot, parent in rows)


def _reject_cycles(parents_of: dict[str, list[str]]) -> None:
    # DFS over the child -> parent edge relation
    WHITE, GREY, BLACK = 0, 1, 2
    color = {n: WHITE for n in parents_of}

    def visit(node: str, path: list[str]) -> None:
        color[node] = GREY
        for parent in parents_of.get(node, ()):
            if parent not in color:
                continue
            if color[parent] == GREY:
                cycle = path[path.index(parent):] if parent in path else [parent]
                raise InputError(
                    "cycle detected among blocks: " + " -> ".join(cycle + [parent])
                )
            if color[parent] == WHITE:
                visit(parent, path + [parent])
        color[node] = BLACK

    for node in list(color):
        if color[node] == WHITE:
            visit(node, [node])
