"""Core domain model: blocks, forests, checkpoints, FFG votes and their validity rules.

Everything here is an immutable value with pure predicates over it, so all
functions are safe for unrestricted concurrent use.  Blocks are identified by
string ids; the distinguished id ``genesis`` is present in every forest.  A
checkpoint is the triple (block, c, p) where c is the slot at which the chain
is proposed for justification and p is the proposing slot of the block itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Literal, Optional

GENESIS = "genesis"

SlotRule = Literal["strict", "nonstrict"]
SLOT_RULES = ("strict", "nonstrict")


class InputError(ValueError):
    """Malformed input: unknown id, broken structural invariant, bad bound."""


@dataclass(frozen=True)
class Block:
    id: str
    slot: int
    parent: Optional[str] = None


class BlockForest:
    """A rooted labelled forest of blocks.

    Invariants enforced at construction, in the order they are reported: the
    parent relation of the listed rows is acyclic, each block has at most one
    parent and one row, parent references resolve, slots strictly increase
    from parent to child, and genesis is present with slot 0 and no parent.
    Parentless non-genesis roots are legal; they model chains whose prefix
    was never received, and they never prefix genesis-rooted chains.
    """

    __slots__ = ("_blocks",)

    def __init__(self, blocks: Iterable[Block] = ()):
        blocks = list(blocks)
        parents: dict[str, list[str]] = {}
        for b in blocks:
            parents.setdefault(b.id, [])
            if b.parent is not None:
                parents[b.id].append(b.parent)
        # A cycle is reported first, in terms of the parent relation itself,
        # even when a block on it is listed twice or its slots also clash.
        for start in parents:
            seen, todo = set(), list(parents[start])
            while todo:
                node = todo.pop()
                if node == start:
                    raise InputError(f"cycle detected through block {start!r}")
                if node not in seen:
                    seen.add(node)
                    todo += parents.get(node, ())
        table: dict[str, Block] = {}
        for b in blocks:
            if len(parents[b.id]) > 1:
                raise InputError(
                    f"block {b.id!r} has {len(parents[b.id])} parents; a forest allows one"
                )
            if b.id in table:
                raise InputError(f"duplicate block id {b.id!r}")
            table[b.id] = b
        if GENESIS not in table:
            table[GENESIS] = Block(GENESIS, 0)
        g = table[GENESIS]
        if g.slot != 0 or g.parent is not None:
            raise InputError("genesis must have slot 0 and no parent")
        for b in table.values():
            if b.slot < 0:
                raise InputError(f"block {b.id!r}: negative slot {b.slot}")
            if b.parent is None:
                continue
            if b.parent not in table:
                raise InputError(f"block {b.id!r}: unknown parent {b.parent!r}")
            if table[b.parent].slot >= b.slot:
                raise InputError(
                    f"block {b.id!r}: slot {b.slot} not above parent slot "
                    f"{table[b.parent].slot}"
                )
        self._blocks = table

    @property
    def blocks(self) -> dict[str, Block]:
        return self._blocks

    def __contains__(self, block_id: str) -> bool:
        return block_id in self._blocks

    def __iter__(self) -> Iterator[Block]:
        return iter(self._blocks.values())

    def __len__(self) -> int:
        return len(self._blocks)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BlockForest):
            return NotImplemented
        return self._blocks == other._blocks

    def block(self, block_id: str) -> Block:
        try:
            return self._blocks[block_id]
        except KeyError:
            raise InputError(f"unknown block {block_id!r}") from None

    def slot_of(self, block_id: str) -> int:
        return self.block(block_id).slot

    def ids(self) -> list[str]:
        """Block ids in canonical order: genesis first, then lexicographic."""
        rest = sorted(i for i in self._blocks if i != GENESIS)
        return [GENESIS, *rest]


@dataclass(frozen=True, order=True)
class Checkpoint:
    block: str
    c: int
    p: int


GENESIS_CHECKPOINT = Checkpoint(GENESIS, 0, 0)


@dataclass(frozen=True, order=True)
class FfgVote:
    source: Checkpoint
    target: Checkpoint


@dataclass(frozen=True, order=True)
class SignedVote:
    vote: FfgVote
    validator: int


@dataclass(frozen=True)
class ProtocolState:
    """One complete protocol configuration; everything else is derived."""

    forest: BlockForest
    n_validators: int
    votes: frozenset[SignedVote]
    slot_rule: SlotRule = "strict"

    def __post_init__(self) -> None:
        if self.n_validators < 1:
            raise InputError(f"n_validators must be positive, got {self.n_validators}")
        if self.slot_rule not in SLOT_RULES:
            raise InputError(f"unknown slot rule {self.slot_rule!r}")
        object.__setattr__(self, "votes", frozenset(self.votes))
        for sv in self.votes:
            if not 0 <= sv.validator < self.n_validators:
                raise InputError(
                    f"validator {sv.validator} out of range [0, {self.n_validators})"
                )
            for cp in (sv.vote.source, sv.vote.target):
                if cp.block not in self.forest:
                    raise InputError(f"vote references unknown block {cp.block!r}")


def is_ancestor(forest: BlockForest, ancestor: str, descendant: str) -> bool:
    """True iff `ancestor` is reached from `descendant` by zero or more parent steps."""
    forest.block(ancestor)
    cur: Optional[str] = descendant
    while cur is not None:
        if cur == ancestor:
            return True
        cur = forest.block(cur).parent
    return False


def are_conflicting(forest: BlockForest, a: str, b: str) -> bool:
    """True iff neither chain is a prefix of the other."""
    return not is_ancestor(forest, a, b) and not is_ancestor(forest, b, a)


def is_valid_checkpoint(state: ProtocolState, cp: Checkpoint) -> bool:
    block = state.forest.block(cp.block)
    if cp.p != block.slot or cp.c < 0:
        return False
    if cp == GENESIS_CHECKPOINT:
        return True
    if state.slot_rule == "strict":
        return cp.c > cp.p
    return cp.c >= cp.p


def checkpoint_le(x: Checkpoint, y: Checkpoint) -> bool:
    """The total pre-order on checkpoints: compare c, then p."""
    return x.c < y.c or (x.c == y.c and x.p <= y.p)


def checkpoint_lt(x: Checkpoint, y: Checkpoint) -> bool:
    """Strictly below in the pre-order: le and not triple-equal.

    Distinct checkpoints with equal (c, p) are mutually lt; the pre-order is
    not a partial order and the slashing rules inherit that deliberately.
    """
    return checkpoint_le(x, y) and x != y


def is_valid_ffg_vote(state: ProtocolState, vote: FfgVote) -> bool:
    return (
        is_valid_checkpoint(state, vote.source)
        and is_valid_checkpoint(state, vote.target)
        and vote.source.c < vote.target.c
        and is_ancestor(state.forest, vote.source.block, vote.target.block)
    )


def _cp_sort_key(cp: Checkpoint) -> tuple[int, int, int, str]:
    return (cp.c, cp.p, 0 if cp.block == GENESIS else 1, cp.block)


def checkpoints_of(state: ProtocolState, max_c: int) -> list[Checkpoint]:
    """The finite candidate-checkpoint universe for this state.

    All valid checkpoints with c <= max_c, plus every checkpoint mentioned in
    a vote (valid or not), in deterministic (c, p, block) order with the
    genesis checkpoint first.
    """
    if max_c < 0:
        raise InputError(f"checkpoint slot bound must be non-negative, got {max_c}")
    found = {GENESIS_CHECKPOINT}
    for block in state.forest:
        for c in range(max_c + 1):
            cp = Checkpoint(block.id, c, block.slot)
            if is_valid_checkpoint(state, cp):
                found.add(cp)
    for sv in state.votes:
        found.add(sv.vote.source)
        found.add(sv.vote.target)
    return sorted(found, key=_cp_sort_key)
