"""JSON scenario and report serialization.

A scenario file describes one protocol state; genesis is implicit (id
``genesis``, slot 0, no parent) and checkpoint ``p`` fields are derived from
block slots.  Parse errors carry the offending field path so the CLI can
report positioned diagnostics.
"""

from __future__ import annotations

from typing import Any

from .finality import finality_view
from .model import (
    GENESIS,
    Block,
    BlockForest,
    Checkpoint,
    FfgVote,
    InputError,
    ProtocolState,
    SignedVote,
    _cp_sort_key,
)
from .mutation import Mutation
from .slashing import SafetyVerdict, SlashingEvidence


def _expect(value: Any, kind: type, path: str) -> Any:
    if kind is int and isinstance(value, bool) or not isinstance(value, kind):
        raise InputError(f"{path}: expected {kind.__name__}, got {value!r}")
    return value


def parse_scenario(doc: Any) -> ProtocolState:
    """Build a ProtocolState from a decoded scenario document."""
    if not isinstance(doc, dict):
        raise InputError("scenario: expected a JSON object at the top level")
    n_validators = _expect(doc.get("n_validators"), int, "n_validators")
    slot_rule = doc.get("slot_rule", "strict")
    if slot_rule not in ("strict", "nonstrict"):
        raise InputError(f"slot_rule: expected 'strict' or 'nonstrict', got {slot_rule!r}")

    blocks: list[Block] = []
    seen = {GENESIS}
    for i, row in enumerate(_expect(doc.get("blocks", []), list, "blocks")):
        path = f"blocks[{i}]"
        if not isinstance(row, dict):
            raise InputError(f"{path}: expected an object")
        block_id = _expect(row.get("id"), str, f"{path}.id")
        slot = _expect(row.get("slot"), int, f"{path}.slot")
        parent = row.get("parent")
        if parent is not None:
            parent = _expect(parent, str, f"{path}.parent")
        if block_id == GENESIS:
            if slot != 0 or parent is not None:
                raise InputError(f"{path}: genesis must have slot 0 and no parent")
            continue
        if block_id in seen:
            raise InputError(f"{path}.id: duplicate block {block_id!r}")
        seen.add(block_id)
        blocks.append(Block(block_id, slot, parent))
    try:
        forest = BlockForest(blocks)
    except InputError as exc:
        raise InputError(f"blocks: {exc}") from None

    votes: list[SignedVote] = []
    for i, row in enumerate(_expect(doc.get("votes", []), list, "votes")):
        path = f"votes[{i}]"
        if not isinstance(row, dict):
            raise InputError(f"{path}: expected an object")
        validator = _expect(row.get("validator"), int, f"{path}.validator")
        endpoints = []
        for end in ("source", "target"):
            cp_doc = row.get(end)
            if not isinstance(cp_doc, dict):
                raise InputError(f"{path}.{end}: expected an object")
            block_id = _expect(cp_doc.get("block"), str, f"{path}.{end}.block")
            c = _expect(cp_doc.get("c"), int, f"{path}.{end}.c")
            if c < 0:
                raise InputError(f"{path}.{end}.c: expected a non-negative slot, got {c}")
            if block_id not in forest:
                raise InputError(f"{path}.{end}.block: unknown block {block_id!r}")
            endpoints.append(Checkpoint(block_id, c, forest.slot_of(block_id)))
        votes.append(SignedVote(FfgVote(endpoints[0], endpoints[1]), validator))
    try:
        return ProtocolState(forest, n_validators, frozenset(votes), slot_rule)
    except InputError as exc:
        raise InputError(f"votes: {exc}") from None


def checkpoint_to_json(cp: Checkpoint) -> dict:
    return {"block": cp.block, "c": cp.c, "p": cp.p}


def _vote_to_json(vote: FfgVote) -> dict:
    return {
        "source": {"block": vote.source.block, "c": vote.source.c},
        "target": {"block": vote.target.block, "c": vote.target.c},
    }


def scenario_to_json(state: ProtocolState) -> dict:
    blocks = [
        {"id": b.id, "slot": b.slot, "parent": b.parent}
        for b in sorted(state.forest, key=lambda b: (b.slot, b.id))
        if b.id != GENESIS
    ]
    votes = [
        {"validator": sv.validator, **_vote_to_json(sv.vote)}
        for sv in sorted(state.votes, key=lambda sv: (sv.validator, sv.vote))
    ]
    return {
        "n_validators": state.n_validators,
        "slot_rule": state.slot_rule,
        "blocks": blocks,
        "votes": votes,
    }


def _evidence_to_json(evidence: tuple[SlashingEvidence, ...]) -> list[dict]:
    return [
        {
            "validator": e.validator,
            "kind": e.kind,
            "vote_a": _vote_to_json(e.vote_a),
            "vote_b": _vote_to_json(e.vote_b),
        }
        for e in evidence
    ]


def verdict_to_json(
    state: ProtocolState, safety: SafetyVerdict, mutation: Mutation = Mutation.NONE
) -> dict:
    view = finality_view(state, mutation=mutation)
    return {
        "holds": safety.holds,
        "disagreement": safety.disagreement,
        "justified": [checkpoint_to_json(c) for c in sorted(view.justified, key=_cp_sort_key)],
        "finalized": [checkpoint_to_json(c) for c in sorted(view.finalized, key=_cp_sort_key)],
        "finalized_blocks": sorted(view.finalized_blocks),
        "slashable": sorted(safety.slashable),
        "evidence": _evidence_to_json(safety.evidence),
    }
