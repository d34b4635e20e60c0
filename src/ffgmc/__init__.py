"""Bounded exhaustive checker for an FFG-style finality gadget."""

from .enumerator import (
    Bounds,
    SearchReport,
    check_lfp_gfp,
    enumerate_forests,
    find_example,
    forest_count,
    search,
)
from .finality import FinalityView, finality_view, justified_checkpoints, justified_checkpoints_gfp
from .model import (
    GENESIS,
    GENESIS_CHECKPOINT,
    Block,
    BlockForest,
    Checkpoint,
    FfgVote,
    InputError,
    ProtocolState,
    SignedVote,
    are_conflicting,
    checkpoint_le,
    checkpoint_lt,
    checkpoints_of,
    is_ancestor,
    is_valid_checkpoint,
    is_valid_ffg_vote,
)
from .mutation import Mutation, parse_mutation
from .slashing import SafetyVerdict, SlashingEvidence, accountable_safety, is_slashable_pair

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
