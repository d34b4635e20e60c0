"""State-scan kernels: the hot inner loop of the bounded search.

One call scans a block of canonical vote-assignment rows (`states`, one row of
per-validator vote masks) against the bit-packed tables of a single
(graph, distinct-vote combination) pair, and returns the first row satisfying
the scan mode plus the number of rows scanned.

Two interchangeable backends implement the same contract:

* a numba ``@njit`` kernel (row-at-a-time integer loops), used when numba
  imports and ``FFGMC_KERNEL`` is ``auto`` or ``numba``;
* a vectorized pure-numpy path (batched over rows), selected by
  ``FFGMC_KERNEL=numpy`` or when numba is unavailable.

Both report counters as if rows were scanned sequentially and the scan stopped
at the first hit, so reports are byte-identical across backends.

Before any row is scanned, `bound_combinations` drops whole combinations that
cannot hold a hit (the monotone combination bound).
"""

from __future__ import annotations

import os

import numpy as np

from .tables import GraphTables, ProjectedTables

MODE_COUNTEREXAMPLE = 0        # disagreement with under-threshold slashing
MODE_FINALIZED_NONGENESIS = 1
MODE_JUSTIFIED_NONGENESIS = 2
MODE_CONFLICTING_FINALIZED = 3
MODE_LFP_NE_GFP = 4

_NUMPY_BATCH = 1 << 15

try:
    import numba

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - exercised via FFGMC_KERNEL=numpy
    numba = None
    HAVE_NUMBA = False


def backend_name(override: str | None = None) -> str:
    choice = override or os.environ.get("FFGMC_KERNEL", "auto")
    if choice not in ("auto", "numba", "numpy"):
        raise ValueError(f"unknown kernel backend {choice!r}")
    if choice == "numba" and not HAVE_NUMBA:
        raise RuntimeError("FFGMC_KERNEL=numba but numba is not importable")
    if choice == "auto":
        return "numba" if HAVE_NUMBA else "numpy"
    return choice


def scan_states(
    states: np.ndarray,
    tables: ProjectedTables,
    n_validators: int,
    mode: int,
    quorum_half: bool,
    backend: str | None = None,
) -> tuple[int, int]:
    """Scan rows in order; return (first hit row or -1, rows scanned)."""
    if states.shape[0] == 0:
        return -1, 0
    just_a, just_b = (2, n_validators) if quorum_half else (3, 2 * n_validators)
    args = (
        np.ascontiguousarray(states, dtype=np.int64),
        int(tables.gc_idx),
        tables.sandwich,
        tables.by_src,
        tables.fin,
        tables.cp_conflict,
        tables.subset_slash,
        just_a,
        just_b,
        n_validators,
        mode,
    )
    if backend_name(backend) == "numba":
        hit, scanned = _scan_numba(*args)
    else:
        hit, scanned = _scan_numpy(*args)
    return int(hit), int(scanned)


def bound_combinations(
    tables: GraphTables, combos: np.ndarray, mode: int, drop_ancestry: bool
) -> np.ndarray:
    """Which vote combinations may still hold a hit of `mode`.

    `combos` is a (C, u) array of vote indices into `tables.votes`, one
    combination per row; the result is a (C,) bool array that is False where
    no canonical row of the combination can hit, so that combination needs
    no projection and no scan.

    Soundness.  Every row of a combination U is a vote set contained in the
    unanimity state, in which all N validators cast every vote of U.
    Justification is the least fixpoint of a monotone operator, and a
    justifying or finalizing quorum only grows with added votes, so the
    justified set, the finalized set and a conflicting finalized pair are
    all monotone in the vote set; no mutation flag changes that (quorum-half
    lowers the threshold, drop-ancestry widens the sandwich clause, e1/e2
    touch only slashing).  Hence a row can hit only if the unanimity state
    does.  In the unanimity state every vote of U has N senders and the
    quorum test always passes (3N >= 2N, and 2N >= N under quorum-half), so
    the fixpoint reduces to reachability over the votes of U, independent
    of N:

      J = genesis + {k : a vote of U with its source in J sandwiches k}
      F = genesis + (J & {k : U holds a finalizing vote from k})

    A combination is kept iff F holds a conflicting pair (counterexample and
    conflicting-finalized modes; a counterexample also needs few slashable
    validators, so dropping that conjunct only keeps more), F is more than
    genesis (finalized-nongenesis) or J is more than genesis
    (justified-nongenesis).  `MODE_LFP_NE_GFP` compares two fixpoints of the
    same state, which is not monotone, and has no bound.

    J and F are evaluated for all C combinations at once with matrix
    products over the (K, M) tables; checkpoint 0 is genesis.
    """
    if mode == MODE_LFP_NE_GFP:
        raise ValueError("the lfp/gfp comparison is not monotone and has no bound")
    c = combos.shape[0]
    k, m = tables.sandwich.shape
    in_u = np.zeros((c, m), dtype=np.float32)
    in_u[np.arange(c)[:, None], combos] = 1.0
    sandwich = (tables.sandwich_noanc if drop_ancestry else tables.sandwich)
    sandwich_t = sandwich.T.astype(np.float32)                          # (M, K)
    by_src = tables.by_src.astype(np.float32)                          # (K, M)
    justified = np.zeros((c, k), dtype=bool)
    justified[:, 0] = True
    while True:
        eligible = (justified.astype(np.float32) @ by_src) * in_u       # (C, M)
        grown = (eligible @ sandwich_t) > 0                             # (C, K)
        grown[:, 0] = True
        if np.array_equal(grown, justified):
            break
        justified = grown
    if mode == MODE_JUSTIFIED_NONGENESIS:
        return justified[:, 1:].any(axis=1)
    finalizing = (in_u @ tables.fin.T.astype(np.float32)) > 0           # (C, K)
    finalized = justified & finalizing
    finalized[:, 0] = True
    if mode == MODE_FINALIZED_NONGENESIS:
        return finalized[:, 1:].any(axis=1)
    conflict = (tables.cp_conflict[:, None] >> np.arange(k)) & 1       # (K, K)
    clash = (finalized.astype(np.float32) @ conflict.astype(np.float32)) > 0
    return (clash & finalized).any(axis=1)


def _full_mask(k: int) -> int:
    return (1 << k) - 1


# ---------------------------------------------------------------------------
# numpy backend

def _justified_numpy(states, gc_idx, sandwich, by_src, just_a, just_b, start):
    s, n = states.shape
    k = sandwich.shape[0]
    kr = np.arange(k, dtype=np.int64)
    genesis_bit = np.int64(1 << gc_idx)
    j = np.full(s, start, dtype=np.int64)
    pending = np.arange(s)
    while pending.size:
        jp = j[pending]
        member = ((jp[:, None] >> kr[None, :]) & 1).astype(bool)        # (s, K)
        eligible = np.bitwise_or.reduce(
            np.where(member, by_src[None, :], np.int64(0)), axis=1
        )                                                               # (s,)
        support = sandwich[None, :] & eligible[:, None]                 # (s, K)
        counts = ((states[pending, :, None] & support[:, None, :]) != 0).sum(axis=1)
        quorum = just_a * counts >= just_b                              # (s, K)
        jn = genesis_bit | np.bitwise_or.reduce(
            np.where(quorum, np.int64(1) << kr[None, :], np.int64(0)), axis=1
        )
        j[pending] = jn
        pending = pending[jn != jp]
    return j


def _scan_numpy(
    states, gc_idx, sandwich, by_src, fin, cp_conflict, subset_slash,
    just_a, just_b, n_validators, mode,
):
    total = states.shape[0]
    k = sandwich.shape[0]
    kr = np.arange(k, dtype=np.int64)
    genesis_bit = np.int64(1 << gc_idx)
    for lo in range(0, total, _NUMPY_BATCH):
        batch = states[lo : lo + _NUMPY_BATCH]
        j = _justified_numpy(batch, gc_idx, sandwich, by_src, just_a, just_b, genesis_bit)
        if mode == MODE_LFP_NE_GFP:
            gfp = _justified_numpy(
                batch, gc_idx, sandwich, by_src, just_a, just_b, np.int64(_full_mask(k))
            )
            hits = j != gfp
        elif mode == MODE_JUSTIFIED_NONGENESIS:
            hits = j != genesis_bit
        else:
            justified = ((j[:, None] >> kr[None, :]) & 1).astype(bool)
            fcounts = ((batch[:, :, None] & fin[None, None, :]) != 0).sum(axis=1)
            final = justified & (just_a * fcounts >= just_b)
            fmask = genesis_bit | np.bitwise_or.reduce(
                np.where(final, np.int64(1) << kr[None, :], np.int64(0)), axis=1
            )
            fbits = ((fmask[:, None] >> kr[None, :]) & 1).astype(bool)
            clash = np.bitwise_or.reduce(
                np.where(fbits, cp_conflict[None, :], np.int64(0)), axis=1
            )
            disagree = (clash & fmask) != 0
            if mode == MODE_FINALIZED_NONGENESIS:
                hits = fmask != genesis_bit
            elif mode == MODE_CONFLICTING_FINALIZED:
                hits = disagree
            else:
                slashable = subset_slash[batch].sum(axis=1)
                hits = disagree & (3 * slashable < n_validators)
        where = np.nonzero(hits)[0]
        if where.size:
            return lo + int(where[0]), lo + int(where[0]) + 1
    return -1, total


# ---------------------------------------------------------------------------
# numba backend

if HAVE_NUMBA:

    @numba.njit(cache=True, nogil=True)
    def _justified_one(masks, gc_idx, sandwich, by_src, just_a, just_b, start):
        k = sandwich.shape[0]
        n = masks.shape[0]
        j = start
        while True:
            eligible = np.int64(0)
            for idx in range(k):
                if (j >> idx) & 1:
                    eligible |= by_src[idx]
            jn = np.int64(1) << gc_idx
            for idx in range(k):
                support = sandwich[idx] & eligible
                if support != 0:
                    count = 0
                    for v in range(n):
                        if masks[v] & support:
                            count += 1
                    if just_a * count >= just_b:
                        jn |= np.int64(1) << idx
            if jn == j:
                return j
            j = jn

    @numba.njit(cache=True, nogil=True)
    def _scan_numba(
        states, gc_idx, sandwich, by_src, fin, cp_conflict, subset_slash,
        just_a, just_b, n_validators, mode,
    ):
        total = states.shape[0]
        n = states.shape[1]
        k = sandwich.shape[0]
        genesis_bit = np.int64(1) << gc_idx
        full = (np.int64(1) << k) - 1
        for row in range(total):
            masks = states[row]
            j = _justified_one(masks, gc_idx, sandwich, by_src, just_a, just_b, genesis_bit)
            if mode == MODE_LFP_NE_GFP:
                gfp = _justified_one(masks, gc_idx, sandwich, by_src, just_a, just_b, full)
                if j != gfp:
                    return row, row + 1
                continue
            if mode == MODE_JUSTIFIED_NONGENESIS:
                if j != genesis_bit:
                    return row, row + 1
                continue
            fmask = genesis_bit
            for idx in range(k):
                if (j >> idx) & 1 and fin[idx] != 0:
                    count = 0
                    for v in range(n):
                        if masks[v] & fin[idx]:
                            count += 1
                    if just_a * count >= just_b:
                        fmask |= np.int64(1) << idx
            if mode == MODE_FINALIZED_NONGENESIS:
                if fmask != genesis_bit:
                    return row, row + 1
                continue
            disagree = False
            for idx in range(k):
                if (fmask >> idx) & 1 and (cp_conflict[idx] & fmask) != 0:
                    disagree = True
                    break
            if mode == MODE_CONFLICTING_FINALIZED:
                if disagree:
                    return row, row + 1
                continue
            if not disagree:
                continue
            slashable = 0
            for v in range(n):
                if subset_slash[masks[v]]:
                    slashable += 1
            if 3 * slashable < n_validators:
                return row, row + 1
        return -1, total

else:  # pragma: no cover
    _scan_numba = None
