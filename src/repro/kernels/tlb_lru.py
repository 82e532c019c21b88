"""Array-backed set-associative LRU simulation kernel for the TLB.

The TLB state is an ``(num_sets, ways)`` int64 tag matrix per size
class, most-recently-used first within each row; ``-1`` marks an empty
way (valid entries always form a row prefix: fills and promotions
insert at the front, invalidations shift-left).

:func:`lru_batch` runs a whole lookup stream through one matrix:

1. **group by set** -- a stable argsort on ``tag % num_sets``
   partitions the stream into per-set subsequences whose internal order
   is preserved; sets are independent, so they can be simulated in
   lockstep;
2. **collapse consecutive same-tag runs** -- a repeated tag with no
   intervening access to the same set is a guaranteed hit that leaves
   the LRU state unchanged, so only the first lookup of each run is
   simulated and the rest are counted as hits outright (access streams
   are bursty, so this removes a large share of the work);
3. **lockstep rounds** -- round ``r`` applies the r-th surviving lookup
   of *every* set at once with full-matrix numpy ops: match the current
   tags against the rows, compute the hit way, and rotate each active
   row (move-to-front on hit, shift-in/evict-LRU on miss).

The result -- hit/miss counts and final matrix state -- is bit-identical
to running the per-lookup list implementation it replaced (kept as a
test oracle in ``tests/kernel_oracles.py``).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np


def _lru_grouped_sequential(
    tags: np.ndarray, st: np.ndarray, tg: np.ndarray
) -> int:
    """Per-lookup LRU over the already set-grouped stream; returns hits.

    Fallback for degenerate shapes (few sets relative to stream length)
    where the lockstep rounds of :func:`lru_batch` would pay the fixed
    numpy per-round overhead ~``n/num_sets`` times.  Sets are
    independent, so replaying the grouped order is state- and
    count-identical to the original stream order.
    """
    num_sets, ways = tags.shape
    rows = [[t for t in row if t != -1] for row in tags.tolist()]
    hits = 0
    for s, t in zip(st.tolist(), tg.tolist()):
        row = rows[s]
        # Membership test up front: misses dominate small TLBs and an
        # exception per miss costs more than a 4-element scan.
        if t in row:
            row.remove(t)  # a tag appears at most once per row
            hits += 1
        elif len(row) >= ways:
            row.pop()
        row.insert(0, t)
    for s, row in enumerate(rows):
        tags[s, : len(row)] = row
        tags[s, len(row):] = -1
    return hits


def lru_batch(tags: np.ndarray, tag_stream: np.ndarray) -> Tuple[int, int]:
    """Run ``tag_stream`` through the ``(S, W)`` LRU matrix in place.

    Returns ``(hits, misses)`` over the stream.  Tags must be
    non-negative (``-1`` is the empty-way sentinel).
    """
    num_sets, ways = tags.shape
    n = len(tag_stream)
    if n == 0:
        return 0, 0
    tag_stream = np.asarray(tag_stream, dtype=np.int64)
    sets = tag_stream % num_sets

    order = np.argsort(sets, kind="stable")
    st = sets[order]
    tg = tag_stream[order]

    # Consecutive duplicates within a set: hits with no state change.
    dup = np.zeros(n, dtype=bool)
    dup[1:] = (st[1:] == st[:-1]) & (tg[1:] == tg[:-1])
    run_hits = int(np.count_nonzero(dup))
    keep = ~dup
    st = st[keep]
    tg = tg[keep]

    counts = np.bincount(st, minlength=num_sets)
    rounds = int(counts.max())
    lookups = len(tg)
    if rounds * 12 >= lookups:
        # Lockstep parallelism below ~12 lookups/round: per-round numpy
        # overhead would dominate, so replay per lookup instead.  Both
        # paths produce identical state and counts.
        hits_total = _lru_grouped_sequential(tags, st, tg)
        return hits_total + run_hits, lookups - hits_total
    offsets = np.zeros(num_sets, dtype=np.int64)
    np.cumsum(counts[:-1], out=offsets[1:])
    within = np.arange(len(st)) - offsets[st]
    padded = np.full((num_sets, rounds), -1, dtype=np.int64)
    padded[st, within] = tg
    active = np.arange(rounds)[None, :] < counts[:, None]

    way_idx = np.arange(1, ways)
    hits_total = 0
    for r in range(rounds):
        cur = padded[:, r]
        act = active[:, r]
        match = tags == cur[:, None]
        hit = match.any(axis=1) & act
        # Hit way for hits; misses behave like a hit in the last way
        # (shift everything right, evicting the LRU tag).
        pos = np.where(hit, match.argmax(axis=1), ways - 1)
        shifted = np.where(
            way_idx[None, :] <= pos[:, None], tags[:, :-1], tags[:, 1:]
        )
        tags[:, 1:] = np.where(act[:, None], shifted, tags[:, 1:])
        tags[:, 0] = np.where(act, cur, tags[:, 0])
        hits_total += int(np.count_nonzero(hit))

    return hits_total + run_hits, lookups - hits_total


def lru_invalidate(tags: np.ndarray, tag: int) -> bool:
    """Remove ``tag`` from its set row (shift-left); True if present."""
    num_sets = tags.shape[0]
    row = tags[tag % num_sets]
    hits = np.flatnonzero(row == tag)
    if not len(hits):
        return False
    pos = int(hits[0])
    row[pos:-1] = row[pos + 1:]
    row[-1] = -1
    return True


def lru_invalidate_range(tags: np.ndarray, lo: int, hi: int) -> int:
    """Remove every tag in ``[lo, hi)``; returns the number removed.

    Rows keep their MRU order with valid entries compacted to a prefix,
    matching what per-tag :func:`lru_invalidate` calls would leave.
    """
    if hi <= lo:
        return 0
    mask = (tags >= lo) & (tags < hi)
    removed = int(np.count_nonzero(mask))
    if not removed:
        return 0
    for r in np.flatnonzero(mask.any(axis=1)).tolist():
        keep = tags[r][~mask[r]]
        tags[r, : len(keep)] = keep
        tags[r, len(keep):] = -1
    return removed


def lru_flush(tags: np.ndarray) -> int:
    """Empty the whole matrix; returns the number of valid entries."""
    count = int(np.count_nonzero(tags != -1))
    tags[:] = -1
    return count
