"""Batch sample-folding kernel for `ksampled`.

:func:`fold_samples` folds one :class:`~repro.pebs.sampler.SampleBatch`
into the ksampled state bundle: page counters, main/base histogram bins,
rHR/eHR estimation and the promotion queue.  It reproduces the final
state of the original per-sample loop bit-for-bit from per-vpn group
arithmetic; that loop is kept as a test oracle in
``tests/kernel_oracles.py``.

Why exact equivalence is possible
---------------------------------
Within one fold call nothing outside the batch mutates: thresholds,
``base_cut_hotness``/``base_cut_fraction``, ``comp``, page tiers and
mapping shapes are all constant.  Each sample increments its page's
counter by one, so per-page hotness is *strictly increasing* across the
batch and the histogram-bin trajectory of each page is monotone.
Consequences exploited by the kernel:

* the net histogram effect of k samples of one page is a single
  ``old_bin -> final_bin`` move (intermediate moves telescope away);
* the promotion condition "``new_bin >= T_hot`` at *any* sample" is
  equivalent to "final bin ``>= T_hot``" (tier is constant);
* the eHR pre-update hotness of a page's j-th occurrence is the closed
  sequence ``(c0 + j) * comp`` for ``j = 0..k-1``, so the number of
  strict cut-exceedances has a closed form and *at most one* occurrence
  per page can tie the cut exactly (the sequence is strictly
  increasing).  Every tie adds the same fractional credit, which makes
  the tie-credit accumulator order-independent: the per-sample float
  recurrence is replayed once per tie, in any order, to the same bits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

from repro.core.histogram import AccessHistogram, bin_of_array
from repro.mem.pages import SUBPAGES_PER_HUGE


@dataclass
class FoldState:
    """Mutable ksampled state a fold call updates (views, not copies)."""

    sub_count: np.ndarray
    huge_count: np.ndarray
    main_bin: np.ndarray
    main_weight: np.ndarray
    base_bin: np.ndarray
    hist: AccessHistogram
    base_hist: AccessHistogram


@dataclass(frozen=True)
class FoldParams:
    """Read-only inputs, constant for the duration of one fold call."""

    page_tier: np.ndarray
    page_huge: np.ndarray
    fast: int
    t_hot: int
    comp: int
    base_cut: int
    base_cut_fraction: float
    tie_credit: float


@dataclass
class FoldResult:
    """Counter deltas produced by one fold call."""

    processed: int = 0
    rhr_hits: int = 0
    ehr_hits: int = 0
    tie_credit: float = 0.0
    #: Page-representative vpns that crossed T_hot on a slower tier.
    promoted: List[int] = field(default_factory=list)


def fold_samples(
    state: FoldState, vpns: np.ndarray, params: FoldParams
) -> FoldResult:
    """Fold one batch: bit-identical final state to the per-sample loop."""
    vpns = np.asarray(vpns, dtype=np.int64)
    tier = params.page_tier[vpns]
    kept = vpns[tier >= 0]
    processed = int(len(kept))
    if processed == 0:
        return FoldResult(tie_credit=params.tie_credit)
    comp = params.comp

    uv, counts = np.unique(kept, return_counts=True)
    c0 = state.sub_count[uv].astype(np.int64)
    state.sub_count[uv] += counts

    huge = params.page_huge[uv]
    base_uv = uv[~huge]
    n_base = len(base_uv)

    # Huge-page counters aggregate across sampled subpages of one hpn.
    hv = uv[huge]
    if len(hv):
        hpn_u, inv = np.unique(hv >> 9, return_inverse=True)
        hpn_counts = np.bincount(inv, weights=counts[huge]).astype(np.int64)
        h0 = state.huge_count[hpn_u].astype(np.int64)
        state.huge_count[hpn_u] += hpn_counts
    else:
        hpn_u = np.empty(0, dtype=np.int64)
        hpn_counts = h0 = np.empty(0, dtype=np.int64)

    # -- main histogram: one net old_bin -> final_bin move per rep -------
    final_counts = c0 + counts
    reps = np.concatenate([hpn_u << 9, base_uv])
    weights = np.concatenate([
        np.full(len(hpn_u), SUBPAGES_PER_HUGE, dtype=np.int64),
        np.ones(n_base, dtype=np.int64),
    ])
    final_hot = np.concatenate([h0 + hpn_counts, final_counts[~huge] * comp])
    new_bins = bin_of_array(final_hot)
    old_bins = state.main_bin[reps].astype(np.int64)
    present = old_bins >= 0
    num_bins = state.hist.num_bins
    delta = np.bincount(
        new_bins, weights=weights, minlength=num_bins
    ).astype(np.int64)
    if present.any():
        delta -= np.bincount(
            old_bins[present], weights=weights[present], minlength=num_bins
        ).astype(np.int64)
    state.hist.bins += delta
    state.main_bin[reps] = new_bins.astype(state.main_bin.dtype)
    absent = reps[~present]
    if len(absent):
        # The per-sample loop only writes main_weight on first sighting.
        state.main_weight[absent] = weights[~present].astype(
            state.main_weight.dtype
        )

    # -- emulated base histogram: per sampled 4 KiB page -----------------
    new_bbins = bin_of_array(final_counts * comp)
    old_bbins = state.base_bin[uv].astype(np.int64)
    bpresent = old_bbins >= 0
    bdelta = np.bincount(new_bbins, minlength=num_bins).astype(np.int64)
    if bpresent.any():
        bdelta -= np.bincount(
            old_bbins[bpresent], minlength=num_bins
        ).astype(np.int64)
    state.base_hist.bins += bdelta
    state.base_bin[uv] = new_bbins.astype(state.base_bin.dtype)

    # -- rHR -------------------------------------------------------------
    rhr_hits = int(np.count_nonzero(params.page_tier[kept] == params.fast))

    # -- eHR: pre-hotness sequence (c0 + j) * comp, j = 0..k-1 -----------
    # Strict exceedance: (c0 + j) * comp > base_cut  <=>  c0 + j >= q + 1
    # with q = base_cut // comp (integer arithmetic, comp >= 1).
    base_cut = params.base_cut
    q = base_cut // comp
    ehr_hits = int((counts - np.clip(q + 1 - c0, 0, counts)).sum())
    # Exact tie: only possible when comp divides base_cut, and then only
    # for the single occurrence with c0 + j == q (strictly increasing).
    tie_credit = params.tie_credit
    if base_cut % comp == 0:
        m = int(np.count_nonzero((c0 <= q) & (q < c0 + counts)))
        # Replay the per-sample float recurrence once per tie; every tie
        # adds the same credit so the result is order-independent, and
        # a closed form would not round identically.
        f = params.base_cut_fraction
        for _ in range(m):
            tie_credit += f
            if tie_credit >= 1.0:
                tie_credit -= 1.0
                ehr_hits += 1

    # -- promotion: final bin >= T_hot off the fastest tier --------------
    promo = reps[(new_bins >= params.t_hot)
                 & (params.page_tier[reps] != params.fast)]

    return FoldResult(
        processed=processed,
        rhr_hits=rhr_hits,
        ehr_hits=ehr_hits,
        tie_credit=tie_credit,
        promoted=[int(r) for r in promo],
    )
