"""Scalar reference kernels: the test oracles for :mod:`repro.kernels`.

The simulator runs one implementation of each hot loop: the batched
numpy kernels.  The per-element Python loops they replaced live here as
executable specifications, together with validating wrappers that run
both implementations on every call and assert bit-identical state.

Tests swap them in through two module-level seams the runtime looks up
at call time:

* ``repro.core.sampler.fold_samples`` -- called by
  ``KSampled.process_samples`` on every sample batch;
* ``repro.mem.tlb._ArraySetAssoc`` -- the class ``TLB.__init__``
  instantiates for its 4K and 2M arrays (so a TLB keeps the
  implementation it was built with).

:func:`installed` patches both for a ``with`` block:

* ``VECTORIZED`` -- the runtime kernels;
* ``SCALAR`` -- the per-element oracles;
* ``VALIDATE`` -- both on every call, asserting identical results and
  state (the vectorized result is the one the simulation continues with).

:func:`fuse_reference` is the executable spec of the engine's fused
rebase (``Simulation._fuse_staged``); ``tests/test_macro_batch.py``
holds the two bit-identical per batch and end to end.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, List, Tuple

import numpy as np

import repro.core.sampler as sampler_module
import repro.mem.tlb as tlb_module
from repro.core.histogram import AccessHistogram, bin_of
from repro.kernels.sample_fold import (
    FoldParams,
    FoldResult,
    FoldState,
    fold_samples,
)
from repro.mem.pages import SUBPAGES_PER_HUGE
from repro.mem.tlb import _ArraySetAssoc as ArraySetAssoc
from repro.pebs.events import AccessBatch

#: Implementation names; the values appear in test ids and in the
#: per-implementation digests of ``tests/data/ntier_pinned_digests.json``.
VECTORIZED = "vectorized"
SCALAR = "scalar"
VALIDATE = "validate"

#: Both implementations, for parametrizing differential tests.
BOTH = [VECTORIZED, SCALAR]


# -- ksampled sample fold ------------------------------------------------------


def fold_samples_scalar(
    state: FoldState, vpns: np.ndarray, params: FoldParams
) -> FoldResult:
    """Reference implementation: the original per-sample loop."""
    page_tier = params.page_tier
    page_huge = params.page_huge
    sub_count = state.sub_count
    huge_count = state.huge_count
    hist = state.hist
    base_hist = state.base_hist
    fast = params.fast
    t_hot = params.t_hot
    comp = params.comp
    base_cut = params.base_cut
    res = FoldResult(tie_credit=params.tie_credit)
    tie_credit = params.tie_credit

    for vpn in np.asarray(vpns).tolist():
        if page_tier[vpn] < 0:
            continue  # freed between access and drain
        res.processed += 1

        sub_count[vpn] += 1
        if page_huge[vpn]:
            hpn = vpn >> 9
            huge_count[hpn] += 1
            rep = hpn << 9
            hotness = int(huge_count[hpn])
            weight = SUBPAGES_PER_HUGE
        else:
            rep = vpn
            hotness = int(sub_count[vpn]) * comp
            weight = 1

        # Page access histogram update (possibly crossing a bin).
        new_bin = bin_of(hotness)
        old_bin = int(state.main_bin[rep])
        if old_bin < 0:
            hist.add(new_bin, weight)
            state.main_weight[rep] = weight
            state.main_bin[rep] = new_bin
        elif new_bin != old_bin:
            hist.move(old_bin, new_bin, weight)
            state.main_bin[rep] = new_bin

        # Emulated base page histogram (4 KiB granularity).
        base_hotness = int(sub_count[vpn]) * comp
        new_base_bin = bin_of(base_hotness)
        old_base_bin = int(state.base_bin[vpn])
        if old_base_bin < 0:
            base_hist.add(new_base_bin, 1)
            state.base_bin[vpn] = new_base_bin
        elif new_base_bin != old_base_bin:
            base_hist.move(old_base_bin, new_base_bin, 1)
            state.base_bin[vpn] = new_base_bin

        # rHR: did this access land in the fast tier?
        if page_tier[vpn] == fast:
            res.rhr_hits += 1
        # eHR: would it hit if only the hottest base pages were fast?
        # Judged on the page's hotness *before* this sample; ties at the
        # cut earn fractional credit for the slots they share.
        pre_hotness = base_hotness - comp
        if pre_hotness > base_cut:
            res.ehr_hits += 1
        elif pre_hotness == base_cut:
            tie_credit += params.base_cut_fraction
            if tie_credit >= 1.0:
                tie_credit -= 1.0
                res.ehr_hits += 1

        # Hot page off the fastest tier: promotion candidate (§4.2.3).
        if new_bin >= t_hot and page_tier[vpn] != fast:
            res.promoted.append(int(rep))

    res.tie_credit = tie_credit
    return res


def _clone_fold_state(state: FoldState) -> FoldState:
    """Deep copy of a fold state bundle (shadow for the oracle run)."""
    hist = AccessHistogram()
    hist.bins[:] = state.hist.bins
    base_hist = AccessHistogram()
    base_hist.bins[:] = state.base_hist.bins
    return FoldState(
        sub_count=state.sub_count.copy(),
        huge_count=state.huge_count.copy(),
        main_bin=state.main_bin.copy(),
        main_weight=state.main_weight.copy(),
        base_bin=state.base_bin.copy(),
        hist=hist,
        base_hist=base_hist,
    )


def fold_samples_validate(
    state: FoldState, vpns: np.ndarray, params: FoldParams
) -> FoldResult:
    """Run both folds; assert bit-identical state; return the kernel's."""
    shadow = _clone_fold_state(state)
    ref = fold_samples_scalar(shadow, vpns, params)
    res = fold_samples(state, vpns, params)

    if not (
        res.processed == ref.processed
        and res.rhr_hits == ref.rhr_hits
        and res.ehr_hits == ref.ehr_hits
        and res.tie_credit == ref.tie_credit
        and set(res.promoted) == set(ref.promoted)
    ):
        raise AssertionError(
            f"fold kernel mismatch: vectorized {res} != scalar {ref}"
        )
    for name in ("sub_count", "huge_count", "main_bin", "main_weight",
                 "base_bin"):
        if not np.array_equal(getattr(state, name), getattr(shadow, name)):
            raise AssertionError(f"fold kernel mismatch in {name}")
    if not np.array_equal(state.hist.bins, shadow.hist.bins):
        raise AssertionError("fold kernel mismatch in main histogram")
    if not np.array_equal(state.base_hist.bins, shadow.base_hist.bins):
        raise AssertionError("fold kernel mismatch in base histogram")
    return res


# -- TLB set-associative arrays ------------------------------------------------


class ScalarSetAssoc:
    """Reference: one set-associative LRU array of per-set lists."""

    __slots__ = ("num_sets", "ways", "sets")

    def __init__(self, entries: int, ways: int):
        self.num_sets = entries // ways
        self.ways = ways
        # Each set is a most-recently-used-first list of tags.
        self.sets: List[List[int]] = [[] for _ in range(self.num_sets)]

    def access(self, tag: int) -> bool:
        """Touch ``tag``; returns True on hit.  Fills on miss (LRU evict)."""
        entry_set = self.sets[tag % self.num_sets]
        try:
            entry_set.remove(tag)
        except ValueError:
            if len(entry_set) >= self.ways:
                entry_set.pop()
            entry_set.insert(0, tag)
            return False
        entry_set.insert(0, tag)
        return True

    def access_batch(self, tag_stream: np.ndarray) -> Tuple[int, int]:
        """Per-lookup loop over a stream; returns (hits, misses)."""
        hits = 0
        for tag in np.asarray(tag_stream).tolist():
            if self.access(tag):
                hits += 1
        return hits, len(tag_stream) - hits

    def invalidate(self, tag: int) -> bool:
        entry_set = self.sets[tag % self.num_sets]
        try:
            entry_set.remove(tag)
            return True
        except ValueError:
            return False

    def invalidate_range(self, lo: int, hi: int) -> int:
        """Remove every tag in ``[lo, hi)``; returns the number removed."""
        removed = 0
        for s in self.sets:
            kept = [t for t in s if not lo <= t < hi]
            removed += len(s) - len(kept)
            s[:] = kept
        return removed

    def flush(self) -> int:
        count = sum(len(s) for s in self.sets)
        for s in self.sets:
            s.clear()
        return count

    def state_rows(self) -> List[List[int]]:
        return [list(s) for s in self.sets]

    def load_rows(self, rows: List[List[int]]) -> None:
        if len(rows) != self.num_sets:
            raise ValueError(
                f"checkpoint has {len(rows)} sets, TLB has {self.num_sets}"
            )
        for s, row in zip(self.sets, rows):
            s[:] = [int(t) for t in row]


class ValidatingSetAssoc:
    """Runs the oracle and the array kernel side by side, asserting."""

    __slots__ = ("scalar", "array")

    def __init__(self, entries: int, ways: int):
        self.scalar = ScalarSetAssoc(entries, ways)
        self.array = ArraySetAssoc(entries, ways)

    def _check_state(self, op: str) -> None:
        if self.scalar.state_rows() != self.array.state_rows():
            raise AssertionError(f"TLB kernel state mismatch after {op}")

    def _both(self, op: str, *args):
        ref = getattr(self.scalar, op)(*args)
        got = getattr(self.array, op)(*args)
        if ref != got:
            raise AssertionError(
                f"TLB kernel {op} mismatch: array {got} != scalar {ref}"
            )
        self._check_state(op)
        return got

    def access_batch(self, tag_stream: np.ndarray) -> Tuple[int, int]:
        return self._both("access_batch", tag_stream)

    def invalidate(self, tag: int) -> bool:
        return self._both("invalidate", tag)

    def invalidate_range(self, lo: int, hi: int) -> int:
        return self._both("invalidate_range", lo, hi)

    def flush(self) -> int:
        return self._both("flush")

    def state_rows(self) -> List[List[int]]:
        self._check_state("state_rows")
        return self.array.state_rows()

    def load_rows(self, rows: List[List[int]]) -> None:
        self.scalar.load_rows(rows)
        self.array.load_rows(rows)


# -- fusion --------------------------------------------------------------------


def fuse_reference(regions, rels) -> AccessBatch:
    """Per-segment rebase + concat: the executable fusion spec."""
    return AccessBatch.concat(
        [rel.rebased(region.base_vpn) for region, rel in zip(regions, rels)]
    )


# -- installation --------------------------------------------------------------

_SEAMS = {
    VECTORIZED: (fold_samples, ArraySetAssoc),
    SCALAR: (fold_samples_scalar, ScalarSetAssoc),
    VALIDATE: (fold_samples_validate, ValidatingSetAssoc),
}


@contextmanager
def installed(impl: str) -> Iterator[None]:
    """Run the ``with`` block on implementation ``impl``.

    The fold seam is read on every ``process_samples`` call; the TLB
    seam only when a ``TLB`` is built, so build the simulation inside
    the block.
    """
    fold, array = _SEAMS[impl]
    saved = (sampler_module.fold_samples, tlb_module._ArraySetAssoc)
    sampler_module.fold_samples = fold
    tlb_module._ArraySetAssoc = array
    try:
        yield
    finally:
        sampler_module.fold_samples, tlb_module._ArraySetAssoc = saved
