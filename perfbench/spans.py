"""Outside-in layer tracer for the benchmark's traced pass.

The simulator source is never edited: :func:`install` replaces public
methods of the classes that ``RunSpec.build()`` / ``Simulation``
construct with wrappers that record one span per call.  A span is
``[layer, start_ns, end_ns, parent_index]``; spans stay in memory and
are written out once, at the end, as a Chrome trace (``chrome://tracing``
or Perfetto).  A layer's self time is its spans' durations minus the
durations of their direct child spans (:meth:`Tracer.self_seconds`).

Layer boundaries (the layer name is the span name):

=============  ==========================================================
``engine``     ``Simulation.run``; its self time is the residual -- event
               loop, coalescer, fusion and interleave
``workloads``  every ``next()`` on the iterator ``Workload.events(rng)``
``mem``        ``AddressSpace.record_touch`` / ``demand_map_many``
``tlb``        ``TLB.access_substream``
``cost``       ``BoundCostModel.memory_ns`` / ``walk_ns`` / ``fault_ns``
``pebs``       ``PEBSSampler.sample``
``policy``     ``on_batch`` / ``on_tick`` / ``on_hint_faults`` /
               ``on_demand_map`` of every ``TieringPolicy`` class
``migration``  ``MigrationEngine.migrate_*`` / ``split_huge`` /
               ``collapse_huge``
``snapshot``   ``SnapshotStore.save`` and the ``Simulation.state_dict``
               capture that feeds it
``cache.get``  ``ResultCache.get``
``cache.put``  ``ResultCache.put``
=============  ==========================================================

The caller adds root spans of its own (``cell`` around one simulation,
``sweep`` around ``run_sweep``) with :meth:`Tracer.region`.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

_clock = time.perf_counter_ns

#: Policy hooks the engine calls; each is a ``policy`` span.
POLICY_HOOKS = ("on_batch", "on_tick", "on_hint_faults", "on_demand_map")
#: ``MigrationEngine`` entry points; each is a ``migration`` span.
MIGRATION_METHODS = ("migrate_base", "migrate_huge", "migrate_page",
                     "migrate_many", "split_huge", "collapse_huge")


class Tracer:
    """In-memory span recorder plus the method patches that feed it."""

    def __init__(self):
        self.spans: List[list] = []
        self.counts: Dict[str, int] = defaultdict(int)
        self._stack: List[int] = []
        self._patches = []

    # -- recording -------------------------------------------------------

    def _open(self, layer: str) -> list:
        stack = self._stack
        rec = [layer, 0, 0, stack[-1] if stack else -1]
        stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = _clock()
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = _clock()
        self._stack.pop()

    @contextlib.contextmanager
    def region(self, layer: str):
        """A span around a block of the caller's own code."""
        rec = self._open(layer)
        try:
            yield
        finally:
            self._close(rec)

    def wrap(self, layer: str, fn: Callable,
             count: Optional[Callable] = None) -> Callable:
        """``fn`` timed as a ``layer`` span; ``count(counts, args, out)``
        runs after the span closes, so its cost stays in the parent."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = tracer._open(layer)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(rec)
            if count is not None:
                count(tracer.counts, args, out)
            return out

        return wrapper

    def timed_iter(self, iterator):
        """Yield from ``iterator``, timing every ``next()`` as a
        ``workloads`` span.  Events are counted only at the outermost
        workload, so a composite workload is not double counted."""
        advance = iterator.__next__
        while True:
            rec = self._open("workloads")
            try:
                item = advance()
            except StopIteration:
                return
            finally:
                self._close(rec)
            if rec[3] < 0 or self.spans[rec[3]][0] != "workloads":
                self.counts["workloads.events"] += 1
            yield item

    # -- patching --------------------------------------------------------

    def patch(self, owner: type, attr: str, replacement: Callable) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def patch_span(self, owner: type, attr: str, layer: str,
                   count: Optional[Callable] = None) -> None:
        self.patch(owner, attr, self.wrap(layer, owner.__dict__[attr], count))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ---------------------------------------------------------

    def reset(self) -> None:
        """Forget every span and count (a forked worker starts clean:
        it inherits a copy of its parent's open ``sweep`` span)."""
        del self.spans[:]
        del self._stack[:]
        self.counts.clear()

    def self_seconds(self) -> Dict[str, float]:
        """Self time per layer, derived from the span tree."""
        spans = self.spans
        child = [0] * len(spans)
        for _layer, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        out: Dict[str, float] = defaultdict(float)
        for i, (layer, start, end, _parent) in enumerate(spans):
            out[layer] += (end - start - child[i]) / 1e9
        return dict(out)

    def total_seconds(self, layer: str) -> float:
        """Summed wall time of ``layer``'s spans (nested ones included
        only once, at their outermost span)."""
        spans = self.spans
        return sum(
            (end - start) / 1e9 for name, start, end, parent in spans
            if name == layer and (parent < 0 or spans[parent][0] != layer)
        ) if spans else 0.0

    def chrome_events(self, limit: int) -> List[dict]:
        """Up to ``limit`` spans as Chrome ``X`` events (microseconds)."""
        return [
            {"name": layer, "ph": "X", "pid": 0, "tid": 0,
             "ts": start / 1e3, "dur": (end - start) / 1e3}
            for layer, start, end, _parent in self.spans[:limit]
        ]


def write_chrome_trace(path: str, events: List[dict], metadata: dict) -> None:
    """Write a Chrome trace; span timestamps are rebased to the first."""
    spans_ = [e for e in events if e["ph"] == "X"]
    origin = min((e["ts"] for e in spans_), default=0.0)
    for e in spans_:
        e["ts"] = round(e["ts"] - origin, 3)
        e["dur"] = round(e["dur"], 3)
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w") as fh:
        json.dump({"traceEvents": events, "metadata": metadata}, fh)


def _subclasses(cls: type) -> List[type]:
    """``cls`` and every class below it, each once."""
    seen, todo = {}, [cls]
    while todo:
        c = todo.pop()
        if c not in seen:
            seen[c] = None
            todo.extend(c.__subclasses__())
    return list(seen)


def _count_pages(counts, args, _out):
    counts["mem.demand_mapped_pages"] += len(args[1])


def _count_call(name: str) -> Callable:
    def count(counts, _args, _out):
        counts[name] += 1
    return count


def _count_hit(counts, _args, out):
    if out is not None:
        counts["cache.hits"] += 1


def _count_save(counts, _args, path):
    counts["snapshot.saves"] += 1
    counts["snapshot.bytes"] += os.path.getsize(path)


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary in the table above.  Call before the
    simulations are built; :meth:`Tracer.restore` undoes it."""
    import repro.workloads.registry  # noqa: F401  (imports every workload)
    import repro.policies.registry  # noqa: F401  (imports every policy)
    from repro.mem.address_space import AddressSpace
    from repro.mem.migration import MigrationEngine
    from repro.mem.tlb import TLB
    from repro.pebs.sampler import PEBSSampler
    from repro.policies.base import TieringPolicy
    from repro.sim.cache import ResultCache
    from repro.sim.cost import BoundCostModel
    from repro.sim.engine import Simulation
    from repro.snapshot.store import SnapshotStore
    from repro.workloads.base import Workload
    from repro.workloads.trace import TraceWorkload  # noqa: F401

    tracer.patch_span(Simulation, "run", "engine")
    tracer.patch_span(Simulation, "state_dict", "snapshot")
    tracer.patch_span(AddressSpace, "record_touch", "mem")
    tracer.patch_span(AddressSpace, "demand_map_many", "mem", _count_pages)
    # The engine makes exactly one TLB call per processed batch.
    tracer.patch_span(TLB, "access_substream", "tlb",
                      _count_call("engine.batches"))
    for method in ("memory_ns", "walk_ns", "fault_ns"):
        tracer.patch_span(BoundCostModel, method, "cost")
    tracer.patch_span(PEBSSampler, "sample", "pebs")
    for cls in _subclasses(TieringPolicy):
        for hook in POLICY_HOOKS:
            if hook in cls.__dict__:
                tracer.patch_span(cls, hook, "policy")
    for method in MIGRATION_METHODS:
        tracer.patch_span(MigrationEngine, method, "migration")
    tracer.patch_span(SnapshotStore, "save", "snapshot", _count_save)
    tracer.patch_span(ResultCache, "get", "cache.get", _count_hit)
    tracer.patch_span(ResultCache, "put", "cache.put",
                      _count_call("cache.stores"))
    for cls in _subclasses(Workload):
        original = cls.__dict__.get("events")
        if original is None or getattr(original, "__isabstractmethod__", False):
            continue

        def events(self, rng, _original=original):
            return tracer.timed_iter(_original(self, rng))

        tracer.patch(cls, "events", functools.wraps(original)(events))
