"""Macro-batch event coalescing: the engine's only view of a workload.

The engine historically consumed one ~32k-access :class:`AccessEvent`
at a time, paying a fixed per-event Python round trip (rebase ->
``_process_batch`` -> policy observation -> daemon ticks) that caps
throughput long before the array work does.  The
:class:`EventCoalescer` restructures the stream: consecutive access
events are fused into one large contiguous macro-batch (target size
configurable via ``RunSpec.macro_batch``), so every whole-array stage
-- rebase, demand mapping, cost accounting, TLB substream, sampling,
policy observation -- runs once per macro-batch instead of once per
32k accesses.

Semantics
---------
``macro_batch = 0`` (the default everywhere) is a pass-through: every
event comes out alone, as the same object, so the engine sees the
per-event cadence.  ``macro_batch = N > 0`` is a *different cadence*:
the policy observes fewer, larger batches, daemons tick once per
macro-batch of virtual time, and interleaved events shuffle at fused
granularity.  Results therefore legitimately differ from the per-event
cadence, and ``macro_batch`` is part of the ``RunSpec`` cache identity.

Either way the engine fuses each item with one grouped rebase
(``Simulation._fuse_staged``: a single concatenate plus an
``np.repeat`` base vector).  It is held bit-identical to the
per-segment reference fusion (``fuse_reference``, a test oracle in
``tests/kernel_oracles.py``) by ``tests/test_macro_batch.py``, per
batch and end to end
(on the runtime kernels and on the scalar test oracles) under strict
checks.

Epoch/snapshot/sanitizer boundaries are batch aligned: a fused batch is
processed by the very same ``_process_batch``, so ``_close_epoch``,
checkpointing and fault-injection timing fire at batch boundaries at
every cadence and through kill/resume.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterator, Optional, Union

from repro.workloads.base import (
    AccessEvent,
    AllocEvent,
    FreeEvent,
    WorkloadEvent,
)

#: Default macro-batch size when a caller enables coalescing without a
#: size (CLI ``--macro-batch 0`` keeps the per-event cadence;
#: benchmarks and tests use this).  256k accesses measured fastest on
#: the trace-replay hot path -- large enough to amortise per-batch
#: Python, small enough that the per-access temporaries stay
#: cache-friendly (1M-access batches were ~35% slower end to end).
DEFAULT_MACRO_BATCH = 262_144


@dataclass
class CoalescedEvent:
    """One engine-facing item: a passthrough event or a fused batch.

    ``events_fused`` is the number of underlying workload events this
    item consumes -- the engine advances ``_events_consumed`` by it, so
    resume bookkeeping stays in workload-event units regardless of
    fusion.
    """

    event: WorkloadEvent
    events_fused: int = 1


class EventCoalescer:
    """Fuse consecutive access events into macro-batches.

    Wraps a workload event iterator.  Access events accumulate until
    the pending group reaches ``target`` accesses; alloc/free events
    are barriers (region bases may change across them), flushing the
    pending group before passing through.  A fused event concatenates
    the constituent segment lists in order -- per-access order within
    the macro-batch is exactly the per-event order -- and is
    interleaved if any constituent was.  ``target = 0`` is a
    pass-through: every event, even an empty one, comes out alone.

    Fusion boundaries are a pure function of the event stream from the
    coalescer's start position, which makes them deterministic across
    checkpoint/resume: the engine only checkpoints between coalesced
    items, so a resumed coalescer starting after the last consumed
    workload event reproduces the original boundaries.

    Wall time spent pulling from the underlying generator is
    accumulated into ``phase_ns["gen_ns"]`` when a phase dict is given.
    """

    def __init__(self, events: Iterator[WorkloadEvent], target: int,
                 phase_ns: Optional[dict] = None):
        if target < 0:
            raise ValueError(f"macro-batch target must be >= 0, got {target}")
        self._events = events
        self.target = int(target)
        self._phase_ns = phase_ns

    def _pull(self) -> Union[WorkloadEvent, None]:
        if self._phase_ns is None:
            return next(self._events, None)
        t0 = time.perf_counter_ns()
        event = next(self._events, None)
        self._phase_ns["gen_ns"] += time.perf_counter_ns() - t0
        return event

    @staticmethod
    def _fuse(pending) -> CoalescedEvent:
        if len(pending) == 1:
            return CoalescedEvent(pending[0], 1)
        segments = [seg for event in pending for seg in event.segments]
        interleave = any(event.interleave for event in pending)
        return CoalescedEvent(
            AccessEvent(segments, interleave=interleave), len(pending)
        )

    def __iter__(self) -> Iterator[CoalescedEvent]:
        pending = []
        pending_accesses = 0
        while True:
            event = self._pull()
            if event is None:
                break
            if isinstance(event, AccessEvent):
                pending.append(event)
                pending_accesses += event.num_accesses
                if pending_accesses >= self.target:
                    yield self._fuse(pending)
                    pending = []
                    pending_accesses = 0
            elif isinstance(event, (AllocEvent, FreeEvent)):
                if pending:
                    yield self._fuse(pending)
                    pending = []
                    pending_accesses = 0
                yield CoalescedEvent(event, 1)
            else:
                raise TypeError(f"unknown workload event {event!r}")
        if pending:
            yield self._fuse(pending)
