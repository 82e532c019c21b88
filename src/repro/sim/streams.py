"""Per-sweep access-stream reuse: record each stream once, replay it after.

A cell's workload event stream is a pure function of ``(workload,
scale, seed)``: :meth:`RunSpec.build` instantiates
``make_workload(workload, scale)`` and the engine feeds its generator
``default_rng(seed + 2)``.  Policy, ratio, capacity kind, machine
preset and variant, ``force_base_pages``, ``timeseries_every`` and
``check`` shape what the engine does with the stream, never the stream;
``macro_batch`` fuses it downstream, in the engine's coalescer.  A
sweep grid therefore regenerates the same few streams in almost every
cell.

:func:`~repro.sim.sweep.run_sweep` hands its cells a
:class:`StreamStore` -- a directory inside the sweep's temporary
directory plus the keys of the streams two or more queued cells share:

* **record** -- the first fresh (``resume=False``), unbudgeted
  (``max_accesses=None``) cell of a shared stream generates it live
  and tees every event the engine consumes into a v2 trace
  (:class:`~repro.workloads.trace.TraceWriter`).  An ``O_EXCL`` lock
  file marks the recording; a concurrent cell of the same stream finds
  it taken and generates live instead of waiting;
* **publish on exhaustion** -- the trace becomes visible only through
  an atomic directory rename once the generator is exhausted.  A
  budgeted, resumed, raising or killed cell never publishes, so a
  published trace is always the whole stream;
* **replay** -- every later cell replays the published trace through
  :class:`~repro.workloads.trace.TraceWorkload` behind a façade that
  keeps the generated workload's ``name``, ``total_bytes`` and
  ``total_accesses`` (heartbeat progress reads the latter).  Replay
  releases consumed mmap pages every :data:`REPLAY_RELEASE_MB`, so
  replayed pages do not pile up in a worker's peak RSS.

Traces live in the sweep's temporary directory, which is removed on
success, on failure and when a worker dies.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import shutil
import tempfile
from collections import Counter
from dataclasses import dataclass
from typing import FrozenSet, Iterable, Optional

from repro.workloads.base import Workload
from repro.workloads.trace import TraceWorkload, TraceWriter

#: Replayed cells release consumed trace pages every this many MB.
#: ``TraceWorkload``'s default window (64 MB) lets replayed pages count
#: toward a sweep worker's peak RSS.
REPLAY_RELEASE_MB = 4

#: File name of the trace metadata inside a published stream directory.
_TRACE = "trace.npz"


def stream_key(spec) -> str:
    """Content hash of every input that shapes ``spec``'s event stream."""
    payload = json.dumps(
        {"workload": spec.workload, "scale": dataclasses.asdict(spec.scale),
         "seed": spec.seed},
        sort_keys=True, separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:32]


@dataclass(frozen=True)
class StreamStore:
    """Where a sweep's recorded streams live, and which ones to record."""

    directory: str
    #: Stream keys used by two or more cells; other streams are never
    #: recorded (nothing would replay them).
    keys: FrozenSet[str]

    @classmethod
    def for_specs(cls, directory: str,
                  specs: Iterable) -> Optional["StreamStore"]:
        """A store for the streams ``specs`` share, or None if none is."""
        counts = Counter(stream_key(spec) for spec in specs)
        shared = frozenset(key for key, n in counts.items() if n > 1)
        if not shared:
            return None
        os.makedirs(directory, exist_ok=True)
        return cls(directory, shared)

    def open(self, spec, workload: Workload) -> Workload:
        """The event source for ``spec``: a replay of the published
        trace, a recording tee, or ``workload`` itself."""
        key = stream_key(spec)
        if key not in self.keys:
            return workload
        published = os.path.join(self.directory, key)
        if os.path.isdir(published):
            return _Replay(workload, published)
        if spec.resume or spec.max_accesses is not None:
            return workload
        return _Recording(workload, published)


class _Stream(Workload):
    """A generated workload's identity over another event source."""

    def __init__(self, workload: Workload):
        super().__init__(workload.total_bytes, workload.total_accesses,
                         workload.batch_size)
        self.name = workload.name
        self.needs_bounds_check = workload.needs_bounds_check
        self.workload = workload


class _Replay(_Stream):
    def __init__(self, workload: Workload, published: str):
        super().__init__(workload)
        self.trace = TraceWorkload(os.path.join(published, _TRACE),
                                   release_mb=REPLAY_RELEASE_MB)
        self.needs_bounds_check = self.trace.needs_bounds_check

    def events(self, rng):
        return self.trace.events(rng)

    def seek_events(self, num_events: int) -> None:
        self.trace.seek_events(num_events)


class _Recording(_Stream):
    def __init__(self, workload: Workload, published: str):
        super().__init__(workload)
        self.published = published

    def events(self, rng):
        lock = self.published + ".lock"
        try:
            os.close(os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
        except FileExistsError:  # another cell is recording this stream
            yield from self.workload.events(rng)
            return
        try:
            if os.path.isdir(self.published):  # published since open()
                yield from self.workload.events(rng)
            else:
                yield from self._record(rng)
        finally:
            os.unlink(lock)

    def _record(self, rng):
        """Tee the live stream into a trace; publish it once exhausted."""
        partial = tempfile.mkdtemp(
            prefix=os.path.basename(self.published) + ".partial-",
            dir=os.path.dirname(self.published),
        )
        try:
            writer = TraceWriter(os.path.join(partial, _TRACE),
                                 self.workload.total_bytes)
            try:
                for event in self.workload.events(rng):
                    writer.add(event)
                    yield event
            except BaseException:
                writer.abort()
                raise
            writer.close()
            os.rename(partial, self.published)
        except BaseException:
            shutil.rmtree(partial, ignore_errors=True)
            raise
