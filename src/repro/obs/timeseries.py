"""Per-epoch metric time series: a columnar ring buffer over the registry.

End-of-run counters answer *what happened*; MEMTIS's argument is about
*when* -- thresholds adapting, split decisions firing, migration traffic
ramping as the hot set drifts.  :class:`MetricsTimeSeries` captures that
trajectory by snapshotting the run's
:class:`~repro.obs.counters.CounterRegistry` at a configurable epoch
cadence (``RunSpec.timeseries_every``):

* **counters** are recorded as *deltas* since the previous snapshot
  (the per-epoch rate, which is what trajectory plots want);
* **gauges** are recorded as their current value;
* **distributions** contribute their observation-*count* delta (the
  moments stay end-of-run aggregates in the counter registry).

Storage is columnar -- one list per instrument, plus shared ``epoch``
and ``now_ns`` axes -- and ring-bounded: past ``capacity`` rows the
oldest row is evicted and counted in ``dropped``, so even a very long
run holds a bounded tail of its trajectory.  Instruments that first
appear mid-run get their column zero-backfilled so every column always
spans every recorded row.

The recorder is purely observational: it reads the registry and never
writes simulation state, so a telemetry-enabled run stays bit-identical
to a disabled one outside the serialised ``timeseries`` block (enforced
by ``tests/test_timeseries.py`` on the runtime kernels and on the
scalar test oracles, under strict checks).
:meth:`state_dict`/:meth:`load_state` round-trip the full recorder --
including the per-counter last-seen values the deltas are
computed against -- so a checkpointed run resumes with a *contiguous*
series: ``run(N)`` and ``run(k) -> save -> load -> run(N-k)`` produce
identical series.
"""

from __future__ import annotations

from typing import Any, Dict, List, Union

from repro.obs.counters import Counter, CounterRegistry, Distribution

#: Bump when the serialised layout changes.
SCHEMA = 1

Number = Union[int, float]


class MetricsTimeSeries:
    """Columnar ring buffer of per-epoch registry snapshots."""

    def __init__(self, every: int = 1, capacity: int = 4096):
        if every < 1:
            raise ValueError(f"timeseries cadence must be >= 1, got {every}")
        if capacity < 1:
            raise ValueError(
                f"timeseries capacity must be >= 1, got {capacity}"
            )
        self.every = int(every)
        self.capacity = int(capacity)
        #: Shared row axes.
        self._epoch: List[int] = []
        self._now_ns: List[float] = []
        #: One value list per instrument, always ``len(self._epoch)`` long.
        self._columns: Dict[str, List[Number]] = {}
        #: Instrument kind per column (``counter``/``gauge``/``distribution``).
        self._kinds: Dict[str, str] = {}
        #: Last absolute value seen per counter/distribution, for deltas.
        #: Survives ring eviction and checkpoints -- deltas are computed
        #: against the previous *snapshot*, not the previous stored row.
        self._last: Dict[str, Number] = {}
        #: Rows ever recorded / rows evicted by the ring bound.
        self.recorded = 0
        self.dropped = 0

    def __len__(self) -> int:
        return len(self._epoch)

    # -- recording ---------------------------------------------------------

    def due(self, epoch_index: int) -> bool:
        """Is ``epoch_index`` on this recorder's cadence?"""
        return epoch_index % self.every == 0

    def record(
        self, epoch_index: int, now_ns: float, registry: CounterRegistry
    ) -> None:
        """Append one row snapshotting every instrument in ``registry``."""
        if len(self._epoch) == self.capacity:
            self._epoch.pop(0)
            self._now_ns.pop(0)
            for column in self._columns.values():
                column.pop(0)
            self.dropped += 1
        self._epoch.append(int(epoch_index))
        self._now_ns.append(float(now_ns))
        rows = len(self._epoch)
        for name in registry.names():
            inst = registry.get(name)
            if isinstance(inst, Counter):
                kind = "counter"
                value = inst.value
                sample = value - self._last.get(name, 0)
                self._last[name] = value
            elif isinstance(inst, Distribution):
                kind = "distribution"
                count = inst.count
                sample = count - self._last.get(name, 0)
                self._last[name] = count
            else:
                kind = "gauge"
                sample = inst.value
            column = self._columns.get(name)
            if column is None:
                # First sighting mid-run: zero-backfill earlier rows so
                # every column spans the full recorded range.
                column = [0] * (rows - 1)
                self._columns[name] = column
                self._kinds[name] = kind
            column.append(sample)
        self.recorded += 1

    # -- serialisation -----------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """The ``observability.timeseries`` block of a result dict."""
        return {
            "schema": SCHEMA,
            "every": self.every,
            "capacity": self.capacity,
            "recorded": self.recorded,
            "dropped": self.dropped,
            "epoch": list(self._epoch),
            "now_ns": list(self._now_ns),
            "kinds": dict(self._kinds),
            "columns": {
                name: list(column) for name, column in self._columns.items()
            },
        }

    # -- checkpoint support ------------------------------------------------

    def state_dict(self) -> Dict[str, Any]:
        """Everything :meth:`load_state` needs for a contiguous resume."""
        return dict(self.to_dict(), last=dict(self._last))

    def load_state(self, state: Dict[str, Any]) -> None:
        self.every = int(state["every"])
        self.capacity = int(state["capacity"])
        self.recorded = int(state["recorded"])
        self.dropped = int(state["dropped"])
        self._epoch = [int(e) for e in state["epoch"]]
        self._now_ns = [float(t) for t in state["now_ns"]]
        self._kinds = dict(state["kinds"])
        self._columns = {
            name: list(column) for name, column in state["columns"].items()
        }
        self._last = dict(state["last"])
