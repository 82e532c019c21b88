"""MetricsTimeSeries: unit behaviour + the telemetry bit-identity gate.

Three contracts:

* **recorder semantics** -- counter deltas vs gauge values, cadence,
  ring eviction with drop accounting, mid-run column zero-backfill,
  serialisation round-trip;
* **zero interference** -- a telemetry-enabled run's ``to_dict()``,
  minus the ``observability.timeseries`` block, is bit-identical to the
  disabled run in both kernel implementations under ``REPRO_CHECK=strict``, and
  ``timeseries_every`` participates in the cache identity (a recorded
  result must never be served for a disabled spec);
* **contiguous resume** -- the series from ``run(N)`` equals the series
  from ``run(k) -> save -> load -> run(N-k)``, including the delta
  baselines carried across the checkpoint.
"""

import dataclasses
import json

import pytest

from repro.obs import CounterRegistry, MetricsTimeSeries, Observability
from repro.sim.runner import RunSpec

from conftest import TEST_SCALE
from kernel_oracles import BOTH, installed

#: Short virtual epochs so a small access budget yields many of them.
EPOCH_NS = 1e6


def _spec(**overrides):
    base = dict(
        workload="silo", policy="memtis", ratio="1:8", seed=11,
        max_accesses=150_000, scale=TEST_SCALE,
    )
    base.update(overrides)
    return RunSpec(**base)


def _build(spec, obs=None):
    sim = spec.build(obs=obs)
    sim.metrics.timeline_interval_ns = EPOCH_NS
    return sim


# -- recorder unit behaviour ---------------------------------------------------


class TestRecorder:
    def test_counter_deltas_and_gauge_values(self):
        reg = CounterRegistry()
        counter = reg.counter("m/events")
        gauge = reg.gauge("m/level")
        ts = MetricsTimeSeries(every=1)
        counter.inc(5)
        gauge.set(1.5)
        ts.record(0, 10.0, reg)
        counter.inc(3)
        gauge.set(9.0)
        ts.record(1, 20.0, reg)
        data = ts.to_dict()
        assert data["epoch"] == [0, 1]
        assert data["now_ns"] == [10.0, 20.0]
        assert data["columns"]["m/events"] == [5, 3]  # deltas, not totals
        assert data["columns"]["m/level"] == [1.5, 9.0]  # raw gauge values
        assert data["kinds"] == {"m/events": "counter", "m/level": "gauge"}

    def test_distribution_contributes_count_delta(self):
        reg = CounterRegistry()
        dist = reg.distribution("m/lat")
        ts = MetricsTimeSeries(every=1)
        dist.record(3.0)
        dist.record(5.0)
        ts.record(0, 0.0, reg)
        dist.record(7.0)
        ts.record(1, 1.0, reg)
        assert ts.to_dict()["columns"]["m/lat"] == [2, 1]

    def test_cadence(self):
        ts = MetricsTimeSeries(every=3)
        assert [e for e in range(10) if ts.due(e)] == [0, 3, 6, 9]
        with pytest.raises(ValueError):
            MetricsTimeSeries(every=0)

    def test_ring_eviction_counts_drops(self):
        reg = CounterRegistry()
        counter = reg.counter("c")
        ts = MetricsTimeSeries(every=1, capacity=3)
        for epoch in range(5):
            counter.inc(1)
            ts.record(epoch, float(epoch), reg)
        data = ts.to_dict()
        assert data["epoch"] == [2, 3, 4]  # oldest two evicted
        assert data["recorded"] == 5 and data["dropped"] == 2
        # Deltas survive eviction: computed vs the last snapshot, not
        # the last stored row.
        assert data["columns"]["c"] == [1, 1, 1]

    def test_midrun_column_zero_backfilled(self):
        reg = CounterRegistry()
        reg.counter("early").inc(1)
        ts = MetricsTimeSeries(every=1)
        ts.record(0, 0.0, reg)
        reg.counter("late").inc(4)
        ts.record(1, 1.0, reg)
        cols = ts.to_dict()["columns"]
        assert cols["late"] == [0, 4]
        assert all(len(c) == 2 for c in cols.values())

    def test_state_roundtrip(self):
        reg = CounterRegistry()
        counter = reg.counter("c")
        ts = MetricsTimeSeries(every=2, capacity=8)
        counter.inc(2)
        ts.record(0, 5.0, reg)
        restored = MetricsTimeSeries()
        restored.load_state(ts.state_dict())
        assert restored.to_dict() == ts.to_dict()
        # The delta baseline travels too: the next record sees a delta,
        # not the absolute value.
        counter.inc(3)
        restored.record(2, 6.0, reg)
        assert restored.to_dict()["columns"]["c"] == [2, 3]


# -- spec / serialisation integration ------------------------------------------


class TestSpecIntegration:
    def test_timeseries_block_only_when_enabled(self):
        spec = _spec()
        off = _build(spec).run(max_accesses=spec.max_accesses)
        assert "timeseries" not in off.to_dict()["observability"]
        on = _build(spec.replace(timeseries_every=1)).run(
            max_accesses=spec.max_accesses)
        block = on.to_dict()["observability"]["timeseries"]
        assert block["recorded"] == len(block["epoch"]) >= 3
        assert block["epoch"] == sorted(block["epoch"])
        assert block["columns"], "no instruments recorded"
        json.dumps(block)  # JSON-safe all the way down

    def test_cache_identity_and_layout(self):
        spec = _spec()
        enabled = spec.replace(timeseries_every=4)
        assert spec.cache_key() != enabled.cache_key()
        assert "timeseries_every" not in spec.to_dict()
        assert enabled.to_dict()["timeseries_every"] == 4
        assert RunSpec.from_dict(enabled.to_dict()) == enabled
        with pytest.raises(ValueError):
            spec.replace(timeseries_every=-1)

    def test_engine_gauge_columns_present(self):
        spec = _spec(timeseries_every=1)
        result = _build(spec).run(max_accesses=spec.max_accesses)
        block = result.to_dict()["observability"]["timeseries"]
        assert "engine/total_accesses" in block["columns"]
        # The per-epoch published gauge is cumulative and nondecreasing.
        col = block["columns"]["engine/total_accesses"]
        assert col == sorted(col) and col[-1] > 0


# -- the bit-identity gate -----------------------------------------------------


def _comparable(result) -> str:
    """Digest of ``result`` with its telemetry series left out."""
    observability = dict(result.observability)
    observability.pop("timeseries", None)
    return dataclasses.replace(result, observability=observability).digest()


@pytest.mark.slow
@pytest.mark.parametrize("mode", BOTH)
def test_telemetry_run_bit_identical_to_disabled(mode, monkeypatch):
    monkeypatch.setenv("REPRO_CHECK", "strict")
    with installed(mode):
        spec = _spec()
        off = _build(spec).run(max_accesses=spec.max_accesses)
        on = _build(spec.replace(timeseries_every=1)).run(
            max_accesses=spec.max_accesses)
    assert "timeseries" in on.to_dict()["observability"]
    assert _comparable(on) == _comparable(off)


# -- contiguous resume (satellite d) -------------------------------------------


@pytest.mark.slow
def test_resume_series_equals_uninterrupted_series():
    """run(N) series == run(k) -> save -> load -> run(N-k) series."""
    spec = _spec(timeseries_every=1)
    snaps = {}
    sim = _build(spec)
    sim.snapshot_every = 1
    sim.snapshot_sink = lambda epoch, state: snaps.setdefault(epoch, state)
    full = sim.run(max_accesses=spec.max_accesses)
    full_series = full.to_dict()["observability"]["timeseries"]
    epochs = sorted(snaps)
    assert len(epochs) >= 3, "scenario too small to be meaningful"
    for k in {epochs[0], epochs[len(epochs) // 2], epochs[-1]}:
        resumed_sim = _build(spec)
        resumed_sim.load_state(snaps[k])
        resumed = resumed_sim.run(max_accesses=spec.max_accesses)
        resumed_series = resumed.to_dict()["observability"]["timeseries"]
        assert resumed_series == full_series, \
            f"series diverged resuming from epoch {k}"


@pytest.mark.slow
def test_resume_without_recorder_tolerates_telemetry_checkpoint():
    """A checkpoint written with telemetry loads into a disabled sim."""
    spec = _spec(timeseries_every=1)
    snaps = {}
    sim = _build(spec)
    sim.snapshot_every = 1
    sim.snapshot_sink = lambda epoch, state: snaps.setdefault(epoch, state)
    sim.run(max_accesses=spec.max_accesses)
    assert all("timeseries" in s for s in snaps.values())
    plain = _build(_spec())  # no recorder attached
    plain.load_state(snaps[sorted(snaps)[0]])
    result = plain.run(max_accesses=spec.max_accesses)
    assert "timeseries" not in result.to_dict()["observability"]
