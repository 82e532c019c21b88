"""Stream reuse in ``run_sweep``: each access stream is generated once.

A cell's workload event stream depends only on ``(workload, scale,
seed)``, so the sweep records it during the first cell that needs it
and every later cell replays the trace (:mod:`repro.sim.streams`).
The contracts tested here:

* **parity** -- every cell of a sweep that shares streams (policies,
  their all-capacity baselines, a macro-batch cell) has the same
  ``digest()`` and ``workload_name`` as an uncached serial execute,
  with one worker and with two;
* **exactly once** -- with one worker, each stream's generator is
  entered once per sweep;
* **no partial traces** -- a budgeted cell and a cell that raises
  mid-stream publish nothing, and the next cell of that stream still
  matches serial execution;
* **resume on replay** -- a killed checkpointing cell resumes on the
  replayed stream, fast-forwarded past the consumed events.
"""

import os

import pytest

from repro import snapshot
from repro.check import FaultConfig, FaultInjector, SimulationKilled
from repro.sim.runner import RunSpec
from repro.sim.streams import StreamStore, stream_key
from repro.sim.sweep import run_sweep
from repro.workloads.registry import WORKLOAD_REGISTRY

from conftest import TEST_SCALE

WORKLOADS = ("silo", "phaseflip")
POLICIES = ("memtis", "autonuma", "hemem")


def _sweep_specs():
    specs = []
    for workload in WORKLOADS:
        for policy in POLICIES:
            spec = RunSpec(workload, policy, scale=TEST_SCALE, seed=5)
            specs += [spec, spec.baseline_spec()]
    specs.append(RunSpec("silo", "memtis", scale=TEST_SCALE, seed=5,
                         macro_batch=65_536))
    return specs


@pytest.fixture
def generator_entries(monkeypatch):
    """Count entries into each registered generator's ``events()``,
    keyed by workload name."""
    entries = {}
    for name, cls in WORKLOAD_REGISTRY.items():
        original = cls.events

        def events(self, rng, _original=original):
            entries[self.name] = entries.get(self.name, 0) + 1
            yield from _original(self, rng)

        monkeypatch.setattr(cls, "events", events)
    return entries


def _serial(spec):
    return spec.execute(snapshots=None)


@pytest.fixture(scope="module")
def serial_results():
    return {spec: _serial(spec) for spec in _sweep_specs()}


@pytest.mark.parametrize("jobs", [1, 2])
def test_parity_with_serial_execution(jobs, serial_results):
    outcomes = run_sweep(_sweep_specs(), jobs=jobs, cache=None)
    assert set(outcomes) == set(serial_results)
    for spec, outcome in outcomes.items():
        assert outcome.ok, outcome.error
        expected = serial_results[spec]
        assert outcome.result.digest() == expected.digest(), spec.label()
        assert outcome.result.workload_name == expected.workload_name


def test_each_stream_generated_once(generator_entries):
    specs = _sweep_specs()
    outcomes = run_sweep(specs, jobs=1, cache=None)
    assert all(outcome.ok for outcome in outcomes.values())
    # One (workload, scale, seed) stream per workload here.
    assert len({stream_key(spec) for spec in specs}) == len(WORKLOADS)
    assert generator_entries == {workload: 1 for workload in WORKLOADS}


class TestNoPartialTraces:
    SPEC = RunSpec("silo", "memtis", scale=TEST_SCALE, seed=8)

    def _store(self, directory):
        directory.mkdir()
        return StreamStore(str(directory), frozenset({stream_key(self.SPEC)}))

    def test_budgeted_cell_publishes_nothing(self, tmp_path,
                                             generator_entries):
        streams = tmp_path / "streams"
        store = self._store(streams)
        budgeted = self.SPEC.replace(max_accesses=20_000)
        assert budgeted.execute(snapshots=None, streams=store).digest() \
            == _serial(budgeted).digest()
        assert os.listdir(streams) == []
        assert self.SPEC.execute(snapshots=None, streams=store).digest() \
            == _serial(self.SPEC).digest()
        assert os.listdir(streams) == [stream_key(self.SPEC)]

    def test_raising_cell_publishes_nothing(self, tmp_path,
                                            generator_entries):
        streams = tmp_path / "streams"
        store = self._store(streams)

        def crash(sim):
            raise RuntimeError("cell died mid-stream")

        with pytest.raises(RuntimeError, match="mid-stream"):
            self.SPEC.execute(snapshots=None, streams=store, epoch_hook=crash)
        # No trace, no partial directory, no stale lock.
        assert os.listdir(streams) == []
        generator_entries.clear()
        # The next cell records the stream itself, the one after replays.
        for _ in range(2):
            assert self.SPEC.execute(snapshots=None, streams=store).digest() \
                == _serial(self.SPEC).digest()
            assert os.listdir(streams) == [stream_key(self.SPEC)]
        # _serial() generates live once per loop iteration; the store
        # generated it once more, for the recording cell only.
        assert generator_entries == {"silo": 3}

    def test_unshared_streams_are_not_recorded(self, tmp_path):
        specs = [RunSpec("silo", "memtis", scale=TEST_SCALE, seed=seed)
                 for seed in (1, 2)]
        directory = str(tmp_path / "streams")
        assert StreamStore.for_specs(directory, specs) is None
        store = StreamStore.for_specs(directory,
                                      specs + [specs[0].baseline_spec()])
        assert store.keys == {stream_key(specs[0])}


def test_killed_cell_resumes_on_the_replayed_stream(tmp_path,
                                                   generator_entries):
    spec = RunSpec("silo", "memtis", scale=TEST_SCALE, seed=8,
                   snapshot_every=1)
    streams = tmp_path / "streams"
    streams.mkdir()
    store = StreamStore(str(streams), frozenset({stream_key(spec)}))
    spec.execute(snapshots=None, streams=store)  # records and publishes
    snaps = snapshot.SnapshotStore(tmp_path / "snaps")
    killer = FaultInjector(FaultConfig(kill_at_epoch=1, seed=5))
    with pytest.raises(SimulationKilled):
        spec.execute(faults=killer, snapshots=snaps, streams=store)
    assert snaps.latest_epoch(spec) == 1
    resumed = spec.replace(resume=True).execute(snapshots=snaps,
                                                streams=store)
    assert resumed.digest() == _serial(spec).digest()
    # Recording and the serial reference generated it; the killed and
    # the resumed cell replayed.
    assert generator_entries == {"silo": 2}
