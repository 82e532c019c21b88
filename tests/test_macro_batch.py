"""Macro-batch engine: coalescer semantics and differential bit-identity.

The contract of :mod:`repro.sim.macro` (see its module docstring):

* ``macro_batch = 0`` is a coalescer pass-through: the per-event
  cadence, one engine batch per workload event;
* ``macro_batch = N > 0`` is a different (coarser) cadence, part of the
  spec's cache identity, but the *access stream* the engine sees is a
  pure re-grouping of the per-event stream;
* the engine's staged fused rebase is bit-identical to the per-segment
  reference fusion (``kernel_oracles.fuse_reference``, a test oracle) --
  per batch, and per ``SimResult.to_dict()`` minus wall-clock fields in
  both kernel implementations, under ``REPRO_CHECK=strict``, and through the
  snapshot kill/resume matrix.
"""

import dataclasses

import numpy as np
import pytest

from repro import snapshot
from repro.check import FaultConfig, FaultInjector, SimulationKilled
from repro.pebs.events import AccessBatch
from repro.policies import make_policy
from repro.sim import macro
from repro.sim.engine import Simulation
from repro.sim.runner import RunSpec
from repro.workloads.base import AccessEvent, AllocEvent, FreeEvent

from conftest import TEST_SCALE
from kernel_oracles import BOTH, fuse_reference, installed
from test_engine import ScriptedWorkload, machine

EPOCH_NS = 1e6
#: Small enough that a 150k-access run spans several macro-batches.
MACRO = 65_536


def _spec(**overrides):
    base = dict(
        workload="silo", policy="memtis", ratio="1:8", seed=11,
        max_accesses=150_000, scale=TEST_SCALE, macro_batch=MACRO,
    )
    base.update(overrides)
    return RunSpec(**base)


def _build(spec, faults=None):
    sim = spec.build(faults=faults)
    sim.metrics.timeline_interval_ns = EPOCH_NS
    return sim


def _run(spec):
    return _build(spec).run(max_accesses=spec.max_accesses).digest()


def _use_reference_fusion(monkeypatch):
    """Route the engine's fusion through the reference oracle."""
    monkeypatch.setattr(Simulation, "_fuse_staged",
                        staticmethod(fuse_reference))


def _check_every_fusion(monkeypatch):
    """Make every staged fusion also run the reference and assert the
    two agree; returns the segment count of each checked fusion."""
    staged = Simulation._fuse_staged
    segment_counts = []

    def checked(regions, rels):
        batch = staged(regions, rels)
        ref = fuse_reference(regions, rels)
        assert np.array_equal(batch.vpn, ref.vpn)
        assert np.array_equal(batch.is_store, ref.is_store)
        segment_counts.append(len(rels))
        return batch

    monkeypatch.setattr(Simulation, "_fuse_staged", staticmethod(checked))
    return segment_counts


# -- coalescer unit behaviour --------------------------------------------------


def _access(n, key="r"):
    return AccessEvent.single(key, AccessBatch.loads(np.arange(n)))


class TestEventCoalescer:
    def test_groups_to_target(self):
        events = [_access(10) for _ in range(7)]
        items = list(macro.EventCoalescer(iter(events), target=30))
        assert [item.events_fused for item in items] == [3, 3, 1]
        assert [item.event.num_accesses for item in items] == [30, 30, 10]
        # Per-access order is the per-event order.
        fused = AccessBatch.concat(
            [b for item in items for _k, b in item.event.segments]
        )
        original = AccessBatch.concat(
            [b for ev in events for _k, b in ev.segments]
        )
        assert np.array_equal(fused.vpn, original.vpn)

    def test_alloc_free_are_barriers(self):
        events = [
            AllocEvent("a", 4096), _access(10, "a"), _access(10, "a"),
            FreeEvent("a"), AllocEvent("b", 4096), _access(10, "b"),
        ]
        items = list(macro.EventCoalescer(iter(events), target=1000))
        kinds = [type(item.event).__name__ for item in items]
        assert kinds == ["AllocEvent", "AccessEvent", "FreeEvent",
                        "AllocEvent", "AccessEvent"]
        # The pending group flushed *before* the free, not after.
        assert items[1].events_fused == 2

    def test_trailing_flush_passes_lone_event_through(self):
        lone = _access(5)
        items = list(macro.EventCoalescer(iter([lone]), target=1000))
        assert len(items) == 1 and items[0].events_fused == 1
        assert items[0].event is lone  # unfused: same object, no copy

    def test_interleave_is_sticky(self):
        plain = _access(10)
        shuffled = AccessEvent.single("r", AccessBatch.loads(np.arange(10)))
        shuffled.interleave = True
        items = list(macro.EventCoalescer(iter([plain, shuffled]), target=15))
        assert items[0].event.interleave

    def test_rejects_bad_target_and_unknown_events(self):
        with pytest.raises(ValueError):
            macro.EventCoalescer(iter([]), target=-1)
        with pytest.raises(TypeError):
            list(macro.EventCoalescer(iter([object()]), target=10))
        with pytest.raises(TypeError):
            list(macro.EventCoalescer(iter([object()]), target=0))

    def test_zero_target_passes_every_event_through(self):
        """target=0 is the per-event cadence: each event, an empty one
        included, comes out alone and uncopied."""
        events = [
            AllocEvent("r", 4096), _access(10), _access(0),
            AccessEvent([]), _access(3), FreeEvent("r"),
        ]
        items = list(macro.EventCoalescer(iter(events), target=0))
        assert len(items) == len(events)
        for item, event in zip(items, events):
            assert item.event is event
            assert item.events_fused == 1


# -- spec identity -------------------------------------------------------------


class TestSpecIdentity:
    def test_macro_batch_omitted_when_zero(self):
        legacy = _spec(macro_batch=0)
        assert "macro_batch" not in legacy.to_dict()
        assert _spec().to_dict()["macro_batch"] == MACRO

    def test_macro_batch_changes_cache_key(self):
        """A different cadence is a different result: distinct keys."""
        assert _spec().cache_key() != _spec(macro_batch=0).cache_key()
        assert _spec().cache_key() != _spec(macro_batch=MACRO * 2).cache_key()

    def test_zero_macro_batch_preserves_legacy_key(self):
        """macro_batch=0 serialises exactly like a pre-macro spec, so
        historical cache entries and snapshot layouts stay valid."""
        d = _spec(macro_batch=0).to_dict()
        roundtrip = RunSpec.from_dict(d)
        assert roundtrip == _spec(macro_batch=0)
        assert RunSpec.from_dict(_spec().to_dict()) == _spec()

    def test_negative_macro_batch_rejected(self):
        with pytest.raises(ValueError):
            _spec(macro_batch=-1)
        sim = _spec(macro_batch=0).build()
        with pytest.raises(ValueError):
            Simulation(sim.workload, sim.policy, sim.machine,
                       macro_batch=-4)


# -- differential bit-identity -------------------------------------------------


class TestStagedVsReference:
    @pytest.mark.parametrize("mode", BOTH)
    @pytest.mark.parametrize("workload", ["silo", "603.bwaves"])
    def test_staged_matches_reference(self, mode, workload, monkeypatch):
        """Same macro cadence, staged vs reference fusion: identical
        ``to_dict()`` in both kernel implementations under strict checking.
        ``603.bwaves`` covers alloc/free flush barriers mid-run."""
        monkeypatch.setenv("REPRO_CHECK", "strict")
        spec = _spec(workload=workload, check="strict")
        with installed(mode):
            staged = _run(spec)
            with monkeypatch.context() as patch:
                _use_reference_fusion(patch)
                assert staged == _run(spec)

    def test_validate_mode_runs_clean(self, monkeypatch):
        """Per-batch differential: every fusion, at the per-event and at
        the macro cadence, matches the reference -- multi-segment
        interleaved events included -- and checking leaves the result
        unchanged."""
        specs = [_spec(macro_batch=0), _spec()]
        clean = [_run(spec) for spec in specs]
        segment_counts = _check_every_fusion(monkeypatch)
        for spec, expected in zip(specs, clean):
            segment_counts.clear()
            assert _run(spec) == expected
            assert max(segment_counts) > 1, "no multi-segment event fused"

    @pytest.mark.parametrize("macro_batch", [0, MACRO])
    def test_empty_access_events_are_harmless(self, macro_batch,
                                              monkeypatch):
        """Zero-access and zero-segment events fuse to empty batches
        (checked against the reference) and charge nothing."""
        script = [
            AllocEvent("a", 2 << 20), AllocEvent("b", 2 << 20),
            AccessEvent([]), _access(0, "a"),
            AccessEvent([("a", AccessBatch.loads(np.arange(64))),
                         ("b", AccessBatch.loads(np.arange(64)))],
                        interleave=True),
            AccessEvent([]),
        ]
        segment_counts = _check_every_fusion(monkeypatch)
        sim = Simulation(ScriptedWorkload(script), make_policy("memtis"),
                         machine(), macro_batch=macro_batch)
        result = sim.run()
        assert result.metrics.total_accesses == 128
        assert sim._events_consumed == len(script)
        # Per event: each event alone; at MACRO: one fused group.
        assert segment_counts == ([0, 1, 2, 0] if macro_batch == 0 else [3])

    def test_macro_preserves_access_stream_totals(self):
        """Coalescing re-groups the full stream without dropping
        accesses.  (With a ``max_accesses`` budget the totals *may*
        differ: the budget check is batch-granular, and macro batches
        are bigger -- that is the documented cadence change.)"""
        per_event = _build(_spec(macro_batch=0)).run()
        fused = _build(_spec()).run()
        assert fused.metrics.total_accesses == per_event.metrics.total_accesses

    def test_gen_ns_phase_is_reported(self):
        result = _build(_spec()).run(max_accesses=50_000)
        assert "gen_ns" in result.phase_ns
        assert result.phase_ns["gen_ns"] > 0

    def test_events_consumed_counts_workload_events(self):
        """Fused items advance the counter by their constituent count:
        per-event and macro full runs agree on events consumed."""
        sim_pe = _build(_spec(macro_batch=0))
        sim_pe.run()
        sim_ma = _build(_spec())
        sim_ma.run()
        assert sim_ma._events_consumed == sim_pe._events_consumed


# -- kill/resume through the macro path ---------------------------------------


class TestMacroResume:
    def test_resume_matches_uninterrupted_run(self):
        """Epoch checkpoints sliced out of a macro run resume to the
        exact uninterrupted result (first/mid/last epoch)."""
        spec = _spec()
        snaps = {}
        sim = _build(spec)
        sim.snapshot_every = 1
        sim.snapshot_sink = lambda epoch, state: snaps.setdefault(epoch, state)
        full = sim.run(max_accesses=spec.max_accesses).digest()
        epochs = sorted(snaps)
        assert len(epochs) >= 3, "scenario too small to be meaningful"
        for k in {epochs[0], epochs[len(epochs) // 2], epochs[-1]}:
            resumed = _build(spec)
            resumed.load_state(snaps[k])
            assert resumed.run(max_accesses=spec.max_accesses).digest() \
                == full, f"resume from epoch {k} diverged"

    @pytest.mark.parametrize("fusion", ["staged", "reference"])
    def test_kill_then_resume_is_bit_identical(self, tmp_path, fusion,
                                               monkeypatch):
        """Fault-injected kill mid-macro-run, resume from the store."""
        if fusion == "reference":
            _use_reference_fusion(monkeypatch)
        spec = _spec(snapshot_every=1)
        clean = spec.execute(snapshots=None).digest()
        store = snapshot.SnapshotStore(tmp_path / "store")
        injector = FaultInjector(FaultConfig(kill_at_epoch=1, seed=5))
        with pytest.raises(SimulationKilled):
            spec.execute(faults=injector, snapshots=store)
        assert store.latest_epoch(spec) == 1
        resumed = spec.replace(resume=True).execute(snapshots=store).digest()
        assert resumed == clean

    def test_kill_under_fault_injection(self, tmp_path):
        """Chaos row with every injector active through the macro path."""
        cfg = FaultConfig(drop_sample_prob=0.05, dup_sample_prob=0.05,
                          alloc_fail_prob=0.02, tick_delay_prob=0.10, seed=9)
        spec = _spec(snapshot_every=1)
        clean = spec.execute(faults=FaultInjector(cfg),
                             snapshots=None).digest()
        store = snapshot.SnapshotStore(tmp_path / "store")
        killer = dataclasses.replace(cfg, kill_at_epoch=1)
        with pytest.raises(SimulationKilled):
            spec.execute(faults=FaultInjector(killer), snapshots=store)
        resumed = spec.replace(resume=True).execute(
            faults=FaultInjector(cfg), snapshots=store
        ).digest()
        assert resumed == clean

    def test_macro_checkpoint_is_cadence_scoped(self, tmp_path):
        """macro and per-event runs of the same workload keep separate
        snapshot lineages (different cache keys): resuming one never
        picks up the other's checkpoints."""
        store = snapshot.SnapshotStore(tmp_path / "store")
        spec_macro = _spec(snapshot_every=1)
        spec_macro.execute(snapshots=store)
        spec_legacy = _spec(macro_batch=0, snapshot_every=1)
        assert store.epochs(spec_macro)
        assert not store.epochs(spec_legacy)
