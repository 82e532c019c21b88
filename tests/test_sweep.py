"""The sweep executor, result cache, and the RunSpec API."""

import json
import os
import pickle
import subprocess
import sys
import textwrap

import pytest

import repro
from repro.experiments.common import SMOKE_SCALE, run_grid
from repro.sim import cache as result_cache
from repro.sim.cache import ResultCache
from repro.sim.engine import json_safe
from repro.sim.machine import ScaleSpec
from repro.sim.runner import RunSpec, run_baseline, run_experiment
from repro.sim.sweep import SweepError, run_sweep, raise_failures

from conftest import TEST_SCALE

#: The smoke-scale Fig-5 subgrid used by the executor tests.
GRID = dict(workloads=["silo", "btree"], policies=["tpp", "memtis"],
            ratios=["1:8"])


def _spec(**kw):
    base = dict(workload="silo", policy="tpp", ratio="1:8", scale=TEST_SCALE,
                max_accesses=50_000)
    base.update(kw)
    return RunSpec(**base)


class TestRunSpec:
    def test_frozen_hashable_picklable(self):
        spec = _spec(policy_kwargs={"promote_threshold": 2})
        assert spec == pickle.loads(pickle.dumps(spec))
        assert hash(spec) == hash(_spec(policy_kwargs={"promote_threshold": 2}))
        with pytest.raises(Exception):
            spec.seed = 1

    def test_policy_kwargs_dict_roundtrip(self):
        spec = _spec(policy_kwargs={"b": 2, "a": {"nested": [1, 2]}})
        assert spec.policy_kwargs_dict == {"b": 2, "a": {"nested": (1, 2)}}
        # Insertion order must not affect identity.
        assert spec == _spec(policy_kwargs={"a": {"nested": [1, 2]}, "b": 2})

    def test_validation(self):
        with pytest.raises(ValueError):
            _spec(ratio="3:1")
        with pytest.raises(ValueError):
            _spec(capacity_kind="tape")
        with pytest.raises(ValueError):
            _spec(machine_variant="half-fast")

    def test_baseline_spec(self):
        spec = _spec(policy="memtis", policy_kwargs={"enable_split": False})
        base = spec.baseline_spec()
        assert base.policy == "all-capacity"
        assert base.machine_variant == "all-capacity"
        assert base.policy_kwargs_dict == {}
        assert (base.workload, base.ratio, base.seed, base.scale) == (
            spec.workload, spec.ratio, spec.seed, spec.scale)

    def test_build_uses_machine_variant(self):
        sim = _spec(policy="all-capacity",
                    machine_variant="all-capacity").build()
        # All-capacity machine: fast tier collapsed to one huge page.
        assert sim.machine.fast_bytes == 2 * 1024 * 1024

    def test_wrappers_match_spec_run(self):
        via_wrapper = run_experiment("silo", "tpp", ratio="1:8",
                                     scale=TEST_SCALE, max_accesses=50_000,
                                     cache=None)
        via_spec = _spec().run(cache=None)
        assert via_wrapper.runtime_ns == via_spec.runtime_ns
        assert via_wrapper.fast_hit_ratio == via_spec.fast_hit_ratio

    def test_baseline_wrapper_matches_baseline_spec(self):
        a = run_baseline("silo", ratio="1:8", scale=TEST_SCALE,
                         max_accesses=50_000, cache=None)
        b = _spec().baseline_spec().replace(max_accesses=50_000).run(cache=None)
        assert a.runtime_ns == b.runtime_ns

    def test_to_dict_from_dict_roundtrip(self):
        spec = _spec(policy_kwargs={"enable_split": False}, seed=7)
        data = json.loads(json.dumps(spec.to_dict()))
        assert RunSpec.from_dict(data) == spec


class TestCacheKey:
    def test_key_is_deterministic(self):
        assert _spec().cache_key() == _spec().cache_key()

    @pytest.mark.parametrize("change", [
        {"workload": "btree"},
        {"policy": "memtis"},
        {"ratio": "1:2"},
        {"capacity_kind": "cxl"},
        {"scale": ScaleSpec(bytes_per_paper_gb=2 * 1024 * 1024)},
        {"seed": 43},
        {"policy_kwargs": {"promote_threshold": 2}},
        {"max_accesses": 60_000},
        {"machine_variant": "all-capacity"},
        {"force_base_pages": True},
    ])
    def test_every_field_changes_the_key(self, change):
        assert _spec().cache_key() != _spec().replace(**change).cache_key()


class TestResultCache:
    def test_miss_run_hit(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        spec = _spec()
        assert cache.get(spec) is None
        result = spec.run(cache=cache)
        assert cache.stats.misses == 2 and cache.stats.stores == 1
        hit = cache.get(spec)
        assert hit is not None
        assert hit.runtime_ns == result.runtime_ns
        assert len(cache) == 1

    def test_hit_skips_execution(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path / "c")
        spec = _spec()
        spec.run(cache=cache)

        def boom(self):
            raise AssertionError("cache hit must not rebuild the simulation")

        monkeypatch.setattr(RunSpec, "build", boom)
        assert spec.run(cache=cache).runtime_ns > 0

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        spec = _spec()
        path = cache.put(spec, spec.run(cache=None))
        with open(path, "wb") as fh:
            fh.write(b"not a pickle")
        assert cache.get(spec) is None
        assert cache.stats.errors == 1
        assert len(cache) == 0  # corrupt entry removed

    def test_clear(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        spec = _spec()
        cache.put(spec, spec.run(cache=None))
        assert cache.clear() == 1
        assert not cache.contains(spec)

    def test_default_cache_isolated_to_tmpdir(self, tmp_path):
        # The autouse fixture must keep the default cache under tmp_path.
        cache = result_cache.default_cache()
        assert cache is not None
        assert str(cache.cache_dir).startswith(str(tmp_path))

    @pytest.mark.no_result_cache
    def test_no_result_cache_marker(self):
        assert result_cache.default_cache() is None


class TestSweep:
    def test_dedup_and_order(self):
        spec = _spec()
        out = run_sweep([spec, spec, spec], jobs=1, cache=None)
        assert list(out) == [spec]
        assert out[spec].ok and not out[spec].from_cache

    def test_failed_cell_does_not_abort(self):
        good = _spec()
        bad = _spec(policy="no-such-policy")
        out = run_sweep([bad, good], jobs=1, cache=None)
        assert out[good].ok
        assert not out[bad].ok
        assert out[bad].attempts == 2  # retried once, then reported
        assert "no-such-policy" in out[bad].error
        with pytest.raises(SweepError, match="no-such-policy"):
            raise_failures(out)

    def test_failed_cell_parallel(self):
        good = _spec()
        bad = _spec(workload="no-such-workload")
        out = run_sweep([bad, good], jobs=2, cache=None)
        assert out[good].ok and not out[bad].ok

    def test_keyboard_interrupt_cancels_instead_of_retrying(self, monkeypatch):
        """execute_cell converts only Exception into a failed cell:
        KeyboardInterrupt/SystemExit must propagate so Ctrl-C cancels
        the sweep instead of burning retries on every in-flight cell."""
        def interrupted(self, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(RunSpec, "execute", interrupted)
        with pytest.raises(KeyboardInterrupt):
            run_sweep([_spec()], jobs=1, cache=None, retries=5)

        def exiting(self, **kwargs):
            raise SystemExit(3)

        monkeypatch.setattr(RunSpec, "execute", exiting)
        with pytest.raises(SystemExit):
            run_sweep([_spec()], jobs=1, cache=None, retries=5)

    def test_ordinary_exception_becomes_failed_outcome(self, monkeypatch):
        def broken(self, **kwargs):
            raise ValueError("cell blew up")

        monkeypatch.setattr(RunSpec, "execute", broken)
        out = run_sweep([_spec()], jobs=1, cache=None, retries=1)
        outcome = out[_spec()]
        assert not outcome.ok and outcome.attempts == 2
        assert "cell blew up" in outcome.error

    def test_worker_death_costs_one_attempt_not_the_sweep(self):
        """A cell whose worker process dies hard is charged an attempt
        and retried in a worker, never in the sweep's own process; its
        sibling still completes.  Runs in a subprocess so a sweep that
        dies with the cell cannot take pytest down with it."""
        good = _spec()
        bad = _spec(seed=43)
        script = textwrap.dedent("""
            import json, os, sys
            from repro.sim.runner import RunSpec
            from repro.sim.sweep import run_sweep

            good, bad = (RunSpec.from_dict(d) for d in json.loads(sys.argv[1]))
            real_execute = RunSpec.execute

            def execute(self, **kwargs):
                if self.seed == bad.seed:
                    os._exit(1)
                return real_execute(self, **kwargs)

            RunSpec.execute = execute
            out = run_sweep([bad, good], jobs=2, retries=1, cache=None)
            print(json.dumps({"good_ok": out[good].ok,
                              "bad_ok": out[bad].ok,
                              "bad_attempts": out[bad].attempts}))
        """)
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-c", script,
             json.dumps([good.to_dict(), bad.to_dict()])],
            capture_output=True, text=True, timeout=300, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout.strip().splitlines()[-1])
        assert report == {"good_ok": True, "bad_ok": False,
                          "bad_attempts": 2}

    def test_progress_events(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        events = []
        specs = [_spec(), _spec(policy="no-such-policy")]
        run_sweep(specs, jobs=1, cache=cache, progress=events.append,
                  retries=0)
        assert [e.status for e in events] == ["done", "failed"]
        assert events[0].total == 2 and events[-1].completed == 2
        events.clear()
        run_sweep(specs[:1], jobs=1, cache=cache, progress=events.append)
        assert [e.status for e in events] == ["cached"]


@pytest.mark.slow
class TestGrid:
    def test_parallel_matches_serial_on_fig5_subgrid(self):
        serial = run_grid(scale=SMOKE_SCALE, jobs=1, cache=None, **GRID)
        parallel = run_grid(scale=SMOKE_SCALE, jobs=2, cache=None, **GRID)
        assert serial.keys() == parallel.keys()
        for key in serial:
            assert serial[key]["normalized"] == parallel[key]["normalized"]
            assert (serial[key]["result"].runtime_ns
                    == parallel[key]["result"].runtime_ns)
            assert (serial[key]["baseline"].runtime_ns
                    == parallel[key]["baseline"].runtime_ns)

    def test_second_invocation_runs_zero_simulations(self, tmp_path,
                                                     monkeypatch):
        cache = ResultCache(tmp_path / "grid-cache")
        first = run_grid(scale=SMOKE_SCALE, jobs=1, cache=cache, **GRID)

        from repro.sim import sweep as sweep_mod

        def boom(spec):
            raise AssertionError(f"unexpected simulation for {spec.label()}")

        monkeypatch.setattr(sweep_mod, "execute_cell", boom)
        second = run_grid(scale=SMOKE_SCALE, jobs=1, cache=cache, **GRID)
        for key in first:
            assert first[key]["normalized"] == second[key]["normalized"]

    def test_grid_strict_false_reports_errors(self):
        out = run_grid(["silo"], ["tpp", "no-such-policy"], ["1:8"],
                       scale=SMOKE_SCALE, jobs=1, cache=None, strict=False)
        assert out[("silo", "tpp", "1:8")]["normalized"] > 0
        assert "no-such-policy" in out[("silo", "no-such-policy", "1:8")]["error"]
        with pytest.raises(SweepError):
            run_grid(["silo"], ["no-such-policy"], ["1:8"],
                     scale=SMOKE_SCALE, jobs=1, cache=None)

    def test_baseline_shared_across_policies(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        run_grid(["silo"], ["tpp", "all-fast"], ["1:8"], scale=SMOKE_SCALE,
                 jobs=1, cache=cache)
        # 1 shared baseline + 2 policy cells.
        assert cache.stats.stores == 3


class TestJsonSafe:
    def test_sim_result_to_dict_is_json_serialisable(self):
        result = _spec().run(cache=None)
        data = result.to_dict()
        text = json.dumps(data)
        assert data["runtime_ns"] == result.runtime_ns
        assert data["migration"]["traffic_bytes"] == result.migration.traffic_bytes
        assert data["tlb"]["miss_ratio"] == result.tlb.miss_ratio
        assert "timeline" in data["metrics"]
        assert isinstance(json.loads(text), dict)

    def test_json_safe_handles_numpy_and_results(self):
        import numpy as np

        result = _spec().run(cache=None)
        blob = json_safe({
            "f": np.float64(1.5),
            "arr": np.arange(3),
            "res": result,
            "nested": [{"i": np.int32(2)}],
        })
        assert blob["f"] == 1.5 and blob["arr"] == [0, 1, 2]
        assert blob["res"]["policy_name"] == result.policy_name
        assert blob["nested"][0]["i"] == 2
        json.dumps(blob)
