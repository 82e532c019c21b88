"""Sweep progress files, the ``repro top`` dashboard, and OpenMetrics.

A cell's lifecycle lives in its queue row; its worker's progress file
adds only what the engine knows.  The acceptance scenario: an 8-cell
heartbeat sweep whose ledger ends up holding every dashboard state at
once -- done, cached, failed, resumed (checkpoint-aware retry) and a
still-running cell -- rendered correctly by ``repro top --snapshot``
(the same frame ``repro service status`` prints), with the OpenMetrics
exposition validating line-by-line against the format grammar.
"""

import json
import os
import re
import time

import pytest

from repro.cli import main as cli_main
from repro.obs import heartbeat
from repro.obs.heartbeat import (
    HEARTBEAT_SUFFIX,
    HeartbeatConfig,
    HeartbeatWriter,
    aggregate,
    display_state,
    read_progress,
)
from repro.obs.openmetrics import (
    counters_exposition,
    escape_label,
    metric_name,
    status_exposition,
)
from repro.analysis.top import progress_bar, render_dashboard
from repro.service import DEFAULT_LEASE_S, JobQueue, build_status, queue_path
from repro.sim import sweep
from repro.sim.runner import RunSpec
from repro.sim.sweep import run_sweep, timing_summary

from conftest import TEST_SCALE


def _spec(**overrides):
    base = dict(
        workload="silo", policy="memtis", ratio="1:8", seed=11,
        max_accesses=60_000, scale=TEST_SCALE,
    )
    base.update(overrides)
    return RunSpec(**base)


# -- writer / reader units -----------------------------------------------------


class TestHeartbeatFiles:
    def test_writer_status_fields(self, tmp_path):
        config = HeartbeatConfig(str(tmp_path), min_interval_s=0.0)
        spec = _spec()
        writer = HeartbeatWriter(config, spec)
        sim = spec.build()
        sim.metrics.timeline_interval_ns = 1e6
        sim.epoch_hook = writer.on_epoch
        sim.run(max_accesses=spec.max_accesses)
        with open(config.cell_path(spec)) as fh:
            status = json.load(fh)
        assert status["schema"] == heartbeat.SCHEMA
        assert status["pid"] == os.getpid()
        assert status["epoch"] >= 1
        # The engine drains whole batches, so accesses may overshoot the
        # budget by a batch; progress clamps at 1.0 regardless.
        assert 0 < status["accesses"]
        assert status["target_accesses"] == spec.max_accesses
        assert 0.0 < status["progress"] <= 1.0
        assert status["accesses_per_sec"] > 0
        assert status["eta_s"] is not None and status["eta_s"] >= 0
        assert status["violations"] == 0 and status["wall_s"] > 0
        # Lifecycle belongs to the queue row, never to the file.
        for field in ("state", "attempts", "error", "resumed", "seq"):
            assert field not in status
        writer.flush()
        with open(config.cell_path(spec)) as fh:
            assert json.load(fh)["epoch"] == sim._epoch_index

    def test_reader_skips_torn_files(self, tmp_path):
        config = HeartbeatConfig(str(tmp_path))
        spec = _spec()
        HeartbeatWriter(config, spec).write({"progress": 1.0})
        with open(os.path.join(str(tmp_path), f"torn{HEARTBEAT_SUFFIX}"),
                  "w") as fh:
            fh.write('{"progress": 0.')  # mid-write on a weird fs
        assert read_progress(str(tmp_path)) == {
            spec.cache_key()[:16]: {"progress": 1.0}
        }

    def test_read_missing_directory(self, tmp_path):
        assert read_progress(str(tmp_path / "nope")) == {}

    def test_display_state_precedence(self):
        assert display_state({"state": "failed", "resumed": True}) == "failed"
        assert display_state({"state": "cached", "resumed": True}) == "cached"
        assert display_state({"state": "done", "resumed": True}) == "resumed"
        assert display_state({"state": "running"}) == "running"
        assert display_state({"state": "running", "stalled": True}) \
            == "stalled"
        assert display_state({"state": "queued"}) == "queued"

    def test_aggregate(self):
        cells = [
            {"state": "running", "accesses_per_sec": 10.0, "accesses": 5},
            {"state": "done", "accesses_per_sec": 99.0, "accesses": 7,
             "violations": 2},
        ]
        agg = aggregate(cells)
        assert agg["states"] == {"running": 1, "done": 1}
        assert agg["running_accesses_per_sec"] == 10.0  # done rate excluded
        assert agg["total_accesses"] == 12 and agg["violations"] == 2


class TestZeroProgressGuards:
    """Satellite regression: a just-resumed cell (elapsed ~0, zero
    post-resume accesses) must report unknown rate/ETA, not a division
    hazard or an extrapolated-nonsense throughput."""

    def test_status_right_after_resume_reports_unknown_rate(self, tmp_path):
        config = HeartbeatConfig(str(tmp_path), min_interval_s=0.0)
        spec = _spec()
        sim = spec.build()
        sim.metrics.timeline_interval_ns = 1e6
        sim.run(max_accesses=20_000)
        # Simulate the instant after a checkpoint restore: every access
        # so far predates the resume, and no wall time has passed.
        sim._resume_accesses = int(sim.metrics.total_accesses)
        writer = HeartbeatWriter(config, spec)
        status = writer.status(sim, now=writer.started_at)
        assert status["accesses_per_sec"] is None
        assert status["eta_s"] is None
        assert status["accesses"] > 0  # progress itself still reported
        assert 0.0 < status["progress"] <= 1.0
        writer.write(status)  # null rate must survive the JSON round-trip
        cells = read_progress(str(tmp_path))
        assert cells[spec.cache_key()[:16]]["accesses_per_sec"] is None

    def test_fresh_start_zero_elapsed_reports_unknown_rate(self, tmp_path):
        config = HeartbeatConfig(str(tmp_path), min_interval_s=0.0)
        spec = _spec()
        sim = spec.build()  # brand new: zero accesses, zero elapsed
        writer = HeartbeatWriter(config, spec)
        status = writer.status(sim, now=writer.started_at)
        assert status["accesses_per_sec"] is None
        assert status["eta_s"] is None
        assert status["progress"] == 0.0

    def test_dashboard_renders_unknown_rate_as_dash(self):
        cells = [{
            "key": "deadbeef", "label": "silo memtis 1:8",
            "state": "running", "progress": 0.4,
            "epoch": 9, "accesses": 40_000, "accesses_per_sec": None,
            "eta_s": None, "violations": 0,
        }]
        art = render_dashboard({"cells": cells})
        row = [line for line in art.splitlines()
               if "silo memtis 1:8" in line][0]
        assert row.rstrip().endswith("-")  # eta column unknown
        assert "None" not in art and "inf" not in art

    def test_aggregate_tolerates_unknown_rates(self):
        cells = [
            {"state": "running", "accesses_per_sec": None, "accesses": 5},
            {"state": "running", "accesses_per_sec": 10.0, "accesses": 7},
        ]
        agg = aggregate(cells)
        assert agg["running_accesses_per_sec"] == 10.0
        assert agg["total_accesses"] == 12


class TestWriteRaces:
    """Temp-file hygiene when the progress write path itself fails.
    Each file has one writer (its cell's worker), so there is no merge
    to race against."""

    def test_write_atomic_cleans_temp_and_counts_error(self, tmp_path):
        hb_dir = str(tmp_path / "hb")
        target = os.path.join(hb_dir, "cell.hb.json")
        errors_before = heartbeat.STATS.errors
        with pytest.raises(TypeError):
            heartbeat._write_atomic(target, {"bad": {1, 2, 3}})  # not JSON
        assert heartbeat.STATS.errors == errors_before + 1
        assert not os.path.exists(target)
        assert os.listdir(hb_dir) == []  # no .tmp litter

    def test_write_atomic_success_leaves_no_litter(self, tmp_path):
        hb_dir = str(tmp_path / "hb")
        heartbeat._write_atomic(os.path.join(hb_dir, "cell.hb.json"),
                                {"ok": 1})
        assert sorted(os.listdir(hb_dir)) == ["cell.hb.json"]


class TestFileModes:
    """Atomic writes land with the mode a plain ``open()`` gives, not
    ``mkstemp``'s private 0600: other accounts can read them."""

    @staticmethod
    def _mode(path):
        return os.stat(path).st_mode & 0o777

    def _plain_mode_beside(self, path):
        plain = os.path.join(os.path.dirname(path), "plain.txt")
        with open(plain, "w"):
            pass
        return self._mode(plain)

    def test_cache_entry_mode(self, tmp_path):
        from repro.sim.cache import ResultCache

        path = ResultCache(str(tmp_path / "cache")).put(_spec(), "result")
        assert self._mode(path) == self._plain_mode_beside(path)

    def test_progress_file_mode(self, tmp_path):
        writer = HeartbeatWriter(HeartbeatConfig(str(tmp_path / "hb")),
                                 _spec())
        writer.write({"ok": 1})
        assert self._mode(writer.path) == \
            self._plain_mode_beside(writer.path)


class TestCacheCorruptEntryGuard:
    """Satellite regression: ``ResultCache.get`` must not unlink an entry
    a concurrent writer just rewrote."""

    def _cache_and_spec(self, tmp_path):
        from repro.sim.cache import ResultCache

        return ResultCache(str(tmp_path / "cache")), _spec()

    def test_corrupt_entry_removed_and_counted(self, tmp_path):
        cache, spec = self._cache_and_spec(tmp_path)
        path = cache._path(spec.cache_key())
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "wb") as fh:
            fh.write(b"not a pickle")
        assert cache.get(spec) is None
        assert cache.stats.errors == 1 and cache.stats.misses == 1
        assert not os.path.exists(path)  # stable corruption is removed

    def test_replaced_entry_survives_corrupt_unlink(
        self, tmp_path, monkeypatch
    ):
        """Reader loads corrupt bytes; before it unlinks, a writer's
        ``os.replace`` lands a good entry at the same path.  The guarded
        unlink must notice the file changed and leave it alone."""
        import pickle

        cache, spec = self._cache_and_spec(tmp_path)
        path = cache._path(spec.cache_key())
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "wb") as fh:
            fh.write(b"not a pickle")

        real_load = pickle.load

        def load_then_replace(fh):
            # Concurrent writer wins the race while we hold corrupt bytes.
            with open(path + ".new", "wb") as nf:
                pickle.dump({"spec": spec.to_dict(), "result": "fresh"}, nf)
            os.replace(path + ".new", path)
            return real_load(fh)

        monkeypatch.setattr(pickle, "load", load_then_replace)
        assert cache.get(spec) is None  # this read still misses
        monkeypatch.setattr(pickle, "load", real_load)
        assert os.path.exists(path), "fresh entry must not be deleted"
        assert cache.get(spec) == "fresh"

    def test_remove_corrupt_is_noop_without_stat(self, tmp_path):
        cache, spec = self._cache_and_spec(tmp_path)
        assert cache._remove_corrupt(cache._path(spec.cache_key()), None) \
            is False


# -- stall detection -----------------------------------------------------------


def _ledger(tmp_path, *, leases=(-100.0, -100.0), drained=False):
    """A sweep directory whose cells were claimed by worker ``w-dead``.

    ``leases`` are each claim's lease expiry relative to now (negative:
    expired); ``drained`` completes every claim instead.  Each cell
    also gets a progress file, as its worker would have left it.
    """
    d = str(tmp_path / "sweep")
    specs = [_spec(seed=100 + i) for i in range(len(leases))]
    config = HeartbeatConfig(d)
    with JobQueue(queue_path(d)) as queue:
        queue.enqueue(specs, cache=None)
        for lease in leases:
            # Claimed long ago, so no claim expires an earlier one.
            job = queue.claim("w-dead", lease_s=200.0 + lease,
                              now=time.time() - 200.0)
            if drained:
                queue.complete(job.key, "w-dead")
    for spec in specs:
        HeartbeatWriter(config, spec).write({
            "progress": 0.4, "epoch": 7, "accesses_per_sec": 1e5,
        })
    return d


class TestStallDetection:
    def test_mark_stalled_flags_quiet_nonterminal_cells(self, tmp_path):
        """Only a ``running`` row whose lease expired is stalled."""
        d = _ledger(tmp_path, leases=(-100.0, 100.0, -100.0))
        with JobQueue(queue_path(d)) as queue:
            done = queue.jobs()[2]
            queue.complete(done.key, "w-dead")
        cells = build_status(d)["cells"]
        assert [c["stalled"] for c in cells] == [True, False, False]
        assert [display_state(c) for c in cells] == \
            ["stalled", "running", "done"]
        # The join kept each cell's progress next to its row state.
        assert all(c["epoch"] == 7 for c in cells)

    def test_stalled_cell_excluded_from_throughput(self):
        cells = [
            {"state": "running", "accesses_per_sec": 10.0},
            {"state": "running", "accesses_per_sec": 99.0, "stalled": True},
        ]
        agg = aggregate(cells)
        assert agg["running_accesses_per_sec"] == 10.0
        assert agg["states"] == {"running": 1, "stalled": 1}

    def test_sweep_stalled_requires_everything_quiet(self, tmp_path):
        """Live evidence is an unexpired lease or a recently seen worker
        that has not stopped; without either the ledger is stalled."""
        now = time.time()
        with JobQueue(queue_path(_ledger(tmp_path, leases=(-100.0, 5.0)))) \
                as queue:
            assert queue.live(now)  # one lease still held
            assert not queue.live(now + 10.0)  # every lease expired
            queue.register_worker("w-idle", now=now)
            assert queue.live(now + 10.0)  # ... but a worker is polling
            assert not queue.live(now + DEFAULT_LEASE_S + 1.0)
            queue.worker_beat("w-idle", "stopped", now=now + 10.0)
            assert not queue.live(now + 10.0)  # stopped workers never count
            assert not queue.drained()

    def test_dashboard_renders_stalled(self, tmp_path):
        art = render_dashboard(build_status(_ledger(tmp_path)))
        assert "2 stalled" in art
        # A stalled cell's last-known rate would be a lie: rendered "-".
        row = [line for line in art.splitlines()
               if "stalled" in line and "40%" in line][0]
        assert "100.0k/s" not in row

    def test_cli_top_live_loop_exits_3_on_stalled_sweep(
        self, tmp_path, capsys
    ):
        rc = cli_main(["top", _ledger(tmp_path), "--interval", "0.1"])
        assert rc == 3
        assert "stalled" in capsys.readouterr().err

    def test_cli_top_live_loop_exits_0_on_finished_sweep(
        self, tmp_path, capsys
    ):
        d = _ledger(tmp_path, drained=True)
        assert cli_main(["top", d, "--interval", "0.1"]) == 0
        assert "2 done" in capsys.readouterr().out

    def test_cli_top_snapshot_shows_stalled(self, tmp_path, capsys):
        assert cli_main(["top", _ledger(tmp_path), "--snapshot"]) == 0
        assert "stalled" in capsys.readouterr().out

    def test_cli_top_without_queue_exits_2(self, tmp_path, capsys):
        missing = str(tmp_path / "nothing")
        assert cli_main(["top", missing, "--snapshot"]) == 2
        assert "no queue" in capsys.readouterr().err
        assert not os.path.exists(missing)


def _tree(directory):
    """Every file in ``directory`` with its bytes and mtime."""
    tree = {}
    for name in sorted(os.listdir(directory)):
        path = os.path.join(directory, name)
        with open(path, "rb") as fh:
            tree[name] = (fh.read(), os.stat(path).st_mtime_ns)
    return tree


class TestSweepLedger:
    def test_sweep_keeps_its_queue_in_the_heartbeat_dir(self, tmp_path):
        d = str(tmp_path / "hb")
        spec = _spec()
        assert run_sweep([spec], jobs=1, heartbeat=HeartbeatConfig(d))[
            spec].ok
        status = build_status(d)
        assert status["drained"]
        [cell] = status["cells"]
        assert cell["state"] == "done" and cell["progress"] == 1.0

    def test_rerun_into_a_ledger_is_refused(self, tmp_path, capsys):
        d = str(tmp_path / "hb")
        run_sweep([_spec()], jobs=1, heartbeat=HeartbeatConfig(d))
        before = _tree(d)
        assert cli_main(["run", "silo", "memtis", "--quick", "--no-baseline",
                         "--heartbeat", d]) == 2
        assert queue_path(d) in capsys.readouterr().err
        with pytest.raises(ValueError, match=re.escape(queue_path(d))):
            run_sweep([_spec(seed=99)], heartbeat=HeartbeatConfig(d))
        assert _tree(d) == before


def test_progress_bar_shapes():
    assert progress_bar(0.0) == "[" + "." * 14 + "]"
    assert progress_bar(1.0) == "[" + "#" * 14 + "]"
    half = progress_bar(0.5)
    assert half.count("#") == 6 and ">" in half and len(half) == 16


# -- the 8-cell acceptance sweep -----------------------------------------------


@pytest.fixture
def eight_cell_sweep(tmp_path, monkeypatch):
    """Run an 8-cell heartbeat sweep covering every dashboard state.

    Returns ``(heartbeat_dir, outcomes, specs)`` where the sweep's 7
    cells end as 4 done + 1 cached + 1 failed + 1 resumed, and an 8th
    cell is left mid-flight in ``running`` state.
    """
    hb_dir = str(tmp_path / "hb")
    config = HeartbeatConfig(hb_dir, min_interval_s=0.0)

    done_specs = [_spec(seed=s) for s in (11, 12, 13, 14)]
    cached_spec = _spec(seed=15)
    cached_spec.run()  # pre-populate the (tmp) result cache
    failed_spec = _spec(seed=16, policy_kwargs={"no_such_option": True})
    flaky_spec = _spec(seed=17, snapshot_every=1)

    # First attempt of the flaky cell "crashes"; the checkpoint-aware
    # retry re-runs it with resume=True, which lands as a resumed cell.
    real_execute_cell = sweep.execute_cell

    def flaky(spec, trace=None, heartbeat=None, epoch_hook=None,
              streams=None):
        if spec.seed == 17 and not spec.resume:
            return (False, None, "RuntimeError: injected crash")
        return real_execute_cell(spec, trace, heartbeat, epoch_hook, streams)

    monkeypatch.setattr(sweep, "execute_cell", flaky)
    specs = done_specs + [cached_spec, failed_spec, flaky_spec]
    outcomes = run_sweep(specs, jobs=1, heartbeat=config, retries=1)

    # Cell 8: enqueued into the same ledger and claimed, then caught
    # mid-flight by a real writer that never finishes.
    running_spec = _spec(seed=18)
    with JobQueue(queue_path(hb_dir)) as queue:
        queue.enqueue([running_spec])
        assert queue.claim("w-running", lease_s=DEFAULT_LEASE_S) is not None
    writer = HeartbeatWriter(config, running_spec)
    sim = running_spec.build()
    sim.metrics.timeline_interval_ns = 1e6
    sim.epoch_hook = writer.on_epoch
    sim.run(max_accesses=20_000)  # partial budget: stays "running"
    return hb_dir, outcomes, specs


@pytest.mark.slow
class TestEightCellSweep:
    def test_states_and_dashboard(self, eight_cell_sweep):
        hb_dir, outcomes, specs = eight_cell_sweep
        status = build_status(hb_dir)
        cells = status["cells"]
        assert len(cells) == 8 and not status["drained"] and status["live"]
        states = sorted(display_state(c) for c in cells)
        assert states == sorted(
            ["done"] * 4 + ["cached", "failed", "resumed", "running"]
        )
        # Progress files exist only for cells a worker executed.
        progress = read_progress(hb_dir)
        assert cells[-1]["key"][:16] in progress
        assert specs[4].cache_key()[:16] not in progress  # cached
        art = render_dashboard(status)
        assert "sweep: 8 cells" in art
        for state in ("running", "cached", "resumed", "failed"):
            assert state in art
        assert "injected crash" not in art  # failed cell shows *its* error
        # The error line wraps instead of losing its tail.
        lines = art.splitlines()
        first = next(i for i, line in enumerate(lines) if "!! " in line)
        indent = lines[first].index("!! ")
        error = [lines[first][indent + 3:]]
        for line in lines[first + 1:]:
            if not line.startswith(" " * (indent + 3)):
                break
            error.append(line.strip())
        assert all(len(line) <= 80 for line in lines)
        assert " ".join(error) == (
            "TypeError: MemtisConfig.__init__() got an unexpected keyword "
            "argument 'no_such_option'"
        )

    def test_outcomes_and_timing(self, eight_cell_sweep):
        _, outcomes, specs = eight_cell_sweep
        flaky_spec = specs[-1]
        assert outcomes[flaky_spec].ok
        assert outcomes[flaky_spec].resumed is True
        assert outcomes[flaky_spec].attempts == 2
        done = [o for o in outcomes.values()
                if o.ok and not o.from_cache and not o.resumed]
        assert all(o.resumed is False for o in done)
        timing = timing_summary(outcomes)
        assert timing["cells"] == 7 and timing["resumed"] == 1
        assert timing["cached"] == 1 and timing["failed"] == 1
        # Resumed wall is the post-resume attempt only, so it behaves
        # like any executed cell (positive, bounded by the total).
        resumed_wall = outcomes[flaky_spec].result.wall_seconds
        assert 0 < resumed_wall <= timing["wall_total_s"]

    def test_cli_top_snapshot(self, eight_cell_sweep, capsys):
        hb_dir, _, _ = eight_cell_sweep
        assert cli_main(["top", hb_dir, "--snapshot"]) == 0
        out = capsys.readouterr().out
        assert "sweep: 8 cells" in out
        for state in ("running", "cached", "resumed", "failed"):
            assert state in out

    def test_cli_top_snapshot_matches_service_status(self, eight_cell_sweep,
                                                     capsys):
        hb_dir, _, _ = eight_cell_sweep
        assert cli_main(["top", hb_dir, "--snapshot"]) == 0
        top = capsys.readouterr().out
        # The failed cell makes `service status` exit 1; same frame.
        assert cli_main(["service", "status", hb_dir]) == 1
        assert capsys.readouterr().out == top

    def test_cli_top_openmetrics(self, eight_cell_sweep, capsys):
        hb_dir, _, _ = eight_cell_sweep
        assert cli_main(["top", hb_dir, "--openmetrics"]) == 0
        out = capsys.readouterr().out
        _validate_openmetrics(out)
        assert 'state="resumed"' in out and 'state="running"' in out


# -- OpenMetrics grammar -------------------------------------------------------

_TYPE_RE = re.compile(
    r"^# TYPE ([a-zA-Z_:][a-zA-Z0-9_:]*) (gauge|counter)$"
)
_LABELS_RE = re.compile(
    r'^\{[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\\n]|\\\\|\\"|\\n)*"'
    r'(,[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\\n]|\\\\|\\"|\\n)*")*\}$'
)
_SAMPLE_RE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{.*\})? (-?(\d+\.?\d*([eE][+-]?\d+)?))$"
)


def _validate_openmetrics(text: str) -> None:
    """Line-by-line exposition-format validation (types, names, labels)."""
    lines = text.rstrip("\n").split("\n")
    assert lines[-1] == "# EOF", "exposition must end with # EOF"
    declared = {}
    for line in lines[:-1]:
        match = _TYPE_RE.match(line)
        if match:
            name, kind = match.groups()
            assert name not in declared, f"family {name} declared twice"
            declared[name] = kind
            continue
        match = _SAMPLE_RE.match(line)
        assert match, f"invalid exposition line: {line!r}"
        sample_name, labels = match.group(1), match.group(2)
        family = sample_name
        if sample_name.endswith("_total"):
            family = sample_name[: -len("_total")]
        if family in declared and sample_name != family:
            assert declared[family] == "counter"
        else:
            family = sample_name
        assert family in declared, f"sample {sample_name} has no TYPE"
        if declared[family] == "counter":
            assert sample_name.endswith("_total"), \
                f"counter sample {sample_name} must end _total"
        if labels:
            assert _LABELS_RE.match(labels), f"bad labels: {labels!r}"
    assert declared, "no metric families emitted"


class TestOpenMetrics:
    def test_name_sanitisation(self):
        assert metric_name("engine/total_accesses") \
            == "engine_total_accesses"
        assert metric_name("9lives") == "_9lives"
        assert _TYPE_RE.match(f"# TYPE {metric_name('a b/c-d')} gauge")

    def test_label_escaping(self):
        assert escape_label('sa"y\\hi\nthere') == 'sa\\"y\\\\hi\\nthere'

    def test_sweep_exposition_grammar_with_hostile_labels(self):
        cells = [{
            "key": "abc", "spec": {"workload": 'w"1\\x', "policy": "p\n2"},
            "state": "running", "progress": 0.5, "epoch": 3,
            "accesses": 10, "accesses_per_sec": 2.5, "resumed": True,
        }]
        _validate_openmetrics(status_exposition({"cells": cells}))

    def test_counters_exposition_from_real_run(self):
        spec = _spec()
        result = spec.execute()
        counters = result.to_dict()["observability"]["counters"]
        text = counters_exposition(counters)
        _validate_openmetrics(text)
        assert "# TYPE repro_engine_total_accesses" in text
