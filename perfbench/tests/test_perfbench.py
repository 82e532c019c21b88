"""Smoke tests of the benchmark itself, at tiny size.

Run from the repository root::

    python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402
import spans  # noqa: E402

WORKLOADS = ("trace_replay", "live_checkpointed", "policy_grid")


def _bench(tmp_path, *args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
         "--size", "tiny", "--seconds", "0", "--out", str(tmp_path), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    return proc


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.fixture(scope="module", params=WORKLOADS)
def runs(request, tmp_path_factory):
    """One untraced and one traced run of a workload, at seed 11."""
    out = tmp_path_factory.mktemp(request.param)
    done = {}
    for trace in (0, 1):
        proc = _bench(out, "--workload", request.param, "--seed", "11",
                      "--trace", str(trace))
        assert proc.returncode == 0, proc.stderr
        name = f"{request.param}-seed11-trace{trace}.json"
        with open(out / name) as fh:
            done[trace] = (json.loads(proc.stdout.splitlines()[-1]),
                           json.load(fh))
    return request.param, done


def test_result_line_names_every_metric_with_its_unit(runs):
    spec = _benchmark_json()
    _workload, done = runs
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        line, _record = done[trace]
        assert line["correct"] is True and line["failed"] == 0
        assert line["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in spec[key]}
        got = {k: v["unit"] for k, v in line["metrics"].items()}
        assert got == expected
        assert all(isinstance(v["value"], (int, float))
                   for v in line["metrics"].values())


def test_end_to_end_metrics_are_positive(runs):
    _workload, done = runs
    line, _record = done[0]
    assert all(v["value"] > 0 for v in line["metrics"].values())


def test_digests_repeat_across_passes_and_tracing(runs):
    _workload, done = runs
    passes = done[0][1]["passes"] + done[1][1]["passes"]
    assert sum(not p["traced"] for p in passes) >= 3
    assert sum(p["traced"] for p in passes) >= 1
    assert len({p["digest"] for p in passes}) == 1
    assert all(p["failed_cells"] == 0 for p in passes)


def test_traced_pass_sees_its_layers(runs):
    workload, done = runs
    layers = done[1][0]["metrics"]
    assert layers["engine.batches"]["value"] > 0
    assert layers["tlb.lookups"]["value"] > 0
    assert 0 < layers["engine.self_share"]["value"] < 1
    if workload == "trace_replay":
        assert layers["workloads.events"]["value"] > 0
    if workload == "live_checkpointed":
        assert layers["snapshot.saves"]["value"] > 0
        assert layers["snapshot.bytes"]["value"] > 0
    if workload == "policy_grid":
        assert layers["cache.stores"]["value"] == 8
        assert layers["cache.hits"]["value"] == 0
        assert layers["sweep.cell_p50_s"]["value"] > 0
        assert layers["policy.hint_faults"]["value"] > 0


def test_records_carry_the_host_fingerprint(runs):
    _workload, done = runs
    host = done[0][1]["host"]
    assert set(run.HOST_KEYS) <= set(host)
    assert host["nproc"] >= 1


def test_benchmark_json_matches_the_runner():
    spec = _benchmark_json()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_self_times_subtract_child_spans():
    tracer = spans.Tracer()
    tracer.spans = [["engine", 0, 100, -1], ["tlb", 10, 40, 0],
                    ["policy", 50, 90, 0], ["migration", 60, 70, 2]]
    self_s = tracer.self_seconds()
    assert self_s["engine"] == pytest.approx(30e-9)
    assert self_s["tlb"] == pytest.approx(30e-9)
    assert self_s["policy"] == pytest.approx(30e-9)
    assert self_s["migration"] == pytest.approx(10e-9)
    assert tracer.total_seconds("engine") == pytest.approx(100e-9)


def test_install_and_restore_leave_the_classes_unchanged():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from repro.mem.tlb import TLB
    from repro.sim.engine import Simulation

    before = (Simulation.run, TLB.access_substream)
    tracer = spans.Tracer()
    spans.install(tracer)
    assert Simulation.run is not before[0]
    tracer.restore()
    assert (Simulation.run, TLB.access_substream) == before


def test_refuses_to_run_without_the_source(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", ".work",
                                                  "__pycache__"))
    proc = _bench(tmp_path / "o", "--workload", "trace_replay",
                  cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_compare_refuses_records_from_different_hosts(tmp_path):
    record = {"host": {"cpu_model": "a", "nproc": 2, "python": "3.11.7",
                       "numpy": "2.4.6"},
              "metrics": {"accesses_per_s": 1.0}}
    old, new = tmp_path / "old.json", tmp_path / "new.json"
    old.write_text(json.dumps(record))
    new.write_text(json.dumps(dict(record, host=dict(record["host"],
                                                     nproc=4))))
    assert run.compare([str(old), str(new)]) == 3
    new.write_text(json.dumps(record))
    assert run.compare([str(old), str(new)]) == 0
