"""Perf-regression radar: trajectory loading, diffing, and CI gating.

Uses the committed ``benchmarks/BENCH_*.json`` history as the real
fixture (the radar must pass on it verbatim) plus synthetic recordings
for the regression / config-mismatch paths.
"""

import copy
import json
import os

from repro.analysis.trajectory import (
    BASELINE_SCENARIO,
    HEADLINE,
    compare_docs,
    default_bench_dir,
    format_report,
    headline_ratio,
    load_history,
    main,
    normalized,
    radar,
    trend_table,
)

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _history():
    history = load_history()
    assert history, "no committed BENCH_*.json -- trajectory broken"
    return history


def _latest_doc():
    return copy.deepcopy(_history()[-1][1])


def _regressed_doc(factor=0.5, scenario=HEADLINE[0]):
    """The committed doc with one scenario's throughput scaled down."""
    doc = _latest_doc()
    entry = doc["scenarios"][scenario]
    entry["accesses_per_sec"] = int(entry["accesses_per_sec"] * factor)
    return doc


class TestHistory:
    def test_default_bench_dir_is_committed_benchmarks(self):
        assert default_bench_dir() == os.path.join(REPO, "benchmarks")
        assert os.path.isdir(default_bench_dir())

    def test_load_history_sorted_and_well_formed(self):
        history = _history()
        numbers = [n for n, _ in history]
        assert numbers == sorted(numbers)
        for _, doc in history:
            assert BASELINE_SCENARIO in doc["scenarios"]
            assert headline_ratio(doc) >= HEADLINE[2], \
                "committed point violates its own headline gate"

    def test_load_history_ignores_strangers(self, tmp_path):
        (tmp_path / "BENCH_3.json").write_text(json.dumps(_latest_doc()))
        (tmp_path / "BENCH_12.json").write_text(json.dumps(_latest_doc()))
        (tmp_path / "BENCH_notes.txt").write_text("x")
        (tmp_path / "README.md").write_text("x")
        assert [n for n, _ in load_history(str(tmp_path))] == [3, 12]

    def test_normalized_baseline_is_one(self):
        norm = normalized(_latest_doc())
        assert norm[BASELINE_SCENARIO] == 1.0
        assert all(v > 0 for v in norm.values())


class TestCompare:
    def test_identical_docs_pass(self):
        doc = _latest_doc()
        report = compare_docs(doc, copy.deepcopy(doc))
        assert report["ok"] and not report["failures"]
        assert all(row["status"] == "ok" for row in report["rows"])
        assert report["headline_ratio"] >= HEADLINE[2]

    def test_uniform_machine_speed_cancels(self):
        old = _latest_doc()
        new = copy.deepcopy(old)
        for entry in new["scenarios"].values():  # half-speed machine
            entry["accesses_per_sec"] = entry["accesses_per_sec"] / 2.0
        report = compare_docs(old, new)
        assert report["ok"], report["failures"]

    def test_regression_detected_with_readable_table(self):
        report = compare_docs(_latest_doc(), _regressed_doc(0.5))
        assert not report["ok"]
        regressed = [r for r in report["rows"] if r["status"] == "REGRESSED"]
        assert [r["scenario"] for r in regressed] == [HEADLINE[0]]
        assert any(HEADLINE[0] in f for f in report["failures"])
        # Halving the headline-fast scenario also breaks the >=3x gate.
        assert any("headline" in f for f in report["failures"])
        text = format_report(report)
        assert "REGRESSED" in text and "delta %" in text
        assert "FAIL:" in text and "-50" in text

    def test_within_tolerance_passes(self):
        report = compare_docs(_latest_doc(),
                              _regressed_doc(0.9, "synthetic_2m_macro"))
        assert report["ok"], report["failures"]

    def test_config_mismatch_is_a_failure(self):
        new = _latest_doc()
        new["config"]["seed"] = 999
        report = compare_docs(_latest_doc(), new)
        assert not report["ok"]
        assert any("config mismatch" in f for f in report["failures"])

    def test_missing_scenario_is_a_failure(self):
        new = _latest_doc()
        del new["scenarios"]["trace_10m_macro"]
        report = compare_docs(_latest_doc(), new)
        assert not report["ok"]
        assert any("missing" in f for f in report["failures"])


class TestTrend:
    def test_trend_table_has_all_points(self):
        history = _history()
        text = trend_table(history)
        for n, _ in history:
            assert f"PR {n}" in text
        for name in history[-1][1]["scenarios"]:
            assert name in text

    def test_trend_table_empty_history(self):
        assert "no committed" in trend_table([])


class TestRadarCli:
    def test_passes_on_committed_history(self, tmp_path, capsys):
        current = tmp_path / "current.json"
        current.write_text(json.dumps(_latest_doc()))
        out = tmp_path / "delta.txt"
        assert main(["--current", str(current), "--out", str(out)]) == 0
        text = out.read_text()
        assert "no regression beyond tolerance" in text
        assert "trajectory" in text  # trend table present in the artifact
        assert capsys.readouterr().out.strip() + "\n" == text

    def test_fails_nonzero_on_synthetic_regression(self, tmp_path, capsys):
        current = tmp_path / "current.json"
        current.write_text(json.dumps(_regressed_doc(0.5)))
        assert radar(str(current)) == 1
        out = capsys.readouterr().out
        assert "REGRESSED" in out and "FAIL:" in out

    def test_fails_without_history(self, tmp_path, capsys):
        empty = tmp_path / "bench"
        empty.mkdir()
        current = tmp_path / "current.json"
        current.write_text(json.dumps(_latest_doc()))
        assert radar(str(current), bench_dir=str(empty)) == 1
        assert "no committed BENCH_" in capsys.readouterr().out

    def test_custom_tolerance(self, tmp_path):
        current = tmp_path / "current.json"
        # 10% down on a non-headline scenario: fails only at 5% tolerance.
        current.write_text(
            json.dumps(_regressed_doc(0.9, "synthetic_2m_macro")))
        assert radar(str(current), tolerance=0.05) == 1
        assert radar(str(current), tolerance=0.20) == 0
