"""Perf-regression radar over the committed ``BENCH_*.json`` trajectory.

``benchmarks/record_bench.py`` records one engine-throughput snapshot
per PR (``BENCH_<pr>.json``); this module is the analysis layer over
that growing history:

* :func:`load_history` loads every committed ``BENCH_*.json`` in PR
  order;
* :func:`trend_table` renders the normalised per-scenario trajectory
  across history (how each scenario moved, PR by PR);
* :func:`compare_docs` diffs a current recording against a committed
  one -- normalised by each file's in-file baseline scenario so a
  uniformly faster/slower machine cancels out -- and reports per-row
  deltas plus the headline macro/per-event ratio gate;
* :func:`radar` is the CI entry: compare the newest recording against
  the newest committed point, print the readable delta table (and the
  trend), exit non-zero on regression beyond tolerance.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from typing import Any, Dict, List, Optional, Tuple

from repro.analysis.tables import format_table

#: Recording layout version understood by this radar.
FORMAT = 1
#: Normalisation anchor: every scenario's throughput is divided by this
#: scenario's, within the same file, before any cross-file comparison.
BASELINE_SCENARIO = "synthetic_2m_per_event"
#: Allowed normalised-throughput regression (fraction).
TOLERANCE = 0.20
#: Acceptance gate carried since PR 7: (fast scenario, slow scenario,
#: minimum ratio) -- the coalescer must hold this speedup on trace replay.
HEADLINE = ("trace_10m_macro", "trace_10m_per_event", 3.0)

_BENCH_RE = re.compile(r"^BENCH_(\d+)\.json$")


def default_bench_dir() -> str:
    """The repo's committed ``benchmarks/`` directory."""
    here = os.path.dirname(os.path.abspath(__file__))
    return os.path.join(os.path.dirname(os.path.dirname(
        os.path.dirname(here))), "benchmarks")


def load_history(bench_dir: Optional[str] = None
                 ) -> List[Tuple[int, Dict[str, Any]]]:
    """All committed ``BENCH_<n>.json`` docs as ``[(n, doc), ...]``, sorted."""
    bench_dir = bench_dir or default_bench_dir()
    points = []
    for name in os.listdir(bench_dir):
        match = _BENCH_RE.match(name)
        if not match:
            continue
        with open(os.path.join(bench_dir, name)) as fh:
            points.append((int(match.group(1)), json.load(fh)))
    points.sort()
    return points


def normalized(doc: Dict[str, Any]) -> Dict[str, float]:
    """Per-scenario throughput divided by the in-file baseline's."""
    scenarios = doc["scenarios"]
    base = float(scenarios[BASELINE_SCENARIO]["accesses_per_sec"])
    return {
        name: float(entry["accesses_per_sec"]) / base
        for name, entry in scenarios.items()
    }


def headline_ratio(doc: Dict[str, Any]) -> float:
    fast, slow, _ = HEADLINE
    scenarios = doc["scenarios"]
    return (float(scenarios[fast]["accesses_per_sec"])
            / float(scenarios[slow]["accesses_per_sec"]))


def compare_docs(old: Dict[str, Any], new: Dict[str, Any],
                 tolerance: float = TOLERANCE,
                 headline: Tuple[str, str, float] = HEADLINE
                 ) -> Dict[str, Any]:
    """Diff two recordings; returns ``{rows, failures, ok, headline_ratio}``.

    ``rows`` is one entry per scenario (old/new normalised throughput,
    floor, status) ready for :func:`format_report`; ``failures`` lists
    human-readable regression reasons (config mismatch counts as one).
    """
    failures: List[str] = []
    rows: List[Dict[str, Any]] = []
    if old.get("config") != new.get("config"):
        failures.append(
            "config mismatch: the pinned scales changed; re-record the "
            "committed trajectory"
        )
        return {"rows": rows, "failures": failures, "ok": False,
                "headline_ratio": None}
    old_norm, new_norm = normalized(old), normalized(new)
    for name in sorted(old_norm):
        if name not in new_norm:
            failures.append(f"{name}: missing from the current recording")
            continue
        floor = old_norm[name] * (1 - tolerance)
        regressed = new_norm[name] < floor
        rows.append({
            "scenario": name,
            "old": old_norm[name],
            "new": new_norm[name],
            "delta_pct": (new_norm[name] / old_norm[name] - 1.0) * 100.0,
            "floor": floor,
            "status": "REGRESSED" if regressed else "ok",
        })
        if regressed:
            failures.append(
                f"{name}: normalised throughput {new_norm[name]:.2f} "
                f"below floor {floor:.2f}"
            )
    fast, slow, target = headline
    if fast in new.get("scenarios", {}) and slow in new.get("scenarios", {}):
        ratio = headline_ratio(new)
        if ratio < target:
            failures.append(f"headline {fast}/{slow} ratio {ratio:.2f}x "
                            f"below {target}x")
    else:
        ratio = None
        failures.append(
            f"headline {fast}/{slow}: scenario missing from the current "
            "recording"
        )
    return {"rows": rows, "failures": failures, "ok": not failures,
            "headline_ratio": ratio}


def format_report(report: Dict[str, Any]) -> str:
    """Human-readable delta table + headline + failure lines."""
    lines = []
    if report["rows"]:
        lines.append(format_table(
            ["scenario", "committed", "current", "delta %", "floor",
             "status"],
            [
                [row["scenario"], f"{row['old']:.2f}", f"{row['new']:.2f}",
                 f"{row['delta_pct']:+.1f}", f"{row['floor']:.2f}",
                 row["status"]]
                for row in report["rows"]
            ],
            title="normalised throughput vs committed trajectory",
        ))
    if report["headline_ratio"] is not None:
        fast, slow, target = HEADLINE
        lines.append(f"headline {fast}/{slow}: "
                     f"{report['headline_ratio']:.2f}x (target >= {target}x)")
    for failure in report["failures"]:
        lines.append(f"FAIL: {failure}")
    if report["ok"]:
        lines.append("radar: no regression beyond tolerance")
    return "\n".join(lines)


def trend_table(history: List[Tuple[int, Dict[str, Any]]]) -> str:
    """Normalised per-scenario trajectory across the committed history."""
    if not history:
        return "(no committed BENCH_*.json history)"
    scenarios = sorted({
        name for _, doc in history for name in doc.get("scenarios", {})
    })
    rows = []
    for name in scenarios:
        row: List[Any] = [name]
        for _, doc in history:
            norm = normalized(doc) if name in doc.get("scenarios", {}) else {}
            row.append(f"{norm[name]:.2f}" if name in norm else "-")
        rows.append(row)
    return format_table(
        ["scenario"] + [f"PR {n}" for n, _ in history], rows,
        title="normalised throughput trajectory (per committed point)",
    )


def radar(current_path: str, bench_dir: Optional[str] = None,
          tolerance: float = TOLERANCE, out_path: Optional[str] = None
          ) -> int:
    """CI entry: current recording vs the newest committed point.

    Prints the trend across all committed points plus the delta table;
    writes the same text to ``out_path`` when given (the CI artifact).
    Returns a process exit code (0 ok, 1 regression / no history).
    """
    history = load_history(bench_dir)
    text_parts = [trend_table(history)]
    if not history:
        text_parts.append("FAIL: no committed BENCH_*.json to compare "
                          "against")
        code = 1
    else:
        with open(current_path) as fh:
            current = json.load(fh)
        report = compare_docs(history[-1][1], current, tolerance=tolerance)
        text_parts.append(format_report(report))
        code = 0 if report["ok"] else 1
    text = "\n\n".join(text_parts)
    print(text)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Perf-regression radar over committed BENCH_*.json",
    )
    parser.add_argument("--bench-dir", default=None,
                        help="directory holding BENCH_*.json "
                             "(default: the repo's benchmarks/)")
    parser.add_argument("--current", required=True,
                        help="freshly recorded benchmark JSON to vet")
    parser.add_argument("--tolerance", type=float, default=TOLERANCE,
                        help="allowed normalised regression fraction "
                             f"(default {TOLERANCE})")
    parser.add_argument("--out", default=None,
                        help="also write the report text to this path")
    args = parser.parse_args(argv)
    return radar(args.current, bench_dir=args.bench_dir,
                 tolerance=args.tolerance, out_path=args.out)


if __name__ == "__main__":
    sys.exit(main())
