"""Sweep heartbeats: one atomic progress file per executing cell.

A cell's lifecycle -- queued, running, done, failed, cached, attempts,
its error, whether it resumed -- lives in exactly one place: its row in
the sweep's :class:`~repro.service.queue.JobQueue`.  What the queue
cannot know is how far a running simulation has got.  This module gives
the worker executing a cell a write-only channel for that, with one
writer per file:

* each executing cell owns ``<cache_key[:16]>.hb.json`` next to the
  queue's ``queue.db``, rewritten atomically
  (:func:`repro.atomic.atomic_write`) so readers never observe a torn
  JSON document;
* :class:`HeartbeatWriter` hooks the engine's ``epoch_hook`` -- it is a
  pure observer (reads counters, writes files) and never mutates
  simulation state, so heartbeat-enabled runs stay bit-identical;
* :func:`read_progress` is the torn-file-tolerant reader that
  :func:`repro.service.queue.build_status` joins with the queue rows.

Progress file schema (all fields JSON scalars)::

    {"schema": 2, "pid": 1234,
     "epoch": 17, "accesses": 8500000, "target_accesses": 20000000,
     "progress": 0.425,
     "accesses_per_sec": 1.2e6,       # null until post-resume work exists
     "eta_s": 9.6,                    # null whenever the rate is unknown
     "wall_s": 7.1,               # this attempt's wall so far
     "last_checkpoint_epoch": 16, # null until one is taken
     "violations": 0,             # sanitizer findings so far
     "faults": {"dropped_samples": 0, ...}}  # injector stats, if any

Rates and ETA are computed over *this attempt's* work only: a resumed
cell divides post-resume accesses by post-resume wall, so a cell that
spent an hour before being killed does not report a bogus throughput
after its five-second resumed tail.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro.atomic import atomic_write

#: Bump when the progress file layout changes.
#: v2: progress only; lifecycle fields moved to the queue row.
SCHEMA = 2

HEARTBEAT_SUFFIX = ".hb.json"


@dataclass
class HeartbeatStats:
    """Module-wide write-path error tally (mirrors ``CacheStats.errors``)."""

    errors: int = 0


#: Process-wide error counter for the progress write path: serialization
#: failures and failed commits both land here (the temp file is always
#: cleaned up regardless).
STATS = HeartbeatStats()


def _write_atomic(path: str, payload: Dict[str, Any]) -> None:
    """Write ``payload`` as JSON such that readers never see a torn file."""
    try:
        with atomic_write(path, "w") as fh:
            json.dump(payload, fh)
    except BaseException:
        STATS.errors += 1
        raise


@dataclass(frozen=True)
class HeartbeatConfig:
    """Picklable heartbeat request for :func:`repro.sim.sweep.run_sweep`.

    ``directory`` holds the sweep's queue (``queue.db``) and one
    progress file per executed cell; ``min_interval_s`` throttles how
    often a running worker rewrites its file (epoch closes arrive far
    faster than any human or scraper reads).
    """

    directory: str
    min_interval_s: float = 0.25

    def cell_path(self, spec) -> str:
        return os.path.join(
            self.directory, f"{spec.cache_key()[:16]}{HEARTBEAT_SUFFIX}"
        )


class HeartbeatWriter:
    """One executing cell's progress channel (worker side).

    Wire :meth:`on_epoch` as the simulation's ``epoch_hook`` and call
    :meth:`flush` once the run ends (either way), so the file holds the
    final epoch.  Purely observational: reads engine/sanitizer/fault
    state, writes files.
    """

    def __init__(self, config: HeartbeatConfig, spec):
        self.config = config
        self.path = config.cell_path(spec)
        self.started_at = time.time()
        self._last_write = 0.0
        self._sim = None

    def status(self, sim, now: Optional[float] = None) -> Dict[str, Any]:
        """Build the progress payload from a live simulation."""
        now = time.time() if now is None else now
        elapsed = now - self.started_at
        wall = max(elapsed, 1e-9)
        accesses = int(sim.metrics.total_accesses)
        budget = sim._access_budget
        target = float(sim.workload.total_accesses)
        if budget is not None and budget != float("inf"):
            target = min(target, float(budget))
        done_frac = min(accesses / target, 1.0) if target > 0 else 0.0
        progressed = accesses - int(sim._resume_accesses)
        remaining = max(target - accesses, 0.0)
        # A just-(re)started cell has done no post-resume work yet: with
        # ~0 elapsed or 0 progressed accesses any rate is either a
        # division hazard or wildly extrapolated nonsense (a resumed
        # cell's pre-kill accesses all land in the first instant).
        # Report unknown (null) instead; the dashboard renders "-".
        if progressed <= 0 or elapsed < 1e-6:
            rate = None
            eta_s = None
        else:
            rate = progressed / wall
            eta_s = remaining / rate if rate > 0 else None
        findings = sim.obs.counters.get("check/findings")
        return {
            "schema": SCHEMA,
            "pid": os.getpid(),
            "epoch": int(sim._epoch_index),
            "accesses": accesses,
            "target_accesses": int(target),
            "progress": done_frac,
            "accesses_per_sec": rate,
            "eta_s": eta_s,
            "wall_s": wall,
            "last_checkpoint_epoch": sim._last_checkpoint_epoch,
            "violations": int(findings.value) if findings is not None else 0,
            "faults": dict(sim.faults.stats) if sim.faults is not None
            else None,
        }

    def write(self, payload: Dict[str, Any]) -> None:
        _write_atomic(self.path, payload)
        self._last_write = time.time()

    def on_epoch(self, sim) -> None:
        """Engine ``epoch_hook``: refresh progress, throttled by interval."""
        self._sim = sim
        now = time.time()
        if now - self._last_write >= self.config.min_interval_s:
            self.write(self.status(sim, now=now))

    def flush(self) -> None:
        """Unthrottled final write (no-op before the first epoch)."""
        if self._sim is not None:
            self.write(self.status(self._sim))


def read_progress(directory: str) -> Dict[str, Dict[str, Any]]:
    """``{key[:16]: payload}`` for every progress file in ``directory``.

    Unreadable or torn files are skipped (a writer may be mid-replace on
    a filesystem without atomic rename semantics).
    """
    progress: Dict[str, Dict[str, Any]] = {}
    try:
        names = os.listdir(directory)
    except OSError:
        return progress
    for name in names:
        if not name.endswith(HEARTBEAT_SUFFIX):
            continue
        try:
            with open(os.path.join(directory, name)) as fh:
                payload = json.load(fh)
        except (OSError, ValueError):
            continue
        if isinstance(payload, dict):
            progress[name[:-len(HEARTBEAT_SUFFIX)]] = payload
    return progress


def display_state(cell: Dict[str, Any]) -> str:
    """Dashboard state for one joined cell: a running row whose lease
    expired is ``stalled``, a completed continuation is ``resumed``."""
    state = str(cell.get("state", "unknown"))
    if cell.get("stalled"):
        return "stalled"
    if state == "done" and cell.get("resumed"):
        return "resumed"
    return state


def aggregate(cells) -> Dict[str, Any]:
    """Sweep-level tallies for the dashboard header / exporter."""
    states: Dict[str, int] = {}
    throughput = 0.0
    accesses = 0
    violations = 0
    for cell in cells:
        state = display_state(cell)
        states[state] = states.get(state, 0) + 1
        if state == "running":
            throughput += float(cell.get("accesses_per_sec") or 0.0)
        accesses += int(cell.get("accesses") or 0)
        violations += int(cell.get("violations") or 0)
    return {
        "cells": len(cells),
        "states": states,
        "running_accesses_per_sec": throughput,
        "total_accesses": accesses,
        "violations": violations,
    }
