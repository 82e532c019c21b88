"""Sweep executor: run :class:`RunSpec` cells through a private job queue.

Reproducing a paper figure means sweeping a grid of configurations --
Fig. 5 alone is 8 workloads x 7 policies x 3 ratios plus 24 shared
baselines.  :func:`run_sweep` enqueues any collection of specs into a
:mod:`repro.service` job queue in a temporary directory and drains it
with queue workers, so local sweeps and the sweep service share one
scheduler, one commit point and one attempt ledger.  Sweeps are:

* **deduplicated** -- identical specs (notably the all-capacity
  baselines shared by every policy in a (workload, ratio) cell) are
  executed exactly once, regardless of how many times they appear;
* **cached** -- specs whose results are already in the persistent
  :mod:`repro.sim.cache` never reach a worker; workers commit results
  to the cache, and the parent reads them back from it;
* **parallel** -- ``jobs=1`` runs one worker in-process, otherwise up
  to ``jobs`` forked workers claim cells in submission order, with
  bit-identical results (every simulation derives its randomness from
  the spec seed);
* **fault-isolated** -- a cell that raises, or whose worker process
  dies outright, is retried ``retries`` times and then reported as a
  failed :class:`CellOutcome` while the rest of the sweep completes;
* **observable** -- a ``progress`` callback receives a
  :class:`SweepEvent` per cell transition; pass a :class:`TraceConfig`
  to additionally capture a structured trace per executed cell (cached
  cells get a stub file annotated ``from_cache``).

:func:`timing_summary` aggregates wall-clock statistics over a finished
sweep, *excluding* cached cells (their ``wall_seconds`` is zeroed and
would otherwise skew the mean and percentiles toward zero).

The default worker count comes from :func:`set_default_jobs` (set by the
CLI ``--jobs`` flag) or the ``REPRO_JOBS`` environment variable.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Optional, Sequence, Tuple

from repro.obs.heartbeat import (
    HeartbeatConfig,
    HeartbeatWriter,
    write_cell_status,
    write_manifest,
)
from repro.sim import cache as result_cache
from repro.sim.engine import SimResult
from repro.sim.runner import RunSpec

# -- default parallelism ------------------------------------------------------

_default_jobs: Optional[int] = None


def set_default_jobs(jobs: Optional[int]) -> None:
    """Set the process-wide default worker count (``None`` resets)."""
    global _default_jobs
    _default_jobs = None if jobs is None else max(1, int(jobs))


def default_jobs() -> int:
    """Configured default, else ``$REPRO_JOBS``, else 1 (serial)."""
    if _default_jobs is not None:
        return _default_jobs
    env = os.environ.get("REPRO_JOBS", "")
    try:
        return max(1, int(env))
    except ValueError:
        return 1


# -- per-cell tracing ---------------------------------------------------------

#: File extension per trace export format.
_TRACE_EXT = {"chrome": "json", "jsonl": "jsonl", "ascii": "txt"}


@dataclass(frozen=True)
class TraceConfig:
    """Picklable per-cell tracing request for :func:`run_sweep`.

    ``directory`` receives one trace file per cell, named by the cell's
    content hash (``<cache_key[:16]>.<ext>``) so files are stable across
    re-runs.  ``categories=None`` means all categories.
    """

    directory: str
    level: str = "info"
    categories: Optional[Tuple[str, ...]] = None
    fmt: str = "chrome"
    capacity: int = 1 << 16

    def __post_init__(self):
        if self.fmt not in _TRACE_EXT:
            raise ValueError(
                f"unknown trace format {self.fmt!r}; "
                f"expected one of {sorted(_TRACE_EXT)}"
            )
        if self.categories is not None and not isinstance(
            self.categories, tuple
        ):
            object.__setattr__(self, "categories", tuple(self.categories))

    def cell_path(self, spec: RunSpec) -> str:
        return os.path.join(
            self.directory,
            f"{spec.cache_key()[:16]}.{_TRACE_EXT[self.fmt]}",
        )


def _export_cell_trace(trace: TraceConfig, spec: RunSpec, obs, result) -> None:
    from repro.obs.export import export_tracer

    os.makedirs(trace.directory, exist_ok=True)
    export_tracer(
        obs.tracer, trace.cell_path(spec), fmt=trace.fmt,
        phase_ns=result.phase_ns,
        meta={"spec": spec.to_dict(), "from_cache": False},
    )


def _write_cached_stub(trace: TraceConfig, spec: RunSpec) -> None:
    """Annotate a cache hit: no events were captured for this cell.

    A real trace from an earlier (uncached) run of the same cell is
    left untouched -- the stub only fills the gap.
    """
    os.makedirs(trace.directory, exist_ok=True)
    path = trace.cell_path(spec)
    if os.path.exists(path):
        return
    meta = {"spec": spec.to_dict(), "from_cache": True}
    if trace.fmt == "chrome":
        with open(path, "w") as fh:
            json.dump({"traceEvents": [], "displayTimeUnit": "ms",
                       "otherData": meta}, fh)
    elif trace.fmt == "jsonl":
        with open(path, "w") as fh:
            fh.write(json.dumps({"type": "meta", **meta}) + "\n")
    else:
        with open(path, "w") as fh:
            fh.write("(from cache: no events captured)\n")


# -- outcomes and progress ----------------------------------------------------


@dataclass
class CellOutcome:
    """What happened to one sweep cell."""

    spec: RunSpec
    result: Optional[SimResult] = None
    error: Optional[str] = None
    from_cache: bool = False
    attempts: int = 0
    #: True when the (final) attempt restored an epoch checkpoint: its
    #: ``result.wall_seconds`` covers post-resume work only.
    resumed: bool = False

    @property
    def ok(self) -> bool:
        return self.result is not None


@dataclass
class SweepEvent:
    """Progress notification for one completed (or retried) cell."""

    status: str  #: "cached" | "done" | "failed" | "retry"
    spec: RunSpec
    completed: int
    total: int
    error: Optional[str] = None

    @property
    def message(self) -> str:
        tag = {"cached": " [cached]", "failed": " [FAILED]",
               "retry": " [retrying]"}.get(self.status, "")
        return f"{self.spec.label()}{tag} ({self.completed}/{self.total})"


ProgressFn = Callable[[SweepEvent], None]


# -- execution ----------------------------------------------------------------

#: Local workers (and the parent's progress reads) poll every 50 ms:
#: the drain tail of a sweep waits on it.
_LOCAL_POLL_S = 0.05


def execute_cell(
    spec: RunSpec, trace: Optional[TraceConfig] = None,
    heartbeat: Optional[HeartbeatConfig] = None,
    epoch_hook: Optional[Callable] = None,
) -> Tuple[bool, Optional[SimResult], Optional[str]]:
    """Execute one spec; never raises for ordinary cell errors.

    Runs without touching the cache: the queue pre-filters hits and
    the queue worker commits successes.  With ``trace``, the run is
    traced and the events exported to the trace directory
    before returning (tracing never changes simulation results).  With
    ``heartbeat``, the cell streams its status into the heartbeat
    directory per epoch and stamps a terminal ``done``/``failed`` state.
    An extra ``epoch_hook`` (e.g. the service worker's lease renewal)
    is chained after the heartbeat's own hook.

    Only :class:`Exception` is converted into a failed-cell tuple;
    ``KeyboardInterrupt``/``SystemExit`` propagate so Ctrl-C cancels a
    sweep instead of burning retries on every in-flight cell.

    Queue workers call it through this module at call time, so tests
    can patch ``repro.sim.sweep.execute_cell``.
    """
    hb = None
    if heartbeat is not None:
        hb = HeartbeatWriter(heartbeat, spec, resumed=spec.resume)
        hb.start()
    try:
        obs = None
        if trace is not None:
            from repro.obs import Observability

            obs = Observability.traced(
                level=trace.level, events=trace.categories,
                capacity=trace.capacity,
            )
        hooks = [h for h in (hb.on_epoch if hb else None, epoch_hook) if h]

        def hook(sim):
            for each in hooks:
                each(sim)

        result = spec.execute(obs=obs, epoch_hook=hook)
        if trace is not None:
            _export_cell_trace(trace, spec, obs, result)
        if hb is not None:
            hb.finish("done")
        return True, result, None
    except Exception:
        error = traceback.format_exc()
        if hb is not None:
            hb.finish("failed", error=error)
        return False, None, error


def run_sweep(
    specs: Iterable[RunSpec],
    jobs: Optional[int] = None,
    cache=result_cache.DEFAULT,
    progress: Optional[ProgressFn] = None,
    retries: int = 1,
    trace: Optional[TraceConfig] = None,
    heartbeat: Optional[HeartbeatConfig] = None,
) -> Dict[RunSpec, CellOutcome]:
    """Execute every distinct spec; returns ``{spec: CellOutcome}``.

    Results for duplicate specs are shared; input order is preserved in
    the returned mapping.  Failed cells never abort the sweep -- check
    ``outcome.ok`` (or use :func:`raise_failures`).  With ``trace``,
    each executed cell writes a trace file into ``trace.directory``;
    cache hits get a stub annotated ``from_cache`` instead.  With
    ``heartbeat``, the sweep becomes observable from outside: the
    parent writes a manifest plus ``cached`` stamps, and every
    executing cell streams per-epoch status files (``repro top``
    renders them live).

    Retries are checkpoint-aware: a failed (or killed) cell whose spec
    has ``snapshot_every > 0`` is re-run with ``resume=True``, so the
    retry continues from the failed attempt's last epoch checkpoint
    instead of recomputing finished epochs.
    """
    from repro.service.queue import CACHED, DONE, FAILED, JobQueue, queue_path
    from repro.service.worker import Worker, run_workers

    ordered = list(dict.fromkeys(specs))
    jobs = default_jobs() if jobs is None else max(1, int(jobs))
    cache = result_cache.resolve_cache(cache)
    sweep_started = time.time()
    if heartbeat is not None:
        write_manifest(heartbeat, ordered, started_at=sweep_started)
    with tempfile.TemporaryDirectory(prefix="repro-sweep-") as tmp:
        if cache is None:
            # Results still travel through a cache, so the workers'
            # cache write stays the one commit point.
            cache = result_cache.ResultCache(os.path.join(tmp, "results"))
        with JobQueue(queue_path(tmp)) as queue:
            report = queue.enqueue(ordered, cache, max_attempts=retries + 1)
            events = _EventLog(queue, dict(zip(report.keys, ordered)),
                               progress)
            for job in queue.jobs(CACHED):  # no worker ever sees these
                spec = events.specs[job.key]
                if trace is not None:
                    _write_cached_stub(trace, spec)
                if heartbeat is not None:
                    write_cell_status(heartbeat, spec, "cached", progress=1.0)
            events.poll()
            worker_kwargs = dict(poll_s=_LOCAL_POLL_S, drain=True,
                                 cache=cache, trace=trace, heartbeat=heartbeat)
            if jobs == 1 and report.queued:
                worker = Worker(tmp, **worker_kwargs)
                with worker.queue:
                    while worker.step():
                        events.poll()
            elif report.queued:
                run_workers(queue, min(jobs, report.queued), events.poll,
                            **worker_kwargs)
            rows = {job.key: job for job in queue.jobs()}
            outcomes = {}
            for spec, key in zip(ordered, report.keys):
                job = rows[key]
                result = cache.get(spec) if job.state != FAILED else None
                cached = job.state == CACHED and result is not None
                if cached:
                    # Mirror RunSpec.run(): a cached cell did no simulation
                    # work, so it must not replay the original wall time.
                    result.wall_seconds, result.from_cache = 0.0, True
                outcomes[spec] = CellOutcome(
                    spec, result=result, from_cache=cached,
                    error=None if result is not None else (
                        job.error or f"no result (job left {job.state})"),
                    # Executions: the failed ones plus the one that won.
                    attempts=job.attempts + (job.state == DONE),
                    # The final attempt ran with resume=True iff it
                    # continued an earlier claim of a checkpointing cell.
                    resumed=job.claims > 1 and spec.snapshot_every > 0,
                )
    if heartbeat is not None:
        write_manifest(heartbeat, ordered, started_at=sweep_started,
                       finished_at=time.time())
    return outcomes


@dataclass
class _EventLog:
    """The one place queue transitions become sweep events: job states
    double as event statuses, and every attempt a job burned without
    ending is a ``retry``.  ``specs`` maps job keys to specs."""

    queue: object
    specs: Dict[str, RunSpec]
    progress: Optional[ProgressFn]
    completed: int = 0
    seen: Dict[str, Tuple[str, int]] = field(default_factory=dict)

    def poll(self) -> None:
        from repro.service.queue import FAILED, QUEUED, TERMINAL_JOB_STATES

        if self.progress is None:
            return
        for job in self.queue.jobs():
            before = self.seen.get(job.key, (QUEUED, 0))
            if (job.state, job.attempts) == before:
                continue
            self.seen[job.key] = (job.state, job.attempts)
            spec, total = self.specs[job.key], len(self.specs)
            for _ in range(job.attempts - before[1] - (job.state == FAILED)):
                self.progress(SweepEvent("retry", spec, self.completed,
                                         total, error=job.error))
            if job.state in TERMINAL_JOB_STATES:
                self.completed += 1
                self.progress(SweepEvent(
                    job.state, spec, self.completed, total,
                    error=job.error if job.state == FAILED else None,
                ))


class SweepError(RuntimeError):
    """Raised by :func:`raise_failures` when any sweep cell failed."""

    def __init__(self, failures: Sequence[CellOutcome]):
        self.failures = list(failures)
        lines = [f"{len(self.failures)} sweep cell(s) failed:"]
        for outcome in self.failures:
            last = (outcome.error or "").strip().splitlines()
            lines.append(
                f"  - {outcome.spec.label()} "
                f"(attempts={outcome.attempts}): {last[-1] if last else '?'}"
            )
        super().__init__("\n".join(lines))


def raise_failures(outcomes: Dict[RunSpec, CellOutcome]) -> None:
    """Raise :class:`SweepError` if any outcome failed; else no-op."""
    failures = [o for o in outcomes.values() if not o.ok]
    if failures:
        raise SweepError(failures)


def _percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile over an already-sorted sequence."""
    if not sorted_values:
        return 0.0
    rank = max(0, min(len(sorted_values) - 1,
                      int(round(q * (len(sorted_values) - 1)))))
    return sorted_values[rank]


def timing_summary(outcomes) -> Dict[str, float]:
    """Wall-clock statistics over a sweep, excluding cached cells.

    Cached cells carry ``wall_seconds == 0.0`` (they did no simulation
    work), so including them would drag the mean and percentiles toward
    zero; they are counted separately instead.  Resumed cells (retries
    that restored an epoch checkpoint) are counted under ``resumed``;
    their ``wall_seconds`` covers the post-resume attempt only -- the
    engine times each ``run()`` call fresh, so a killed first attempt's
    wall never leaks into the resumed result.  Accepts the mapping
    returned by :func:`run_sweep` or any iterable of
    :class:`CellOutcome`.
    """
    cells = list(outcomes.values()) if isinstance(outcomes, dict) \
        else list(outcomes)
    cached = sum(1 for o in cells if o.ok and o.from_cache)
    failed = sum(1 for o in cells if not o.ok)
    resumed = sum(
        1 for o in cells if o.ok and getattr(o, "resumed", False)
    )
    walls = sorted(
        o.result.wall_seconds for o in cells if o.ok and not o.from_cache
    )
    n = len(walls)
    return {
        "cells": len(cells),
        "executed": n,
        "cached": cached,
        "failed": failed,
        "resumed": resumed,
        "wall_total_s": float(sum(walls)),
        "wall_mean_s": float(sum(walls) / n) if n else 0.0,
        "wall_min_s": float(walls[0]) if n else 0.0,
        "wall_max_s": float(walls[-1]) if n else 0.0,
        "wall_p50_s": float(_percentile(walls, 0.50)),
        "wall_p90_s": float(_percentile(walls, 0.90)),
    }
