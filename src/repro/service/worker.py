"""Pull-based queue worker: claim, execute, stream, complete.

A worker is a plain loop over :meth:`JobQueue.claim`; any number of them
can share one service directory (or the private queue of a local
:func:`~repro.sim.sweep.run_sweep`) with no coordination beyond the
queue database.  Per job:

1. **Recover first.**  If the result cache already holds the job's
   result, a previous owner died between its cache commit and the
   queue transition -- complete the job from the cache without running
   anything (this is the exactly-once recovery path).
2. **Resume where possible.**  A job being *continued* (``claims > 1``
   after a lease expiry, or ``attempts > 0`` after a raise) with
   ``snapshot_every > 0`` runs with ``resume=True``, restoring the last
   epoch checkpoint instead of recomputing finished epochs.
3. **Execute.**  :func:`~repro.sim.sweep.execute_cell` runs the spec,
   streaming heartbeats and traces; an extra epoch hook renews the
   queue lease (throttled to a third of the lease period) and raises
   :class:`LeaseLost` if the lease was usurped -- the worker abandons
   the cell and the new owner's run stands alone.
4. **Commit.**  ``cache.put`` *then* ``queue.complete`` -- the cache
   write is the commit point (see the crash matrix in
   :mod:`repro.service.queue`).

``drain=True`` makes the loop exit once the queue holds no live jobs --
the mode the CLI, the smoke script, CI and local sweeps use; without it
the worker idles waiting for more submissions.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from dataclasses import dataclass
from multiprocessing.connection import wait
from typing import Callable, Dict, Optional, Tuple

from repro.obs.heartbeat import HeartbeatConfig, write_cell_status
from repro.service.queue import (
    FAILED,
    RUNNING,
    JobQueue,
    Job,
    heartbeat_dir,
    new_worker_id,
    queue_path,
)
from repro.sim import cache as result_cache
from repro.sim import sweep

#: Default claim lease.  Far above any epoch duration at test scales, so
#: live workers renew long before expiry; small enough that a killed
#: worker's job re-queues promptly.
DEFAULT_LEASE_S = 30.0

SERVICE_HEARTBEAT = "service"  #: ``Worker(heartbeat=)`` default


class LeaseLost(Exception):
    """Raised mid-run when the queue reports our lease was usurped."""


@dataclass
class WorkerStats:
    executed: int = 0       #: cells run to completion by this worker
    recovered: int = 0      #: completed straight from the cache (step 1)
    resumed: int = 0        #: continuation runs (resume variant executed)
    failures: int = 0       #: executions that raised (fail() recorded)
    lost_leases: int = 0    #: cells abandoned after a usurped lease


class Worker:
    """One pull-based worker bound to a queue directory.

    ``trace``/``heartbeat`` take ``run_sweep``'s configs (``None``: off);
    ``heartbeat`` defaults to the service directory's ``heartbeat_dir``.
    """

    def __init__(self, directory: str, worker_id: Optional[str] = None,
                 lease_s: float = DEFAULT_LEASE_S, poll_s: float = 1.0,
                 drain: bool = False, cache=result_cache.DEFAULT,
                 trace=None, heartbeat=SERVICE_HEARTBEAT):
        self.worker_id = worker_id or new_worker_id()
        self.lease_s = float(lease_s)
        self.poll_s = float(poll_s)
        self.drain = bool(drain)
        self.cache = result_cache.resolve_cache(cache)
        self.stats = WorkerStats()
        self.trace = trace
        if heartbeat == SERVICE_HEARTBEAT:
            heartbeat = HeartbeatConfig(directory=heartbeat_dir(directory))
        self.heartbeat = heartbeat
        self.queue = JobQueue(queue_path(directory))

    # -- the loop ----------------------------------------------------------

    def run(self) -> WorkerStats:
        self.queue.register_worker(self.worker_id)
        try:
            while True:
                if self.step():
                    continue
                if self.drain and self.queue.drained():
                    break
                self.queue.worker_beat(self.worker_id, "idle")
                time.sleep(self.poll_s)
        finally:
            self.queue.worker_beat(
                self.worker_id, "stopped",
                completed=self.stats.executed + self.stats.recovered,
            )
        return self.stats

    def step(self) -> bool:
        """Claim and process one job; False when none was claimable."""
        job = self.queue.claim(self.worker_id, self.lease_s)
        if job is None:
            return False
        self.queue.worker_beat(self.worker_id, "running", current_key=job.key)
        self._process(job)
        return True

    # -- one job -----------------------------------------------------------

    def _process(self, job: Job) -> None:
        spec = job.spec()
        continuation = job.claims > 1 or job.attempts > 0

        # Step 1: exactly-once recovery.  A previous owner may have died
        # after cache.put but before queue.complete -- its result is
        # authoritative, never recompute it.  (Checked specs bypass the
        # cache on enqueue and here: a hit would run no sanitizer.)
        if self.cache is not None and not spec.check_requested:
            hit = self.cache.get(spec)
            if hit is not None:
                if self.queue.complete(job.key, self.worker_id, wall_s=0.0,
                                       resumed=continuation):
                    self.stats.recovered += 1
                    if self.heartbeat is not None:
                        write_cell_status(self.heartbeat, spec, "done",
                                          resumed=continuation, progress=1.0)
                return

        # A continued checkpointing cell runs its resume=True twin (same
        # cache key), restoring the last epoch checkpoint; anything else
        # re-runs from scratch.
        run_spec = (spec.replace(resume=True)
                    if continuation and spec.snapshot_every > 0 else spec)
        renewer = _LeaseRenewer(self.queue, job.key, self.worker_id,
                                self.lease_s)
        ok, result, error = sweep.execute_cell(
            run_spec, trace=self.trace, heartbeat=self.heartbeat,
            epoch_hook=renewer,
        )
        if ok:
            if self.cache is not None:
                self.cache.put(spec, result)  # commit point
            if self.queue.complete(job.key, self.worker_id,
                                   wall_s=result.wall_seconds,
                                   resumed=run_spec.resume or continuation):
                self.stats.executed += 1
                if run_spec.resume:
                    self.stats.resumed += 1
        elif renewer.lost:
            # Usurped: the new owner's run stands; say nothing to the
            # queue (fail() is owner-guarded and would no-op anyway).
            self.stats.lost_leases += 1
        else:
            self.stats.failures += 1
            fail_job(self.queue, job, self.worker_id, error or "unknown",
                     self.heartbeat)


def fail_job(queue: JobQueue, job: Job, worker_id: str, error: str,
             heartbeat: Optional[HeartbeatConfig]) -> None:
    """Charge ``job`` one attempt for ``worker_id``; stamp ``retrying``,
    or ``failed`` once the budget is spent (the cell's own failed
    heartbeat, if any, keeps its error)."""
    if queue.fail(job.key, worker_id, error) and heartbeat is not None:
        fresh = queue.job(job.key)
        write_cell_status(
            heartbeat, job.spec(),
            "failed" if fresh.state == FAILED else "retrying",
            attempts=fresh.attempts,
        )


class _LeaseRenewer:
    """Epoch hook that keeps the claim alive (or aborts the run).

    Renewal is throttled to a third of the lease period -- epoch closes
    at test scales arrive every few milliseconds and each renewal is a
    queue write.  A failed renewal means another worker reclaimed the
    job after our lease lapsed (e.g. the machine was suspended):
    continuing would waste compute and double-write heartbeats, so the
    run is aborted with :class:`LeaseLost` and :attr:`lost` is set, so
    the worker tells a usurped lease from a cell that merely failed.
    """

    def __init__(self, queue: JobQueue, key: str, worker_id: str,
                 lease_s: float):
        self.queue = queue
        self.key = key
        self.worker_id = worker_id
        self.lease_s = float(lease_s)
        self._last_renew = time.time()
        #: True once a renewal was refused (the run was aborted).
        self.lost = False

    def __call__(self, sim) -> None:
        now = time.time()
        if now - self._last_renew < self.lease_s / 3.0:
            return
        if not self.queue.renew(self.key, self.worker_id, self.lease_s,
                                now=now):
            self.lost = True
            raise LeaseLost(
                f"lease on {self.key[:16]} usurped from {self.worker_id}"
            )
        self._last_renew = now


def worker_main(directory: str, drain: bool = True, **kwargs) -> int:
    """Process entry point (``multiprocessing.Process(target=...)``).

    Builds every connection post-fork (SQLite handles must not cross a
    fork) and returns the number of cells this worker completed.
    ``kwargs`` are :class:`Worker`'s.
    """
    stats = Worker(directory, drain=drain, **kwargs).run()
    return stats.executed + stats.recovered


def run_workers(queue: JobQueue, workers: int, poll: Callable[[], None],
                **worker_kwargs) -> None:
    """Fork ``workers`` :func:`worker_main` processes on ``queue`` and
    reap them, calling ``poll`` every ``poll_s``, until all have exited.

    A worker that exits holding a lease died inside its cell (segfault,
    OOM kill, ``os._exit``).  Unlike a killed service worker, whose
    lease just expires, the cell is charged one attempt, as if it had
    raised, and a replacement starts while live jobs remain.
    """
    ctx = multiprocessing.get_context("fork")
    directory = os.path.dirname(queue.path)
    procs: Dict[int, Tuple[str, multiprocessing.Process]] = {}

    def spawn() -> None:
        worker_id = new_worker_id()
        proc = ctx.Process(target=worker_main, args=(directory,),
                           kwargs=dict(worker_kwargs, worker_id=worker_id))
        proc.start()
        procs[proc.sentinel] = (worker_id, proc)

    for _ in range(workers):
        spawn()
    try:
        while procs:
            for sentinel in wait(list(procs), worker_kwargs["poll_s"]):
                worker_id, proc = procs.pop(sentinel)
                proc.join()
                held = [job for job in queue.jobs(RUNNING)
                        if job.lease_owner == worker_id]
                error = f"worker process died (exit code {proc.exitcode})"
                for job in held:
                    fail_job(queue, job, worker_id, error,
                             worker_kwargs.get("heartbeat"))
                if held and not queue.drained():
                    spawn()
            poll()
    finally:
        for _, proc in procs.values():
            proc.terminate()
            proc.join()
