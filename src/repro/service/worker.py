"""Pull-based service worker: claim, execute, stream, complete.

A worker is a plain loop over :meth:`JobQueue.claim`; any number of them
can share one service directory with no coordination beyond the queue
database.  Per job:

1. **Recover first.**  If the persistent result cache already holds the
   job's result, a previous owner died between its cache commit and the
   queue transition -- complete the job from the cache without running
   anything (this is the exactly-once recovery path).
2. **Resume where possible.**  A job being *continued* (``claims > 1``
   after a lease expiry, or ``attempts > 0`` after a raise) runs the
   :func:`~repro.sim.sweep.resume_variant`, restoring the last epoch
   checkpoint instead of recomputing finished epochs.
3. **Execute through the shared cell path.**  The same
   :func:`~repro.sim.sweep.execute_cell` that backs ``run_sweep``
   workers runs the spec, streaming per-epoch heartbeats into the
   service's heartbeat directory; an extra epoch hook renews the queue
   lease (throttled to a third of the lease period) and raises
   :class:`LeaseLost` if the lease was usurped -- the worker abandons
   the cell and the new owner's run stands alone.
4. **Commit.**  ``cache.put`` *then* ``queue.complete`` -- the cache
   write is the commit point (see the crash matrix in
   :mod:`repro.service.queue`).

``drain=True`` makes the loop exit once the queue holds no live jobs --
the mode the CLI, the smoke script and CI use; without it the worker
idles waiting for more submissions.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

from repro.obs.heartbeat import HeartbeatConfig, write_cell_status
from repro.service.queue import (
    FAILED,
    JobQueue,
    Job,
    heartbeat_dir,
    new_worker_id,
    queue_path,
)
from repro.sim import cache as result_cache
from repro.sim.sweep import execute_cell, resume_variant

#: Default claim lease.  Far above any epoch duration at test scales, so
#: live workers renew long before expiry; small enough that a killed
#: worker's job re-queues promptly.
DEFAULT_LEASE_S = 30.0


class LeaseLost(Exception):
    """Raised mid-run when the queue reports our lease was usurped."""


@dataclass
class WorkerStats:
    executed: int = 0       #: cells run to completion by this worker
    recovered: int = 0      #: completed straight from the cache (step 1)
    resumed: int = 0        #: continuation runs (resume variant executed)
    failures: int = 0       #: executions that raised (fail() recorded)
    lost_leases: int = 0    #: cells abandoned after a usurped lease

    def as_dict(self):
        return dict(self.__dict__)


class Worker:
    """One pull-based worker bound to a service directory."""

    def __init__(self, directory: str, worker_id: Optional[str] = None,
                 lease_s: float = DEFAULT_LEASE_S, poll_s: float = 1.0,
                 drain: bool = False, cache=result_cache.DEFAULT):
        self.directory = directory
        self.worker_id = worker_id or new_worker_id()
        self.lease_s = float(lease_s)
        self.poll_s = float(poll_s)
        self.drain = bool(drain)
        self.cache = result_cache.resolve_cache(cache)
        self.stats = WorkerStats()
        self.heartbeat = HeartbeatConfig(directory=heartbeat_dir(directory))
        self.queue = JobQueue(queue_path(directory))
        self._stop = False

    def stop(self) -> None:
        """Ask the loop to exit after the current job (signal-safe flag)."""
        self._stop = True

    # -- the loop ----------------------------------------------------------

    def run(self) -> WorkerStats:
        self.queue.register_worker(self.worker_id)
        try:
            while not self._stop:
                job = self.queue.claim(self.worker_id, self.lease_s)
                if job is None:
                    if self.drain and self.queue.drained():
                        break
                    self.queue.worker_beat(self.worker_id, "idle")
                    time.sleep(self.poll_s)
                    continue
                self.queue.worker_beat(self.worker_id, "running",
                                       current_key=job.key)
                self._process(job)
        finally:
            self.queue.worker_beat(
                self.worker_id, "stopped",
                completed=self.stats.executed + self.stats.recovered,
            )
        return self.stats

    # -- one job -----------------------------------------------------------

    def _process(self, job: Job) -> None:
        spec = job.spec()
        continuation = job.claims > 1 or job.attempts > 0

        # Step 1: exactly-once recovery.  A previous owner may have died
        # after cache.put but before queue.complete -- its result is
        # authoritative, never recompute it.  (Checked specs bypass the
        # cache on enqueue and here, mirroring run_sweep.)
        if self.cache is not None and not spec.check_requested:
            hit = self.cache.get(spec)
            if hit is not None:
                if self.queue.complete(job.key, self.worker_id, wall_s=0.0,
                                       resumed=continuation):
                    self.stats.recovered += 1
                    write_cell_status(self.heartbeat, spec, "done",
                                      resumed=continuation, progress=1.0)
                return

        run_spec = resume_variant(spec) if continuation else spec
        renewer = _LeaseRenewer(self.queue, job.key, self.worker_id,
                                self.lease_s)
        ok, result, error = execute_cell(
            run_spec, heartbeat=self.heartbeat, epoch_hook=renewer,
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
            if self.queue.fail(job.key, self.worker_id, error or "unknown"):
                fresh = self.queue.job(job.key)
                if fresh is not None and fresh.state == FAILED:
                    # Budget exhausted: the cell's own finish("failed")
                    # heartbeat stands; just record the attempt count.
                    write_cell_status(self.heartbeat, spec, "failed",
                                      attempts=fresh.attempts)
                else:
                    write_cell_status(self.heartbeat, spec, "retrying",
                                      attempts=job.attempts + 1)


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


def worker_main(directory: str, worker_id: Optional[str] = None,
                lease_s: float = DEFAULT_LEASE_S, poll_s: float = 1.0,
                drain: bool = True) -> int:
    """Process entry point (``multiprocessing.Process(target=...)``).

    Builds every connection post-fork (SQLite handles must not cross a
    fork) and returns the number of cells this worker completed.
    """
    worker = Worker(directory, worker_id=worker_id, lease_s=lease_s,
                    poll_s=poll_s, drain=drain)
    stats = worker.run()
    return stats.executed + stats.recovered
