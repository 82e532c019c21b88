"""``repro.service``: the job queue behind every sweep, and its service.

Every sweep runs on this package.  :func:`~repro.sim.sweep.run_sweep`
drains a private queue (in a temporary directory, or in its heartbeat
directory so ``repro top`` can read it); the service keeps one in a
persistent directory, so grids of thousands of cells survive restarts
and any number of workers can join:

* :mod:`repro.service.queue` -- a SQLite-backed job queue.  ``enqueue``
  accepts RunSpec batches, dedups by ``cache_key()`` and skips cells the
  result cache already holds; workers *pull* jobs in submission order
  under lease-based claims, so a service worker that is ``kill -9``-ed
  simply lets its lease expire and the job re-queues.
* :mod:`repro.service.worker` -- the pull-based worker loop.  Cells with
  ``snapshot_every > 0`` resume from their last epoch checkpoint on
  reclaim; results stream into the :class:`~repro.sim.cache.ResultCache`
  *before* the queue transition (the cache write is the commit point,
  so effective results are exactly-once).
* :mod:`repro.service.server` -- a stdlib ``http.server`` status API:
  :func:`~repro.service.queue.build_status` (queue rows joined with the
  workers' progress files) as JSON (``/status``), OpenMetrics
  (``/metrics``), and HTML/ASCII dashboards (``/``, ``/ascii``) built on
  :mod:`repro.analysis.top` -- the same frame ``repro top`` prints.

CLI: ``python -m repro service submit|start|status|drain DIR``.
"""

from repro.service.queue import (
    CACHED,
    DEFAULT_LEASE_S,
    DONE,
    FAILED,
    QUEUED,
    RUNNING,
    EnqueueReport,
    Job,
    JobQueue,
    build_status,
    queue_path,
)
from repro.service.worker import (
    LeaseLost,
    Worker,
    WorkerStats,
    worker_main,
)

__all__ = [
    "JobQueue",
    "Job",
    "EnqueueReport",
    "QUEUED",
    "RUNNING",
    "DONE",
    "FAILED",
    "CACHED",
    "queue_path",
    "Worker",
    "WorkerStats",
    "worker_main",
    "LeaseLost",
    "DEFAULT_LEASE_S",
    "build_status",
    "start_server",
]


def __getattr__(name):
    # The status API (http.server, ssl, email) loads on first use: every
    # local sweep imports this package, few of them serve status pages.
    if name == "start_server":
        from repro.service import server

        return getattr(server, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
