"""SQLite-backed job queue for the sweep service.

One database file (``<dir>/queue.db``) holds the whole service state:
the ``jobs`` table (one row per distinct ``RunSpec.cache_key()``) and a
``workers`` registry.  SQLite gives us the two properties a multi-worker
queue actually needs for free: durable state across ``kill -9`` (WAL
journal) and atomic claim transitions (``BEGIN IMMEDIATE`` serialises
writers), with no daemon to operate.

Lease protocol
==============

A worker *claims* a queued job: the row moves ``queued -> running`` with
``lease_owner`` / ``lease_expires_at`` set and ``claims`` incremented.
While executing, the worker *renews* the lease from the engine's epoch
hook; a renewal that discovers the lease was usurped tells the worker to
abandon the cell.  Every claim first sweeps expired leases back to
``queued`` (incrementing ``expirations``), so a SIGKILL-ed worker's job
is picked up by any surviving worker after at most one lease period.

``expirations`` (lease losses -- crashes, preemption) is deliberately a
*separate* counter from ``attempts`` (executions that raised): kills are
free and never exhaust a job's retry budget, while genuine failures
burn ``attempts`` until ``max_attempts`` marks the job ``failed``.

Exactly-once results
====================

The worker's commit point is the :class:`~repro.sim.cache.ResultCache`
write, which happens *before* the ``running -> done`` queue transition:

========================  =============================================
worker dies ...           recovery
========================  =============================================
mid-epoch                 lease expires; reclaim resumes from the last
                          epoch checkpoint (``snapshot_every > 0``) or
                          reruns from scratch -- deterministic either way
after ``cache.put``,      lease expires; the reclaiming worker finds the
before ``complete``       finished result in the cache and completes the
                          job without recomputing (``resumed`` accounting
                          still records the continuation)
after ``complete``        nothing to do -- the job is terminal
========================  =============================================

``complete`` is guarded by ``state = 'running'`` (the first completer
wins; a duplicate from a usurped worker is a no-op -- results are
deterministic and bit-identical, so it does not matter whose result
landed in the cache).  ``fail`` is additionally guarded by
``lease_owner`` so a usurped loser can never clobber the winner.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sqlite3
import time
import uuid
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional

from repro.obs.heartbeat import HeartbeatConfig, write_cell_status, write_manifest
from repro.sim import cache as result_cache
from repro.sim.runner import RunSpec

QUEUE_DB = "queue.db"
HEARTBEAT_SUBDIR = "hb"

#: Job states. ``queued`` and ``running`` are live; the rest terminal.
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CACHED = "cached"

JOB_STATES = (QUEUED, RUNNING, DONE, FAILED, CACHED)
TERMINAL_JOB_STATES = (DONE, FAILED, CACHED)

_SCHEMA = """
CREATE TABLE IF NOT EXISTS jobs (
    key              TEXT PRIMARY KEY,   -- RunSpec.cache_key()
    spec             TEXT NOT NULL,      -- RunSpec.to_dict() as JSON
    label            TEXT NOT NULL,
    state            TEXT NOT NULL,
    lease_owner      TEXT,
    lease_expires_at REAL,
    claims           INTEGER NOT NULL DEFAULT 0,
    attempts         INTEGER NOT NULL DEFAULT 0,
    expirations      INTEGER NOT NULL DEFAULT 0,
    max_attempts     INTEGER NOT NULL DEFAULT 3,
    resumed          INTEGER NOT NULL DEFAULT 0,
    error            TEXT,
    enqueued_at      REAL NOT NULL,
    started_at       REAL,
    finished_at      REAL,
    wall_s           REAL
);
CREATE INDEX IF NOT EXISTS jobs_state ON jobs (state, enqueued_at);
CREATE TABLE IF NOT EXISTS workers (
    worker_id   TEXT PRIMARY KEY,
    pid         INTEGER,
    started_at  REAL,
    last_seen   REAL,
    state       TEXT NOT NULL,          -- idle | running | stopped
    current_key TEXT,
    completed   INTEGER NOT NULL DEFAULT 0
);
"""


def queue_path(directory: str) -> str:
    """The service database path inside a service directory."""
    return os.path.join(os.fspath(directory), QUEUE_DB)


def heartbeat_dir(directory: str) -> str:
    """Where service workers stream per-cell heartbeats (``repro top``)."""
    return os.path.join(os.fspath(directory), HEARTBEAT_SUBDIR)


@dataclass
class Job:
    """One queue row, decoded."""

    key: str
    spec_json: str
    label: str
    state: str
    lease_owner: Optional[str] = None
    lease_expires_at: Optional[float] = None
    claims: int = 0
    attempts: int = 0
    expirations: int = 0
    max_attempts: int = 3
    resumed: bool = False
    error: Optional[str] = None
    enqueued_at: float = 0.0
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    wall_s: Optional[float] = None

    def spec(self) -> RunSpec:
        return RunSpec.from_dict(json.loads(self.spec_json))

    def to_dict(self) -> Dict[str, Any]:
        data = dataclasses.asdict(self)
        del data["spec_json"]
        return data


def _job_from_row(row: sqlite3.Row) -> Job:
    data = dict(row)
    data["spec_json"] = data.pop("spec")
    data["resumed"] = bool(data["resumed"])
    return Job(**data)


@dataclass
class EnqueueReport:
    """What :meth:`JobQueue.enqueue` did with a batch of specs."""

    queued: int = 0       #: new jobs added to the queue
    deduped: int = 0      #: specs already present (any live/terminal state)
    cached: int = 0       #: specs whose result the cache already holds
    requeued: int = 0     #: previously-failed jobs given a fresh budget
    keys: List[str] = field(default_factory=list)  #: every key in the batch

    @property
    def total(self) -> int:
        return self.queued + self.deduped + self.cached + self.requeued


class JobQueue:
    """Handle on the service database.  One connection per instance.

    Instances are cheap; they are NOT thread-safe -- create one per
    thread/process (the HTTP server opens a fresh one per request, and
    forked workers must construct their own post-fork).
    """

    def __init__(self, path: str, timeout_s: float = 30.0):
        self.path = os.fspath(path)
        directory = os.path.dirname(self.path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        self._db = sqlite3.connect(self.path, timeout=timeout_s)
        self._db.row_factory = sqlite3.Row
        # WAL survives kill -9 of any client and lets readers (the
        # status server) proceed during writer transactions.
        self._db.execute("PRAGMA journal_mode=WAL")
        self._db.execute("PRAGMA synchronous=NORMAL")
        self._db.executescript(_SCHEMA)
        self._db.commit()

    def close(self) -> None:
        self._db.close()

    def __enter__(self) -> "JobQueue":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- submission --------------------------------------------------------

    def enqueue(
        self,
        specs: Iterable[RunSpec],
        cache=result_cache.DEFAULT,
        max_attempts: int = 3,
        now: Optional[float] = None,
    ) -> EnqueueReport:
        """Add a batch of specs; dedups by ``cache_key()``.

        Duplicate specs within the batch collapse to one job.  A spec
        already present in the queue (any state except ``failed``) is
        counted ``deduped`` and left alone; a ``failed`` job is re-queued
        with a fresh attempt budget.  A spec whose result the persistent
        cache already holds is recorded terminal ``cached`` without ever
        reaching a worker (checked specs always execute -- a cache hit
        would run no sanitizer).
        """
        now = time.time() if now is None else now
        cache = result_cache.resolve_cache(cache)
        report = EnqueueReport()
        with self._db:
            self._db.execute("BEGIN IMMEDIATE")
            for spec in dict.fromkeys(specs):
                key = spec.cache_key()
                report.keys.append(key)
                row = self._db.execute(
                    "SELECT state FROM jobs WHERE key = ?", (key,)
                ).fetchone()
                if row is not None:
                    if row["state"] == FAILED:
                        self._db.execute(
                            "UPDATE jobs SET state = ?, error = NULL,"
                            " attempts = 0, max_attempts = ?,"
                            " lease_owner = NULL, lease_expires_at = NULL,"
                            " finished_at = NULL WHERE key = ?",
                            (QUEUED, int(max_attempts), key),
                        )
                        report.requeued += 1
                    else:
                        report.deduped += 1
                    continue
                hit = (
                    cache.contains(spec)
                    if cache is not None and not spec.check_requested
                    else False
                )
                state = CACHED if hit else QUEUED
                self._db.execute(
                    "INSERT INTO jobs (key, spec, label, state,"
                    " max_attempts, enqueued_at, finished_at)"
                    " VALUES (?, ?, ?, ?, ?, ?, ?)",
                    (key, json.dumps(spec.to_dict(), sort_keys=True),
                     spec.label(), state, int(max_attempts), now,
                     now if hit else None),
                )
                if hit:
                    report.cached += 1
                else:
                    report.queued += 1
        return report

    # -- claims / leases ---------------------------------------------------

    def claim(self, worker_id: str, lease_s: float,
              now: Optional[float] = None) -> Optional[Job]:
        """Pull one job: expire stale leases, then take the oldest queued
        (by enqueue time, then by position in its ``enqueue`` batch).

        Returns ``None`` when nothing is claimable.  The claim is atomic
        (``BEGIN IMMEDIATE``), so two workers can never hold the same
        job, and every claim pass first re-queues jobs whose lease
        expired -- a killed worker's job becomes claimable after at most
        one lease period, with ``expirations`` (not ``attempts``)
        recording the loss.
        """
        now = time.time() if now is None else now
        with self._db:
            self._db.execute("BEGIN IMMEDIATE")
            self._db.execute(
                "UPDATE jobs SET state = ?, lease_owner = NULL,"
                " lease_expires_at = NULL, expirations = expirations + 1"
                " WHERE state = ? AND lease_expires_at IS NOT NULL"
                " AND lease_expires_at < ?",
                (QUEUED, RUNNING, now),
            )
            row = self._db.execute(
                "SELECT * FROM jobs WHERE state = ?"
                " ORDER BY enqueued_at, rowid LIMIT 1",
                (QUEUED,),
            ).fetchone()
            if row is None:
                return None
            self._db.execute(
                "UPDATE jobs SET state = ?, lease_owner = ?,"
                " lease_expires_at = ?, claims = claims + 1,"
                " started_at = COALESCE(started_at, ?) WHERE key = ?",
                (RUNNING, worker_id, now + float(lease_s), now, row["key"]),
            )
            fresh = self._db.execute(
                "SELECT * FROM jobs WHERE key = ?", (row["key"],)
            ).fetchone()
            return _job_from_row(fresh)

    def renew(self, key: str, worker_id: str, lease_s: float,
              now: Optional[float] = None) -> bool:
        """Extend a held lease; False means the lease was lost (abandon)."""
        now = time.time() if now is None else now
        with self._db:
            cur = self._db.execute(
                "UPDATE jobs SET lease_expires_at = ? WHERE key = ?"
                " AND state = ? AND lease_owner = ?",
                (now + float(lease_s), key, RUNNING, worker_id),
            )
            return cur.rowcount > 0

    # -- terminal transitions ----------------------------------------------

    def complete(self, key: str, worker_id: str, wall_s: float = 0.0,
                 resumed: bool = False, now: Optional[float] = None) -> bool:
        """``running -> done``.  First completer wins; duplicates no-op.

        Deliberately NOT owner-guarded: a worker that lost its lease
        after the cache commit point still holds the (deterministic,
        bit-identical) result -- whoever gets here first records it.
        """
        now = time.time() if now is None else now
        with self._db:
            cur = self._db.execute(
                "UPDATE jobs SET state = ?, finished_at = ?, wall_s = ?,"
                " resumed = ?, error = NULL, lease_owner = ?,"
                " lease_expires_at = NULL WHERE key = ? AND state = ?",
                (DONE, now, float(wall_s), 1 if resumed else 0,
                 worker_id, key, RUNNING),
            )
            return cur.rowcount > 0

    def fail(self, key: str, worker_id: str, error: str,
             now: Optional[float] = None) -> bool:
        """Record a raising execution; owner-guarded.

        Burns one ``attempts``; the job re-queues until ``max_attempts``
        genuine failures mark it ``failed``.  A usurped worker (lease
        reclaimed by someone else) cannot fail the job -- only the
        current owner's verdict counts.
        """
        now = time.time() if now is None else now
        with self._db:
            self._db.execute("BEGIN IMMEDIATE")
            row = self._db.execute(
                "SELECT attempts, max_attempts FROM jobs WHERE key = ?"
                " AND state = ? AND lease_owner = ?",
                (key, RUNNING, worker_id),
            ).fetchone()
            if row is None:
                return False
            attempts = row["attempts"] + 1
            state = FAILED if attempts >= row["max_attempts"] else QUEUED
            self._db.execute(
                "UPDATE jobs SET state = ?, attempts = ?, error = ?,"
                " lease_owner = NULL, lease_expires_at = NULL,"
                " finished_at = ? WHERE key = ?",
                (state, attempts, str(error),
                 now if state == FAILED else None, key),
            )
            return True

    # -- worker registry ---------------------------------------------------

    def register_worker(self, worker_id: str, pid: Optional[int] = None,
                        now: Optional[float] = None) -> None:
        now = time.time() if now is None else now
        with self._db:
            self._db.execute(
                "INSERT INTO workers (worker_id, pid, started_at, last_seen,"
                " state) VALUES (?, ?, ?, ?, 'idle')"
                " ON CONFLICT(worker_id) DO UPDATE SET pid = excluded.pid,"
                " last_seen = excluded.last_seen, state = 'idle'",
                (worker_id, pid if pid is not None else os.getpid(), now, now),
            )

    def worker_beat(self, worker_id: str, state: str,
                    current_key: Optional[str] = None,
                    completed: Optional[int] = None,
                    now: Optional[float] = None) -> None:
        now = time.time() if now is None else now
        with self._db:
            self._db.execute(
                "UPDATE workers SET last_seen = ?, state = ?,"
                " current_key = ?, completed = COALESCE(?, completed)"
                " WHERE worker_id = ?",
                (now, state, current_key, completed, worker_id),
            )

    def workers(self) -> List[Dict[str, Any]]:
        rows = self._db.execute(
            "SELECT * FROM workers ORDER BY worker_id"
        ).fetchall()
        return [dict(row) for row in rows]

    # -- inspection --------------------------------------------------------

    def job(self, key: str) -> Optional[Job]:
        row = self._db.execute(
            "SELECT * FROM jobs WHERE key = ?", (key,)
        ).fetchone()
        return _job_from_row(row) if row is not None else None

    def jobs(self, state: Optional[str] = None) -> List[Job]:
        """Jobs (all, or those in ``state``) in submission order."""
        where, args = ("", ()) if state is None else (" WHERE state = ?",
                                                      (state,))
        rows = self._db.execute(
            f"SELECT * FROM jobs{where} ORDER BY enqueued_at, rowid", args
        ).fetchall()
        return [_job_from_row(row) for row in rows]

    def counts(self) -> Dict[str, int]:
        """``{state: count}`` with every known state present (0s kept)."""
        counts = {state: 0 for state in JOB_STATES}
        for row in self._db.execute(
            "SELECT state, COUNT(*) AS n FROM jobs GROUP BY state"
        ):
            counts[row["state"]] = row["n"]
        return counts

    def totals(self) -> Dict[str, int]:
        row = self._db.execute(
            "SELECT COALESCE(SUM(claims), 0) AS claims,"
            " COALESCE(SUM(attempts), 0) AS attempts,"
            " COALESCE(SUM(expirations), 0) AS expirations,"
            " COALESCE(SUM(resumed), 0) AS resumed FROM jobs"
        ).fetchone()
        return dict(row)

    def drained(self) -> bool:
        """True when no job is (or can become) live."""
        row = self._db.execute(
            "SELECT COUNT(*) AS n FROM jobs WHERE state IN (?, ?)",
            (QUEUED, RUNNING),
        ).fetchone()
        return row["n"] == 0

    def snapshot(self, now: Optional[float] = None) -> Dict[str, Any]:
        """Full queue/worker state for the status API (JSON-safe)."""
        now = time.time() if now is None else now
        return {
            "schema": 1,
            "path": self.path,
            "now": now,
            "jobs": self.counts(),
            "totals": self.totals(),
            "drained": self.drained(),
            "workers": self.workers(),
            "cells": [job.to_dict() for job in self.jobs()],
        }


def write_service_manifest(queue: JobQueue, directory: str,
                           finished: bool = False,
                           started_at: Optional[float] = None) -> None:
    """Mirror the queue into the heartbeat manifest ``repro top`` reads.

    The service has no sweep "parent", so the queue itself provides the
    dashboard's denominator.  ``finished`` stamps ``finished_at`` once
    the queue drains, which also lets a live ``repro top`` exit cleanly.
    Enqueue-time cache hits get their terminal ``cached`` stamp here
    (no worker will ever heartbeat for them).
    """
    config = HeartbeatConfig(directory=heartbeat_dir(directory))
    jobs = queue.jobs()
    specs = [job.spec() for job in jobs]
    write_manifest(config, specs, started_at=started_at,
                   finished_at=time.time() if finished else None)
    for job, spec in zip(jobs, specs):
        if job.state == CACHED:
            path = config.cell_path(spec)
            if not os.path.exists(path):
                write_cell_status(config, spec, CACHED, progress=1.0)


def new_worker_id() -> str:
    """A short, unique worker identity (hostname-free; pids recycle)."""
    return f"w-{uuid.uuid4().hex[:8]}"
