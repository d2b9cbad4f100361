"""Background job queue: submitted matrices → ``run_matrix`` → the store.

A *job* is one submitted :class:`~repro.harness.parallel.RunRequest`
matrix.  The queue executes jobs one at a time on a worker thread — the
parallelism lives *inside* each job, which fans its cells out over the
shared process pool via :func:`~repro.harness.parallel.run_matrix` — and
reports per-cell progress events as chunks complete, so the HTTP layer
can stream them.

Every completed cell is written through to the experiment store under its
normalized config-hash ``run_id`` (idempotent), regardless of whether the
cell was freshly simulated or served from the memo / JSON cache / store —
so the durable database converges on the union of everything any client
ever ran.
"""

from __future__ import annotations

import queue
import threading
import time
import uuid
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.harness.parallel import (
    HIT_SOURCES,
    CellRecord,
    RunRequest,
    last_manifest,
    resolve_backend,
    run_matrix,
)
from repro.harness.runner import RunResult
from repro.service.store import ExperimentStore, run_id_for, utcnow

#: Job lifecycle.  queued → running → done | failed.
JOB_STATES = ("queued", "running", "done", "failed")


@dataclass
class JobCell:
    """One matrix cell and how the job satisfied it."""

    index: int
    request: RunRequest
    run_id: str
    source: Optional[str] = None   # "run" or one of HIT_SOURCES
    wall_time: float = 0.0
    #: distributed dispatch only: the worker that acked this cell.
    worker: Optional[str] = None
    result: Optional[RunResult] = None

    def summary(self) -> Dict[str, Any]:
        out = {
            "index": self.index,
            "run_id": self.run_id,
            "workload": self.request.workload_name,
            "config": self.request.config,
        }
        if self.source is not None:
            out["source"] = self.source
            out["wall_time"] = round(self.wall_time, 4)
        if self.worker is not None:
            out["worker"] = self.worker
        return out


@dataclass
class Job:
    """One submitted matrix working its way through the queue."""

    job_id: str
    cells: List[JobCell]
    request: Dict[str, Any]
    #: "local": executed by this server's queue thread via ``run_matrix``;
    #: "distributed": cells are leased to pull-based workers over HTTP.
    backend: str = "local"
    status: str = "queued"
    error: Optional[str] = None
    submitted: str = field(default_factory=utcnow)
    started: Optional[str] = None
    finished: Optional[str] = None
    wall_time: float = 0.0
    events: List[Dict[str, Any]] = field(default_factory=list)
    #: held for every status change and event append, and notified on
    #: each append, so a waiter in :meth:`wait_events` wakes on every one
    _lock: threading.Condition = field(
        default_factory=threading.Condition, repr=False
    )
    #: ``time.monotonic()`` at :meth:`start`; ``wall_time`` counts from it
    _started_at: Optional[float] = field(default=None, repr=False)

    @property
    def total(self) -> int:
        return len(self.cells)

    @property
    def done_cells(self) -> int:
        return sum(1 for c in self.cells if c.source is not None)

    @property
    def simulated(self) -> int:
        return sum(1 for c in self.cells if c.source == "run")

    @property
    def cache_hits(self) -> int:
        return sum(1 for c in self.cells if c.source in HIT_SOURCES)

    @property
    def terminal(self) -> bool:
        return self.status in ("done", "failed")

    def add_event(self, event: str, **payload: Any) -> None:
        with self._lock:
            self._append(event, payload)

    def _append(self, event: str, payload: Dict[str, Any]) -> None:
        self.events.append({"seq": len(self.events) + 1, "event": event, **payload})
        self._lock.notify_all()

    def start(self, **payload: Any) -> None:
        """queued → running, with its ``running`` event (*payload* added)."""
        with self._lock:
            self.status = "running"
            self.started = utcnow()
            self._started_at = time.monotonic()
            self._append("running", {"total": self.total, **payload})

    def finish(self, status: str, error: Optional[str] = None) -> bool:
        """Reach terminal *status* ("done" | "failed") and append its event.

        Both happen in one hold of the job's lock, so a waiter never sees
        the status terminal without the terminal event.  ``wall_time`` is
        the time since :meth:`start`.  Returns ``False``, changing nothing,
        when the job had already finished (two acks racing on the last
        distributed cell).
        """
        with self._lock:
            if self.terminal:
                return False
            self.wall_time = time.monotonic() - self._started_at
            self.error = error
            self.finished = utcnow()
            self.status = status
            if status == "failed":
                payload: Dict[str, Any] = {"error": error}
            else:
                payload = {
                    "total": self.total,
                    "simulated": self.simulated,
                    "cache_hits": self.cache_hits,
                    "wall_time": round(self.wall_time, 4),
                }
            self._append(status, payload)
        return True

    def wait_events(
        self, since: int, timeout: float = 0.0
    ) -> Tuple[List[Dict[str, Any]], bool]:
        """Block up to *timeout* seconds for an event after seq *since*.

        Returns the events after *since* (possibly none, on timeout) and
        whether the job is terminal, both read in one hold of the lock:
        when the flag is ``True`` the terminal event is in the list or
        was before *since*.  With no *timeout* it does not block.
        """
        with self._lock:
            self._lock.wait_for(
                lambda: len(self.events) > since or self.terminal, timeout
            )
            return [e for e in self.events if e["seq"] > since], self.terminal

    def status_dict(self) -> Dict[str, Any]:
        return {
            "job_id": self.job_id,
            "kind": "matrix",
            "backend": self.backend,
            "status": self.status,
            "submitted": self.submitted,
            "started": self.started,
            "finished": self.finished,
            "total": self.total,
            "done": self.done_cells,
            "simulated": self.simulated,
            "cache_hits": self.cache_hits,
            "wall_time": round(self.wall_time, 4),
            "error": self.error,
            "events": len(self.events),
        }

    def manifest_dict(self) -> Dict[str, Any]:
        return {
            "job_id": self.job_id,
            "backend": self.backend,
            "wall_time": round(self.wall_time, 4),
            "cells": [c.summary() for c in self.cells],
        }


def new_job_id() -> str:
    return uuid.uuid4().hex[:12]


class JobQueue:
    """Worker thread executing submitted matrices through ``run_matrix``.

    *jobs* is the process-pool width each matrix fans out over (``None``:
    ``REPRO_JOBS``, else all cores).  Cells execute in chunks of the pool
    width so progress events fire as the matrix advances rather than only
    at the end.
    """

    def __init__(self, store: ExperimentStore, jobs: Optional[int] = None):
        self.store = store
        self.jobs = jobs
        self._jobs: Dict[str, Job] = {}
        self._queue: "queue.Queue[Optional[Job]]" = queue.Queue()
        self._lock = threading.Lock()
        self._worker = threading.Thread(
            target=self._work, name="repro-job-queue", daemon=True
        )
        self._worker.start()

    # ------------------------------------------------------------------
    def submit(self, requests: List[RunRequest],
               backend: Optional[str] = None) -> Job:
        """Enqueue a matrix; returns the (still queued) job immediately.

        *backend* ``"distributed"`` skips the local queue thread entirely:
        the cells become pending rows in the store's lease table, and the
        job completes as pull-based workers lease, execute, and ack them
        (see docs/distributed.md).  Anything else executes locally.
        """
        cells = []
        for i, request in enumerate(requests):
            key = request.memo_key()
            if key is None:
                raise ValueError(
                    f"cell {i} ({request.workload_name!r} × "
                    f"{request.config!r}) is not addressable by a config "
                    f"hash; the service accepts suite/frontier/trace "
                    f"workloads by name with default core/ACB config"
                )
            cells.append(JobCell(index=i, request=request, run_id=run_id_for(key)))
        backend = backend or "local"
        job = Job(
            job_id=new_job_id(),
            cells=cells,
            request={"cells": [c.summary() for c in cells],
                     "backend": backend},
            backend=backend,
        )
        job.add_event("queued", total=job.total)
        with self._lock:
            self._jobs[job.job_id] = job
        self.store.record_job(
            job.job_id, "queued", job.request, submitted=job.submitted
        )
        if backend != "distributed":
            self._queue.put(job)
            return job
        # distributed: the cells become leasable rows; the job runs at once
        job.start(backend="distributed")
        self.store.update_job(job.job_id, status="running", started=job.started)
        self.store.enqueue_cells(
            job.job_id,
            [
                {
                    "index": cell.index,
                    "run_id": cell.run_id,
                    "request": cell.request.fields(),
                }
                for cell in job.cells
            ],
        )
        return job

    # ------------------------------------------------------------------
    # distributed-cell completion (called by the worker ack route)
    # ------------------------------------------------------------------
    def note_requeue(self, job_id: str, cell_index: int,
                     worker: Optional[str]) -> None:
        """Surface an expired-lease requeue in the job's event feed."""
        job = self.get(job_id)
        if job is not None:
            job.add_event("requeue", index=cell_index, worker=worker)

    def complete_cell(
        self,
        lease: Dict[str, Any],
        result: RunResult,
        wall_time: float,
        worker: Optional[str],
    ) -> Dict[str, int]:
        """Record one acked distributed cell; finalize the job when drained.

        *lease* is the acked row from
        :meth:`~repro.service.store.ExperimentStore.ack_lease` — it carries
        the request fields, so the run key is recomputed *server-side*
        (workers never get to choose where a result lands).  Returns the
        job's remaining lease counts.
        """
        job_id = lease["job_id"]
        request = RunRequest.from_fields(lease["request"])
        self.store.put(request.memo_key(), result, job_id=job_id)
        job = self.get(job_id)
        if job is not None and 0 <= lease["cell_index"] < len(job.cells):
            cell = job.cells[lease["cell_index"]]
            cell.result = result
            cell.source = "run"
            cell.wall_time = wall_time
            cell.worker = worker
            job.add_event(
                "cell", done=job.done_cells, total=job.total, **cell.summary()
            )
        counts = self.store.lease_counts(job_id)
        if counts["pending"] == 0 and counts["leased"] == 0:
            self._finalize_distributed(job_id, job)
        return counts

    def _finish(self, job: Job, status: str,
                error: Optional[str] = None) -> None:
        """End *job* and record the outcome; a second finish is a no-op
        (two acks racing on the last distributed cell)."""
        if job.finish(status, error=error):
            self.store.update_job(
                job.job_id, status=status, finished=job.finished,
                error=job.error,
                manifest=job.manifest_dict() if status == "done" else None,
            )

    def _finalize_distributed(self, job_id: str, job: Optional[Job]) -> None:
        if job is not None:
            self._finish(job, "done")
            return
        # post-restart: the in-memory job is gone, finish from store rows
        stored = self.store.get_job(job_id)
        if stored is None or stored.get("status") == "done":
            return
        by_index = {
            row["cell_index"]: row for row in self.store.list_leases(job_id)
        }
        cells = []
        for cell in stored.get("request", {}).get("cells", []):
            row = by_index.get(cell.get("index"))
            cells.append({
                **cell,
                "source": "run",
                "wall_time": round(row["wall_time"], 4) if row else 0.0,
                "worker": row["worker"] if row else None,
            })
        self.store.update_job(
            job_id, status="done", finished=utcnow(),
            manifest={"job_id": job_id, "backend": "distributed",
                      "wall_time": 0.0, "cells": cells},
        )

    def get(self, job_id: str) -> Optional[Job]:
        with self._lock:
            return self._jobs.get(job_id)

    def snapshot(self) -> List[Job]:
        with self._lock:
            return list(self._jobs.values())

    def close(self) -> None:
        """Finish the in-flight job, then stop the worker thread."""
        self._queue.put(None)
        self._worker.join(timeout=60)

    # ------------------------------------------------------------------
    def _work(self) -> None:
        while True:
            job = self._queue.get()
            if job is None:
                return
            try:
                self._execute(job)
            except Exception as exc:  # a failed job must not kill the queue
                self._finish(job, "failed",
                             error=f"{type(exc).__name__}: {exc}")

    def _execute(self, job: Job) -> None:
        job.start()
        self.store.update_job(job.job_id, status="running", started=job.started)
        # progress granularity: one pool-width of cells per run_matrix call
        chunk = max(1, self.jobs or 1)
        # a local job must never recurse into distributed dispatch, even
        # when the server itself runs under REPRO_BACKEND=distributed
        backend = resolve_backend(None)
        backend = "pool" if backend == "distributed" else (backend or None)
        for lo in range(0, job.total, chunk):
            cells = job.cells[lo:lo + chunk]
            results = run_matrix(
                [c.request for c in cells], jobs=self.jobs, backend=backend,
            )
            manifest = last_manifest()
            records = manifest.cells if manifest is not None else []
            if len(records) != len(cells):  # another thread's manifest raced in
                records = [
                    CellRecord(c.request.workload_name, c.request.config, "run")
                    for c in cells
                ]
            for cell, result, record in zip(cells, results, records):
                cell.result = result
                cell.source = record.source
                cell.wall_time = record.wall_time
                self.store.put(
                    cell.request.memo_key(), result, job_id=job.job_id
                )
                job.add_event(
                    "cell",
                    done=job.done_cells,
                    total=job.total,
                    **cell.summary(),
                )
        self._finish(job, "done")
