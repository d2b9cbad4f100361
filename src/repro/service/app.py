"""The HTTP API: ``python -m repro serve``.

A stdlib-only (``http.server``) JSON API over the experiment store and
the job queue.  The route table below is the *source of truth* for the
service surface: ``tools/check_docs.py`` validates every HTTP snippet in
``docs/service.md`` against it, and requires every route to be documented
there — the docs and the server cannot drift apart.

Threading model: ``ThreadingHTTPServer`` handles each connection on its
own thread; handlers only read job state, query SQLite (per-call
connections), or enqueue work — the simulation itself happens on the job
queue's worker thread, which fans out over the harness process pool.
"""

from __future__ import annotations

import json
import os
import re
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, List, NamedTuple, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.harness.cache import set_active_store
from repro.harness.parallel import (
    CellError,
    RunRequest,
    field_problem,
    positive_int_problem,
)
from repro.harness.runner import (
    RunResult,
    config_problem,
    workload_problem,
)
from repro.service.jobs import JOB_STATES, JobQueue, new_job_id
from repro.service.store import (
    DEFAULT_LEASE_TTL,
    STORE_SCHEMA_VERSION,
    ExperimentStore,
    utcnow,
)

API_PREFIX = "/api/v1"

#: Largest accepted request body (a 4096-cell matrix is ~1 MB of JSON).
MAX_BODY_BYTES = 16 << 20

#: Largest matrix one job may hold.
MAX_CELLS = 4096


class Route(NamedTuple):
    """One row of the service surface: ``<segment>`` matches one path part."""

    method: str
    pattern: str
    handler: str


#: The complete service surface.  docs/service.md documents each row
#: verbatim; tools/check_docs.py enforces both directions.
ROUTES: Tuple[Route, ...] = (
    Route("GET", "/api/v1/health", "health"),
    Route("POST", "/api/v1/jobs", "submit_job"),
    Route("GET", "/api/v1/jobs", "list_jobs"),
    Route("GET", "/api/v1/jobs/<job_id>", "job_status"),
    Route("GET", "/api/v1/jobs/<job_id>/events", "job_events"),
    Route("GET", "/api/v1/jobs/<job_id>/results", "job_results"),
    Route("GET", "/api/v1/jobs/<job_id>/manifest", "job_manifest"),
    Route("GET", "/api/v1/jobs/<job_id>/artifacts", "job_artifacts"),
    Route("GET", "/api/v1/runs", "list_runs"),
    Route("GET", "/api/v1/runs/<run_id>", "run_detail"),
    Route("POST", "/api/v1/trace", "trace_run"),
    Route("GET", "/api/v1/artifacts/<artifact_id>", "artifact_content"),
    Route("GET", "/api/v1/workers", "list_workers"),
    Route("POST", "/api/v1/workers/lease", "worker_lease"),
    Route("POST", "/api/v1/workers/heartbeat", "worker_heartbeat"),
    Route("POST", "/api/v1/workers/ack", "worker_ack"),
)


def _compile(pattern: str) -> "re.Pattern[str]":
    parts = [
        f"(?P<{seg[1:-1]}>[^/]+)"
        if seg.startswith("<") and seg.endswith(">") else re.escape(seg)
        for seg in pattern.split("/")
    ]
    return re.compile("^" + "/".join(parts) + "$")

_COMPILED = [(route, _compile(route.pattern)) for route in ROUTES]


class BadRequest(CellError):
    """A 400: the body carries the per-problem detail list."""


# ----------------------------------------------------------------------
# request parsing / validation
# ----------------------------------------------------------------------
def _string_field(payload: Dict, field: str, problems: List[str]) -> str:
    value = payload.get(field)
    if isinstance(value, str) and value:
        return value
    problems.append(f"{field} must be a non-empty string, got {value!r}")
    return ""


def parse_backend(payload: Dict[str, Any]) -> Optional[str]:
    """Top-level ``backend`` field of a submitted matrix.

    ``None``/absent/``"local"`` executes on this server's job queue;
    ``"distributed"`` turns the cells into leasable rows that pull-based
    workers execute over HTTP (docs/distributed.md).
    """
    value = payload.get("backend")
    if value is None or value == "local":
        return None
    if value != "distributed":
        raise BadRequest(
            [f"backend must be 'local' or 'distributed', got {value!r}"]
        )
    return "distributed"


def _float_field(
    payload: Dict, field: str, problems: List[str]
) -> Optional[float]:
    value = payload.get(field)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or value <= 0:
        problems.append(f"{field} must be a positive number, got {value!r}")
        return None
    return float(value)


def parse_matrix(payload: Dict[str, Any]) -> List[RunRequest]:
    """A submitted JSON object → checked ``RunRequest`` cells.

    Two spellings: an explicit ``"cells"`` list, or a ``"workloads"`` ×
    ``"configs"`` product.  Top-level ``warmup``/``measure``/``core_scale``
    /``predictor`` are defaults each cell may override.  Defaults and
    cells pass the same checks (:meth:`RunRequest.from_fields`); a bad
    default is reported once, not once per cell.  Raises
    :class:`BadRequest` listing every problem at once.
    """
    problems: List[str] = []
    defaults = {}
    for name in ("warmup", "measure", "core_scale", "predictor"):
        problem = field_problem(name, payload.get(name))
        if problem is None:
            defaults[name] = payload.get(name)
        else:
            problems.append(problem)
    cells = payload.get("cells")
    if cells is None:
        workloads = payload.get("workloads")
        configs = payload.get("configs")
        # only the *structural* problems make the product unbuildable; a
        # bad top-level default must not hide per-cell findings
        structural = []
        if not isinstance(workloads, list) or not workloads:
            structural.append("need 'cells' or a non-empty 'workloads' list")
        if not isinstance(configs, list) or not configs:
            structural.append("need 'cells' or a non-empty 'configs' list")
        if structural:
            raise BadRequest(problems + structural)
        cells = [
            {"workload": w, "config": c} for w in workloads for c in configs
        ]
    if not isinstance(cells, list) or not cells:
        problems.append("'cells' must be a non-empty list")
        raise BadRequest(problems)
    if len(cells) > MAX_CELLS:
        raise BadRequest(
            [f"matrix holds {len(cells)} cells; the limit is {MAX_CELLS}"]
        )

    requests: List[RunRequest] = []
    for i, cell in enumerate(cells):
        if not isinstance(cell, dict):
            problems.append(f"cells[{i}] must be an object")
            continue
        try:
            requests.append(RunRequest.from_fields({**defaults, **cell}))
        except CellError as exc:
            problems.extend(f"cells[{i}]: {p}" for p in exc.problems)
    if problems:
        raise BadRequest(problems)
    return requests


# ----------------------------------------------------------------------
# the service bundle
# ----------------------------------------------------------------------
@dataclass
class Service:
    """Everything one server instance owns."""

    store: ExperimentStore
    queue: JobQueue
    artifact_dir: str
    started: str

    @classmethod
    def create(
        cls,
        db_path: Optional[str] = None,
        artifact_dir: Optional[str] = None,
        jobs: Optional[int] = None,
    ) -> "Service":
        store = ExperimentStore(db_path, strict=True)
        store.schema_info()  # fail fast on a broken/newer database
        started = utcnow()
        # a local job ran on the previous process's queue thread, which
        # died with it; distributed jobs resume from their stored leases
        store.fail_orphaned_jobs(
            f"interrupted: the server restarted at {started} before this "
            f"job finished; resubmit it"
        )
        if artifact_dir is None:
            artifact_dir = os.path.join(str(store.path.parent), "artifacts")
        service = cls(
            store=store,
            queue=JobQueue(store, jobs=jobs),
            artifact_dir=artifact_dir,
            started=started,
        )
        # while the service lives, its store backs every run_matrix call:
        # the lookup chain is memo → disk cache → this database, and every
        # simulated cell writes through (see repro.harness.runner)
        service._previous_store = set_active_store(store)
        return service

    def close(self) -> None:
        self.queue.close()
        set_active_store(getattr(self, "_previous_store", None))


class ServiceHTTPServer(ThreadingHTTPServer):
    daemon_threads = True
    service: Service
    verbose: bool = False


class ServiceHandler(BaseHTTPRequestHandler):
    server: ServiceHTTPServer
    server_version = "repro-service"
    protocol_version = "HTTP/1.0"  # one request per connection; no chunking

    # ------------------------------------------------------------------
    def do_GET(self) -> None:
        self._dispatch("GET")

    def do_POST(self) -> None:
        self._dispatch("POST")

    def log_message(self, format: str, *args: Any) -> None:
        if self.server.verbose:
            BaseHTTPRequestHandler.log_message(self, format, *args)

    def _dispatch(self, method: str) -> None:
        url = urlsplit(self.path)
        self.query = {k: v[-1] for k, v in parse_qs(url.query).items()}
        allowed = set()
        for route, regex in _COMPILED:
            match = regex.match(url.path)
            if match is None:
                continue
            if route.method != method:
                allowed.add(route.method)
                continue
            try:
                getattr(self, route.handler)(**match.groupdict())
            except BadRequest as exc:
                self._send_json(400, {"error": "bad request",
                                      "problems": exc.problems})
            except BrokenPipeError:
                pass  # client went away mid-stream
            except Exception as exc:
                self._send_json(
                    500, {"error": f"{type(exc).__name__}: {exc}"}
                )
            return
        if allowed:
            self._send_json(405, {"error": f"use {sorted(allowed)} here"})
        else:
            self._send_json(404, {"error": f"no route for {url.path}",
                                  "routes": [f"{r.method} {r.pattern}"
                                             for r in ROUTES]})

    # ------------------------------------------------------------------
    def _send_json(self, status: int, payload: Any) -> None:
        body = (json.dumps(payload, indent=2) + "\n").encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _read_object(self) -> Dict[str, Any]:
        length = int(self.headers.get("Content-Length") or 0)
        if length <= 0:
            raise BadRequest(["request body required (Content-Length missing)"])
        if length > MAX_BODY_BYTES:
            raise BadRequest([f"body larger than {MAX_BODY_BYTES} bytes"])
        raw = self.rfile.read(length)
        try:
            payload = json.loads(raw)
        except ValueError as exc:
            raise BadRequest([f"body is not valid JSON: {exc}"]) from None
        if not isinstance(payload, dict):
            raise BadRequest(["request body must be a JSON object"])
        return payload

    def _query_number(self, name: str, default: Any, kind: type = int) -> Any:
        """Query parameter *name* as an ``int`` (or *kind*); malformed: 400."""
        text = self.query.get(name)
        if text is None:
            return default
        try:
            return kind(text)
        except ValueError:
            what = "an integer" if kind is int else "a number"
            raise BadRequest(
                [f"query parameter {name} must be {what}, got {text!r}"]
            ) from None

    def _job_or_404(self, job_id: str):
        job = self.server.service.queue.get(job_id)
        if job is None:
            stored = self.server.service.store.get_job(job_id)
            if stored is None:
                self._send_json(404, {"error": f"no such job {job_id!r}"})
            return None, stored
        return job, None

    # ------------------------------------------------------------------
    # handlers (one per Route row)
    # ------------------------------------------------------------------
    def health(self) -> None:
        service = self.server.service
        jobs = service.queue.snapshot()
        self._send_json(200, {
            "status": "ok",
            "schema": "repro-store",
            "schema_version": STORE_SCHEMA_VERSION,
            "started": service.started,
            "db": str(service.store.path),
            "runs": service.store.count_runs(),
            "jobs": {
                state: sum(1 for j in jobs if j.status == state)
                for state in JOB_STATES
            },
        })

    def submit_job(self) -> None:
        payload = self._read_object()
        requests = parse_matrix(payload)
        job = self.server.service.queue.submit(
            requests, backend=parse_backend(payload),
        )
        self._send_json(202, {
            "job_id": job.job_id,
            "status": job.status,
            "backend": job.backend,
            "total": job.total,
            "cells": [c.summary() for c in job.cells],
        })

    def list_jobs(self) -> None:
        service = self.server.service
        live = {job.job_id: job.status_dict() for job in service.queue.snapshot()}
        merged = list(live.values())
        for row in service.store.list_jobs(limit=self._query_number("limit", 50)):
            if row["job_id"] not in live:
                merged.append(row)
        self._send_json(200, {"jobs": merged})

    def job_status(self, job_id: str) -> None:
        job, stored = self._job_or_404(job_id)
        if job is not None:
            self._send_json(200, job.status_dict())
        elif stored is not None:
            stored.pop("request", None)
            stored.pop("manifest", None)
            self._send_json(200, stored)

    def job_events(self, job_id: str) -> None:
        """Progress events after ``?since=N``; ``?follow=1`` streams NDJSON
        until the job reaches a terminal state (or ``?timeout=`` seconds)."""
        follow = self.query.get("follow") in ("1", "true", "yes")
        job, stored = self._job_or_404(job_id)
        if job is None and (stored is None or not follow):
            if stored is not None:  # pre-restart job: no event history
                self._send_json(200, {"events": [], "next": 0,
                                      "status": stored["status"]})
            return
        since = self._query_number("since", 0)
        if not follow:
            events, _ = job.wait_events(since)
            self._send_json(200, {
                "events": events,
                "next": events[-1]["seq"] if events else since,
                "status": job.status,
            })
            return
        deadline = time.monotonic() + self._query_number("timeout", 600, float)
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.end_headers()
        cursor = since
        while job is not None:  # a pre-restart job's stream is empty
            # the terminal flag is read with the events it covers, so a
            # terminal job's stream always ends with its terminal event
            events, terminal = job.wait_events(
                cursor, deadline - time.monotonic()
            )
            for event in events:
                cursor = event["seq"]
                self.wfile.write((json.dumps(event) + "\n").encode())
            self.wfile.flush()
            if terminal or time.monotonic() >= deadline:
                return

    def job_results(self, job_id: str) -> None:
        job, stored = self._job_or_404(job_id)
        service = self.server.service
        if job is not None:
            if not job.terminal:
                self._send_json(409, {
                    "error": f"job {job_id} is {job.status}; results are "
                    f"available once it is done",
                    "status": job.status,
                })
                return
            results = [
                {**cell.summary(), "stats": cell.result.stats.to_dict(),
                 "category": cell.result.category,
                 "paper_tag": cell.result.paper_tag}
                for cell in job.cells if cell.result is not None
            ]
            self._send_json(200, {"job_id": job_id, "status": job.status,
                                  "results": results})
        elif stored is not None:
            # pre-restart job: serve from the experiment database
            results = []
            for cell in stored.get("manifest", {}).get("cells", []):
                row = service.store.get_run(cell["run_id"])
                if row is not None:
                    results.append({**cell, "stats": row["stats"],
                                    "category": row["category"],
                                    "paper_tag": row["paper_tag"]})
            self._send_json(200, {"job_id": job_id, "status": stored["status"],
                                  "results": results})

    def job_manifest(self, job_id: str) -> None:
        job, stored = self._job_or_404(job_id)
        if job is not None:
            self._send_json(200, job.manifest_dict())
        elif stored is not None:
            self._send_json(200, stored.get("manifest")
                            or {"job_id": job_id, "cells": []})

    def job_artifacts(self, job_id: str) -> None:
        job, stored = self._job_or_404(job_id)
        if job is None and stored is None:
            return
        artifacts = self.server.service.store.artifacts_for(job_id)
        for artifact in artifacts:
            artifact.pop("path", None)  # server-local detail
        self._send_json(200, {"job_id": job_id, "artifacts": artifacts})

    def list_runs(self) -> None:
        rows = self.server.service.store.query_runs(
            workload=self.query.get("workload"),
            config=self.query.get("config"),
            limit=self._query_number("limit", 100),
        )
        self._send_json(200, {"runs": rows, "count": len(rows)})

    def run_detail(self, run_id: str) -> None:
        row = self.server.service.store.get_run(run_id)
        if row is None:
            self._send_json(404, {"error": f"no such run {run_id!r}"})
        else:
            self._send_json(200, row)

    def trace_run(self) -> None:
        from repro.trace.driver import TRACE_FORMATS, run_traced

        payload = self._read_object()
        config = payload.get("config", "acb")
        pc = payload.get("pc")
        problems = [
            problem for problem in (
                workload_problem(payload.get("workload")),
                config_problem(config),
                *(positive_int_problem(name, payload.get(name))
                  for name in ("warmup", "measure", "scale")),
            ) if problem is not None
        ]
        formats = payload.get("formats")
        if formats is not None and (
            not isinstance(formats, list)
            or any(f not in TRACE_FORMATS for f in formats)
        ):
            problems.append(f"formats must be a subset of {list(TRACE_FORMATS)}")
        if pc is not None and (isinstance(pc, bool) or not isinstance(pc, int)):
            problems.append(f"pc must be an integer, got {pc!r}")
        if problems:
            raise BadRequest(problems)
        warmup = payload.get("warmup") or 3000
        measure = payload.get("measure") or 2000
        scale = payload.get("scale") or 1

        service = self.server.service
        job_id = new_job_id()
        out_dir = os.path.join(service.artifact_dir, job_id)
        traced = run_traced(
            payload["workload"], config,
            out_dir=out_dir, formats=formats,
            warmup=warmup, measure=measure, scale=scale, pc=pc,
        )
        service.store.record_job(
            job_id, "done",
            {"workload": traced.workload, "config": config,
             "warmup": warmup, "measure": measure, "scale": scale},
            kind="trace",
        )
        service.store.update_job(job_id, finished=utcnow())
        artifacts = []
        for artifact in traced.artifacts:
            artifact_id = service.store.add_artifact(
                job_id, os.path.basename(artifact.path),
                artifact.format, artifact.path,
            )
            artifacts.append({
                "artifact_id": artifact_id,
                "name": os.path.basename(artifact.path),
                "format": artifact.format,
                "detail": artifact.detail,
                "bytes": os.path.getsize(artifact.path),
            })
        self._send_json(200, {
            "job_id": job_id,
            "workload": traced.workload,
            "config": traced.config,
            "stats": traced.stats.to_dict(),
            "trace_summary": traced.trace_summary,
            "truncated": {"uops": traced.truncated_uops,
                          "acb": traced.truncated_acb},
            "artifacts": artifacts,
        })

    def artifact_content(self, artifact_id: str) -> None:
        try:
            ident = int(artifact_id)
        except ValueError:
            raise BadRequest(["artifact id must be an integer"]) from None
        service = self.server.service
        row = service.store.get_artifact(ident)
        root = os.path.realpath(service.artifact_dir)
        if row is None or not os.path.realpath(row["path"]).startswith(
            root + os.sep
        ):
            self._send_json(404, {"error": f"no such artifact {artifact_id}"})
            return
        try:
            with open(row["path"], "rb") as handle:
                body = handle.read()
        except OSError:
            self._send_json(410, {"error": "artifact file no longer on disk"})
            return
        kind = ("application/json" if row["name"].endswith(".json")
                else "text/plain")
        self.send_response(200)
        self.send_header("Content-Type", kind)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    # ------------------------------------------------------------------
    # distributed workers (docs/distributed.md)
    # ------------------------------------------------------------------
    def list_workers(self) -> None:
        """Active workers (live leases grouped by worker) + cell counts."""
        store = self.server.service.store
        workers: Dict[str, Dict[str, Any]] = {}
        for row in store.list_leases():
            if row["state"] != "leased" or not row["worker"]:
                continue
            entry = workers.setdefault(
                row["worker"],
                {"worker": row["worker"], "cells": 0, "deadline": 0.0},
            )
            entry["cells"] += 1
            entry["deadline"] = max(entry["deadline"], row["deadline"] or 0.0)
        self._send_json(200, {
            "workers": sorted(workers.values(), key=lambda w: w["worker"]),
            "cells": store.lease_counts(),
        })

    def worker_lease(self) -> None:
        """Claim the oldest pending cell; expired leases requeue first."""
        payload = self._read_object()
        problems: List[str] = []
        worker = _string_field(payload, "worker", problems)
        ttl = _float_field(payload, "ttl", problems) or DEFAULT_LEASE_TTL
        if problems:
            raise BadRequest(problems)
        service = self.server.service
        for row in service.store.requeue_expired():
            service.queue.note_requeue(
                row["job_id"], row["cell_index"], row["worker"]
            )
        lease = service.store.lease_next(worker, ttl=ttl)
        if lease is None:
            self._send_json(200, {"cell": None})
            return
        self._send_json(200, {
            "cell": {"job_id": lease["job_id"], "index": lease["index"],
                     "run_id": lease["run_id"], **lease["request"]},
            "lease_id": lease["lease_id"],
            "deadline": lease["deadline"],
            "ttl": ttl,
            "attempts": lease["attempts"],
        })

    def worker_heartbeat(self) -> None:
        payload = self._read_object()
        problems: List[str] = []
        lease_id = _string_field(payload, "lease_id", problems)
        ttl = _float_field(payload, "ttl", problems) or DEFAULT_LEASE_TTL
        if problems:
            raise BadRequest(problems)
        deadline = self.server.service.store.heartbeat_lease(lease_id, ttl=ttl)
        if deadline is None:
            self._send_json(410, {
                "error": f"lease {lease_id!r} is gone "
                f"(acked, or expired and reassigned)",
            })
        else:
            self._send_json(200, {"deadline": deadline, "ttl": ttl})

    def worker_ack(self) -> None:
        """Accept one executed cell's stats; reject stale leases with 410.

        The run key — where the result lands in the store — is recomputed
        server-side from the leased request, so a worker can only ever
        fill the cell it was handed.
        """
        from repro.core.stats import SimStats

        payload = self._read_object()
        problems: List[str] = []
        lease_id = _string_field(payload, "lease_id", problems)
        wall_time = payload.get("wall_time", 0.0)
        if isinstance(wall_time, bool) or \
                not isinstance(wall_time, (int, float)) or wall_time < 0:
            problems.append(
                f"wall_time must be a non-negative number, got {wall_time!r}"
            )
            wall_time = 0.0
        stats_dict = payload.get("stats")
        stats = None
        if not isinstance(stats_dict, dict):
            problems.append("stats must be an object (SimStats.to_dict())")
        else:
            try:
                stats = SimStats.from_dict(stats_dict)
            except (KeyError, TypeError, ValueError) as exc:
                problems.append(f"stats do not decode as SimStats: {exc}")
        if problems:
            raise BadRequest(problems)

        service = self.server.service
        row = service.store.ack_lease(lease_id, wall_time=float(wall_time))
        if row is None:
            self._send_json(410, {
                "error": f"lease {lease_id!r} is not live "
                f"(already acked, or expired and reassigned)",
            })
            return
        result = RunResult(
            workload=row["request"]["workload"],
            category=str(payload.get("category", "")),
            paper_tag=str(payload.get("paper_tag", "")),
            config=row["request"]["config"],
            stats=stats,
        )
        counts = service.queue.complete_cell(
            row, result, float(wall_time),
            worker=payload.get("worker") or row["worker"],
        )
        self._send_json(200, {
            "job_id": row["job_id"],
            "index": row["cell_index"],
            "run_id": row["run_id"],
            "remaining": counts["pending"] + counts["leased"],
            "done": counts["done"],
        })


# ----------------------------------------------------------------------
# server construction
# ----------------------------------------------------------------------
def make_server(
    service: Service,
    host: str = "127.0.0.1",
    port: int = 0,
    verbose: bool = False,
) -> ServiceHTTPServer:
    server = ServiceHTTPServer((host, port), ServiceHandler)
    server.service = service
    server.verbose = verbose
    return server


@contextmanager
def background_server(
    db_path: Optional[str] = None,
    artifact_dir: Optional[str] = None,
    jobs: Optional[int] = 1,
    host: str = "127.0.0.1",
    port: int = 0,
):
    """Run a service on an ephemeral port in a daemon thread (tests, docs).

    Yields the base URL; tears the server and its job queue down on exit.
    """
    service = Service.create(db_path, artifact_dir, jobs=jobs)
    server = make_server(service, host=host, port=port)
    thread = threading.Thread(
        target=server.serve_forever, name="repro-service", daemon=True
    )
    thread.start()
    try:
        yield f"http://{server.server_address[0]}:{server.server_address[1]}"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
        service.close()
