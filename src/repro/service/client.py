"""urllib-only client for the service API (``repro submit`` / ``repro runs``).

No third-party HTTP stack: the client the CLI, the tests, and the CI
``service-smoke`` job all use is ~anything a user could paste from
``docs/service.md`` with ``urllib.request``.  Base URL resolution:
explicit argument, else the ``REPRO_SERVICE_URL`` environment variable,
else ``http://127.0.0.1:8321``.
"""

from __future__ import annotations

import json
import os
import urllib.error
import urllib.parse
import urllib.request
from typing import Any, Callable, Dict, List, Optional

#: Environment override for the service base URL.
ENV_SERVICE_URL = "REPRO_SERVICE_URL"

DEFAULT_URL = "http://127.0.0.1:8321"


def service_url(url: Optional[str] = None) -> str:
    return (url or os.environ.get(ENV_SERVICE_URL, "").strip()
            or DEFAULT_URL).rstrip("/")


class ServiceError(RuntimeError):
    """Non-2xx response; carries the HTTP status and decoded error body."""

    def __init__(self, status: int, payload: Any):
        detail = payload.get("error") if isinstance(payload, dict) else payload
        problems = payload.get("problems") if isinstance(payload, dict) else None
        message = f"HTTP {status}: {detail}"
        if problems:
            message += " (" + "; ".join(problems) + ")"
        super().__init__(message)
        self.status = status
        self.payload = payload


class ServiceClient:
    """Thin JSON client over one service base URL."""

    def __init__(self, url: Optional[str] = None, timeout: float = 30.0):
        self.url = service_url(url)
        self.timeout = timeout

    # ------------------------------------------------------------------
    def request(
        self,
        method: str,
        path: str,
        body: Optional[Dict] = None,
        query: Optional[Dict[str, Any]] = None,
    ) -> Any:
        url = self.url + path
        if query:
            pruned = {k: v for k, v in query.items() if v is not None}
            if pruned:
                url += "?" + urllib.parse.urlencode(pruned)
        data = json.dumps(body).encode() if body is not None else None
        request = urllib.request.Request(
            url, data=data, method=method,
            headers={"Content-Type": "application/json"} if data else {},
        )
        with self._open(request, self.timeout) as resp:
            raw = resp.read()
        return json.loads(raw) if raw else None

    def _open(self, request: Any, timeout: float):
        """``urlopen`` with failures raised as :class:`ServiceError`."""
        try:
            return urllib.request.urlopen(request, timeout=timeout)
        except urllib.error.HTTPError as exc:
            raw = exc.read()
            try:
                payload = json.loads(raw)
            except ValueError:
                payload = raw.decode(errors="replace")
            raise ServiceError(exc.code, payload) from None
        except urllib.error.URLError as exc:
            raise ServiceError(
                0, f"cannot reach {self.url}: {exc.reason}"
            ) from None

    # ------------------------------------------------------------------
    def health(self) -> Dict:
        return self.request("GET", "/api/v1/health")

    def submit(
        self,
        cells: Optional[List[Dict]] = None,
        workloads: Optional[List[str]] = None,
        configs: Optional[List[str]] = None,
        backend: Optional[str] = None,
        **defaults: Any,
    ) -> Dict:
        """Submit a matrix; returns the 202 body (``job_id``, cells).

        *defaults* become top-level body fields each cell may override —
        ``warmup``/``measure``/``core_scale``/``predictor``.
        *backend* ``"distributed"`` queues the cells for pull-based
        workers instead of the server's local job queue
        (docs/distributed.md).
        """
        body: Dict[str, Any] = dict(defaults)
        if backend is not None:
            body["backend"] = backend
        if cells is not None:
            body["cells"] = cells
        if workloads is not None:
            body["workloads"] = workloads
        if configs is not None:
            body["configs"] = configs
        return self.request("POST", "/api/v1/jobs", body=body)

    def job(self, job_id: str) -> Dict:
        return self.request("GET", f"/api/v1/jobs/{job_id}")

    def events(self, job_id: str, since: int = 0) -> Dict:
        return self.request(
            "GET", f"/api/v1/jobs/{job_id}/events", query={"since": since}
        )

    def results(self, job_id: str) -> List[Dict]:
        return self.request(
            "GET", f"/api/v1/jobs/{job_id}/results"
        )["results"]

    def manifest(self, job_id: str) -> Dict:
        return self.request("GET", f"/api/v1/jobs/{job_id}/manifest")

    def wait(
        self,
        job_id: str,
        timeout: float = 600.0,
        on_event: Optional[Callable[[Dict], None]] = None,
    ) -> Dict:
        """Block until the job is terminal; returns its final status dict.

        Follows the job's ``?follow=1`` event stream, which the server
        ends when the job is terminal or *timeout* seconds have passed,
        passing each event to *on_event*; then reads the job's status
        once.  The stream's socket timeout is *timeout* plus the client's
        request timeout, since a long cell may send no event for a while.
        Raises :class:`ServiceError` on job failure or timeout.
        """
        query = urllib.parse.urlencode({"follow": 1, "timeout": timeout})
        url = f"{self.url}/api/v1/jobs/{job_id}/events?{query}"
        with self._open(url, timeout + self.timeout) as stream:
            for line in stream:
                if on_event is not None:
                    on_event(json.loads(line))
        status = self.job(job_id)
        if status["status"] == "failed":
            raise ServiceError(500, {"error": status.get("error")
                                     or "job failed"})
        if status["status"] != "done":
            raise ServiceError(
                0, f"job {job_id} still {status['status']} "
                f"after {timeout:.0f}s"
            )
        return status

    def runs(
        self,
        workload: Optional[str] = None,
        config: Optional[str] = None,
        limit: int = 100,
    ) -> List[Dict]:
        return self.request(
            "GET", "/api/v1/runs",
            query={"workload": workload, "config": config, "limit": limit},
        )["runs"]

    def run(self, run_id: str) -> Dict:
        return self.request("GET", f"/api/v1/runs/{run_id}")

    def trace(self, workload: str, config: str = "acb", **options: Any) -> Dict:
        return self.request(
            "POST", "/api/v1/trace",
            body={"workload": workload, "config": config, **options},
        )

    # ------------------------------------------------------------------
    # distributed-worker surface (docs/distributed.md)
    # ------------------------------------------------------------------
    def lease(self, worker: str, ttl: Optional[float] = None) -> Dict:
        """Claim the oldest pending distributed cell, or ``cell: None``."""
        body: Dict[str, Any] = {"worker": worker}
        if ttl is not None:
            body["ttl"] = ttl
        return self.request("POST", "/api/v1/workers/lease", body=body)

    def heartbeat(self, lease_id: str, ttl: Optional[float] = None) -> Dict:
        """Renew a live lease; raises ``ServiceError`` (410) when gone."""
        body: Dict[str, Any] = {"lease_id": lease_id}
        if ttl is not None:
            body["ttl"] = ttl
        return self.request("POST", "/api/v1/workers/heartbeat", body=body)

    def ack(
        self,
        lease_id: str,
        worker: str,
        stats: Dict,
        category: str = "",
        paper_tag: str = "",
        wall_time: float = 0.0,
    ) -> Dict:
        """Post one executed cell's ``SimStats.to_dict()`` back."""
        return self.request("POST", "/api/v1/workers/ack", body={
            "lease_id": lease_id,
            "worker": worker,
            "stats": stats,
            "category": category,
            "paper_tag": paper_tag,
            "wall_time": wall_time,
        })

    def workers(self) -> Dict:
        return self.request("GET", "/api/v1/workers")

    def artifacts(self, job_id: str) -> List[Dict]:
        return self.request(
            "GET", f"/api/v1/jobs/{job_id}/artifacts"
        )["artifacts"]

    def artifact(self, artifact_id: int) -> bytes:
        url = f"{self.url}/api/v1/artifacts/{artifact_id}"
        with self._open(url, self.timeout) as resp:
            return resp.read()
