"""The HTTP service end to end: parity, durability, errors, client CLI.

The load-bearing guarantees:

* **parity** — SimStats fetched over HTTP are bit-identical to a direct
  ``run_matrix`` call for the same matrix;
* **durability** — with the memo cleared (as after a server restart),
  resubmitting a matrix is answered entirely by the experiment database
  (``source == "store"``, zero simulations);
* **validation** — malformed matrices are rejected up front with a 400
  and a complete ``problems`` list.

The server under test is real (``ThreadingHTTPServer`` on an ephemeral
port); only its lifetime is managed in-process.
"""

from __future__ import annotations

import contextlib
import json
import os
import subprocess
import sys
import threading
import time
import urllib.request

import pytest

from repro.harness.parallel import RunRequest, run_matrix
from repro.harness.runner import clear_memo
from repro.service.app import ROUTES, BadRequest, background_server, parse_matrix
from repro.service.client import ServiceClient, ServiceError

# Small but non-trivial windows; distinct from other tests' cells so this
# module controls its own memo hits.
WARMUP, MEASURE = 700, 900


@pytest.fixture
def service(tmp_path):
    db = tmp_path / "exp.sqlite"
    with background_server(db_path=str(db), jobs=1) as url:
        yield ServiceClient(url)


# ----------------------------------------------------------------------
# request validation (no server needed)
# ----------------------------------------------------------------------
def test_parse_matrix_product_and_cells():
    product = parse_matrix({
        "workloads": ["lammps", "gcc"], "configs": ["baseline", "acb"],
        "warmup": WARMUP, "measure": MEASURE,
    })
    assert len(product) == 4
    assert all(r.warmup == WARMUP and r.measure == MEASURE for r in product)
    explicit = parse_matrix({
        "cells": [{"workload": "lammps", "config": "acb", "measure": 500}],
        "measure": MEASURE,
    })
    assert explicit[0].measure == 500  # cell overrides the default


def test_parse_matrix_collects_every_problem():
    with pytest.raises(BadRequest) as exc:
        parse_matrix({
            "workloads": ["lammps", "no-such-workload"],
            "configs": ["baseline", "no-such-config"],
            "warmup": -3,
        })
    problems = exc.value.problems
    assert any("no-such-workload" in p for p in problems)
    assert any("no-such-config" in p for p in problems)
    assert any("warmup" in p for p in problems)


@pytest.mark.parametrize("value", ["x", -2, True, 0])
def test_parse_matrix_checks_core_scale_per_cell_and_default(value):
    with pytest.raises(BadRequest) as exc:
        parse_matrix({"cells": [{"workload": "lammps", "core_scale": value}]})
    assert exc.value.problems == [
        f"cells[0]: core_scale must be a positive integer, got {value!r}"
    ]
    # a bad top-level default is reported once, not once per cell
    with pytest.raises(BadRequest) as exc:
        parse_matrix({"workloads": ["lammps", "gcc"], "configs": ["baseline"],
                      "core_scale": value})
    assert exc.value.problems == [
        f"core_scale must be a positive integer, got {value!r}"
    ]


# ----------------------------------------------------------------------
# the HTTP surface
# ----------------------------------------------------------------------
def test_health(service):
    health = service.health()
    assert health["status"] == "ok"
    assert health["schema"] == "repro-store"


def test_submit_results_match_run_matrix_bit_for_bit(service):
    matrix = {"workloads": ["lammps"], "configs": ["baseline", "acb"],
              "warmup": WARMUP, "measure": MEASURE}
    job = service.submit(**matrix)
    assert job["status"] == "queued" or job["status"] == "running"
    assert len(job["cells"]) == 2
    service.wait(job["job_id"], timeout=300)

    direct = run_matrix(
        [RunRequest("lammps", c, warmup=WARMUP, measure=MEASURE)
         for c in ("baseline", "acb")],
        jobs=1,
    )
    fetched = service.results(job["job_id"])
    assert [r["config"] for r in fetched] == ["baseline", "acb"]
    for http_row, local in zip(fetched, direct):
        assert http_row["stats"] == local.stats.to_dict()

    # the manifest accounts for every cell
    manifest = service.manifest(job["job_id"])
    assert len(manifest["cells"]) == 2
    assert all("source" in cell for cell in manifest["cells"])


def test_resubmission_served_from_experiment_store(service):
    matrix = {"workloads": ["lammps"], "configs": ["baseline"],
              "warmup": WARMUP + 1, "measure": MEASURE}
    first = service.submit(**matrix)
    service.wait(first["job_id"], timeout=300)
    baseline = service.results(first["job_id"])[0]["stats"]

    # a server restart would clear the in-process memo; simulate exactly
    # that, so the only possible source below is the SQLite store
    clear_memo()
    again = service.submit(**matrix)
    done = service.wait(again["job_id"], timeout=300)
    assert done["simulated"] == 0
    assert done["cache_hits"] == 1
    rows = service.results(again["job_id"])
    assert rows[0]["source"] == "store"
    assert rows[0]["stats"] == baseline  # durable and bit-identical


def test_event_feed_cursor(service):
    job = service.submit(workloads=["lammps"], configs=["baseline"],
                         warmup=WARMUP, measure=MEASURE)
    service.wait(job["job_id"], timeout=300)
    feed = service.events(job["job_id"], since=0)
    kinds = [e["event"] for e in feed["events"]]
    assert kinds[0] == "queued"
    assert kinds[-1] == "done"
    assert "cell" in kinds
    seqs = [e["seq"] for e in feed["events"]]
    assert seqs == sorted(seqs)
    # the cursor excludes everything at or before `since`
    rest = service.events(job["job_id"], since=seqs[-2])
    assert [e["seq"] for e in rest["events"]] == [seqs[-1]]


def test_run_query_and_detail(service):
    job = service.submit(workloads=["lammps"], configs=["acb"],
                         warmup=WARMUP, measure=MEASURE)
    service.wait(job["job_id"], timeout=300)
    rows = service.runs(workload="lammps", config="acb")
    assert rows and rows[0]["run_id"] == job["cells"][0]["run_id"]
    detail = service.run(rows[0]["run_id"])
    assert detail["stats"]["cycles"] > 0
    assert detail["run_key"][0] == "lammps"


def test_error_statuses(service):
    # 400: invalid matrix, every problem reported
    with pytest.raises(ServiceError) as exc:
        service.submit(workloads=["nope"], configs=["baseline"])
    assert exc.value.status == 400
    assert any("nope" in p for p in exc.value.payload["problems"])
    # 404: unknown job, unknown run, unknown route
    for call in (lambda: service.job("feedfacecafe"),
                 lambda: service.run("feedfacecafe"),
                 lambda: service.request("GET", "/api/v1/nonsense")):
        with pytest.raises(ServiceError) as exc:
            call()
        assert exc.value.status == 404
    # 405: wrong method on a real route
    with pytest.raises(ServiceError) as exc:
        service.request("POST", "/api/v1/health", body={})
    assert exc.value.status == 405


@pytest.mark.parametrize("method, path, body", [
    ("GET", "/api/v1/runs?limit=abc", None),
    ("GET", "/api/v1/jobs?limit=x", None),
    ("GET", "/api/v1/jobs/{job_id}/events?since=zz", None),
    ("GET", "/api/v1/jobs/{job_id}/events?follow=1&timeout=zz", None),
    ("POST", "/api/v1/trace",
     {"workload": "lammps", "pc": "abc", "warmup": 300, "measure": 300}),
])
def test_malformed_parameters_are_400(service, method, path, body):
    job = service.submit(workloads=["lammps"], configs=["baseline"],
                         warmup=WARMUP, measure=MEASURE)
    with pytest.raises(ServiceError) as exc:
        service.request(method, path.format(job_id=job["job_id"]), body=body)
    assert exc.value.status == 400
    assert len(exc.value.payload["problems"]) == 1


@contextlib.contextmanager
def _restarted(tmp_path):
    """A server restarted over a database that holds a pending distributed
    job and a local job a killed server left ``running`` (``orphan``).
    Yields the new server's client and the distributed job."""
    from repro.service.store import ExperimentStore

    db = str(tmp_path / "exp.sqlite")
    with background_server(db_path=db, jobs=1) as url:
        distributed = ServiceClient(url).submit(
            cells=[{"workload": "lammps", "config": "baseline"}],
            backend="distributed", warmup=WARMUP, measure=MEASURE,
        )
    # what a killed server leaves behind: its queue thread never finished
    ExperimentStore(db).record_job(
        "orphan", "running", {"cells": [], "backend": "local"}
    )
    with background_server(db_path=db, jobs=1) as url:
        yield ServiceClient(url), distributed


def test_restart_fails_orphaned_local_jobs_only(tmp_path):
    """A restart fails the local jobs the dead process left unfinished;
    a distributed job keeps its leases and finishes on its last ack."""
    from repro.harness.distributed import run_worker

    with _restarted(tmp_path) as (client, distributed):
        orphan = client.job("orphan")
        assert orphan["status"] == "failed"
        assert "restarted" in orphan["error"]
        assert client.job(distributed["job_id"])["status"] == "running"
        assert run_worker(client.url, worker_id="t-w0", max_idle=0) == 1
        assert client.job(distributed["job_id"])["status"] == "done"


def test_follow_on_a_database_only_job_is_an_empty_stream(tmp_path):
    """A job from before a restart has no event history: following it
    gives an empty NDJSON 200, and ``wait`` decides on the one status
    read after it."""
    with _restarted(tmp_path) as (client, distributed):
        url = f"{client.url}/api/v1/jobs/orphan/events?follow=1&timeout=60"
        with urllib.request.urlopen(url, timeout=30) as resp:
            assert resp.status == 200
            assert resp.headers["Content-Type"] == "application/x-ndjson"
            assert resp.read() == b""
        with pytest.raises(ServiceError) as exc:
            client.wait("orphan", timeout=30)
        assert "restarted" in str(exc.value)
        with pytest.raises(ServiceError) as exc:
            client.wait(distributed["job_id"], timeout=30)
        assert "still running" in str(exc.value)


def test_results_conflict_while_running(service):
    # a fresh window nothing else has cached, so the job takes real time
    job = service.submit(workloads=["lammps"], configs=["baseline"],
                         warmup=16_000, measure=12_000)
    try:
        with pytest.raises(ServiceError) as exc:
            service.results(job["job_id"])
        assert exc.value.status == 409
    finally:
        service.wait(job["job_id"], timeout=300)


def test_trace_job_and_artifact_download(service, tmp_path):
    traced = service.trace("lammps", "acb", warmup=500, measure=400,
                           formats=["timeline", "log"])
    assert traced["stats"]["cycles"] > 0
    artifacts = {a["format"]: a for a in traced["artifacts"]}
    assert set(artifacts) == {"timeline", "log"}
    body = service.artifact(artifacts["timeline"]["artifact_id"])
    assert len(body) == artifacts["timeline"]["bytes"]
    # artifact listing via the job route agrees
    listed = service.artifacts(traced["job_id"])
    assert {a["artifact_id"] for a in listed} == {
        a["artifact_id"] for a in traced["artifacts"]
    }
    with pytest.raises(ServiceError) as exc:
        service.artifact(999_999)
    assert exc.value.status == 404


def test_follow_streams_ndjson(service):
    job = service.submit(workloads=["lammps"], configs=["baseline"],
                         warmup=WARMUP, measure=MEASURE)
    url = f"{service.url}/api/v1/jobs/{job['job_id']}/events?follow=1&timeout=60"
    with urllib.request.urlopen(url, timeout=90) as resp:
        lines = [json.loads(line) for line in resp.read().splitlines()]
    assert lines[0]["event"] == "queued"
    assert lines[-1]["event"] in ("done", "failed")


def _follow(service, job_id):
    url = f"{service.url}/api/v1/jobs/{job_id}/events?follow=1&timeout=60"
    with urllib.request.urlopen(url, timeout=90) as resp:
        return [json.loads(line) for line in resp.read().splitlines()]


def _hold_jobs(monkeypatch):
    """Hold each local job's ``run_matrix`` until the returned event is
    set (10 s at most); tests set it in a ``finally``."""
    from repro.service import jobs

    release = threading.Event()
    original = jobs.run_matrix

    def held_run_matrix(*args, **kwargs):
        release.wait(timeout=10)
        return original(*args, **kwargs)

    monkeypatch.setattr(jobs, "run_matrix", held_run_matrix)
    return release


def _release_on_first_wait(monkeypatch, release):
    """Set *release* once a follower first blocks on a job, so the job
    finishes while its stream is open."""
    from repro.service.jobs import Job

    original = Job.wait_events

    def wait_events(job, since, timeout=0.0):
        release.set()
        return original(job, since, timeout)

    monkeypatch.setattr(Job, "wait_events", wait_events)


def _expose_split_finish(monkeypatch):
    """Give every job a lock that, when released with the status terminal
    but no terminal event, wakes the job's waiters and holds the
    releasing thread (5 s at most) until a waiter has read the job as
    terminal.  A finish that flips the status and appends its event in
    two holds of the lock then ends a follow stream early every time,
    instead of only when the threads happen to interleave so."""
    from repro.service.jobs import Job

    read = threading.Event()
    original_init = Job.__init__
    original_wait = Job.wait_events

    class ExposingCondition(threading.Condition):
        def __init__(self, job):
            super().__init__()
            self.job = job
            self.exposed = False

        def __exit__(self, *exc):
            split = self.job.terminal and not self.exposed and not any(
                e["event"] in ("done", "failed") for e in self.job.events
            )
            if split:
                self.exposed = True
                self.notify_all()
            super().__exit__(*exc)
            if split:
                read.wait(timeout=5)

    def init(job, *args, **kwargs):
        original_init(job, *args, **kwargs)
        job._lock = ExposingCondition(job)

    def wait_events(job, since, timeout=0.0):
        events, terminal = original_wait(job, since, timeout)
        if terminal:
            read.set()
        return events, terminal

    monkeypatch.setattr(Job, "__init__", init)
    monkeypatch.setattr(Job, "wait_events", wait_events)


def test_follow_stream_gets_terminal_event_appended_with_status(
    service, monkeypatch
):
    """A stream that sees the job terminal must also see its terminal
    event: ``Job.finish`` flips the status and appends the event in one
    hold of the job's lock, so ``Job.wait_events`` never reads one
    without the other."""
    _expose_split_finish(monkeypatch)
    release = _hold_jobs(monkeypatch)
    _release_on_first_wait(monkeypatch, release)
    job = service.submit(workloads=["lammps"], configs=["baseline"],
                         warmup=WARMUP, measure=MEASURE)
    try:
        lines = _follow(service, job["job_id"])
    finally:
        release.set()
    assert [e["event"] for e in lines] == ["queued", "running", "cell", "done"]


def test_follow_stream_reads_terminal_before_draining(service, monkeypatch):
    """The job finishes after ``wait_events`` read it but before the
    stream loop looks at the result; the loop must go by the terminal
    flag read with the events, and so still end with the terminal
    event."""
    from repro.service.jobs import Job

    _expose_split_finish(monkeypatch)
    release = _hold_jobs(monkeypatch)
    _release_on_first_wait(monkeypatch, release)
    fresh_read = Job.wait_events

    def stale_read(job, since, timeout=0.0):
        events, terminal = fresh_read(job, since, timeout)
        if not terminal:
            with job._lock:
                job._lock.wait_for(lambda: job.terminal, timeout=10)
        return events, terminal

    monkeypatch.setattr(Job, "wait_events", stale_read)
    job = service.submit(workloads=["gcc"], configs=["baseline"],
                         warmup=WARMUP, measure=MEASURE)
    try:
        lines = _follow(service, job["job_id"])
    finally:
        release.set()
    assert [e["event"] for e in lines] == ["queued", "running", "cell", "done"]


def _no_sleep(monkeypatch):
    """``time.sleep`` raises in the service modules."""
    from repro.service import app, client, jobs

    class NoSleep:
        def __getattr__(self, name):
            return getattr(time, name)

        @staticmethod
        def sleep(seconds):
            raise AssertionError(f"slept {seconds}s")

    for module in (app, jobs, client):
        monkeypatch.setattr(module, "time", NoSleep(), raising=False)


def test_follow_and_wait_block_without_sleeping(service, monkeypatch):
    _no_sleep(monkeypatch)
    release = _hold_jobs(monkeypatch)
    first = service.submit(workloads=["lammps"], configs=["acb"],
                           warmup=WARMUP, measure=MEASURE)
    second = service.submit(workloads=["gcc"], configs=["acb"],
                            warmup=WARMUP, measure=MEASURE)
    timer = threading.Timer(0.3, release.set)
    timer.start()
    try:
        lines = _follow(service, first["job_id"])  # opened while held
        status = service.wait(second["job_id"], timeout=60)
    finally:
        timer.cancel()
        release.set()
    assert lines[-1]["event"] == "done"
    assert status["status"] == "done"


def test_wait_passes_every_event_once(service):
    job = service.submit(workloads=["mcf", "gcc"], configs=["baseline"],
                         warmup=WARMUP, measure=MEASURE)
    seen = []
    status = service.wait(job["job_id"], timeout=300, on_event=seen.append)
    assert status["status"] == "done"
    assert [e["seq"] for e in seen] == list(range(1, len(seen) + 1))
    assert seen[-1]["event"] == "done"
    assert seen == service.events(job["job_id"])["events"]


def test_wait_raises_with_the_failed_jobs_error(service, monkeypatch):
    from repro.service import jobs

    def broken_run_matrix(*args, **kwargs):
        raise RuntimeError("engine on fire")

    monkeypatch.setattr(jobs, "run_matrix", broken_run_matrix)
    job = service.submit(workloads=["lammps"], configs=["baseline"],
                         warmup=WARMUP, measure=MEASURE)
    with pytest.raises(ServiceError) as exc:
        service.wait(job["job_id"], timeout=60)
    assert "RuntimeError: engine on fire" in str(exc.value)
    assert service.job(job["job_id"])["error"] == \
        "RuntimeError: engine on fire"


def test_wait_times_out_on_a_held_job(service, monkeypatch):
    release = _hold_jobs(monkeypatch)
    job = service.submit(workloads=["lammps"], configs=["dmp"],
                         warmup=WARMUP, measure=MEASURE)
    try:
        with pytest.raises(ServiceError) as exc:
            service.wait(job["job_id"], timeout=0.5)
    finally:
        release.set()
    assert "still running" in str(exc.value)
    service.wait(job["job_id"], timeout=300)


def test_wait_outlasts_the_request_timeout(service, monkeypatch):
    """The stream may stay silent longer than one request may take."""
    release = _hold_jobs(monkeypatch)
    job = service.submit(workloads=["lammps"], configs=["dhp"],
                         warmup=WARMUP, measure=MEASURE)
    timer = threading.Timer(2.0, release.set)
    timer.start()
    try:
        status = ServiceClient(service.url, timeout=0.5).wait(
            job["job_id"], timeout=60
        )
    finally:
        timer.cancel()
        release.set()
    assert status["status"] == "done"


def test_route_table_is_complete():
    """Every handler named in ROUTES exists on the handler class."""
    from repro.service.app import ServiceHandler

    for route in ROUTES:
        assert callable(getattr(ServiceHandler, route.handler))


# ----------------------------------------------------------------------
# the client CLI, end to end
# ----------------------------------------------------------------------
def test_cli_submit_and_runs(service):
    env = dict(
        os.environ,
        PYTHONPATH=os.path.join(os.path.dirname(__file__), "..", "src"),
        REPRO_CACHE="0",
    )
    submit = subprocess.run(
        [sys.executable, "-m", "repro", "submit", "lammps",
         "--configs", "baseline", "--warmup", str(WARMUP),
         "--measure", str(MEASURE), "--url", service.url],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert submit.returncode == 0, submit.stderr
    assert "lammps" in submit.stdout and "baseline" in submit.stdout

    runs = subprocess.run(
        [sys.executable, "-m", "repro", "runs", "--url", service.url,
         "--workload", "lammps", "--json"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert runs.returncode == 0, runs.stderr
    rows = json.loads(runs.stdout)
    assert any(row["workload"] == "lammps" for row in rows)
