"""Distributed matrix dispatch: leases, workers, requeue, bit-identity.

The load-bearing guarantees (docs/distributed.md):

* **determinism** — a matrix drained by pull-based workers produces
  SimStats bit-identical to serial ``run_matrix``, whether the workers
  run in-process or as real subprocesses against an embedded service;
* **fault tolerance** — a worker that leases a cell and dies never loses
  it: the lease expires and the cell is re-leased to a live worker, and
  the final stats are unchanged;
* **exact accounting** — a zombie's late ack is rejected (410) instead
  of double-counting the cell.
"""

from __future__ import annotations

import time

import pytest

from repro.harness.distributed import (
    resolve_dist_workers,
    run_worker,
    worker_command,
)
from repro.harness.parallel import (
    BACKENDS,
    RunRequest,
    last_manifest,
    resolve_backend,
    run_matrix,
)
from repro.harness.runner import clear_memo, normalized_run_key
from repro.service.app import background_server
from repro.service.client import ServiceClient, ServiceError
from repro.service.store import (
    STORE_SCHEMA_VERSION,
    ExperimentStore,
    run_id_for,
)

# Distinct windows so this module controls its own memo/cache hits.
WARMUP, MEASURE = 1100, 1300


def _request_fields(workload, config):
    return {"workload": workload, "config": config,
            "warmup": WARMUP, "measure": MEASURE}


def _cells(pairs):
    out = []
    for index, (workload, config) in enumerate(pairs):
        key = normalized_run_key(workload, config, 1, None, WARMUP, MEASURE)
        out.append({"index": index, "run_id": run_id_for(key),
                    "request": _request_fields(workload, config)})
    return out


# ----------------------------------------------------------------------
# store-level lease lifecycle (no server)
# ----------------------------------------------------------------------
def test_lease_lifecycle(tmp_path):
    store = ExperimentStore(str(tmp_path / "exp.sqlite"))
    cells = _cells([("mcf", "baseline"), ("mcf", "acb")])
    assert store.enqueue_cells("job-1", cells) == 2
    assert store.enqueue_cells("job-1", cells) == 0  # idempotent

    lease = store.lease_next("w0", ttl=30.0)
    assert lease["job_id"] == "job-1"
    assert lease["index"] == 0
    assert lease["attempts"] == 1
    assert lease["request"]["workload"] == "mcf"
    counts = store.lease_counts()
    assert counts == {"pending": 1, "leased": 1, "done": 0}

    deadline = store.heartbeat_lease(lease["lease_id"], ttl=60.0)
    assert deadline is not None

    acked = store.ack_lease(lease["lease_id"], wall_time=0.5)
    assert acked["cell_index"] == 0
    assert acked["run_id"] == lease["run_id"]
    assert store.ack_lease(lease["lease_id"]) is None  # second ack: stale
    assert store.lease_counts()["done"] == 1


def test_expired_lease_requeues_and_stale_ack_rejected(tmp_path):
    store = ExperimentStore(str(tmp_path / "exp.sqlite"))
    store.enqueue_cells("job-1", _cells([("mcf", "acb")]))

    now = time.time()
    dying = store.lease_next("dying", ttl=0.01, now=now)
    # nothing to requeue before the deadline
    assert store.requeue_expired(now=now) == []
    requeued = store.requeue_expired(now=now + 1.0)
    assert [r["worker"] for r in requeued] == ["dying"]

    survivor = store.lease_next("live", ttl=30.0)
    assert survivor["index"] == dying["index"]
    assert survivor["attempts"] == 2
    # the dead worker's late heartbeat and ack are both rejected
    assert store.heartbeat_lease(dying["lease_id"], ttl=30.0) is None
    assert store.ack_lease(dying["lease_id"]) is None
    assert store.ack_lease(survivor["lease_id"]) is not None


def test_ack_racing_a_requeue_is_stale(tmp_path, monkeypatch):
    """A requeue committed between the ack's SELECT and its UPDATE wins:
    the ack reports the lease stale, and the cell stays pending."""
    path = str(tmp_path / "exp.sqlite")
    store = ExperimentStore(path)
    other = ExperimentStore(path)
    store.enqueue_cells("job-1", _cells([("mcf", "acb")]))
    lease = store.lease_next("slow", ttl=30.0)
    connect = store._connect
    requeued = []

    class RequeueBeforeUpdate:
        def __init__(self, conn):
            self.conn = conn

        def __enter__(self):
            self.conn.__enter__()
            return self

        def __exit__(self, *exc):
            return self.conn.__exit__(*exc)

        def execute(self, sql, *params):
            if sql.startswith("UPDATE leases SET state = 'done'"):
                requeued.extend(other.requeue_expired(now=time.time() + 60))
            return self.conn.execute(sql, *params)

    monkeypatch.setattr(store, "_connect",
                        lambda: RequeueBeforeUpdate(connect()))
    assert store.ack_lease(lease["lease_id"]) is None
    assert [row["worker"] for row in requeued] == ["slow"]
    assert [row["state"] for row in other.list_leases("job-1")] == ["pending"]


def test_v1_store_migrates_to_v2_in_place(tmp_path):
    import sqlite3

    path = str(tmp_path / "exp.sqlite")
    ExperimentStore(path).schema_info()  # create fresh at current version
    with sqlite3.connect(path) as conn:
        conn.execute("DROP TABLE leases")
        conn.execute("UPDATE meta SET value = '1' "
                     "WHERE key = 'schema_version'")

    migrated = ExperimentStore(path)
    assert migrated.schema_info()["schema_version"] == STORE_SCHEMA_VERSION
    migrated.enqueue_cells("job-1", _cells([("mcf", "acb")]))
    assert migrated.lease_next("w0") is not None


# ----------------------------------------------------------------------
# backend selection
# ----------------------------------------------------------------------
def test_resolve_backend(monkeypatch):
    monkeypatch.delenv("REPRO_BACKEND", raising=False)
    assert resolve_backend(None) == ""
    for name in BACKENDS:
        assert resolve_backend(name) == name
    monkeypatch.setenv("REPRO_BACKEND", "distributed")
    assert resolve_backend(None) == "distributed"
    assert resolve_backend("serial") == "serial"  # argument wins
    with pytest.raises(ValueError):
        resolve_backend("carrier-pigeon")


def test_resolve_dist_workers(monkeypatch):
    monkeypatch.delenv("REPRO_DIST_WORKERS", raising=False)
    assert resolve_dist_workers() == 2
    assert resolve_dist_workers(5) == 5
    monkeypatch.setenv("REPRO_DIST_WORKERS", "3")
    assert resolve_dist_workers() == 3
    monkeypatch.setenv("REPRO_DIST_WORKERS", "many")
    with pytest.raises(ValueError):
        resolve_dist_workers()


def test_worker_command_local_and_ssh():
    local = worker_command("base-url", worker_id="w7", ttl=9.0, max_idle=4.0)
    assert local[1:4] == ["-m", "repro", "worker"]
    assert "--id" in local and local[local.index("--id") + 1] == "w7"
    remote = worker_command("base-url", ssh_host="sim-host-2")
    assert remote[:2] == ["ssh", "sim-host-2"]
    assert remote[2] == "python3"


# ----------------------------------------------------------------------
# service-level: in-process worker drains a distributed job
# ----------------------------------------------------------------------
@pytest.fixture
def service(tmp_path):
    db = tmp_path / "exp.sqlite"
    with background_server(db_path=str(db), jobs=1) as url:
        yield ServiceClient(url)


def _matrix_cells():
    return [{"workload": w, "config": c, "warmup": WARMUP, "measure": MEASURE}
            for w in ("mcf", "gcc") for c in ("baseline", "acb")]


def _serial_stats():
    """Honest serial reference: no memo, no cache, no store attached.

    Computed *before* the distributed job runs, so neither side can be
    answered from the other's stored rows — the comparison is between
    two independent simulations.
    """
    from repro.harness.cache import set_active_cache, set_active_store

    previous_store = set_active_store(None)
    previous_cache = set_active_cache(None)
    clear_memo()
    try:
        results = run_matrix(
            [RunRequest(c["workload"], c["config"], warmup=WARMUP,
                        measure=MEASURE) for c in _matrix_cells()],
            backend="serial",
        )
    finally:
        clear_memo()
        set_active_cache(previous_cache)
        set_active_store(previous_store)
    return [r.stats.to_dict() for r in results]


def test_distributed_job_drained_by_worker_matches_serial(service):
    expected = _serial_stats()
    job = service.submit(cells=_matrix_cells(), backend="distributed")
    assert job["backend"] == "distributed"
    status = service.job(job["job_id"])
    assert status["status"] == "running"  # queued for workers, none yet

    done = run_worker(service.url, worker_id="t-w0", max_idle=0)
    assert done == len(_matrix_cells())

    status = service.wait(job["job_id"], timeout=30.0)
    assert status["simulated"] == len(_matrix_cells())
    manifest = service.manifest(job["job_id"])
    assert manifest["backend"] == "distributed"
    assert all(cell["worker"] == "t-w0" for cell in manifest["cells"])

    over_wire = [r["stats"] for r in service.results(job["job_id"])]
    assert over_wire == expected
    assert service.workers()["cells"]["done"] == len(_matrix_cells())


def test_dead_worker_cell_is_requeued_and_stats_unchanged(service):
    expected = _serial_stats()
    job = service.submit(cells=_matrix_cells(), backend="distributed")

    # a worker leases one cell with a tiny ttl and dies without acking
    dying = service.lease("t-dying", ttl=0.05)
    assert dying["cell"] is not None
    assert dying["attempts"] == 1
    time.sleep(0.1)  # let the lease expire

    # a live worker drains the whole job, including the orphaned cell
    done = run_worker(service.url, worker_id="t-live", max_idle=0)
    assert done == len(_matrix_cells())
    service.wait(job["job_id"], timeout=30.0)

    # the orphaned cell went around twice; the zombie's ack is rejected
    assert service.workers()["cells"]["leased"] == 0
    events = service.events(job["job_id"])["events"]
    assert any(e["event"] == "requeue" for e in events)
    with pytest.raises(ServiceError) as exc:
        service.ack(dying["lease_id"], "t-dying", stats={})
    assert exc.value.status == 410

    over_wire = [r["stats"] for r in service.results(job["job_id"])]
    assert over_wire == expected


def test_lease_validation_errors(service):
    with pytest.raises(ServiceError) as exc:
        service.lease("")
    assert exc.value.status == 400
    with pytest.raises(ServiceError) as exc:
        service.heartbeat("no-such-lease")
    assert exc.value.status == 410
    with pytest.raises(ServiceError) as exc:
        service.request("POST", "/api/v1/workers/ack",
                        body={"lease_id": "x", "stats": "not-a-dict"})
    assert exc.value.status == 400


# ----------------------------------------------------------------------
# run_matrix(backend="distributed"): embedded service + subprocesses
# ----------------------------------------------------------------------
def test_run_matrix_distributed_backend_bit_identical():
    requests = [
        RunRequest(w, c, warmup=WARMUP, measure=MEASURE)
        for w in ("mcf",) for c in ("baseline", "acb")
    ]
    clear_memo()
    distributed = run_matrix(requests, backend="distributed")
    manifest = last_manifest()
    assert manifest.backend == "distributed"
    assert all(c.source == "run" and c.worker for c in manifest.cells)

    clear_memo()
    serial = run_matrix(requests, backend="serial")
    assert [r.stats.to_dict() for r in distributed] == \
        [r.stats.to_dict() for r in serial]
