"""Parallel fan-out over the experiment matrix.

Every figure driver ultimately evaluates a matrix of independent
(workload × configuration × scale) simulation cells.  This module is the
single submission point for such matrices: it deduplicates cells against
the in-process memo and the persistent disk cache
(:mod:`repro.harness.cache`), fans the remaining cells out over a
``ProcessPoolExecutor``, and records a per-matrix *run manifest* (cells
simulated vs. cache hits, wall-time per cell).

Worker count comes from the ``jobs`` argument, else the ``REPRO_JOBS``
environment variable, else ``os.cpu_count()``.  ``REPRO_JOBS=1`` — and any
request that cannot be pickled, e.g. an ad-hoc :class:`Workload` subclass
defined in a test body — falls back to serial in-process execution, which
is bit-identical because the simulator is deterministic and each cell is
independently seeded.
"""

from __future__ import annotations

import atexit
import os
import pickle
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple, Union

from repro.acb import AcbConfig
from repro.core import CoreConfig
from repro.harness import cache as result_cache
from repro.harness.runner import (
    RunResult,
    _relabel,
    config_problem,
    lookup_cached,
    normalized_run_key,
    predictor_problem,
    run_workload,
    store_result,
    workload_problem,
)
from repro.workloads import Workload

__all__ = [
    "BACKENDS",
    "CellError",
    "CellRecord",
    "HIT_SOURCES",
    "MatrixManifest",
    "RunRequest",
    "default_jobs",
    "field_problem",
    "last_manifest",
    "positive_int_problem",
    "reset_manifests",
    "resolve_backend",
    "run_matrix",
    "run_tasks",
    "session_manifests",
    "shutdown_pool",
]

#: Matrix dispatch backends (``--backend`` / ``REPRO_BACKEND``):
#: serial       in-process, one cell at a time (jobs=1)
#: pool         ProcessPoolExecutor cell fan-out (the default with jobs>1)
#: distributed  lease-based workers over the service HTTP API
#:              (repro.harness.distributed)
BACKENDS = ("serial", "pool", "distributed")

ENV_BACKEND = "REPRO_BACKEND"


def resolve_backend(backend: Optional[str] = None) -> str:
    """Normalize the backend choice: argument, else ``REPRO_BACKEND``.

    Returns ``""`` when nothing was requested — ``run_matrix`` then picks
    serial/pool from ``jobs`` exactly as before the backend flag existed.
    """
    value = (backend if backend is not None
             else os.environ.get(ENV_BACKEND, "")).strip().lower()
    if not value:
        return ""
    if value not in BACKENDS:
        raise ValueError(
            f"backend must be one of {', '.join(BACKENDS)}, got {value!r}"
        )
    return value


def default_jobs() -> int:
    """Worker count: ``REPRO_JOBS`` env var, else ``os.cpu_count()``."""
    env = os.environ.get("REPRO_JOBS", "").strip()
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ValueError(
                f"REPRO_JOBS must be an integer, got {env!r}"
            ) from None
    return os.cpu_count() or 1


#: The wire form of a cell: the fields a worker re-runs it from, in the
#: order they travel as JSON (service requests, lease rows).
WIRE_FIELDS = ("workload", "config", "core_scale", "predictor", "warmup", "measure")


class CellError(ValueError):
    """A cell that breaks the contract; ``problems`` names every defect."""

    def __init__(self, problems: List[str]):
        super().__init__("; ".join(problems))
        self.problems = problems


def positive_int_problem(name: str, value: Any) -> Optional[str]:
    """Why *value* is no positive integer for *name*; ``None`` passes."""
    if value is None or type(value) is int and value >= 1:  # not bool
        return None
    return f"{name} must be a positive integer, got {value!r}"


def field_problem(name: str, value: Any) -> Optional[str]:
    """Why *value* is no valid wire field *name*, or ``None``.

    A ``None`` value means the field's default; only ``workload`` is required.
    """
    if name == "workload":
        return workload_problem(value)
    if value is None:
        return None
    if name == "config":
        return config_problem(value)
    if name == "predictor":
        return predictor_problem(value)
    return positive_int_problem(name, value)


@dataclass(frozen=True)
class RunRequest:
    """One cell of an experiment matrix (the arguments of ``run_workload``)."""

    workload: Union[str, Workload]
    config: str = "baseline"
    core_scale: int = 1
    predictor: Optional[str] = None
    warmup: Optional[int] = None
    measure: Optional[int] = None
    acb_config: Optional[AcbConfig] = None
    core_config: Optional[CoreConfig] = None

    @property
    def workload_name(self) -> str:
        return self.workload if isinstance(self.workload, str) else self.workload.name

    def memo_key(self) -> Optional[tuple]:
        """Normalized cache key, or ``None`` for uncacheable ad-hoc cells."""
        if not isinstance(self.workload, str):
            return None
        if self.acb_config is not None or self.core_config is not None:
            return None
        return normalized_run_key(
            self.workload,
            self.config,
            self.core_scale,
            self.predictor,
            self.warmup,
            self.measure,
        )

    def kwargs(self) -> Dict:
        return dict(vars(self))  # every field is a run_workload argument

    def fields(self) -> Dict[str, Any]:
        """The wire form: exactly the fields a worker re-runs the cell from."""
        out = {name: getattr(self, name) for name in WIRE_FIELDS}
        out["workload"] = self.workload_name
        return out

    @classmethod
    def from_fields(cls, fields: Dict[str, Any]) -> "RunRequest":
        """A checked cell from its wire form; other keys are ignored.

        An absent or ``None`` field takes the default above (for
        ``warmup``/``measure``: the default window).  Raises
        :class:`CellError` naming every problem at once.
        """
        problems = [problem for name in WIRE_FIELDS
                    if (problem := field_problem(name, fields.get(name)))]
        if problems:
            raise CellError(problems)
        return cls(**{name: fields[name] for name in WIRE_FIELDS
                      if fields.get(name) is not None})


#: Cell sources that mean "answered without simulating".
HIT_SOURCES = ("memo", "cache", "store", "dedup")


@dataclass
class CellRecord:
    """How one matrix cell was satisfied."""

    workload: str
    config: str
    source: str          # "run" or one of HIT_SOURCES
    wall_time: float = 0.0
    #: distributed dispatch only: the worker that executed the cell.
    worker: str = ""


@dataclass
class MatrixManifest:
    """Accounting for one ``run_matrix`` invocation."""

    jobs: int = 1
    wall_time: float = 0.0
    #: resolved dispatch backend ("serial" | "pool" | "distributed") — see
    #: :data:`BACKENDS`.
    backend: str = "serial"
    cells: List[CellRecord] = field(default_factory=list)
    #: files written alongside the runs (trace exports, decision logs).
    artifacts: List[str] = field(default_factory=list)

    @property
    def total(self) -> int:
        return len(self.cells)

    @property
    def simulated(self) -> int:
        return sum(1 for c in self.cells if c.source == "run")

    @property
    def cache_hits(self) -> int:
        return sum(1 for c in self.cells if c.source in HIT_SOURCES)

    @property
    def hit_rate(self) -> float:
        return self.cache_hits / self.total if self.cells else 0.0


#: manifests of every matrix submitted in this process, in order.
_MANIFESTS: List[MatrixManifest] = []


def last_manifest() -> Optional[MatrixManifest]:
    return _MANIFESTS[-1] if _MANIFESTS else None


def session_manifests() -> List[MatrixManifest]:
    return list(_MANIFESTS)


def reset_manifests() -> None:
    _MANIFESTS.clear()


def record_artifacts(paths, workload: str = "", config: str = "",
                     wall_time: float = 0.0) -> MatrixManifest:
    """Register files written by a tracing/diagnostic run.

    Creates a one-cell manifest so artifact paths show up in the
    end-of-session summary next to the simulation accounting.
    """
    manifest = MatrixManifest(jobs=1, wall_time=wall_time)
    if workload:
        manifest.cells.append(
            CellRecord(workload=workload, config=config, source="run",
                       wall_time=wall_time)
        )
    manifest.artifacts.extend(str(p) for p in paths)
    _MANIFESTS.append(manifest)
    return manifest


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------
def _detach_tiers() -> None:
    """Pool worker initializer: the parent owns every result tier.

    The parent probes memo/cache/store before it submits a cell and writes
    each pooled result through after it returns, so workers simulate with
    the disk cache and the durable store detached — this also keeps forked
    workers from using a stale inherited handle.
    """
    result_cache.set_active_cache(None)
    result_cache.set_active_store(None)


def _execute_cell(request: RunRequest):
    """Simulate one cell: ``(result, wall_time, pid)``.

    Runs in a pool worker or, on the serial path, in the calling process;
    *pid* tells :func:`run_matrix` which, because ``run_workload`` has
    already written a cell simulated in the caller through to its tiers.
    """
    start = time.monotonic()
    result = run_workload(**request.kwargs())
    return result, time.monotonic() - start, os.getpid()


def _describe_cell(request: RunRequest) -> str:
    return f"simulation cell {request.workload_name!r} × {request.config!r}"


# ----------------------------------------------------------------------
# a lazily-created, reusable worker pool
# ----------------------------------------------------------------------
_POOL: Optional[ProcessPoolExecutor] = None
_POOL_JOBS: int = 0


def _get_pool(jobs: int) -> ProcessPoolExecutor:
    global _POOL, _POOL_JOBS
    if _POOL is None or _POOL_JOBS != jobs:
        shutdown_pool()
        _POOL = ProcessPoolExecutor(max_workers=jobs, initializer=_detach_tiers)
        _POOL_JOBS = jobs
    return _POOL


def shutdown_pool() -> None:
    """Tear down the shared worker pool (tests; end of process)."""
    global _POOL, _POOL_JOBS
    if _POOL is not None:
        _POOL.shutdown(wait=True, cancel_futures=True)
        _POOL = None
        _POOL_JOBS = 0


# the pool is module-global so matrices reuse warm workers, which means
# nothing ever shut it down: a process that exited right after a matrix
# left worker processes to be reaped by the interpreter's own teardown.
# Register an explicit atexit hook so workers are joined deterministically.
atexit.register(shutdown_pool)
_ATEXIT_REGISTERED = True


# ----------------------------------------------------------------------
# the dispatch loop
# ----------------------------------------------------------------------
def _is_picklable(obj) -> bool:
    try:
        pickle.dumps(obj)
        return True
    except Exception:
        return False


def _execute(fn, items: List, jobs: int,
             describe: Optional[Callable] = None) -> Iterator[Tuple[int, Any]]:
    """Run ``fn(item)`` for every item, yielding ``(index, outcome)``.

    The one dispatch loop under :func:`run_matrix` and :func:`run_tasks`.
    With ``jobs > 1`` and more than one item, picklable items fan out over
    the shared pool; the rest — every item when ``jobs <= 1`` or *fn*
    cannot be pickled — run in this process while the pool works, and the
    pooled outcomes follow in submission order.  The first failure cancels
    the queued siblings, shuts a broken pool down, and is raised: as a
    ``RuntimeError`` naming the item when *describe* is given, else as the
    task's own exception.
    """
    local = list(range(len(items)))
    pooled: List[int] = []
    if jobs > 1 and len(items) > 1 and _is_picklable(fn):
        pooled = [i for i in local if _is_picklable(items[i])]
        skip = set(pooled)
        local = [i for i in local if i not in skip]
    futures: Dict[Any, int] = {}
    current = 0
    try:
        for current in pooled:
            futures[_get_pool(jobs).submit(fn, items[current])] = current
        for current in local:
            yield current, fn(items[current])
        for future, current in futures.items():
            yield current, future.result()
    except Exception as exc:
        for future in futures:
            future.cancel()
        broken = isinstance(exc, BrokenProcessPool)
        if broken:
            shutdown_pool()
        if describe is not None:
            raise RuntimeError(
                f"{describe(items[current])} failed: "
                f"{type(exc).__name__}: {exc}"
            ) from exc
        if broken:
            raise RuntimeError(f"worker pool died mid-task: {exc}") from exc
        raise


# ----------------------------------------------------------------------
# parent side
# ----------------------------------------------------------------------
def run_matrix(
    requests: List[RunRequest],
    jobs: Optional[int] = None,
    backend: Optional[str] = None,
) -> List[RunResult]:
    """Evaluate a full experiment matrix, results in request order.

    Cells already satisfied by the memo or the disk cache are not
    re-simulated; duplicate cells within one matrix are simulated once.
    The accounting is appended to the session manifests
    (:func:`last_manifest`).

    ``backend`` (default ``REPRO_BACKEND``) overrides the choice ``jobs``
    makes between ``serial`` and ``pool``; ``distributed`` ships pending
    cells to lease-based workers over the service HTTP API
    (:mod:`repro.harness.distributed`).  SimStats are bit-identical under
    every backend.
    """
    backend = resolve_backend(backend)
    jobs = default_jobs() if jobs is None else max(1, jobs)
    if backend == "serial":
        jobs = 1
    manifest = MatrixManifest(
        jobs=jobs, backend=backend or ("serial" if jobs <= 1 else "pool")
    )
    started = time.monotonic()

    results: List[Optional[RunResult]] = [None] * len(requests)
    records: List[Optional[CellRecord]] = [None] * len(requests)
    pending: List[int] = []
    first_for_key: Dict[tuple, int] = {}

    for i, request in enumerate(requests):
        key = request.memo_key()
        if key is not None:
            owner = first_for_key.setdefault(key, i)
            if owner != i:
                records[i] = CellRecord(
                    request.workload_name, request.config, "dedup"
                )
                continue
            cached, source = lookup_cached(key)
            if cached is not None:
                results[i] = _relabel(cached, request.config)
                records[i] = CellRecord(
                    request.workload_name, request.config, source
                )
                continue
        pending.append(i)

    here = os.getpid()

    def commit(i: int, result: RunResult, wall_time: float,
               pid: Optional[int] = None, worker: str = "") -> None:
        """File one simulated cell; write it through unless it ran here."""
        request = requests[i]
        results[i] = result
        records[i] = CellRecord(
            request.workload_name, request.config, "run", wall_time,
            worker=worker,
        )
        if pid != here:
            key = request.memo_key()
            if key is not None:
                store_result(key, result)

    if backend == "distributed":
        pending = _dispatch_remote(requests, pending, commit)
    cells = [requests[i] for i in pending]
    for j, (result, wall_time, pid) in _execute(
        _execute_cell, cells, jobs, _describe_cell
    ):
        commit(pending[j], result, wall_time, pid)

    # duplicate cells inherit the owner's result under their own label
    for i, request in enumerate(requests):
        if results[i] is None and records[i] is not None and records[i].source == "dedup":
            owner = first_for_key[request.memo_key()]
            results[i] = _relabel(results[owner], request.config)

    manifest.cells = [r for r in records if r is not None]
    manifest.wall_time = time.monotonic() - started
    _MANIFESTS.append(manifest)
    return results  # type: ignore[return-value]


def _dispatch_remote(requests, ids: List[int], commit) -> List[int]:
    """Distributed dispatch: commit leasable cells, return the rest.

    Cells without a memo key (ad-hoc Workload objects, explicit config
    overrides) cannot travel over HTTP; they stay for the local loop,
    which is bit-identical.  ``dispatch_cells`` returns only after its
    embedded service (which swaps the active store for its own temporary
    database) has shut down, so the commit writes through to the caller's
    cache/store.
    """
    from repro.harness import distributed

    remote: List[int] = []
    local: List[int] = []
    for i in ids:
        (local if requests[i].memo_key() is None else remote).append(i)
    for i, outcome in distributed.dispatch_cells(requests, remote).items():
        commit(i, outcome["result"], outcome["wall_time"],
               worker=outcome.get("worker") or "")
    return local


def run_tasks(fn, items, jobs: Optional[int] = None) -> List:
    """Fan a picklable ``fn(item)`` out over the shared worker pool.

    A generic sibling of :func:`run_matrix` for non-matrix work (e.g. the
    differential fuzzer's one-cell-per-seed sweep): no caching, no
    manifests — just ordered results.  Runs in process when ``jobs <= 1``,
    when there is a single item, or for whatever cannot be pickled.  The
    first task exception propagates to the caller.
    """
    items = list(items)
    jobs = default_jobs() if jobs is None else max(1, jobs)
    results: List[Any] = [None] * len(items)
    for i, outcome in _execute(fn, items, jobs):
        results[i] = outcome
    return results

