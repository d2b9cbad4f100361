"""Tests for the parallel experiment-matrix layer (harness/parallel.py)."""

import os

import pytest

from repro.harness import cache as result_cache
from repro.harness.cache import ResultCache, set_active_cache, set_active_store
from repro.harness.parallel import (
    RunRequest,
    default_jobs,
    last_manifest,
    run_matrix,
    run_tasks,
    shutdown_pool,
)
from repro.harness.runner import clear_memo, compare_configs, run_workload
from repro.service.store import ExperimentStore
from repro.workloads import Workload
from tests.conftest import h2p_hammock_workload

FAST = dict(warmup=800, measure=1200)
MATRIX_NAMES = ["lammps", "gcc"]
MATRIX_CONFIGS = ["baseline", "acb", "oracle-bp"]


@pytest.fixture(autouse=True)
def _fresh_memo():
    clear_memo()
    yield
    clear_memo()
    shutdown_pool()


_PARENT_PID = os.getpid()


def _run_workload_or_die(**kwargs):
    """``run_workload``, except a pool worker given config "die" exits."""
    if kwargs["config"] == "die" and os.getpid() != _PARENT_PID:
        os._exit(3)
    return run_workload(**kwargs)


def _log_puts(monkeypatch, tier, log):
    """Append "<tier class> <pid>" to *log* on every ``tier.put``; a file,
    so writes from forked pool workers would show up too."""
    original = tier.put

    def put(key, result, *args, **kwargs):
        with open(log, "a") as handle:
            handle.write(f"{type(tier).__name__} {os.getpid()}\n")
        return original(key, result, *args, **kwargs)

    monkeypatch.setattr(tier, "put", put)


def _active_tiers(_item):
    return (result_cache.get_active_cache() is not None,
            result_cache.get_active_store() is not None)


def _fail_on_two_and_three(item):
    if item in (2, 3):
        raise ValueError(f"task {item} failed")
    return item * 10


def _matrix_requests():
    return [
        RunRequest(workload=name, config=config, **FAST)
        for name in MATRIX_NAMES
        for config in MATRIX_CONFIGS
    ]


class TestRunMatrix:
    def test_parallel_matches_serial_bit_identical(self):
        serial = run_matrix(_matrix_requests(), jobs=1)
        clear_memo()
        parallel = run_matrix(_matrix_requests(), jobs=2)
        assert len(serial) == len(parallel) == 6
        for s, p in zip(serial, parallel):
            assert s.workload == p.workload and s.config == p.config
            assert s.stats == p.stats  # full dataclass equality, incl. per-branch

    def test_results_in_request_order(self):
        requests = _matrix_requests()
        results = run_matrix(requests, jobs=2)
        for request, result in zip(requests, results):
            assert result.workload == request.workload
            assert result.config == request.config

    def test_manifest_counts_runs_then_hits(self):
        run_matrix(_matrix_requests(), jobs=2)
        first = last_manifest()
        assert first.total == 6
        assert first.simulated == 6 and first.cache_hits == 0
        assert all(c.wall_time > 0 for c in first.cells if c.source == "run")

        run_matrix(_matrix_requests(), jobs=2)
        second = last_manifest()
        assert second.simulated == 0
        assert second.cache_hits == 6
        assert second.hit_rate == 1.0

    def test_duplicate_cells_simulated_once(self):
        requests = [
            RunRequest(workload="lammps", **FAST),
            RunRequest(workload="lammps", **FAST),
            # oracle-bp and an explicit oracle baseline normalize to one cell
            RunRequest(workload="lammps", config="oracle-bp", **FAST),
            RunRequest(workload="lammps", config="baseline", predictor="oracle", **FAST),
        ]
        results = run_matrix(requests, jobs=1)
        manifest = last_manifest()
        assert manifest.simulated == 2
        assert sum(1 for c in manifest.cells if c.source == "dedup") == 2
        assert results[0].stats == results[1].stats
        assert results[2].stats == results[3].stats
        assert results[2].config == "oracle-bp"
        assert results[3].config == "baseline"

    def test_worker_error_surfaces_clearly(self):
        requests = [
            RunRequest(workload="lammps", **FAST),
            RunRequest(workload="gcc", config="no-such-config", **FAST),
        ]
        with pytest.raises(RuntimeError, match="gcc.*no-such-config"):
            run_matrix(requests, jobs=2)

    def test_serial_error_surfaces_clearly(self):
        with pytest.raises(RuntimeError, match="lammps.*bogus"):
            run_matrix([RunRequest(workload="lammps", config="bogus", **FAST)], jobs=1)

    def test_non_picklable_workload_falls_back_to_serial(self):
        workload = h2p_hammock_workload()
        workload.__class__ = type("LocalWorkload", (Workload,), {})
        requests = [
            RunRequest(workload=workload, **FAST),
            RunRequest(workload="lammps", **FAST),
        ]
        results = run_matrix(requests, jobs=2)
        assert results[0].workload == "h2p"
        assert results[1].workload == "lammps"
        assert all(c.source == "run" for c in last_manifest().cells)

    def test_custom_workload_serial_reference(self):
        """Ad-hoc Workload objects run uncached and match run_workload."""
        from repro.harness.runner import run_workload

        direct = run_workload(h2p_hammock_workload(), "acb", **FAST)
        (via_matrix,) = run_matrix(
            [RunRequest(workload=h2p_hammock_workload(), config="acb", **FAST)],
            jobs=1,
        )
        assert direct.stats == via_matrix.stats


class TestDispatchLoop:
    """The one executor loop under run_matrix and run_tasks: failures and
    the result tiers, for every backend."""

    def test_pool_worker_death_names_cell_and_pool_recovers(self, monkeypatch):
        import repro.harness.parallel as parallel

        shutdown_pool()  # fresh workers fork with the patched run_workload
        monkeypatch.setattr(parallel, "run_workload", _run_workload_or_die)
        requests = [
            RunRequest(workload="gcc", config="die", **FAST),
            RunRequest(workload="lammps", **FAST),
        ]
        with pytest.raises(RuntimeError, match="gcc.*die.*BrokenProcessPool"):
            run_matrix(requests, jobs=2)
        assert parallel._POOL is None  # the broken pool was shut down

        results = run_matrix(_matrix_requests(), jobs=2)
        assert [r.workload for r in results] == [
            r.workload for r in _matrix_requests()
        ]
        assert last_manifest().simulated == 6

    @pytest.mark.parametrize("backend,jobs", [
        ("serial", 1), ("pool", 2), ("distributed", None),
    ])
    def test_each_simulated_cell_written_through_once(
        self, tmp_path, monkeypatch, backend, jobs
    ):
        monkeypatch.setenv("REPRO_DIST_WORKERS", "1")
        log = tmp_path / "puts.log"
        cache = ResultCache(str(tmp_path / "cache"))
        store = ExperimentStore(str(tmp_path / "exp.sqlite"))
        _log_puts(monkeypatch, cache, log)
        _log_puts(monkeypatch, store, log)
        requests = [
            RunRequest(workload="lammps", config=config, **FAST)
            for config in ("baseline", "acb", "dmp")
        ]
        previous_cache = set_active_cache(cache)
        previous_store = set_active_store(store)
        try:
            run_matrix(requests, jobs=jobs, backend=backend)
        finally:
            set_active_cache(previous_cache)
            set_active_store(previous_store)
        assert last_manifest().backend == backend
        assert last_manifest().simulated == len(requests)
        lines = log.read_text().splitlines()
        assert sorted(lines) == sorted(
            f"{tier} {os.getpid()}"
            for tier in ("ResultCache", "ExperimentStore")
            for _ in requests
        )

    def test_pool_workers_detach_tiers_serial_keeps_them(self, tmp_path):
        previous_cache = set_active_cache(ResultCache(str(tmp_path / "cache")))
        previous_store = set_active_store(ExperimentStore(str(tmp_path / "db")))
        try:
            assert run_tasks(_active_tiers, range(2), jobs=1) == [(True, True)] * 2
            assert run_tasks(_active_tiers, range(2), jobs=2) == [(False, False)] * 2
            assert _active_tiers(None) == (True, True)
        finally:
            set_active_cache(previous_cache)
            set_active_store(previous_store)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_run_tasks_ordered_results(self, jobs):
        assert run_tasks(_fail_on_two_and_three, [0, 1, 4, 5], jobs=jobs) == [
            0, 10, 40, 50,
        ]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_run_tasks_propagates_first_task_error(self, jobs):
        with pytest.raises(ValueError, match="task 2 failed"):
            run_tasks(_fail_on_two_and_three, range(5), jobs=jobs)


class TestPoolLifecycle:
    def test_shutdown_pool_reaps_workers(self):
        import repro.harness.parallel as parallel

        run_matrix(_matrix_requests(), jobs=2)
        pool = parallel._POOL
        assert pool is not None
        workers = list(pool._processes.values())
        assert workers
        shutdown_pool()
        assert parallel._POOL is None and parallel._POOL_JOBS == 0
        for proc in workers:
            proc.join(timeout=10)
            assert not proc.is_alive()

    def test_shutdown_pool_idempotent(self):
        shutdown_pool()
        shutdown_pool()

    def test_atexit_hook_registered(self):
        import repro.harness.parallel as parallel

        # the module registers shutdown_pool with atexit exactly once at
        # import time, so a process never exits with live pool workers
        assert parallel._ATEXIT_REGISTERED is True


class TestCompareConfigs:
    def test_compare_configs_identical_across_job_counts(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "1")
        serial = compare_configs(MATRIX_NAMES, MATRIX_CONFIGS, **FAST)
        clear_memo()
        monkeypatch.setenv("REPRO_JOBS", "4")
        parallel = compare_configs(MATRIX_NAMES, MATRIX_CONFIGS, **FAST)
        for name in MATRIX_NAMES:
            for config in MATRIX_CONFIGS:
                assert serial[name][config].stats == parallel[name][config].stats

    def test_compare_configs_shape_preserved(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "2")
        out = compare_configs(["lammps"], ["baseline", "acb"], **FAST)
        assert set(out) == {"lammps"}
        assert set(out["lammps"]) == {"baseline", "acb"}


class TestDefaultJobs:
    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert default_jobs() == 3

    def test_env_floor_is_one(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "0")
        assert default_jobs() == 1

    def test_default_is_cpu_count(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert default_jobs() >= 1
