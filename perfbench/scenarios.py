"""The three benchmark workloads and the metrics computed from them.

Each workload is a closed loop of *jobs*: one job is one matrix a user
submits and waits for, from submission until its results are in hand.

``sim-cold``
    ``run_matrix`` (serial backend, ``jobs=1``), no result tier attached;
    each job is one cell, and the jobs cover each selected workload under
    every pinned config in turn.  Nearly all host time
    is the engine: ``repro.core``, ``repro.branch``, ``repro.memory``, the
    schemes and ``repro.workloads``.
``service-mixed``
    An in-process service set up the way ``repro serve`` sets itself up:
    the JSON cache above a store pre-populated during set-up.  One client
    submits small matrices, mostly stored cells plus one new tiny-window
    cell, follows each job's NDJSON event stream to completion, fetches the
    results, and also queries ``GET /runs`` and ``health``.
``dist-drain``
    ``run_matrix(backend="distributed")``: the embedded service and one
    local worker process drain many tiny-window cells through leases.

Every run starts from fresh state: memo and manifests cleared, no tier
attached, new store, cache and service.  :func:`measure` is the entry
point used by ``run.py``.
"""

from __future__ import annotations

import json
import os
import random
import resource
import statistics
import tempfile
import time
import urllib.request
from contextlib import ExitStack
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import cells
from probes import LAYERS, Probe

from repro.core.stats import SimStats
from repro.harness import cache as result_cache
from repro.harness import parallel, runner
from repro.harness.cache import ResultCache
from repro.harness.parallel import RunRequest
from repro.harness.runner import RunResult, normalized_run_key
from repro.service.app import ROUTES, background_server
from repro.service.client import ServiceClient, ServiceError
from repro.service.store import ExperimentStore

PINS = cells.PINS


def declared_units(kind: str) -> Dict[str, str]:
    """``{metric: unit}`` of BENCHMARK.json's *kind* list, in its order."""
    with open(os.path.join(os.path.dirname(cells.HERE), "BENCHMARK.json")) as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[kind]}


# ----------------------------------------------------------------------
# shared plumbing
# ----------------------------------------------------------------------
#: CPUs this process may run on.  Virtual CPUs of one host can differ in
#: speed by a quarter, and the scheduler keeps a busy process on whichever
#: it started on, so job i runs pinned to CPUS[i % len(CPUS)]: every run
#: sees the same mix of CPUs instead of one CPU chosen by chance.
CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []


def _pin(cpus: set) -> None:
    """Restrict every thread of this process to *cpus* (Linux only).

    Threads and processes started later inherit the mask of their creator.
    """
    for tid in os.listdir("/proc/self/task"):
        try:
            os.sched_setaffinity(int(tid), cpus)
        except OSError:
            pass  # the thread ended meanwhile


def fresh_state() -> None:
    """Forget everything a previous run left in this process."""
    runner.clear_memo()
    parallel.reset_manifests()
    result_cache.set_active_cache(None)
    result_cache.set_active_store(None)


@dataclass
class JobRecord:
    latency_ms: float
    cells: int
    instructions: int


@dataclass
class Phase:
    """What one closed loop delivered."""

    gate: cells.DigestGate
    jobs: List[JobRecord] = field(default_factory=list)
    wall_s: float = 0.0
    #: jobs started, including any that failed
    started: int = 0
    attempted: int = 0
    failed: int = 0
    reasons: List[str] = field(default_factory=list)
    #: follow streams that ended without their done/failed event
    stream_missing_terminal: int = 0

    def fail(self, reason: str, count: int = 1) -> None:
        self.failed += count
        self.reasons.append(reason)


class Workload:
    """One benchmark workload: fresh set-up, a job plan, one job runner."""

    name = ""

    def __init__(self, seed: int, workdir: str, expected: cells.Expected):
        self.seed = seed
        self.workdir = workdir
        self.expected = expected
        self.stack = ExitStack()
        #: the seeded jobs, built by :meth:`setup`; a run takes a prefix
        self.plan: List = []

    def setup(self) -> None:
        fresh_state()

    def teardown(self) -> None:
        self.stack.close()
        fresh_state()

    def run_job(self, job, phase: Phase, probe: Optional[Probe]) -> None:
        raise NotImplementedError

    def loop(self, deadline: Optional[float] = None, count: Optional[int] = None,
             probe: Optional[Probe] = None) -> Phase:
        """Run jobs until *deadline* (perf_counter) or *count* jobs."""
        phase = Phase(gate=cells.DigestGate(self.expected.digests))
        started = time.perf_counter()
        try:
            for i, job in enumerate(self.plan):
                if count is not None and i >= count:
                    break
                if deadline is not None and time.perf_counter() >= deadline:
                    break
                if probe is not None:
                    probe.req = f"{self.name}:{i}"
                if CPUS:
                    _pin({CPUS[i % len(CPUS)]})
                phase.started += 1
                self.run_job(job, phase, probe)
        finally:
            if CPUS:
                _pin(set(CPUS))
        phase.wall_s = time.perf_counter() - started
        return phase

    def _check(self, phase: Phase, cell: cells.Cell, stats_dict: Dict) -> None:
        phase.attempted += 1
        if not phase.gate.check(cell, stats_dict):
            phase.fail(f"digest {cells.cell_id(cell)}")

    def _matrix_job(self, phase: Phase, requests: List[RunRequest], **kwargs) -> None:
        """One ``run_matrix`` call as a job; every delivered cell is checked."""
        phase.attempted += 1
        start = time.perf_counter()
        try:
            results = parallel.run_matrix(requests, **kwargs)
        except RuntimeError as exc:
            phase.fail(f"run_matrix: {exc}")
            return
        latency = 1e3 * (time.perf_counter() - start)
        manifest = parallel.last_manifest()
        instructions = sum(
            r.stats.instructions for r, c in zip(results, manifest.cells)
            if c.source == "run")
        for q, result in zip(requests, results):
            self._check(phase, (q.workload, q.config, q.warmup, q.measure),
                        result.stats.to_dict())
        phase.jobs.append(JobRecord(latency, len(results), instructions))


# ----------------------------------------------------------------------
# sim-cold
# ----------------------------------------------------------------------
class SimCold(Workload):
    name = "sim-cold"

    def setup(self) -> None:
        super().setup()
        warmup, measure = cells.SIM_WINDOW
        stream = cells.sim_cold_stream(self.seed, self.expected.strata)
        self.plan = [[RunRequest(w, c, warmup=warmup, measure=measure)]
                     for w in stream for c in cells.CONFIGS]

    def run_job(self, job, phase, probe):
        sim = PINS["sim_cold"]
        self._matrix_job(phase, job, jobs=sim["jobs"], backend=sim["backend"])


# ----------------------------------------------------------------------
# dist-drain
# ----------------------------------------------------------------------
class DistDrain(Workload):
    name = "dist-drain"

    def setup(self) -> None:
        super().setup()
        per_job = PINS["dist_drain"]["workloads_per_job"]
        stream = cells.tiny_stream(self.seed, "dist")
        self.plan = [
            [RunRequest(w, c, warmup=warmup, measure=measure)
             for w, warmup, measure in stream[i:i + per_job] for c in cells.CONFIGS]
            for i in range(0, len(stream) - per_job + 1, per_job)
        ]

    def run_job(self, job, phase, probe):
        self._matrix_job(phase, job, backend="distributed")


# ----------------------------------------------------------------------
# service-mixed
# ----------------------------------------------------------------------
class ServiceMixed(Workload):
    name = "service-mixed"

    def setup(self) -> None:
        super().setup()
        pins = PINS["service_mixed"]
        root = self.stack.enter_context(
            tempfile.TemporaryDirectory(prefix="service-", dir=self.workdir))
        db_path = os.path.join(root, "experiments.sqlite")
        stored = cells.sim_pool()
        store = ExperimentStore(db_path, strict=True)
        cache = ResultCache(os.path.join(root, "cache"))
        cached = set(cells.cached_subset(self.seed, stored,
                                         pins["cache_prepopulated_share"]))
        for cell in stored:
            entry = self.expected.stored[cells.cell_id(cell)]
            key = normalized_run_key(cell[0], cell[1], 1, None, cell[2], cell[3])
            result = RunResult(workload=cell[0], category=entry["category"],
                               paper_tag=entry["paper_tag"], config=cell[1],
                               stats=SimStats.from_dict(entry["stats"]))
            store.put(key, result)
            if cell in cached:
                cache.put(key, result)
        # as `repro serve`: the JSON cache is the active L1, the service
        # installs its store below it
        previous = result_cache.set_active_cache(cache)
        self.stack.callback(result_cache.set_active_cache, previous)
        url = self.stack.enter_context(background_server(
            db_path=db_path, artifact_dir=os.path.join(root, "artifacts"),
            jobs=pins["server_jobs"]))
        self.client = ServiceClient(url)
        self.url = url
        self.plan = self._plan(stored)

    def _plan(self, stored: List[cells.Cell]) -> List[Dict]:
        """Seeded jobs; new cells cycle through the configs in turn."""
        pins = PINS["service_mixed"]
        rng = random.Random(f"service:{self.seed}")
        streams = [cells.tiny_stream(self.seed, f"service-{c}") for c in cells.CONFIGS]
        fresh = [(w, config, warmup, measure)
                 for row in zip(*streams)
                 for config, (w, warmup, measure) in zip(cells.CONFIGS, row)]
        n_new = pins["new_cells_per_job"]
        n_old = pins["cells_per_job"] - n_new
        plan = []
        for i in range(len(fresh) // n_new):
            matrix = rng.sample(stored, n_old) + fresh[i * n_new:(i + 1) * n_new]
            rng.shuffle(matrix)
            plan.append({"cells": matrix,
                         "runs": i % pins["runs_query_every_jobs"] == 0,
                         "health": i % pins["health_every_jobs"] == 0})
        return plan

    def run_job(self, job, phase, probe):
        matrix = job["cells"]
        body = [{"workload": w, "config": c, "warmup": wu, "measure": m}
                for w, c, wu, m in matrix]
        phase.attempted += 1   # the job itself
        start = time.perf_counter()
        try:
            phase.attempted += 1
            job_id = self.client.submit(cells=body)["job_id"]
            phase.attempted += 1
            final = self._follow(job_id, phase, probe)
            if final["status"] != "done":
                phase.fail(f"job {job_id} ended {final['status']}")
                return
            phase.attempted += 1
            results = self.client.results(job_id)
        except (ServiceError, OSError) as exc:
            phase.fail(f"job request: {type(exc).__name__}: {exc}", count=2)
            return
        latency = 1e3 * (time.perf_counter() - start)
        if probe is not None:
            probe.values["jobs.run_ms"].append(1e3 * final["wall_time"])
        delivered = {r["index"]: r for r in results}
        instructions = 0
        for i, cell in enumerate(matrix):
            entry = delivered.get(i)
            if entry is None:  # a cell the job never delivered
                phase.attempted += 1
                phase.fail(f"undelivered {cells.cell_id(cell)}")
                continue
            self._check(phase, cell, entry["stats"])
            if entry["source"] == "run":
                instructions += entry["stats"]["instructions"]
        phase.jobs.append(JobRecord(latency, len(delivered), instructions))
        self._side_calls(job, phase)

    def _follow(self, job_id: str, phase: Phase, probe: Optional[Probe]) -> Dict:
        """Read the job's NDJSON event stream to its end; the job's outcome.

        The stream ends once the job is terminal, and should end with a
        ``done`` or ``failed`` event.  When it ends without one, the job's
        status is fetched instead and the omission is counted.
        """
        url = f"{self.url}/api/v1/jobs/{job_id}/events?follow=1&timeout=60"
        span = probe.begin("GET /jobs/<id>/events?follow", "client") if probe else None
        try:
            with urllib.request.urlopen(url, timeout=90) as stream:
                for line in stream:
                    event = json.loads(line)
                    if event["event"] == "done":
                        return {"status": "done", "wall_time": event["wall_time"]}
                    if event["event"] == "failed":
                        return {"status": "failed"}
        finally:
            if span is not None:
                probe.finish(span)
        phase.stream_missing_terminal += 1
        phase.attempted += 1
        return self.client.job(job_id)

    def _side_calls(self, job, phase: Phase) -> None:
        try:
            if job["runs"]:
                phase.attempted += 1
                self.client.runs(workload=job["cells"][0][0], limit=20)
            if job["health"]:
                phase.attempted += 1
                self.client.health()
        except (ServiceError, OSError) as exc:
            phase.fail(f"side call: {type(exc).__name__}: {exc}")


WORKLOADS = {w.name: w for w in (SimCold, ServiceMixed, DistDrain)}


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def _mean(values: List[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def end_to_end(phase: Phase, setup_s: float) -> Dict[str, float]:
    latencies = [j.latency_ms for j in phase.jobs]
    p50, p90 = (statistics.quantiles(latencies, n=10)[4::4]
                if len(latencies) >= 2 else (latencies or [0.0]) * 2)
    return {
        "setup_s": setup_s,
        "sim_kips": _ratio(sum(j.instructions for j in phase.jobs), 1e3 * phase.wall_s),
        "cells_per_s": _ratio(sum(j.cells for j in phase.jobs), phase.wall_s),
        "jobs_per_s": _ratio(len(phase.jobs), phase.wall_s),
        "job_p50_ms": p50,
        "job_p90_ms": p90,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(probe: Probe, phase: Phase, overhead: float) -> Dict[str, float]:
    c, t, v = probe.counts, probe.timings, probe.values
    instr = c["core.instructions"]
    m_instr = c["m.instructions"]
    delivered = sum(j.cells for j in phase.jobs)
    out = {
        "core.build_ms": _mean(t["core.build_ms"]),
        "core.warmup_s": _mean(v["core.warmup_s"]),
        "core.measure_s": _mean(v["core.measure_s"]),
        "core.host_ns_per_cycle": _ratio(c["core.run_ns"], c["core.cycles"]),
        "core.fetched_per_instr": _ratio(c["m.fetched"], m_instr),
        "core.allocated_per_instr": _ratio(c["m.allocated"], m_instr),
        "core.wrong_path_alloc_share": _ratio(c["m.wrong_path_allocated"],
                                              c["m.allocated"]),
        "branch.predict_calls_per_instr": _ratio(c["branch.predict"], instr),
        "branch.btb_lookups_per_instr": _ratio(c["branch.btb_lookup"], instr),
        "branch.mpki": _ratio(1e3 * c["m.mispredicts"], m_instr),
        "memory.accesses_per_instr": _ratio(c["memory.access"], instr),
        "memory.avg_load_latency_cycles": _ratio(c["m.load_latency_total"],
                                                 c["m.loads"]),
        "scheme.hook_calls_per_instr": _ratio(c["scheme.hook"], instr),
        "scheme.predicated_per_kinstr": _ratio(1e3 * c["m.predicated"], m_instr),
        "workloads.step_calls_per_instr": _ratio(c["workloads.step"], instr),
        "workloads.build_ms": _mean(t["workloads.build_ms"]),
        "store.put_calls_per_cell": _ratio(len(t["store.put_ms"]), delivered),
        "http.non2xx": c["http.non2xx"],
        "jobs.queue_wait_ms": _mean(v["jobs.queue_wait_ms"]),
        "matrix.dispatch_overhead_ms": _mean(v["matrix.dispatch_overhead_ms"]),
        "dist.requeues": c["dist.requeues"],
        "jobs.stream_missing_terminal": phase.stream_missing_terminal,
        "trace.overhead": overhead,
        "trace.spans": len(probe.spans),
        "job.samples": len(phase.jobs),
    }
    for source in ("memo", "cache", "store", "run"):
        out[f"tier.cells.{source}"] = c[f"tier.cells.{source}"]
    for source in ("memo", "cache", "store"):
        out[f"tier.lookup_ms.{source}"] = _mean(t[f"tier.lookup_ms.{source}"])
    for name in ("cache.get_ms", "cache.put_ms", "store.get_ms", "store.put_ms",
                 "store.lease_ms", "store.ack_ms"):
        out[name] = _mean(t[name])
    for route in ROUTES:
        out[f"http.{route.handler}.p50_ms"] = _median(t[f"http.{route.handler}"])
    claims, overheads, drains = [], [], []
    for dist in probe.dist.values():
        if "spawn" in dist and "first_claim" in dist:
            claims.append((dist["first_claim"] - dist["spawn"]) / 1e9)
        if dist.get("cells") and "last_ack" in dist:
            busy = (dist["last_ack"] - dist["first_claim"]) / 1e6
            drains.append(busy)
            overheads.append((busy - 1e3 * dist["wall"]) / dist["cells"])
    out["dist.spawn_to_first_claim_s"] = _mean(claims)
    out["dist.lease_overhead_ms_per_cell"] = _mean(overheads)
    # a distributed job runs from its first lease claim to its last ack
    out["jobs.run_ms"] = _mean(v["jobs.run_ms"] + drains)
    for layer, seconds in probe.self_times().items():
        out[f"self_s.{layer}"] = seconds
    return out


def _with_units(values: Dict[str, float], units: Dict[str, str]) -> Dict:
    return {name: {"value": float(values[name]), "unit": unit}
            for name, unit in units.items()}


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------
def measure(name: str, seed: int, seconds: float, trace: bool, workdir: str,
            import_s: float) -> Dict:
    """Set up, run and check one workload; the result object for run.py."""
    expected = cells.Expected.load()
    cls = WORKLOADS[name]
    setups = []
    for _ in range(PINS["setup_repeats"]):
        if setups:
            workload.teardown()
        workload = cls(seed, workdir, expected)
        start = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - start)
    setup_s = import_s + statistics.median(setups)
    try:
        phase = workload.loop(deadline=time.perf_counter() + seconds)
    finally:
        workload.teardown()
    phases = [phase]
    metrics = end_to_end(phase, setup_s)
    units = declared_units("end_to_end")
    trace_path = None
    if trace:
        traced = cls(seed, workdir, expected)
        traced.setup()
        probe = Probe().install()
        try:
            replay = traced.loop(count=phase.started, probe=probe)
        finally:
            probe.close()
            traced.teardown()
        phases.append(replay)
        overhead = _ratio(replay.wall_s, phase.wall_s)
        metrics = per_layer(probe, replay, overhead)
        units = declared_units("per_layer")
        trace_path = os.path.join(os.path.dirname(workdir),
                                  f"trace-{name}-seed{seed}.json")
        probe.write_chrome_trace(trace_path, {"workload": name, "seed": seed,
                                              "overhead": overhead})
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    correct = failed == 0
    reasons = [reason for p in phases for reason in p.reasons]
    summary = _summary(name, seed, phases, metrics, units, attempted, failed,
                       reasons, trace_path)
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": _with_units(metrics, units), "summary": summary}


def _summary(name, seed, phases, metrics, units, attempted, failed, reasons,
             trace_path) -> str:
    phase = phases[0]
    lines = [f"perfbench {name} seed={seed}: {len(phase.jobs)} jobs "
             f"(latency samples), {sum(j.cells for j in phase.jobs)} cells "
             f"in {phase.wall_s:.2f}s; failed_share={_ratio(failed, attempted):.4f} "
             f"({failed}/{attempted}); follow streams missing their terminal "
             f"event: {sum(p.stream_missing_terminal for p in phases)}"]
    for key, unit in units.items():
        lines.append(f"  {key:36s} {metrics[key]:14.4f} {unit}")
    for reason in reasons[:10]:
        lines.append(f"  failure: {reason}")
    if trace_path:
        lines.append(f"  chrome trace: {trace_path}")
    return "\n".join(lines)
