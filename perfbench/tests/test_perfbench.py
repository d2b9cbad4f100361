"""Self-tests of the benchmark (not part of the repository's tier-1 suite).

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import copy
import json
import os
import threading

import cells
import pytest
import run
import scenarios
from probes import Probe, _covered

from repro.harness import parallel
from repro.harness.parallel import RunRequest
from repro.service.app import background_server
from repro.service.client import ServiceClient

BENCHMARK = os.path.join(run.ROOT, "BENCHMARK.json")
SHORT = 0.3   # seconds: every workload still completes at least one job


@pytest.fixture(scope="module")
def expected():
    return cells.Expected.load()


@pytest.fixture
def workdir(tmp_path):
    return str(tmp_path)


def _declared(kind):
    with open(BENCHMARK) as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[kind]}


def test_benchmark_json_follows_the_contract():
    with open(BENCHMARK) as handle:
        bench = json.load(handle)
    assert set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert {w["name"] for w in bench["workloads"]} == set(scenarios.WORKLOADS)
    names = [m["name"] for kind in ("end_to_end", "per_layer") for m in bench[kind]]
    assert len(names) == len(set(names))
    assert all(0 < m["bound"] <= 0.25 for m in bench["end_to_end"])
    assert any(m["name"] == "setup_s" and m["unit"] == "s"
               and m["better"] == "lower" for m in bench["end_to_end"])


@pytest.mark.parametrize("workload", sorted(scenarios.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_emitted_with_its_unit(workload, trace, workdir):
    report = scenarios.measure(workload, 7, SHORT, trace, workdir, 0.1)
    declared = _declared("per_layer" if trace else "end_to_end")
    emitted = {name: m["unit"] for name, m in report["metrics"].items()}
    assert emitted == declared
    assert all(isinstance(m["value"], float) for m in report["metrics"].values())
    assert report["correct"] is True
    assert report["attempted"] >= 1 and report["failed"] == 0
    if not trace:
        assert all(m["value"] > 0 for m in report["metrics"].values())


def test_digest_gate_rejects_a_perturbed_simstats(expected):
    cell = cells.sim_pool()[0]
    stats = expected.stored[cells.cell_id(cell)]["stats"]
    gate = cells.DigestGate(expected.digests)
    assert gate.check(cell, stats)
    for field, bump in (("cycles", 1), ("instructions", -1), ("mispredicts", 1)):
        perturbed = copy.deepcopy(stats)
        perturbed[field] += bump
        assert not gate.check(cell, perturbed)
    perturbed = copy.deepcopy(stats)
    perturbed["per_branch"]["999999"] = {"executed": 1, "mispredicted": 0,
                                         "predicated": 0}
    assert not gate.check(cell, perturbed)
    assert not gate.check(("no-such-workload",) + cell[1:], stats)
    assert gate.failed == 5


def test_interaction_table_names_declared_metrics():
    spec = cells.load_spec()
    names = set(_declared("end_to_end")) | set(_declared("per_layer"))
    workloads = set(scenarios.WORKLOADS)
    for row in spec["interactions"]:
        assert row["layer_metric"] in names and row["end_to_end"] in names
        assert row["workload"] in workloads
    for item in spec["roadmap_predictions"]:
        for change in item["changes"]:
            assert change["metric"] in names and change["workload"] in workloads


@pytest.mark.parametrize("workload", sorted(scenarios.WORKLOADS))
def test_traced_spans_nest_and_self_times_are_non_negative(workload, workdir,
                                                           expected):
    bench = scenarios.WORKLOADS[workload](3, workdir, expected)
    bench.setup()
    probe = Probe().install()
    try:
        bench.loop(count=1, probe=probe)
    finally:
        probe.close()
        bench.teardown()
    spans = {s.sid: s for s in probe.spans}
    assert spans
    children = {}
    for span in spans.values():
        assert span.end >= span.start
        if span.parent:
            parent = spans[span.parent]
            assert parent.tid == span.tid
            assert parent.start <= span.start and span.end <= parent.end
            assert span.req == parent.req
            children.setdefault(parent.sid, []).append(span)
    for span in spans.values():
        assert span.end - span.start - _covered(span, children.get(span.sid, [])) >= 0
    assert all(seconds >= 0 for seconds in probe.self_times().values())
    trace = probe.chrome_trace({})
    assert any(e["ph"] == "X" for e in trace["traceEvents"])
    json.dumps(trace)


def _fingerprint(workdir):
    from repro.harness import cache, distributed, runner
    from repro.harness.cache import ResultCache
    from repro.service import jobs
    from repro.service.jobs import JobQueue
    from repro.service.app import ServiceHandler
    from repro.service.client import ServiceClient as Client
    from repro.service.store import ExperimentStore

    patched = [runner.Core, runner.run_workload, runner.lookup_cached,
               runner.resolve_workload, parallel.run_matrix, parallel.run_workload,
               parallel.lookup_cached, jobs.run_matrix, distributed.dispatch_cells,
               distributed.spawn_local_workers, Client.request]
    patched += [vars(cls).get(name) for cls in (ResultCache, ExperimentStore)
                for name in ("get", "put", "lease_next", "ack_lease", "requeue_expired")]
    patched += [JobQueue.submit, JobQueue.complete_cell]
    patched += list(vars(ServiceHandler).values())
    return {
        "memo": runner.memo_size(),
        "manifests": len(parallel.session_manifests()),
        "cache": cache.get_active_cache(),
        "store": cache.get_active_store(),
        "patched": [id(p) for p in patched],
        "handler_names": sorted(vars(ServiceHandler)),
        "env": sorted((k, v) for k, v in os.environ.items() if k.startswith("REPRO_")),
        "threads": sorted(t.name for t in threading.enumerate()
                          if t.name.startswith("repro-")),
        "files": sorted(os.listdir(workdir)),
    }


@pytest.mark.parametrize("workload", sorted(scenarios.WORKLOADS))
def test_consecutive_runs_start_from_identical_state(workload, workdir, expected):
    before = _fingerprint(workdir)
    seen = []
    for traced in (False, True, False):
        bench = scenarios.WORKLOADS[workload](5, workdir, expected)
        bench.setup()
        probe = Probe().install() if traced else None
        try:
            phase = bench.loop(count=2, probe=probe)
        finally:
            if probe is not None:
                probe.close()
            bench.teardown()
        assert phase.failed == 0
        seen.append(phase.gate.seen)
        assert _fingerprint(workdir) == before
    assert seen[0] == seen[1] == seen[2]


def test_shared_cell_agrees_across_serial_service_and_distributed(expected, workdir):
    warmup, measure = cells.TINY_WINDOWS[0]
    cell = ("lammps", "acb", warmup, measure)
    request = RunRequest(cell[0], cell[1], warmup=warmup, measure=measure)
    digests = {}
    scenarios.fresh_state()
    (serial,) = parallel.run_matrix([request], jobs=1, backend="serial")
    digests["serial"] = cells.stats_digest(serial.stats.to_dict())
    scenarios.fresh_state()
    (remote,) = parallel.run_matrix([request], backend="distributed")
    digests["distributed"] = cells.stats_digest(remote.stats.to_dict())
    scenarios.fresh_state()
    db = os.path.join(workdir, "svc.sqlite")
    with background_server(db_path=db, artifact_dir=os.path.join(workdir, "a")) as url:
        client = ServiceClient(url)
        job = client.submit(cells=[{"workload": cell[0], "config": cell[1],
                                    "warmup": warmup, "measure": measure}])
        client.wait(job["job_id"], timeout=120)
        (entry,) = client.results(job["job_id"])
    scenarios.fresh_state()
    digests["service"] = cells.stats_digest(entry["stats"])
    assert set(digests.values()) == {expected.digests[cells.cell_id(cell)]}
