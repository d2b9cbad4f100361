"""Layer probes for the traced run: spans, counts and timings from outside.

Nothing under ``src/`` knows about this module.  :class:`Probe` wraps the
public entry points of each layer — module functions, class methods and,
for the engine's per-instruction hooks, the methods of each freshly built
core's components — and restores every original on :meth:`Probe.close`,
so consecutive runs in one process start from identical state.

Per-instruction methods (predictor lookups, BTB probes, memory accesses,
scheme hooks, functional steps) are *counted*, never timed: timing a call
that costs well under a microsecond would distort the engine the way a
profiler does.  Everything else gets a span.

A span records its name, layer, start, end, thread, parent (the enclosing
span on the same thread) and the request it belongs to.  Work a client
request causes on server threads starts its own root span there and
shares the request id, so one request can be followed across threads in
the exported Chrome trace-event JSON (the format ``repro.trace.chrome``
writes; it opens in Perfetto).
"""

from __future__ import annotations

import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional

#: every layer a span may be attributed to (self time is reported for each)
LAYERS = ("client", "matrix", "runner", "workloads", "core", "tier",
          "cache", "store", "http", "jobs", "dist")

#: scheme hooks the engine calls (repro.core.predication.PredicationScheme)
SCHEME_HOOKS = ("consider", "observe_fetch", "on_branch_resolved",
                "on_region_closed", "on_flush", "on_retire")


class Span:
    __slots__ = ("sid", "name", "layer", "start", "end", "tid", "parent", "req")

    def __init__(self, sid, name, layer, start, tid, parent, req):
        self.sid = sid
        self.name = name
        self.layer = layer
        self.start = start
        self.end = start
        self.tid = tid
        self.parent = parent
        self.req = req


class Probe:
    """Span, count and timing recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[str, int] = defaultdict(int)
        self.timings: Dict[str, List[float]] = defaultdict(list)
        self.values: Dict[str, List[float]] = defaultdict(list)
        self.dist: Dict[str, Dict[str, float]] = {}
        #: the client request in progress; spans on any thread inherit it
        self.req: str = ""
        #: request -> perf_counter_ns of its POST /jobs, and the requests
        #: whose execution has started (queue wait is taken once per job)
        self._posted: Dict[str, int] = {}
        self._seen_exec: set = set()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next = 0
        self._restore: List[Callable[[], None]] = []
        self._tids: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # spans
    # ------------------------------------------------------------------
    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, layer: str) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else None
        ident = threading.get_ident()
        with self._lock:
            self._next += 1
            sid = self._next
            tid = self._tids.setdefault(ident, len(self._tids) + 1)
        req = parent.req if parent is not None else self.req
        span = Span(sid, name, layer, time.perf_counter_ns(), tid,
                    parent.sid if parent is not None else 0, req)
        stack.append(span)
        return span

    def finish(self, span: Span) -> float:
        span.end = time.perf_counter_ns()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        with self._lock:
            self.spans.append(span)
        return (span.end - span.start) / 1e6

    @contextmanager
    def span(self, name: str, layer: str) -> Iterator[Span]:
        span = self.begin(name, layer)
        try:
            yield span
        finally:
            self.finish(span)

    # ------------------------------------------------------------------
    # patching
    # ------------------------------------------------------------------
    def patch(self, owner: Any, attr: str, make: Callable[[Callable], Callable]) -> None:
        """Replace ``owner.attr`` with ``make(original)`` until :meth:`close`."""
        own = not isinstance(owner, type) or attr in owner.__dict__
        original = owner.__dict__[attr] if isinstance(owner, type) and own \
            else getattr(owner, attr)
        setattr(owner, attr, make(original))
        if own:
            self._restore.append(lambda: setattr(owner, attr, original))
        else:  # inherited: drop the override so the base shows through again
            self._restore.append(lambda: delattr(owner, attr))

    def timed(self, owner: Any, attr: str, name: str, layer: str,
              metric: Optional[str] = None) -> None:
        """Span every call of ``owner.attr``; record its ms under *metric*."""
        probe = self

        def make(original):
            def wrapper(*args, **kwargs):
                span = probe.begin(name, layer)
                try:
                    return original(*args, **kwargs)
                finally:
                    ms = probe.finish(span)
                    if metric is not None:
                        probe.timings[metric].append(ms)
            return wrapper

        self.patch(owner, attr, make)

    def close(self) -> None:
        """Put back every original, newest patch first."""
        while self._restore:
            self._restore.pop()()

    # ------------------------------------------------------------------
    # install: one method per layer
    # ------------------------------------------------------------------
    def install(self) -> "Probe":
        self._install_matrix()
        self._install_runner()
        self._install_tiers()
        self._install_service()
        self._install_dist()
        return self

    def _install_matrix(self) -> None:
        from repro.harness import parallel
        from repro.service import jobs

        probe = self

        def make(original):
            def run_matrix(requests, *args, **kwargs):
                queue_thread = threading.current_thread().name == "repro-job-queue"
                if queue_thread and probe.req not in probe._seen_exec:
                    probe._seen_exec.add(probe.req)
                    sent = probe._posted.get(probe.req)
                    if sent is not None:
                        probe.values["jobs.queue_wait_ms"].append(
                            (time.perf_counter_ns() - sent) / 1e6)
                span = probe.begin("run_matrix", "matrix")
                try:
                    return original(requests, *args, **kwargs)
                finally:
                    probe.finish(span)
                    manifest = parallel.last_manifest()
                    if manifest is not None:
                        overhead = manifest.wall_time - sum(
                            c.wall_time for c in manifest.cells)
                        probe.values["matrix.dispatch_overhead_ms"].append(
                            1e3 * overhead)
                        for cell in manifest.cells:
                            probe.counts[f"tier.cells.{cell.source}"] += 1
            return run_matrix

        wrapped = make(parallel.run_matrix)
        for module in (parallel, jobs):
            self.patch(module, "run_matrix", lambda _orig: wrapped)

    def _install_runner(self) -> None:
        from repro.harness import parallel, runner

        probe = self
        self.timed(runner, "resolve_workload", "resolve_workload", "workloads",
                   metric="workloads.build_ms")
        for module in (runner, parallel):
            self.timed(module, "run_workload", "run_workload", "runner")
        original_core = runner.Core

        def traced_core(*args, **kwargs):
            span = probe.begin("Core()", "core")
            try:
                core = original_core(*args, **kwargs)
            finally:
                probe.timings["core.build_ms"].append(probe.finish(span))
            probe._instrument_core(core)
            return core

        self.patch(runner, "Core", lambda _orig: traced_core)

    def _count(self, owner: Any, attr: str, key: str) -> None:
        counts = self.counts
        original = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return original(*args, **kwargs)

        setattr(owner, attr, wrapper)

    def _instrument_core(self, core) -> None:
        """Count a fresh core's per-instruction calls and span its windows."""
        self._count(core.bp, "predict", "branch.predict")
        self._count(core.btb, "lookup", "branch.btb_lookup")
        self._count(core.mem, "load", "memory.access")
        self._count(core.mem, "store", "memory.access")
        self._count(core.func, "step_fast", "workloads.step")
        if core.scheme is not None:
            for hook in SCHEME_HOOKS:
                self._count(core.scheme, hook, "scheme.hook")
        probe = self
        original_run = core.run
        original_window = core.run_window
        phases: List[str] = []

        def run_window(warmup, measure):
            phases[:] = ["warmup", "measure"] if warmup > 0 else ["measure"]
            return original_window(warmup, measure)

        def run(max_instructions, max_cycles=None):
            phase = phases.pop(0) if phases else "measure"
            start_cycle = core.cycle
            span = probe.begin(f"core.{phase}", "core")
            try:
                stats = original_run(max_instructions, max_cycles)
            finally:
                seconds = probe.finish(span) / 1e3
            probe.values[f"core.{phase}_s"].append(seconds)
            probe.counts["core.cycles"] += core.cycle - start_cycle
            probe.counts["core.instructions"] += stats.instructions
            probe.counts["core.run_ns"] += int(seconds * 1e9)
            if phase == "measure":
                probe._measured(stats)
            return stats

        core.run_window = run_window
        core.run = run

    def _measured(self, stats) -> None:
        counts = self.counts
        counts["m.instructions"] += stats.instructions
        counts["m.fetched"] += stats.fetched
        counts["m.allocated"] += stats.allocated
        counts["m.wrong_path_allocated"] += stats.wrong_path_allocated
        counts["m.mispredicts"] += stats.mispredicts
        counts["m.loads"] += stats.loads
        counts["m.load_latency_total"] += stats.load_latency_total
        counts["m.predicated"] += stats.predicated_instances

    def _install_tiers(self) -> None:
        from repro.harness import parallel, runner
        from repro.harness.cache import ResultCache
        from repro.service.store import ExperimentStore

        probe = self

        def make_lookup(original):
            def lookup_cached(memo_key):
                span = probe.begin("lookup_cached", "tier")
                result, source = original(memo_key)
                ms = probe.finish(span)
                probe.timings[f"tier.lookup_ms.{source or 'miss'}"].append(ms)
                return result, source
            return lookup_cached

        for module in (runner, parallel):
            self.patch(module, "lookup_cached", make_lookup)
        self.timed(ResultCache, "get", "cache.get", "cache", metric="cache.get_ms")
        self.timed(ResultCache, "put", "cache.put", "cache", metric="cache.put_ms")
        for attr, metric in (("get", "store.get_ms"), ("put", "store.put_ms"),
                             ("lease_next", "store.lease_ms"),
                             ("ack_lease", "store.ack_ms")):
            self.timed(ExperimentStore, attr, f"store.{attr}", "store", metric=metric)

        def make_requeue(original):
            def requeue_expired(store, *args, **kwargs):
                rows = original(store, *args, **kwargs)
                probe.counts["dist.requeues"] += len(rows)
                return rows
            return requeue_expired

        self.patch(ExperimentStore, "requeue_expired", make_requeue)

        def make_lease(original):
            def lease_next(store, *args, **kwargs):
                lease = original(store, *args, **kwargs)
                if lease is not None:
                    now = time.perf_counter_ns()
                    dist = probe.dist_job()
                    dist.setdefault("first_claim", now)
                    sent = probe._posted.get(probe.req)
                    if sent is not None and probe.req not in probe._seen_exec:
                        probe._seen_exec.add(probe.req)
                        probe.values["jobs.queue_wait_ms"].append((now - sent) / 1e6)
                return lease
            return lease_next

        self.patch(ExperimentStore, "lease_next", make_lease)

        def make_ack(original):
            def ack_lease(store, lease_id, wall_time=0.0, *args, **kwargs):
                row = original(store, lease_id, wall_time, *args, **kwargs)
                if row is not None:
                    dist = probe.dist_job()
                    dist["last_ack"] = time.perf_counter_ns()
                    dist["wall"] = dist.get("wall", 0.0) + wall_time
                    dist["cells"] = dist.get("cells", 0) + 1
                return row
            return ack_lease

        self.patch(ExperimentStore, "ack_lease", make_ack)

    def dist_job(self) -> Dict[str, float]:
        """Lease bookkeeping of the distributed job the client is driving."""
        return self.dist.setdefault(self.req, {})

    def _install_service(self) -> None:
        from repro.service.app import ROUTES, ServiceHandler
        from repro.service.client import ServiceClient
        from repro.service.jobs import JobQueue

        probe = self
        self.timed(JobQueue, "submit", "JobQueue.submit", "jobs")
        self.timed(JobQueue, "complete_cell", "JobQueue.complete_cell", "jobs")
        for route in ROUTES:
            self.timed(ServiceHandler, route.handler, route.handler, "http",
                       metric=f"http.{route.handler}")

        def make_send(original):
            def send_response(handler, code, message=None):
                if not 200 <= code < 300:
                    probe.counts["http.non2xx"] += 1
                return original(handler, code, message)
            return send_response

        self.patch(ServiceHandler, "send_response", make_send)

        def make_request(original):
            def request(client, method, path, *args, **kwargs):
                if path.endswith("/jobs") and method == "POST":
                    probe._posted[probe.req] = time.perf_counter_ns()
                span = probe.begin(f"{method} {_route_of(path)}", "client")
                try:
                    return original(client, method, path, *args, **kwargs)
                finally:
                    probe.finish(span)
            return request

        self.patch(ServiceClient, "request", make_request)

    def _install_dist(self) -> None:
        from repro.harness import distributed

        probe = self

        def make_spawn(original):
            def spawn_local_workers(*args, **kwargs):
                probe.dist_job()["spawn"] = time.perf_counter_ns()
                with probe.span("spawn_local_workers", "dist"):
                    return original(*args, **kwargs)
            return spawn_local_workers

        self.patch(distributed, "spawn_local_workers", make_spawn)
        self.timed(distributed, "dispatch_cells", "dispatch_cells", "dist")

    # ------------------------------------------------------------------
    # analysis
    # ------------------------------------------------------------------
    def self_times(self) -> Dict[str, float]:
        """Seconds of each layer's self time: a span's duration minus the
        part of it that its (same-thread) child spans cover."""
        children: Dict[int, List[Span]] = defaultdict(list)
        for span in self.spans:
            if span.parent:
                children[span.parent].append(span)
        totals = {layer: 0.0 for layer in LAYERS}
        for span in self.spans:
            covered = _covered(span, children.get(span.sid, ()))
            totals[span.layer] = totals.get(span.layer, 0.0) + (
                span.end - span.start - covered) / 1e9
        return totals

    def chrome_trace(self, meta: Dict[str, Any]) -> Dict[str, Any]:
        """The spans as Chrome trace-event JSON (one track per thread)."""
        events: List[Dict[str, Any]] = [
            {"ph": "M", "pid": 1, "tid": 0, "name": "process_name",
             "args": {"name": "perfbench"}},
        ]
        for ident, tid in self._tids.items():
            events.append({"ph": "M", "pid": 1, "tid": tid, "name": "thread_name",
                           "args": {"name": f"thread-{tid}"}})
        origin = min((s.start for s in self.spans), default=0)
        for span in sorted(self.spans, key=lambda s: (s.start, s.sid)):
            events.append({
                "name": span.name, "cat": span.layer, "ph": "X",
                "ts": (span.start - origin) / 1e3,
                "dur": (span.end - span.start) / 1e3,
                "pid": 1, "tid": span.tid,
                "args": {"id": span.sid, "parent": span.parent, "req": span.req},
            })
        return {"traceEvents": events, "displayTimeUnit": "ms", "otherData": meta}

    def write_chrome_trace(self, path: str, meta: Dict[str, Any]) -> None:
        with open(path, "w") as handle:
            json.dump(self.chrome_trace(meta), handle)


def _covered(span: Span, children) -> int:
    """Nanoseconds of *span* covered by the union of *children*."""
    intervals = sorted((max(c.start, span.start), min(c.end, span.end))
                       for c in children)
    covered, cursor = 0, span.start
    for lo, hi in intervals:
        lo = max(lo, cursor)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return covered


def _route_of(path: str) -> str:
    """``/api/v1/jobs/ab12/results`` → ``/jobs/<id>/results``."""
    parts = path.split("?")[0].split("/")[3:]
    if len(parts) >= 2 and parts[0] in ("jobs", "runs", "artifacts"):
        parts[1] = "<id>"
    return "/" + "/".join(parts)
