"""The CI performance gate's verdict (tools/perf_gate.py).

Only the pure verdict and the order of runs are tested here, the latter
with the runs and the worktree commands stubbed out; the gate's real runs
take minutes and belong to CI's ``perf-gate`` job.
"""

from __future__ import annotations

import importlib.util
import json
import os

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPT = os.path.join(REPO, "tools", "perf_gate.py")

_spec = importlib.util.spec_from_file_location("perf_gate", SCRIPT)
perf_gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(perf_gate)

with open(os.path.join(REPO, "BENCHMARK.json")) as _handle:
    END_TO_END = json.load(_handle)["end_to_end"]


def result(sim_kips=30.0, job_p50_ms=70.0, correct=True, failed=0):
    return {
        "correct": correct, "attempted": 100, "failed": failed,
        "metrics": {
            "sim_kips": {"value": sim_kips, "unit": "kinstr/s"},
            "job_p50_ms": {"value": job_p50_ms, "unit": "ms"},
        },
    }


@pytest.mark.parametrize(
    "change, passes",
    [
        (result(), True),
        (result(sim_kips=30.0 * 0.76), True),     # 24% fewer kIPS
        (result(sim_kips=30.0 * 0.74), False),    # 26% fewer kIPS
        (result(job_p50_ms=70.0 * 1.24), True),   # 24% slower jobs
        (result(job_p50_ms=70.0 * 1.26), False),  # 26% slower jobs
        (result(sim_kips=90.0, job_p50_ms=10.0), True),  # gains never fail
        (result(correct=False), False),
        (result(failed=1), False),
    ],
)
def test_verdict(change, passes):
    parent = [result()] * perf_gate.PAIRS
    problems = perf_gate.verdict(parent, [change] * perf_gate.PAIRS,
                                 END_TO_END)
    assert (problems == []) is passes, problems


def test_pairs_alternate_which_side_runs_first(monkeypatch):
    """Each side leads equally often, so a drift over the gate's minutes
    weighs on both sides alike."""
    order = []

    def run_bench(checkout):
        order.append("change" if checkout == perf_gate.ROOT else "parent")
        return result()

    class Done:
        returncode = 0

    monkeypatch.setattr(perf_gate, "run_bench", run_bench)
    monkeypatch.setattr(perf_gate.subprocess, "run",
                        lambda *args, **kwargs: Done())
    assert perf_gate.main(["parent-ref"]) == 0
    firsts = order[::2]
    assert len(order) == 2 * perf_gate.PAIRS
    assert all({a, b} == {"parent", "change"}
               for a, b in zip(order[::2], order[1::2]))
    assert firsts.count("parent") == firsts.count("change")
    assert firsts == ["parent", "change"] * (perf_gate.PAIRS // 2)
