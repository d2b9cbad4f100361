"""The CI performance gate's verdict (tools/perf_gate.py).

Only the pure verdict is tested here; the gate's runs take minutes and
belong to CI's ``perf-gate`` job.
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
