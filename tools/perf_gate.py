#!/usr/bin/env python3
"""Performance gate: the repository benchmark on a parent and on this tree.

Run from the root of a full git checkout (CI's ``perf-gate`` job does)::

    python3 tools/perf_gate.py PARENT_REF

Checks ``PARENT_REF`` out into a temporary ``git worktree``, then runs
``perfbench/run.py`` on the ``sim-cold`` workload in the parent and in
this checkout, in pairs that alternate which side runs first, so
each side leads in half of them.  The gate fails when any run reports
``correct: false`` or ``failed > 0``, or when the median of any
end-to-end metric in ``BENCHMARK.json`` is worse on this tree than on the
parent by more than that metric's bound, in its ``better`` direction.
The bounds were set against measured run-to-run noise (see
``perfbench/README.md``); the gate adds none of its own.

Exit status 0 when the gate passes, 1 when it fails, 2 on a usage or
checkout error.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from typing import Dict, List

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

WORKLOAD = "sim-cold"
SEED = 1
SECONDS = 10
PAIRS = 4  # even: each side runs first equally often


def verdict(parent: List[dict], change: List[dict],
            end_to_end: List[dict]) -> List[str]:
    """Reasons the change fails the gate; an empty list means it passes.

    *parent* and *change* are perfbench result objects, one per run;
    *end_to_end* is ``BENCHMARK.json``'s ``end_to_end`` list.  A metric
    is compared only when both sides report it.
    """
    problems = []
    for side, runs in (("parent", parent), ("change", change)):
        for i, run in enumerate(runs):
            if not run.get("correct") or run.get("failed", 0) > 0:
                problems.append(
                    f"{side} run {i + 1}: correct={run.get('correct')} "
                    f"failed={run.get('failed')}"
                )
    for metric in end_to_end:
        name = metric["name"]
        before = [r["metrics"][name]["value"] for r in parent
                  if name in r.get("metrics", {})]
        after = [r["metrics"][name]["value"] for r in change
                 if name in r.get("metrics", {})]
        if not before or not after:
            continue
        base = statistics.median(before)
        new = statistics.median(after)
        ratio = new / base
        bound = metric["bound"]
        if metric["better"] == "higher":
            worse = ratio < 1 - bound
        else:
            worse = ratio > 1 + bound
        if worse:
            problems.append(
                f"{name}: median {new:g} vs parent {base:g} "
                f"({ratio:.3f}x, {metric['better']} is better, "
                f"bound {bound:.0%})"
            )
    return problems


def run_bench(checkout: str) -> dict:
    """One perfbench run in *checkout*; its result object."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOAD,
         "--seed", str(SEED), "--seconds", str(SECONDS), "--trace", "0"],
        cwd=checkout, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"perf_gate: perfbench failed in {checkout} "
                         f"(exit {proc.returncode})")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _summary(label: str, run: dict) -> str:
    values = ", ".join(f"{name}={m['value']:g}"
                       for name, m in sorted(run["metrics"].items()))
    return (f"{label}: correct={run['correct']} failed={run['failed']} "
            f"{values}")


def main(argv: List[str]) -> int:
    if len(argv) != 1:
        print("usage: python3 tools/perf_gate.py PARENT_REF", file=sys.stderr)
        return 2
    (parent_ref,) = argv
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        end_to_end = json.load(handle)["end_to_end"]
    scratch = tempfile.mkdtemp(prefix="perf-gate-")
    worktree = os.path.join(scratch, "parent")
    added = subprocess.run(
        ["git", "worktree", "add", "--detach", worktree, parent_ref],
        cwd=ROOT,
    )
    if added.returncode != 0:
        shutil.rmtree(scratch, ignore_errors=True)
        print(f"perf_gate: cannot check out {parent_ref}", file=sys.stderr)
        return 2
    runs: Dict[str, List[dict]] = {"parent": [], "change": []}
    try:
        for pair in range(PAIRS):
            sides = (("parent", worktree), ("change", ROOT))
            for side, checkout in sides[::-1] if pair % 2 else sides:
                run = run_bench(checkout)
                runs[side].append(run)
                print(_summary(f"pair {pair + 1} {side}", run), flush=True)
    finally:
        subprocess.run(["git", "worktree", "remove", "--force", worktree],
                       cwd=ROOT)
        shutil.rmtree(scratch, ignore_errors=True)
    problems = verdict(runs["parent"], runs["change"], end_to_end)
    for problem in problems:
        print(f"FAIL {problem}")
    if problems:
        return 1
    print(f"perf gate passed: {PAIRS} pairs of {WORKLOAD}, every "
          f"end-to-end metric within its bound of {parent_ref}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
