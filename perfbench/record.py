"""Re-record ``data/expected.json`` from a serial run of this tree.

    PYTHONPATH=src python3 perfbench/record.py

Simulates every cell of the sim and tiny pools (see ``cells.py``) one at a
time through ``run_workload`` with the memo cleared and no result tier
attached, and writes their digests, the full stats of the sim pool, and
the sim-cold cost strata (suite workloads sorted by the host time of their
five cells, cut into ``pins.sim_cold.strata`` contiguous groups).
Run it only when simulated behaviour is meant to change; the benchmark's
correctness gate compares every delivered cell against this file.
"""

from __future__ import annotations

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import cells  # noqa: E402
import run  # noqa: E402


def simulate(cell):
    from repro.harness import runner

    runner.clear_memo()
    workload, config, warmup, measure = cell
    return runner.run_workload(workload, config, warmup=warmup, measure=measure)


def main() -> int:
    run.prepare_environment()
    digests, stored, cost = {}, {}, {}
    suite = set(cells.suite_workloads())
    for cell in cells.sim_pool():
        start = time.perf_counter()
        result = simulate(cell)
        cost[cell[0]] = cost.get(cell[0], 0.0) + time.perf_counter() - start
        key = cells.cell_id(cell)
        stats = result.stats.to_dict()
        digests[key] = cells.stats_digest(stats)
        stored[key] = {"stats": stats, "category": result.category,
                       "paper_tag": result.paper_tag}
    for cell in cells.tiny_pool():
        stats = simulate(cell).stats.to_dict()
        digests[cells.cell_id(cell)] = cells.stats_digest(stats)
    ranked = sorted((w for w in cost if w in suite), key=lambda w: cost[w])
    n = cells.PINS["sim_cold"]["strata"]
    strata = [ranked[i * len(ranked) // n:(i + 1) * len(ranked) // n]
              for i in range(n)]
    payload = {"digests": digests, "stored": stored, "strata": strata}
    with open(cells.EXPECTED_PATH, "w") as handle:
        json.dump(payload, handle, sort_keys=True, separators=(",", ":"))
        handle.write("\n")
    print(f"recorded {len(digests)} cells, {len(strata)} strata "
          f"-> {cells.EXPECTED_PATH}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
