"""Golden SimStats gate for suite and frontier workloads.

Pins every counter of :func:`~repro.harness.runner.run_workload` for 17
cells that span the engine's main code paths:

* ``lammps``, ``soplex``, ``omnetpp`` and ``eembc`` under ``baseline``
  and ``acb`` at 3000/3000 — the paper's outliers plus one
  Dynamo-throttled workload, with and without predication;
* ``lammps`` under each of the seven comparison configs at 2000/2000 —
  one cell per scheme's machinery (oracle predictor, DMP, DMP with
  perfect history, DHP, Wish);
* ``frontier_far_merge`` under ``acb-dmp-reconv`` and ``acb@bullseye``
  at 2000/2000 — the merge-point learner and the long-history predictor.

Three kinds of cell are deliberately absent:

* ``trace:h2p_loop`` is already pinned by ``simstats_traces.json``
  (``tests/test_trace_golden.py``);
* a serial ``run_matrix`` over the first group would only add up the
  cells this file already pins one by one;
* synthetic per-stage kernels carried no simulation output worth
  pinning: they existed to time one pipeline stage.

Each cell resolves its workload afresh and passes the object to
``run_workload``, so the in-process memo never answers for the engine.

A deliberate change to simulated behaviour must regenerate::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest \
        tests/test_suite_golden.py
"""

from __future__ import annotations

import json
import os

import pytest

from repro.harness.runner import resolve_workload, run_workload

GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "golden", "simstats_suite.json"
)

#: (workload, config, warmup, measure) for every pinned cell
CELLS = (
    [(name, config, 3000, 3000)
     for name in ("lammps", "soplex", "omnetpp", "eembc")
     for config in ("baseline", "acb")]
    + [("lammps", config, 2000, 2000)
       for config in ("baseline", "oracle-bp", "acb", "dmp", "dmp-pbh",
                      "dhp", "wish")]
    + [("frontier_far_merge", config, 2000, 2000)
       for config in ("acb-dmp-reconv", "acb@bullseye")]
)


def cell_id(cell: tuple) -> str:
    workload, config, warmup, measure = cell
    return f"{workload}:{config}:{warmup}+{measure}"


def simulate(cell: tuple) -> dict:
    """One deterministic run; JSON-normalized stats dict."""
    workload, config, warmup, measure = cell
    result = run_workload(resolve_workload(workload), config,
                          warmup=warmup, measure=measure)
    return json.loads(json.dumps(result.stats.to_dict()))


@pytest.fixture(scope="module")
def golden() -> dict:
    if os.environ.get("REPRO_REGEN_GOLDEN"):
        data = {cell_id(cell): simulate(cell) for cell in CELLS}
        with open(GOLDEN_PATH, "w") as handle:
            json.dump(data, handle, indent=1, sort_keys=True)
            handle.write("\n")
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


def test_golden_covers_cells(golden):
    assert sorted(golden) == sorted(cell_id(cell) for cell in CELLS)


@pytest.mark.parametrize("cell", CELLS, ids=cell_id)
def test_suite_simstats_bit_identical(golden, cell):
    got = simulate(cell)
    want = golden[cell_id(cell)]
    assert got == want, (
        f"SimStats drifted for {cell_id(cell)}: the engine, a scheme or "
        f"the workload generator changed simulated behaviour; if that was "
        f"intended, regenerate with REPRO_REGEN_GOLDEN=1"
    )
