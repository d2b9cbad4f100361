"""Cell pools, seeded selection and the output-correctness gate.

A *cell* is one (workload, config, warmup, measure) simulation.  Every cell
the benchmark can deliver is drawn from two pinned pools:

* the **sim pool** — every suite workload and every committed mini-trace at
  the pinned sim window (``spec.json`` ``sim_window``);
* the **tiny pool** — every suite workload at each pinned tiny window.

``data/expected.json`` holds the ``SimStats`` digest of every cell of both
pools, recorded by ``record.py`` from a serial run of this tree, plus the
full stats of the sim pool (the service workload pre-populates its store
from them) and the host-cost strata that keep each seed's sim-cold mix
comparable.  :class:`DigestGate` checks delivered cells against it.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from typing import Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC_PATH = os.path.join(HERE, "spec.json")
EXPECTED_PATH = os.path.join(HERE, "data", "expected.json")

#: (workload, config, warmup, measure)
Cell = Tuple[str, str, int, int]


def load_spec() -> Dict:
    with open(SPEC_PATH) as handle:
        return json.load(handle)


PINS = load_spec()["pins"]
CONFIGS: List[str] = list(PINS["configs"])
SIM_WINDOW: Tuple[int, int] = (PINS["sim_window"]["warmup"],
                               PINS["sim_window"]["measure"])
TINY_WINDOWS: List[Tuple[int, int]] = [tuple(w) for w in PINS["tiny_windows"]]


def cell_id(cell: Cell) -> str:
    workload, config, warmup, measure = cell
    return f"{workload}|{config}|{warmup}|{measure}"


def stats_digest(stats_dict: Dict) -> str:
    """Digest of one ``SimStats.to_dict()`` (canonical JSON, sha256)."""
    canonical = json.dumps(stats_dict, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:20]


def suite_workloads() -> List[str]:
    from repro.workloads import suite_names

    return list(suite_names())


def trace_workloads() -> List[str]:
    from repro.workloads.trace import trace_workload_names

    return sorted(trace_workload_names())


def sim_pool() -> List[Cell]:
    warmup, measure = SIM_WINDOW
    return [(w, c, warmup, measure)
            for w in suite_workloads() + trace_workloads() for c in CONFIGS]


def tiny_pool() -> List[Cell]:
    return [(w, c, warmup, measure)
            for warmup, measure in TINY_WINDOWS
            for w in suite_workloads() for c in CONFIGS]


# ----------------------------------------------------------------------
# the recorded table
# ----------------------------------------------------------------------
class Expected:
    """``data/expected.json``: digests, stored stats and cost strata."""

    def __init__(self, payload: Dict):
        self.digests: Dict[str, str] = payload["digests"]
        self.stored: Dict[str, Dict] = payload["stored"]
        self.strata: List[List[str]] = payload["strata"]

    @classmethod
    def load(cls, path: str = EXPECTED_PATH) -> "Expected":
        with open(path) as handle:
            return cls(json.load(handle))


class DigestGate:
    """Counts delivered cells whose ``SimStats`` differ from the recording.

    A cell with no recorded digest, or with a different one, fails.  The
    digest delivered for each cell is kept in :attr:`seen`.
    """

    def __init__(self, expected: Dict[str, str]):
        self.expected = expected
        self.mismatches: List[str] = []
        self.seen: Dict[str, str] = {}

    def check(self, cell: Cell, stats_dict: Dict) -> bool:
        key = cell_id(cell)
        digest = stats_digest(stats_dict)
        self.seen[key] = digest
        if self.expected.get(key) != digest:
            self.mismatches.append(key)
            return False
        return True

    @property
    def failed(self) -> int:
        return len(self.mismatches)


# ----------------------------------------------------------------------
# seeded selection
# ----------------------------------------------------------------------
def sim_cold_stream(seed: int, strata: List[List[str]]) -> List[str]:
    """Workload order for sim-cold: one mini-trace, then stratified rounds.

    Round *r* takes the *r*-th member of a seeded permutation of every
    stratum.  Within a round the strata come in bit-reversed (van der
    Corput) order of their cost rank, so every prefix of the stream, not
    only whole rounds, spans cheap to dear workloads evenly and a run cut
    short by its deadline keeps the same cost mix.  No workload repeats,
    so every cell is simulated.
    """
    rng = random.Random(f"sim-cold:{seed}")
    stream = [rng.choice(trace_workloads())]
    shuffled = [rng.sample(stratum, len(stratum)) for stratum in strata]
    bits = max(1, (len(strata) - 1).bit_length())
    order = sorted(range(len(strata)),
                   key=lambda i: int(format(i, f"0{bits}b")[::-1], 2))
    rounds = max(len(s) for s in shuffled)
    for r in range(rounds):
        stream.extend(shuffled[i][r] for i in order if r < len(shuffled[i]))
    return stream


def tiny_stream(seed: int, salt: str) -> List[Tuple[str, int, int]]:
    """Seeded order of (workload, warmup, measure) over the tiny pool."""
    rng = random.Random(f"{salt}:{seed}")
    items = [(w, warmup, measure)
             for warmup, measure in TINY_WINDOWS for w in suite_workloads()]
    rng.shuffle(items)
    return items


def cached_subset(seed: int, pool: List[Cell], share: float) -> List[Cell]:
    """The seeded *share* of *pool* that starts out in the JSON cache."""
    rng = random.Random(f"cache:{seed}")
    return rng.sample(pool, int(round(share * len(pool))))

