"""The repository benchmark: one command, three workloads, one JSON line.

    python3 perfbench/run.py --workload sim-cold --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  ``--trace 0`` measures the end-to-end
metrics with no probe installed; ``--trace 1`` runs the same work twice —
untraced, then traced — and reports the per-layer metrics, the tracing
overhead and a Chrome trace-event file under ``perfbench/out/``.  The last
line of standard output is the result object; a human summary goes to
standard error.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import cells

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")


def prepare_environment() -> None:
    """Pin every input the program reads from its environment.

    Every ``REPRO_*`` variable is removed and the pinned ones from
    ``spec.json`` are set, before ``repro`` is imported, so the caller's
    shell cannot change windows, worker counts, lanes, cache or backend.
    """
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SystemExit(f"perfbench: no repro package under {SRC}; "
                         f"run from the root of a full checkout")
    for name in [n for n in os.environ if n.startswith("REPRO_")]:
        del os.environ[name]
    os.environ.update(cells.PINS["env"]["set"])
    os.environ["PYTHONPATH"] = SRC
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def make_workdir() -> str:
    """A fresh scratch directory inside the checkout; temp files go there."""
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT)
    tempfile.tempdir = workdir
    os.environ["TMPDIR"] = workdir
    return workdir


def import_seconds() -> float:
    """Median wall time of a fresh interpreter importing the benchmark.

    That import pulls in every ``repro`` layer the workloads use.  It is
    part of set-up; a fresh interpreter is timed several times because a
    process can import a module only once.
    """
    times = []
    for _ in range(cells.PINS["setup_repeats"]):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import scenarios"], cwd=HERE,
                       check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("sim-cold", "service-mixed", "dist-drain"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    prepare_environment()
    workdir = make_workdir()
    try:
        import_s = import_seconds()
        import scenarios

        report = scenarios.measure(args.workload, args.seed, args.seconds,
                                   bool(args.trace), workdir, import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    sys.stderr.write(report.pop("summary") + "\n")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
