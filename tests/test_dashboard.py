"""The self-contained dashboard: structure, self-containment, CLI.

The contract under test (docs/dashboard.md):

* **self-containment** — the emitted HTML contains no external URL at
  all (the literal substring ``"htt" + "p"`` never appears), so the file
  works from ``file://`` on an air-gapped machine;
* **fidelity** — every stored run's ``run_id`` appears in the document,
  the speedup table compares configs only against their same-window
  baseline, and timeline artifacts round-trip through the parser;
* **robustness** — an empty store still renders a valid document.
"""

from __future__ import annotations

import pytest

from repro.dashboard import collect, generate, parse_timeline, render_dashboard
from repro.dashboard.data import DashboardData, geomean
from repro.harness.cache import set_active_store
from repro.harness.parallel import RunRequest, run_matrix
from repro.harness.runner import clear_memo
from repro.service.store import ExperimentStore

# Distinct windows so this module controls its own memo/cache hits.
WARMUP, MEASURE = 1500, 1700


@pytest.fixture
def populated_store(tmp_path):
    """A store holding a small real matrix."""
    db = tmp_path / "exp.sqlite"
    store = ExperimentStore(str(db))
    previous = set_active_store(store)
    clear_memo()
    try:
        run_matrix([
            RunRequest(w, c, warmup=WARMUP, measure=MEASURE)
            for w in ("mcf", "gcc") for c in ("baseline", "acb")
        ], backend="serial")
    finally:
        clear_memo()
        set_active_store(previous)
    return store


def test_collect_speedups_and_branches(populated_store):
    store = populated_store
    data = collect(db_path=str(store.path))
    assert len(data.runs) == 4
    assert [s["config"] for s in data.speedups] == ["acb"]
    assert data.speedups[0]["count"] == 2  # mcf and gcc both have baselines
    acb = data.speedups[0]
    assert acb["geomean"] == pytest.approx(
        geomean([r["speedup"] for r in acb["per_workload"]])
    )
    assert data.branches  # per_branch stats surfaced


def test_dashboard_html_structure(populated_store, tmp_path):
    store = populated_store
    out = tmp_path / "dash.html"
    report = generate(db_path=str(store.path), out_path=str(out))
    assert report.runs == 4

    document = out.read_text(encoding="utf-8")
    # self-containment: no external URL anywhere, ever
    assert ("htt" + "p") not in document
    assert "<script src" not in document and "@import" not in document
    # every stored run is on the page, identified by its run_id
    for run in store.query_runs(limit=100):
        assert run["run_id"] in document
    assert document.count("<table") >= 3  # speedups, branches, runs
    assert "Speedup vs baseline" in document
    assert "<svg" in document  # inline charts, not <img> references
    assert "prefers-color-scheme" in document  # dark mode ships by default


def test_dashboard_empty_store_renders(tmp_path):
    out = tmp_path / "empty.html"
    report = generate(db_path=str(tmp_path / "none.sqlite"),
                      out_path=str(out))
    assert report.runs == 0
    document = out.read_text(encoding="utf-8")
    assert ("htt" + "p") not in document
    assert "store is" in document  # the empty-state message


def test_render_is_pure_function_of_data():
    data = DashboardData(title="t <&> title")
    first = render_dashboard(data)
    assert first == render_dashboard(data)
    assert "t &lt;&amp;&gt; title" in first  # escaping


def test_parse_timeline_roundtrip():
    text = "\n".join([
        "# per-branch timeline — window summary",
        "",
        "branch pc=64: 3 occurrences in window (1 mispredicted, "
        "1 predicated)",
        "  cycle       12  seq=4      pred=T  actual=NT MISPREDICT",
        "  cycle       40  seq=9      pred=T  actual=T  correct",
        "  cycle       77  seq=13     pred=NT actual=T  "
        "predicated (saved flush)",
        "branch pc=96: 1 occurrences in window (0 mispredicted, "
        "0 predicated)",
        "  ... 4 older occurrences omitted ...",
        "  cycle       90  seq=21     pred=T  actual=T  correct",
    ])
    branches = parse_timeline(text)
    assert [b["pc"] for b in branches] == [64, 96]
    first = branches[0]
    assert first["mispredicted"] == 1
    assert [o["cycle"] for o in first["occurrences"]] == [12, 40, 77]
    assert first["occurrences"][0]["outcome"] == "MISPREDICT"
    assert first["occurrences"][2]["outcome"] == "predicated (saved flush)"


def test_timeline_artifact_reaches_the_page(populated_store, tmp_path):
    store = populated_store
    timeline = tmp_path / "timeline.txt"
    timeline.write_text("\n".join([
        "# per-branch timeline — window summary",
        "branch pc=640: 2 occurrences in window (1 mispredicted, "
        "0 predicated)",
        "  cycle       15  seq=2      pred=T  actual=NT MISPREDICT",
        "  cycle       55  seq=8      pred=T  actual=T  correct",
    ]), encoding="utf-8")
    store.record_job("job-tl", "trace", {"workload": "mcf"})
    store.add_artifact("job-tl", "mcf-acb.timeline", "timeline",
                       str(timeline))

    data = collect(db_path=str(store.path))
    assert [t["job_id"] for t in data.timelines] == ["job-tl"]
    assert data.timelines[0]["branches"][0]["pc"] == 640
    document = render_dashboard(data)
    assert "Per-branch timelines" in document
    assert "mcf-acb.timeline" in document


def test_dashboard_cli(populated_store, tmp_path, capsys):
    from repro.__main__ import main

    store = populated_store
    out = tmp_path / "cli.html"
    code = main(["dashboard", "--db", str(store.path), "--out", str(out)])
    assert code == 0
    assert out.exists()
    captured = capsys.readouterr()
    assert "self-contained" in captured.out
