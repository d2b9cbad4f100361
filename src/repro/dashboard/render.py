"""Render :class:`~repro.dashboard.data.DashboardData` to one HTML file.

Self-containment is the contract (docs/dashboard.md): every byte of
markup, style, script, and chart geometry is inlined, so the file opens
from ``file://`` on an air-gapped machine.  The structural test enforces
it literally — the output must not contain the substring ``"htt"+"p"``
anywhere, which rules out external stylesheets, fonts, CDNs, and
trackers by construction.

Charts are inline SVG: speedup bars per scheme and per-branch occurrence
strips colored by outcome.  Colors
follow the chart's job — one categorical blue for magnitude bars, status
colors only for branch outcomes (mispredict/divergence are *states*, not
series) — with an automatic dark mode via CSS custom properties.
"""

from __future__ import annotations

import html
from typing import Any, Dict

from repro.dashboard.data import DashboardData

__all__ = ["render_dashboard"]


def _esc(value: Any) -> str:
    return html.escape(str(value), quote=True)


# categorical slot 1 (light/dark) carries every "magnitude" mark; branch
# outcomes use the reserved status palette (see the module docstring)
_CSS = """
:root {
  --page: #f9f9f7; --surface: #fcfcfb;
  --ink: #0b0b0b; --ink2: #52514e; --muted: #898781;
  --grid: #e1e0d9; --axis: #c3c2b7; --ring: rgba(11, 11, 11, 0.10);
  --s1: #2a78d6;
  --good: #0ca30c; --warn: #fab219; --serious: #ec835a; --crit: #d03b3b;
}
@media (prefers-color-scheme: dark) {
  :root:where(:not([data-theme="light"])) {
    --page: #0d0d0d; --surface: #1a1a19;
    --ink: #ffffff; --ink2: #c3c2b7; --muted: #898781;
    --grid: #2c2c2a; --axis: #383835; --ring: rgba(255, 255, 255, 0.10);
    --s1: #3987e5;
  }
}
:root[data-theme="dark"] {
  --page: #0d0d0d; --surface: #1a1a19;
  --ink: #ffffff; --ink2: #c3c2b7; --muted: #898781;
  --grid: #2c2c2a; --axis: #383835; --ring: rgba(255, 255, 255, 0.10);
  --s1: #3987e5;
}
* { box-sizing: border-box; }
body {
  margin: 0; padding: 24px; background: var(--page); color: var(--ink);
  font: 14px/1.5 system-ui, sans-serif;
}
main { max-width: 1080px; margin: 0 auto; }
header { display: flex; align-items: baseline; gap: 12px; flex-wrap: wrap; }
h1 { font-size: 20px; margin: 0 0 4px; }
h2 { font-size: 16px; margin: 28px 0 8px; }
.sub { color: var(--ink2); }
.mono { font-family: ui-monospace, monospace; font-size: 12px; }
.tiles { display: flex; gap: 12px; flex-wrap: wrap; margin: 16px 0; }
.tile {
  background: var(--surface); border: 1px solid var(--ring);
  border-radius: 8px; padding: 10px 16px; min-width: 120px;
}
.tile b { display: block; font-size: 22px; font-variant-numeric: tabular-nums; }
.tile span { color: var(--ink2); font-size: 12px; }
table {
  border-collapse: collapse; width: 100%;
  background: var(--surface); border: 1px solid var(--ring);
  border-radius: 8px;
}
th, td {
  text-align: left; padding: 5px 10px;
  border-bottom: 1px solid var(--grid); font-size: 13px;
}
th { color: var(--ink2); font-weight: 600; }
td.num { text-align: right; font-variant-numeric: tabular-nums; }
tr:last-child td { border-bottom: none; }
svg { display: block; }
.bar { fill: var(--s1); }
.axis { stroke: var(--axis); stroke-width: 1; }
.legend {
  display: flex; gap: 16px; color: var(--ink2); font-size: 12px;
  margin: 6px 0; flex-wrap: wrap;
}
.legend i {
  display: inline-block; width: 10px; height: 10px; border-radius: 2px;
  margin-right: 5px; vertical-align: -1px;
}
.status { font-size: 12px; border-radius: 10px; padding: 1px 8px; }
.status.done { color: var(--good); border: 1px solid var(--good); }
.status.running, .status.queued {
  color: var(--ink2); border: 1px solid var(--axis);
}
.status.failed { color: var(--crit); border: 1px solid var(--crit); }
input[type="search"] {
  background: var(--surface); color: var(--ink);
  border: 1px solid var(--axis); border-radius: 6px;
  padding: 5px 10px; font: inherit; margin: 0 0 8px; width: 280px;
}
button {
  background: var(--surface); color: var(--ink2);
  border: 1px solid var(--axis); border-radius: 6px;
  padding: 4px 10px; font: inherit; cursor: pointer; margin-left: auto;
}
.empty { color: var(--muted); padding: 12px; }
footer { color: var(--muted); font-size: 12px; margin-top: 32px; }
"""

_JS = """
(function () {
  var root = document.documentElement;
  document.getElementById("theme").addEventListener("click", function () {
    var dark = root.getAttribute("data-theme") === "dark" ||
      (!root.getAttribute("data-theme") &&
       window.matchMedia("(prefers-color-scheme: dark)").matches);
    root.setAttribute("data-theme", dark ? "light" : "dark");
  });
  var filter = document.getElementById("run-filter");
  if (filter) {
    filter.addEventListener("input", function () {
      var needle = filter.value.toLowerCase();
      var rows = document.querySelectorAll("#runs tbody tr");
      for (var i = 0; i < rows.length; i++) {
        var hit = rows[i].textContent.toLowerCase().indexOf(needle) >= 0;
        rows[i].style.display = hit ? "" : "none";
      }
    });
  }
})();
"""

#: branch-occurrence outcome -> (status CSS variable, legend label)
OUTCOME_STATUS = {
    "correct": ("var(--axis)", "correct"),
    "MISPREDICT": ("var(--crit)", "mispredict (flush)"),
    "predicated": ("var(--s1)", "predicated"),
    "predicated (saved flush)": ("var(--good)", "predicated (saved flush)"),
    "diverged": ("var(--serious)", "diverged"),
    "squashed": ("var(--muted)", "squashed (wrong path)"),
}


def _tiles(data: DashboardData) -> str:
    best = data.speedups[0] if data.speedups else None
    cells = data.lease_counts or {}
    tiles = [
        (len(data.runs), "stored runs"),
        (len({r["workload"] for r in data.runs}), "workloads"),
        (len({r["config"] for r in data.runs}), "configs"),
        (len(data.jobs), "jobs"),
        (f"{best['geomean']:.2f}×" if best else "—",
         f"best geomean ({_esc(best['config'])})" if best else "best geomean"),
    ]
    if cells.get("pending") or cells.get("leased"):
        tiles.append((f"{cells.get('done', 0)}/{sum(cells.values())}",
                      "distributed cells done"))
    return '<div class="tiles">' + "".join(
        f'<div class="tile"><b>{_esc(v)}</b><span>{label}</span></div>'
        for v, label in tiles
    ) + "</div>"


def _speedup_section(data: DashboardData) -> str:
    if not data.speedups:
        return ('<h2>Speedup vs baseline</h2>'
                '<p class="empty">No config has a stored baseline twin yet '
                '— run a matrix that includes the baseline scheme.</p>')
    scale = max(max(s["geomean"] for s in data.speedups), 1.0)
    rows = []
    for entry in data.speedups:
        width = max(2, round(240 * entry["geomean"] / scale))
        per = ", ".join(
            f"{r['workload']} {r['speedup']:.2f}x"
            for r in entry["per_workload"][:8]
        )
        bar = (
            f'<svg width="250" height="16" role="img" '
            f'aria-label="{entry["geomean"]:.2f}x">'
            f'<line class="axis" x1="0.5" y1="0" x2="0.5" y2="16"></line>'
            f'<rect class="bar" x="1" y="2" width="{width}" height="12" '
            f'rx="4"></rect></svg>'
        )
        rows.append(
            f"<tr><td>{_esc(entry['config'])}</td>"
            f'<td class="num">{entry["geomean"]:.3f}×</td>'
            f'<td class="num">{entry["count"]}</td>'
            f'<td title="{_esc(per)}">{bar}</td></tr>'
        )
    return (
        "<h2>Speedup vs baseline</h2>"
        '<p class="sub">Geomean of per-workload cycle ratios; each cell is '
        "compared only against the baseline simulated under the same "
        "window.</p>"
        "<table><thead><tr><th>config</th><th>geomean</th>"
        "<th>workloads</th><th>speedup</th></tr></thead>"
        f"<tbody>{''.join(rows)}</tbody></table>"
    )


def _jobs_section(data: DashboardData) -> str:
    if not data.jobs:
        return ""
    rows = []
    for job in data.jobs[:20]:
        status = _esc(job.get("status", "?"))
        rows.append(
            f'<tr><td class="mono">{_esc(job["job_id"])}</td>'
            f"<td>{_esc(job.get('kind', ''))}</td>"
            f'<td><span class="status {status}">{status}</span></td>'
            f"<td>{_esc(job.get('submitted', ''))}</td>"
            f"<td>{_esc(job.get('finished') or '')}</td></tr>"
        )
    counts = data.lease_counts or {}
    lease_line = ""
    if any(counts.values()):
        lease_line = (
            f'<p class="sub">Distributed cells: {counts.get("pending", 0)} '
            f"pending, {counts.get('leased', 0)} leased, "
            f"{counts.get('done', 0)} done.</p>"
        )
    return (
        "<h2>Jobs</h2>" + lease_line +
        "<table><thead><tr><th>job</th><th>kind</th><th>status</th>"
        "<th>submitted</th><th>finished</th></tr></thead>"
        f"<tbody>{''.join(rows)}</tbody></table>"
    )


def _branch_section(data: DashboardData) -> str:
    if not data.branches:
        return ""
    rows = []
    for row in data.branches:
        rate = row["rate"]
        rows.append(
            f"<tr><td>{_esc(row['workload'])}</td>"
            f"<td>{_esc(row['config'])}</td>"
            f'<td class="num mono">{row["pc"]}</td>'
            f'<td class="num">{row["executed"]}</td>'
            f'<td class="num">{row["mispredicted"]}</td>'
            f'<td class="num">{row["predicated"]}</td>'
            f'<td class="num">{rate:.1%}</td></tr>'
        )
    return (
        "<h2>Hardest branches</h2>"
        '<p class="sub">Top mispredicting static branches across the stored '
        "runs — the H2Ps auto-predication targets.</p>"
        "<table><thead><tr><th>workload</th><th>config</th><th>pc</th>"
        "<th>executed</th><th>mispredicted</th><th>predicated</th>"
        "<th>rate</th></tr></thead>"
        f"<tbody>{''.join(rows)}</tbody></table>"
    )


def _timeline_strip(branch: Dict[str, Any]) -> str:
    occurrences = branch["occurrences"]
    if not occurrences:
        return ""
    lo = occurrences[0]["cycle"]
    hi = max(occurrences[-1]["cycle"], lo + 1)
    width = 640
    marks = []
    for occ in occurrences:
        x = 4 + (width - 8) * (occ["cycle"] - lo) / (hi - lo)
        color = OUTCOME_STATUS.get(occ["outcome"], ("var(--axis)", ""))[0]
        marks.append(
            f'<rect x="{x:.1f}" y="3" width="2.5" height="14" rx="1" '
            f'fill="{color}"><title>cycle {occ["cycle"]}: '
            f'{_esc(occ["outcome"])}</title></rect>'
        )
    return (
        f'<svg width="{width}" height="20" role="img" '
        f'aria-label="branch {branch["pc"]} timeline">'
        f'<line class="axis" x1="0" y1="19.5" x2="{width}" y2="19.5"></line>'
        f"{''.join(marks)}</svg>"
    )


def _timeline_section(data: DashboardData) -> str:
    if not data.timelines:
        return ""
    legend = "".join(
        f'<span><i style="background:{color}"></i>{_esc(label)}</span>'
        for color, label in OUTCOME_STATUS.values()
    )
    blocks = []
    for timeline in data.timelines[:4]:
        rows = []
        for branch in timeline["branches"][:8]:
            rows.append(
                f'<tr><td class="num mono">{branch["pc"]}</td>'
                f'<td class="num">{branch["occurrences_total"]}</td>'
                f'<td class="num">{branch["mispredicted"]}</td>'
                f'<td class="num">{branch["predicated"]}</td>'
                f"<td>{_timeline_strip(branch)}</td></tr>"
            )
        blocks.append(
            f'<p class="sub mono">{_esc(timeline["name"])} '
            f"(job {_esc(timeline['job_id'])})</p>"
            "<table><thead><tr><th>pc</th><th>occurrences</th>"
            "<th>mispredicted</th><th>predicated</th>"
            "<th>occurrence timeline (fetch cycle →)</th></tr></thead>"
            f"<tbody>{''.join(rows)}</tbody></table>"
        )
    return (
        "<h2>Per-branch timelines</h2>"
        '<p class="sub">Every mark is one dynamic occurrence of a static '
        "branch from a trace artifact, placed by fetch cycle and colored "
        "by its fate.</p>"
        f'<div class="legend">{legend}</div>' + "".join(blocks)
    )


def _runs_section(data: DashboardData) -> str:
    if not data.runs:
        return ('<h2>Runs</h2><p class="empty">The experiment store is '
                "empty — simulate something first (docs/service.md).</p>")
    rows = []
    for run in data.runs:
        rows.append(
            f'<tr><td class="mono">{_esc(run["run_id"])}</td>'
            f"<td>{_esc(run['workload'])}</td>"
            f"<td>{_esc(run['config'])}</td>"
            f'<td class="num">{_esc(run["warmup"])}+{_esc(run["measure"])}'
            f"</td>"
            f'<td class="num">{run["ipc"]:.3f}</td>'
            f'<td class="num">{run["stats"].get("cycles", 0)}</td>'
            f'<td class="num">{run["stats"].get("mispredicts", 0)}</td>'
            f"<td>{_esc(run['created'])}</td></tr>"
        )
    return (
        f"<h2>Runs ({len(data.runs)})</h2>"
        '<input type="search" id="run-filter" '
        'placeholder="filter workload / config / run id" />'
        '<table id="runs"><thead><tr><th>run_id</th><th>workload</th>'
        "<th>config</th><th>window</th><th>ipc</th><th>cycles</th>"
        "<th>mispredicts</th><th>created</th></tr></thead>"
        f"<tbody>{''.join(rows)}</tbody></table>"
    )


def render_dashboard(data: DashboardData) -> str:
    """The complete HTML document as a string."""
    sections = [
        _tiles(data),
        _speedup_section(data),
        _jobs_section(data),
        _branch_section(data),
        _timeline_section(data),
        _runs_section(data),
    ]
    schema = data.schema or {}
    return (
        "<!DOCTYPE html>\n"
        '<html lang="en">\n<head>\n<meta charset="utf-8" />\n'
        '<meta name="viewport" content="width=device-width, initial-scale=1" '
        "/>\n"
        f"<title>{_esc(data.title)}</title>\n"
        f"<style>{_CSS}</style>\n</head>\n<body>\n<main>\n"
        "<header>"
        f"<div><h1>{_esc(data.title)}</h1>"
        f'<div class="sub mono">store: {_esc(data.db_path)} '
        f"(schema v{_esc(schema.get('schema_version', '?'))})</div></div>"
        '<button id="theme" type="button">light/dark</button>'
        "</header>\n"
        + "\n".join(s for s in sections if s)
        + "\n<footer>Generated by <span class=\"mono\">repro dashboard"
        "</span> — self-contained file, no external requests "
        "(docs/dashboard.md).</footer>\n"
        f"</main>\n<script>{_JS}</script>\n</body>\n</html>\n"
    )
