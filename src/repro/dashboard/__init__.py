"""Self-contained results dashboard (``repro dashboard``).

Renders the SQLite experiment store — runs, jobs, distributed lease
progress and per-branch timelines from trace artifacts — into one HTML
file with no external assets (see docs/dashboard.md).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional

from repro.dashboard.data import DashboardData, collect, parse_timeline
from repro.dashboard.render import render_dashboard

__all__ = [
    "DashboardData",
    "DashboardReport",
    "collect",
    "generate",
    "parse_timeline",
    "render_dashboard",
]


@dataclass(frozen=True)
class DashboardReport:
    """What ``generate`` wrote, for the CLI summary line."""

    out_path: str
    size_bytes: int
    runs: int
    jobs: int


def generate(
    db_path: Optional[str] = None,
    out_path: str = "repro_dashboard.html",
    limit: int = 500,
    title: Optional[str] = None,
) -> DashboardReport:
    """Collect, render, and write the dashboard; returns a summary."""
    data = collect(db_path=db_path, limit=limit, title=title)
    document = render_dashboard(data)
    with open(out_path, "w", encoding="utf-8") as handle:
        handle.write(document)
    return DashboardReport(
        out_path=out_path,
        size_bytes=os.path.getsize(out_path),
        runs=len(data.runs),
        jobs=len(data.jobs),
    )
