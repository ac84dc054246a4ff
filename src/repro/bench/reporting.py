"""Benchmark reporting: paper-style tables with paper-vs-measured columns.

Every benchmark regenerates one table or figure from the paper.  The
:class:`ExperimentTable` helper renders the measured rows next to the
paper's reference values (where the published numbers survive) and appends
the rendered table to ``benchmarks/results/<experiment>.md`` so a full
bench run leaves a reviewable record.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

__all__ = ["ExperimentTable", "emit_bench_json", "repo_root", "results_dir"]


def repo_root() -> str:
    """The repository checkout this package is running from."""
    return os.path.dirname(
        os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
    )


def results_dir() -> str:
    """Directory collecting rendered benchmark tables."""
    path = os.environ.get(
        "REPRO_RESULTS_DIR", os.path.join(repo_root(), "benchmarks", "results")
    )
    os.makedirs(path, exist_ok=True)
    return path


def emit_bench_json(name: str, payload: Dict[str, Any]) -> str:
    """Write ``BENCH_<name>.json`` under ``results_dir()``; returns its path."""
    path = os.path.join(results_dir(), f"BENCH_{name}.json")
    with open(path, "w") as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True, default=str) + "\n")
    return path


@dataclass
class ExperimentTable:
    """One paper table/figure being regenerated."""

    experiment: str  # e.g. "table1"
    title: str
    columns: List[str]
    paper_note: str = ""  # what the paper reported (shape + any surviving numbers)
    rows: List[List[Any]] = field(default_factory=list)

    def add_row(self, *values: Any) -> None:
        if len(values) != len(self.columns):
            raise ValueError(
                f"row width {len(values)} != column count {len(self.columns)}"
            )
        self.rows.append(list(values))

    # ------------------------------------------------------------------
    def render(self) -> str:
        widths = [len(c) for c in self.columns]
        rendered_rows = []
        for row in self.rows:
            cells = [_fmt(v) for v in row]
            widths = [max(w, len(c)) for w, c in zip(widths, cells)]
            rendered_rows.append(cells)
        header = " | ".join(c.ljust(w) for c, w in zip(self.columns, widths))
        rule = "-+-".join("-" * w for w in widths)
        lines = [f"== {self.title} ==", header, rule]
        for cells in rendered_rows:
            lines.append(" | ".join(c.ljust(w) for c, w in zip(cells, widths)))
        if self.paper_note:
            lines.append(f"paper: {self.paper_note}")
        return "\n".join(lines)

    def emit(self, echo: bool = True) -> str:
        """Render, print and persist the table; returns the rendering."""
        text = self.render()
        if echo:
            print()
            print(text)
        path = os.path.join(results_dir(), f"{self.experiment}.md")
        with open(path, "w") as fh:
            fh.write(text + "\n")
        return text


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 100:
            return f"{value:.0f}"
        if abs(value) >= 1:
            return f"{value:.2f}"
        return f"{value:.3f}"
    return str(value)
