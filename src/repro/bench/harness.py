"""Benchmark harness utilities: rendering tables and progress series.

Every experiment in :mod:`repro.bench.experiments` returns plain data; the
renderers there build on these helpers to turn it into the text artifacts
(tables, down-sampled series) that the ``benchmarks/`` suite stores, one per
figure/table of the paper.
"""

from __future__ import annotations

import os
from typing import Dict, List, Sequence, Tuple

Series = Sequence[Tuple[float, float]]


def render_table(
    headers: Sequence[str], rows: Sequence[Sequence[object]], title: str = ""
) -> str:
    """Fixed-width ASCII table."""
    rendered_rows = [[_cell(value) for value in row] for row in rows]
    widths = [
        max(len(str(header)), *(len(row[i]) for row in rendered_rows))
        if rendered_rows
        else len(str(header))
        for i, header in enumerate(headers)
    ]
    lines: List[str] = []
    if title:
        lines.append(title)
    separator = "-+-".join("-" * width for width in widths)
    lines.append(" | ".join(str(h).ljust(w) for h, w in zip(headers, widths)))
    lines.append(separator)
    for row in rendered_rows:
        lines.append(" | ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)


def _cell(value: object) -> str:
    if isinstance(value, float):
        return "%.4f" % (value,)
    return str(value)


def downsample(series: Series, points: int = 25) -> List[Tuple[float, float]]:
    """Evenly pick ~``points`` samples of a long series (keeps first/last)."""
    if len(series) <= points:
        return list(series)
    step = (len(series) - 1) / (points - 1)
    picked = [series[round(i * step)] for i in range(points)]
    return picked


def render_series(
    named_series: Dict[str, Series],
    x_label: str = "actual progress",
    points: int = 25,
    title: str = "",
) -> str:
    """Tabulate several (x, y) series against a shared x axis.

    Series are down-sampled by their own x order; x values come from the
    first series (they are near-identical across estimators by design).
    """
    if not named_series:
        return title
    names = list(named_series)
    base = downsample(list(named_series[names[0]]), points)
    headers = [x_label] + names
    rows = []
    for i, (x, _) in enumerate(base):
        row: List[object] = [x]
        for name in names:
            sampled = downsample(list(named_series[name]), points)
            row.append(sampled[i][1] if i < len(sampled) else "")
        rows.append(row)
    return render_table(headers, rows, title)


#: Where the benchmark suite saves its artifacts: ``benchmarks/results``.
RESULTS_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))), "benchmarks", "results",
)


def save_artifact(name: str, text: str) -> str:
    """Write a rendered artifact under :data:`RESULTS_DIR`; returns path."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, name)
    with open(path, "w") as handle:
        handle.write(text + "\n")
    return path
