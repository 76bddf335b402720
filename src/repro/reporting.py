"""Plain-text report rendering for the exhibits and the CLI.

The paper's exhibits are tables and line plots; in a terminal-only
reproduction both become aligned text: :func:`format_table` renders a
Table I/III-VI-style grid, :class:`Series`/:func:`format_figure` render
a figure's data as one column per series (the numbers a plotting script
would consume).  :func:`write_metrics_json` writes the machine-readable
companion artifact -- runtime counters and latency-histogram summaries
-- that ``repro trace --metrics`` emits (see ``docs/observability.md``).
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .errors import ValidationError

__all__ = [
    "format_table",
    "Series",
    "format_figure",
    "format_scientific",
    "metrics_payload",
    "write_metrics_json",
]


def format_scientific(value: float, digits: int = 3) -> str:
    """Render like the paper's tables: ``3.153 x 10^10``."""
    if value == 0:
        return "0"
    return f"{value:.{digits}e}".replace("e+0", "e").replace("e+", "e").replace(
        "e0", "e"
    )


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """An aligned ASCII table with a header separator."""
    if not headers:
        raise ValidationError("table needs headers")
    table = [list(map(str, headers))] + [list(map(str, row)) for row in rows]
    n_cols = len(headers)
    for row in table:
        if len(row) != n_cols:
            raise ValidationError(
                f"row has {len(row)} cells, expected {n_cols}: {row!r}"
            )
    widths = [max(len(row[c]) for row in table) for c in range(n_cols)]
    lines = []
    for i, row in enumerate(table):
        lines.append(" | ".join(cell.ljust(widths[c]) for c, cell in enumerate(row)))
        if i == 0:
            lines.append("-+-".join("-" * w for w in widths))
    return "\n".join(lines)


@dataclass
class Series:
    """One line of a figure: a name and (x, y) points."""

    name: str
    points: list[tuple[float, float]] = field(default_factory=list)

    def add(self, x: float, y: float) -> None:
        self.points.append((float(x), float(y)))

    def ys(self) -> list[float]:
        return [y for _, y in self.points]

    def xs(self) -> list[float]:
        return [x for x, _ in self.points]


def format_figure(
    title: str,
    series: Sequence[Series],
    xlabel: str = "x",
    ylabel: str = "y",
    y_format: str = "{:.3f}",
) -> str:
    """Render a figure's data: one row per x value, one column per series.

    All series must share the same x grid (the paper's figures do).
    """
    if not series:
        raise ValidationError("figure needs at least one series")
    xs = series[0].xs()
    for s in series[1:]:
        if s.xs() != xs:
            raise ValidationError(
                f"series {s.name!r} has a different x grid than {series[0].name!r}"
            )
    headers = [xlabel] + [s.name for s in series]
    rows = []
    for i, x in enumerate(xs):
        row = [f"{x:g}"] + [y_format.format(s.points[i][1]) for s in series]
        rows.append(row)
    body = format_table(headers, rows)
    return f"{title}\n[{ylabel}]\n{body}"


def _summarized(histograms: Mapping[str, object]) -> dict:
    """Accept ``Histogram``-likes (anything with ``summary()``) or plain
    dicts, so this module stays independent of ``repro.observability``."""
    out = {}
    for name, histogram in histograms.items():
        summary = getattr(histogram, "summary", None)
        out[name] = summary() if callable(summary) else dict(histogram)
    return out


def metrics_payload(
    counters: Mapping[str, float] | None = None,
    histograms: Mapping[str, object] | None = None,
    meta: Mapping[str, object] | None = None,
) -> dict:
    """The canonical metrics-artifact shape (all sections optional)."""
    if counters is None and histograms is None:
        raise ValidationError("metrics artifact needs counters or histograms")
    payload: dict = {"schema": "repro-metrics-v1"}
    if meta:
        payload["meta"] = dict(meta)
    if counters is not None:
        payload["counters"] = {k: float(v) for k, v in counters.items()}
    if histograms is not None:
        payload["histograms"] = _summarized(histograms)
    return payload


def write_metrics_json(
    path: str | pathlib.Path,
    counters: Mapping[str, float] | None = None,
    histograms: Mapping[str, object] | None = None,
    meta: Mapping[str, object] | None = None,
) -> pathlib.Path:
    """Write a metrics artifact; returns the path written.

    ``histograms`` values may be :class:`repro.observability.Histogram`
    instances (their ``summary()`` is stored) or already-summarized
    dicts.
    """
    path = pathlib.Path(path)
    payload = metrics_payload(counters=counters, histograms=histograms, meta=meta)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path
