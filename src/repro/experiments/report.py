"""Report formatting: text tables and ASCII rate-distortion plots.

The offline environment has no plotting stack, so figures are emitted as
ASCII scatter plots that make the win/loss ordering visible directly in a
terminal.
"""

from __future__ import annotations

import math
from dataclasses import asdict, is_dataclass
from typing import Any, Sequence

from repro.errors import ExperimentError

__all__ = ["format_table", "ascii_plot"]


def _cell(value: Any) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        if value != value:  # NaN
            return "nan"
        if value == float("inf"):
            return "inf"
        if value == 0.0:
            return "0"
        if abs(value) >= 1e4 or abs(value) < 1e-3:
            return f"{value:.3e}"
        return f"{value:.4g}"
    if isinstance(value, tuple):
        return "x".join(str(v) for v in value) if all(
            isinstance(v, int) for v in value
        ) else str(value)
    return str(value)


def format_table(rows: Sequence[Any], columns: Sequence[str] | None = None, title: str = "") -> str:
    """Render dataclass/dict rows as an aligned text table."""
    if not rows:
        return f"{title}\n(empty)\n" if title else "(empty)\n"
    dicts = [asdict(r) if is_dataclass(r) else dict(r) for r in rows]
    cols = list(columns) if columns is not None else list(dicts[0])
    header = [c for c in cols]
    body = [[_cell(d.get(c)) for c in cols] for d in dicts]
    widths = [max(len(h), *(len(row[i]) for row in body)) for i, h in enumerate(header)]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in body:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines) + "\n"


def ascii_plot(
    series: dict[str, list[tuple[float, float]]],
    width: int = 64,
    height: int = 20,
    logx: bool = False,
    logy: bool = False,
    title: str = "",
    xlabel: str = "x",
    ylabel: str = "y",
) -> str:
    """Scatter multiple labeled series on a character grid.

    Each series gets a marker (``*``, ``o``, ``+``, ...); axes can be log
    scaled — Figures 12/13 plot R-SSIM on a log axis.
    """
    markers = "*o+x#@%&"
    pts = [(x, y) for s in series.values() for (x, y) in s]
    if not pts:
        return f"{title}\n(no data)\n"

    def tx(v: float, log: bool) -> float:
        if log:
            if v <= 0:
                raise ExperimentError("log axis requires positive values")
            return math.log10(v)
        return v

    xs = [tx(x, logx) for x, _ in pts]
    ys = [tx(y, logy) for _, y in pts]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    xr = x1 - x0 or 1.0
    yr = y1 - y0 or 1.0
    grid = [[" "] * width for _ in range(height)]
    for marker, (label, data) in zip(markers, series.items()):
        for x, y in data:
            cx = int(round((tx(x, logx) - x0) / xr * (width - 1)))
            cy = int(round((tx(y, logy) - y0) / yr * (height - 1)))
            grid[height - 1 - cy][cx] = marker
    lines = []
    if title:
        lines.append(title)
    legend = "  ".join(f"{m}={label}" for m, (label, _) in zip(markers, series.items()))
    lines.append(legend)
    top = f"{y1:.3g}" if not logy else f"1e{y1:.2f}"
    bot = f"{y0:.3g}" if not logy else f"1e{y0:.2f}"
    lines.append(f"{ylabel} (top={top}, bottom={bot})")
    for row in grid:
        lines.append("|" + "".join(row))
    left = f"{x0:.3g}" if not logx else f"1e{x0:.2f}"
    right = f"{x1:.3g}" if not logx else f"1e{x1:.2f}"
    lines.append("+" + "-" * width)
    lines.append(f" {xlabel}: {left} .. {right}")
    return "\n".join(lines) + "\n"
