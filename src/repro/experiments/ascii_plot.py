"""Terminal rendering of benchmark series (log-x line charts, bars).

The paper's figures are gnuplot line charts over power-of-4 message
sizes; these helpers render comparable pictures in a terminal so the
benchmark harness output is human-checkable without matplotlib.
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.core.units import fmt_size
from repro.series import Series

__all__ = ["line_chart", "bar_chart", "table"]

_MARKS = "*+xo#@%&"


def line_chart(series: Sequence[Series], title: str = "", width: int = 64,
               height: int = 16, logx: bool = True, ylabel: str = "") -> str:
    """Render series as an ASCII chart (x positions merged across series)."""
    xs = sorted({x for s in series for x, _ in s.points})
    if not xs:
        return f"{title}: (no data)"
    ymax = max((y for s in series for _, y in s.points), default=1.0)
    ymin = 0.0
    if ymax <= ymin:
        ymax = ymin + 1.0

    def xpos(x: float) -> int:
        if logx and xs[0] > 0 and xs[-1] > xs[0]:
            f = (math.log(x) - math.log(xs[0])) / (math.log(xs[-1]) - math.log(xs[0]))
        elif xs[-1] > xs[0]:
            f = (x - xs[0]) / (xs[-1] - xs[0])
        else:
            f = 0.0
        return min(width - 1, int(round(f * (width - 1))))

    cols = {x: xpos(x) for x in xs}
    grid = [[" "] * width for _ in range(height)]
    for si, s in enumerate(series):
        mark = _MARKS[si % len(_MARKS)]
        for x, y in s.points:
            col = cols[x]
            row = height - 1 - min(height - 1, int((y - ymin) / (ymax - ymin) * (height - 1)))
            grid[row][col] = mark
    lines = []
    if title:
        lines.append(title)
    for r, row in enumerate(grid):
        ylab = f"{ymax * (height - 1 - r) / (height - 1):>10.1f} |"
        lines.append(ylab + "".join(row))
    lines.append(" " * 11 + "+" + "-" * (width - 1))
    ticks = " " * 12 + fmt_size(int(xs[0]))
    ticks += " " * max(1, width - len(fmt_size(int(xs[0]))) - len(fmt_size(int(xs[-1]))) - 1)
    ticks += fmt_size(int(xs[-1]))
    lines.append(ticks)
    legend = "   ".join(f"{_MARKS[i % len(_MARKS)]} {s.label}" for i, s in enumerate(series))
    lines.append("  " + legend + (f"   [{ylabel}]" if ylabel else ""))
    return "\n".join(lines)


def bar_chart(labels: Sequence[str], values: Sequence[float], title: str = "",
              width: int = 50, unit: str = "") -> str:
    """Horizontal bars (the paper's application-time figures)."""
    if len(labels) != len(values):
        raise ValueError("labels/values length mismatch")
    vmax = max(values) if values else 1.0
    lines = [title] if title else []
    for lab, val in zip(labels, values):
        n = int(round(val / vmax * width)) if vmax > 0 else 0
        lines.append(f"{lab:>16} | {'#' * n} {val:.2f}{unit}")
    return "\n".join(lines)


def table(headers: Sequence[str], rows: Sequence[Sequence], title: str = "") -> str:
    """Fixed-width text table."""
    cols = [[str(h)] for h in headers]
    for row in rows:
        for c, cell in enumerate(row):
            txt = f"{cell:.2f}" if isinstance(cell, float) else str(cell)
            cols[c].append(txt)
    widths = [max(len(x) for x in col) for col in cols]
    out = [title] if title else []
    head = "  ".join(h.rjust(w) for h, w in zip(headers, widths))
    out.append(head)
    out.append("-" * len(head))
    for r in range(len(rows)):
        out.append("  ".join(cols[c][r + 1].rjust(widths[c]) for c in range(len(cols))))
    return "\n".join(out)
