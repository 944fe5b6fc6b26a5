"""Measured result series, shared by the micro-benchmarks and the renderers.

A :class:`Series` is what a micro-benchmark sweep returns and what a
figure plots.  This module imports no simulation code, so a figure or
table rendered from a warm cache never loads the MPI and device stack.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.units import fmt_size

__all__ = ["Series", "series_from_payload", "REUSE_PERCENTS"]

#: the paper's three buffer-reuse levels (one series each in Figs. 7, 8)
REUSE_PERCENTS: Sequence[int] = (0, 50, 100)


@dataclass
class Series:
    """One plotted series: label + (x, y) points.

    ``stats`` (optional, produced by benches run with ``stats=True``)
    maps each x to the per-repetition summary of
    :func:`repro.microbench.common.summarize_samples`.
    """

    label: str
    points: List[Tuple[float, float]] = field(default_factory=list)
    stats: Optional[Dict[float, dict]] = None

    def add(self, x: float, y: float) -> None:
        self.points.append((x, y))

    @property
    def xs(self) -> List[float]:
        return [p[0] for p in self.points]

    @property
    def ys(self) -> List[float]:
        return [p[1] for p in self.points]

    def at(self, x: float) -> float:
        for px, py in self.points:
            if px == x:
                return py
        raise KeyError(f"no point at x={x} in series {self.label}")

    def fmt(self, xfmt: Callable = fmt_size, yunit: str = "") -> str:
        rows = [f"  {xfmt(int(x)):>6}  {y:10.2f} {yunit}" for x, y in self.points]
        return f"{self.label}:\n" + "\n".join(rows)


def series_from_payload(payload: dict) -> Series:
    """Rebuild a :class:`Series` from an executed microbench payload."""
    stats = payload.get("stats")
    return Series(payload["label"],
                  [(x, y) for x, y in payload["points"]],
                  stats={float(x): dict(s) for x, s in stats.items()}
                  if stats else None)
