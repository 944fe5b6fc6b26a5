"""Automatic paper-vs-measured validation.

Measures the headline quantities of :mod:`repro.experiments.paper_data`
on the simulator and reports per-item relative errors — the programmatic
version of EXPERIMENTS.md's tables (``python -m repro validate``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

from repro.experiments.paper_data import MICRO, NETWORK_ORDER, TABLE2

__all__ = ["ValidationItem", "validate_micro", "validate_table2",
           "validation_report"]


@dataclass(frozen=True)
class ValidationItem:
    """One paper-vs-measured comparison."""

    name: str
    network: str
    paper: float
    measured: float

    @property
    def rel_error(self) -> float:
        if self.paper == 0:
            return math.inf if self.measured else 0.0
        return (self.measured - self.paper) / self.paper

    def __str__(self) -> str:  # pragma: no cover
        return (f"{self.name:<28} {self.network:<11} paper={self.paper:>9.2f} "
                f"measured={self.measured:>9.2f} ({self.rel_error:+.0%})")


def validate_micro(quick: bool = True) -> List[ValidationItem]:
    """Measure every §3 headline number and pair it with the paper's."""
    from repro.microbench import (measure_allreduce, measure_alltoall,
                                  measure_bandwidth, measure_bidir_bandwidth,
                                  measure_bidir_latency, measure_host_overhead,
                                  measure_intranode_latency, measure_latency)

    iters = 15 if quick else 40
    rounds = 6 if quick else 12
    out: List[ValidationItem] = []

    measured = {
        "latency_small_us": [
            measure_latency(n, sizes=(4,), iters=iters).at(4)
            for n in NETWORK_ORDER],
        "bandwidth_peak_mbps": [
            measure_bandwidth(n, sizes=(1 << 20,), rounds=rounds).at(1 << 20)
            for n in NETWORK_ORDER],
        "host_overhead_us": [
            measure_host_overhead(n, sizes=(4,), iters=iters).at(4)
            for n in NETWORK_ORDER],
        "bidir_latency_us": [
            measure_bidir_latency(n, sizes=(4,), iters=iters).at(4)
            for n in NETWORK_ORDER],
        "bidir_bandwidth_mbps": [
            measure_bidir_bandwidth(n, sizes=(65536,), rounds=rounds).at(65536)
            for n in NETWORK_ORDER],
        "alltoall_small_us": [
            measure_alltoall(n, sizes=(4,), iters=8).at(4)
            for n in NETWORK_ORDER],
        "allreduce_small_us": [
            measure_allreduce(n, sizes=(8,), iters=8).at(8)
            for n in NETWORK_ORDER],
        "intranode_latency_us": [
            measure_intranode_latency(n, sizes=(4,), iters=iters).at(4)
            for n in NETWORK_ORDER],
    }
    for key, values in measured.items():
        for net, got in zip(NETWORK_ORDER, values):
            ref = MICRO[key][NETWORK_ORDER.index(net)]
            if math.isnan(ref):
                continue
            out.append(ValidationItem(key, net, ref, got))
    return out


def validate_table2(quick: bool = True,
                    apps: Optional[List[str]] = None) -> List[ValidationItem]:
    """Measure Table 2's execution times and pair with the paper's."""
    from repro.apps import run_app

    out: List[ValidationItem] = []
    for key, per_net in TABLE2.items():
        if apps is not None and key not in apps:
            continue
        app, _, klass = key.partition(".")
        klass = klass or "B"
        for net, per_np in per_net.items():
            for nprocs, ref in per_np.items():
                r = run_app(app, klass, net, nprocs, record=False,
                            sample_iters=2 if quick else None)
                out.append(ValidationItem(f"table2:{key}/np{nprocs}", net,
                                          ref, r.elapsed_s))
    return out


def validation_report(quick: bool = True, include_apps: bool = True) -> str:
    """Render the full paper-vs-measured comparison with summary stats."""
    items = validate_micro(quick=quick)
    if include_apps:
        items += validate_table2(quick=quick)
    lines = ["paper vs measured (relative errors):"]
    lines += [f"  {it}" for it in items]
    errs = [abs(it.rel_error) for it in items]
    lines.append(
        f"\n{len(items)} comparisons: median |err| = "
        f"{sorted(errs)[len(errs) // 2]:.1%}, mean |err| = "
        f"{sum(errs) / len(errs):.1%}, max |err| = {max(errs):.1%}")
    worst = max(items, key=lambda it: abs(it.rel_error))
    lines.append(f"worst: {worst.name} on {worst.network} "
                 f"({worst.rel_error:+.0%}) — see EXPERIMENTS.md deviations")
    return "\n".join(lines)
