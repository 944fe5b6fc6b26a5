"""Fault-degradation curves: latency/bandwidth vs packet-drop rate.

Beyond-the-paper experiment backing the ``repro faults`` CLI target.
Every (fabric, drop-rate) cell is one :class:`~repro.runtime.spec.RunSpec`
carrying a frozen fault configuration, executed through the process-wide
runtime — so the sweep exercises the whole robustness stack at once:
distinct content-addressed cache keys per fault setting, crash-isolated
parallel execution, and the per-fabric reliability protocols
(:mod:`repro.faults`) absorbing the injected loss.

The curves are monotone by construction (the set of packets dropped at
rate ``r1 < r2`` is a subset of those dropped at ``r2``), so they
measure exactly what each reliability protocol *costs*: IB RC's
exponential-backoff retransmits hurt latency the most per loss,
Quadrics' near-immediate hardware retry the least, with GM's fixed
resend timer in between.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro import runtime
from repro.core.netnames import NETWORKS
from repro.experiments.ascii_plot import line_chart, table
from repro.series import Series, series_from_payload
from repro.runtime.executor import is_error_payload
from repro.runtime.spec import RunSpec

__all__ = ["degradation_report", "QUICK_DROP_RATES", "FULL_DROP_RATES"]

QUICK_DROP_RATES: Sequence[float] = (0.0, 0.01, 0.02, 0.05)
FULL_DROP_RATES: Sequence[float] = (0.0, 0.005, 0.01, 0.02, 0.05, 0.1)

#: pingpong size/iters for the latency curve
LAT_NBYTES = 4
LAT_ITERS = 40
#: stream size/window for the bandwidth curve (kept small: every retx
#: re-crosses the wire, so lossy large-message sweeps are expensive)
BW_NBYTES = 16 * 1024
BW_WINDOW = 8
BW_ROUNDS = 6


def _specs(rates: Sequence[float], seed: int):
    """The (latency, bandwidth) spec grid, fault-free cells included."""
    lat, bw = [], []
    for net in NETWORKS:
        for rate in rates:
            faults = {"drop_rate": rate, "seed": seed} if rate else None
            lat.append(RunSpec.microbench(
                "latency", net, sizes=(LAT_NBYTES,), iters=LAT_ITERS,
                faults=faults))
            bw.append(RunSpec.microbench(
                "bandwidth", net, sizes=(BW_NBYTES,), window=BW_WINDOW,
                rounds=BW_ROUNDS, warmup_rounds=2, faults=faults))
    return lat, bw


def _cell(payload: dict, x: float):
    """(value, retransmits) for one resolved cell, or (None, reason)."""
    if is_error_payload(payload):
        err = payload["error"]
        return None, f"{err['type']}: {err['message']}"
    series = series_from_payload(payload)
    retx = payload.get("metrics", {}).get("counters", {}) \
                  .get("net.retransmits", 0.0)
    return series.at(x), int(retx)


def degradation_report(quick: bool = True, seed: int = 7,
                       rates: Optional[Sequence[float]] = None) -> str:
    """Render the per-fabric degradation curves and retransmit table."""
    if rates is None:
        rates = QUICK_DROP_RATES if quick else FULL_DROP_RATES
    lat_specs, bw_specs = _specs(rates, seed)
    payloads = runtime.run_specs(lat_specs + bw_specs)
    lat_payloads = payloads[:len(lat_specs)]
    bw_payloads = payloads[len(lat_specs):]

    nrates = len(rates)
    lat_series, bw_series, rows = [], [], []
    for i, net in enumerate(NETWORKS):
        ls = Series(net)
        bs = Series(net)
        for j, rate in enumerate(rates):
            lat, lat_retx = _cell(lat_payloads[i * nrates + j], LAT_NBYTES)
            bw, bw_retx = _cell(bw_payloads[i * nrates + j], BW_NBYTES)
            if lat is not None:
                ls.add(100.0 * rate, lat)
            if bw is not None:
                bs.add(100.0 * rate, bw)
            rows.append([net, f"{100.0 * rate:.1f}%",
                         "failed" if lat is None else f"{lat:.2f}",
                         lat_retx if lat is not None else lat_retx,
                         "failed" if bw is None else f"{bw:.1f}",
                         bw_retx if bw is not None else bw_retx])
        lat_series.append(ls)
        bw_series.append(bs)

    parts = [
        "Fault degradation under seeded packet loss "
        f"(seed={seed}; RC retransmit / GM ack-resend / Elan hw-retry)",
        "",
        table(["fabric", "drop", f"lat {LAT_NBYTES}B (us)", "retx",
               f"bw {BW_NBYTES // 1024}KB (MB/s)", "retx"],
              rows, title="latency / bandwidth vs drop rate"),
        "",
        line_chart(lat_series,
                   title=f"pingpong latency ({LAT_NBYTES}B) vs drop rate (%)"),
        "",
        line_chart(bw_series,
                   title=f"stream bandwidth ({BW_NBYTES // 1024}KB, "
                         f"W={BW_WINDOW}) vs drop rate (%)"),
    ]
    return "\n".join(parts)
