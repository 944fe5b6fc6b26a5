"""Application sensitivity to network parameters.

The paper motivates its host-overhead measurements with [Martin et al.,
ISCA'97] ("Effects of Communication Latency, Overhead, and Bandwidth in
a Cluster Architecture"), which perturbs LogGP parameters and measures
application slowdown.  This module reproduces that methodology on the
simulated stack: scale one fabric parameter, rerun an application, and
report the slowdown curve.

Example::

    from repro.analysis.sensitivity import sweep_parameter

    s = sweep_parameter("lu", "B", nprocs=8, network="infiniband",
                        param="wire_bw_mbps", factors=(1.0, 0.5, 0.25))

Because applications differ in what they stress (the paper's §4 point),
LU barely notices bandwidth cuts while IS collapses — and vice versa
for per-packet costs.
"""

from __future__ import annotations

from dataclasses import fields as dataclass_fields
from typing import Optional, Sequence

from repro.apps import run_app
from repro.networks import canonical_network
from repro.networks.infiniband.params import InfiniBandParams
from repro.networks.myrinet.params import MyrinetParams
from repro.networks.quadrics.params import QuadricsParams
from repro.series import Series

__all__ = ["sweep_parameter", "sensitivity_report", "PARAMS_BY_NETWORK"]

PARAMS_BY_NETWORK = {
    "infiniband": InfiniBandParams,
    "myrinet": MyrinetParams,
    "quadrics": QuadricsParams,
}


def _base_value(network: str, param: str) -> float:
    cls = PARAMS_BY_NETWORK[canonical_network(network)]
    names = {f.name for f in dataclass_fields(cls)}
    if param not in names:
        raise ValueError(f"{cls.__name__} has no parameter {param!r}; "
                         f"know {sorted(names)}")
    return getattr(cls(), param)


def sweep_parameter(app: str, klass: str, nprocs: int, network: str,
                    param: str, factors: Sequence[float] = (1.0, 0.5, 0.25),
                    sample_iters: Optional[int] = 2) -> Series:
    """Run ``app`` with ``param`` scaled by each factor.

    Returns a Series of (factor, slowdown-relative-to-factor-1.0).
    Factors scale the parameter's default value: for bandwidths a factor
    below 1 slows the network; for per-packet costs it speeds it up.
    Slowdowns are always relative to an unscaled run: if 1.0 is not in
    ``factors``, one extra baseline run is performed implicitly.
    """
    base = _base_value(network, param)
    times = {}
    for f in factors:
        overrides = {param: base * f}
        r = run_app(app, klass, network, nprocs, record=False,
                    sample_iters=sample_iters, net_overrides=overrides)
        times[f] = r.elapsed_s
    if 1.0 not in times:
        r = run_app(app, klass, network, nprocs, record=False,
                    sample_iters=sample_iters)
        times[1.0] = r.elapsed_s
    s = Series(f"{app}.{klass} vs {param}")
    for f in factors:
        s.add(f, times[f] / times[1.0])
    return s


def sensitivity_report(nprocs: int = 8, network: str = "infiniband",
                       sample_iters: int = 2) -> str:
    """Martin-et-al.-style table: slowdown under quartered wire
    bandwidth and quadrupled NIC per-packet cost.

    Applications and a communication-only kernel (small-message
    Alltoall) are shown side by side: at 8 nodes the class-B codes are
    compute-dominated — which is itself the reason the paper's Table 2
    spreads are only a few percent — while the pure kernel exposes the
    parameter directly.
    """
    from repro.microbench import measure_alltoall

    base_wire = _base_value(network, "wire_bw_mbps")
    base_proc = _base_value(network, "tx_proc_us")
    rows = []
    for app, klass in (("is", "B"), ("sweep3d", "50")):
        bw = sweep_parameter(app, klass, nprocs, network,
                             "wire_bw_mbps", (1.0, 0.25),
                             sample_iters=sample_iters)
        ov = sweep_parameter(app, klass, nprocs, network,
                             "tx_proc_us", (1.0, 4.0),
                             sample_iters=sample_iters)
        rows.append((f"{app.upper()}.{klass}", bw.at(0.25), ov.at(4.0)))
    # communication-only reference kernel
    a2a_base = measure_alltoall(network, nprocs=nprocs, sizes=(8,), iters=8).at(8)
    a2a_bw = measure_alltoall(network, nprocs=nprocs, sizes=(8,), iters=8,
                              net_overrides={"wire_bw_mbps": base_wire * 0.25}).at(8)
    a2a_ov = measure_alltoall(network, nprocs=nprocs, sizes=(8,), iters=8,
                              net_overrides={"tx_proc_us": base_proc * 4.0}).at(8)
    rows.append(("Alltoall(8B)", a2a_bw / a2a_base, a2a_ov / a2a_base))
    lines = [f"Sensitivity on {nprocs}x {network} "
             "(slowdown factors, cf. [Martin et al. 97]):",
             f"  {'workload':>12}  {'quarter-bandwidth':>18}  {'4x packet cost':>15}"]
    for name, sbw, sov in rows:
        lines.append(f"  {name:>12}  {sbw:>18.2f}  {sov:>15.2f}")
    lines.append("  (IS is bandwidth-bound; the class-B codes are otherwise\n"
                 "   compute-dominated at 8 nodes — hence Table 2's small\n"
                 "   cross-network spreads; the kernel shows the raw effect)")
    return "\n".join(lines)
