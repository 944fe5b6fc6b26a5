"""Figure drivers: regenerate every figure of the paper (Figs. 1-28).

Each ``figNN()`` returns a :class:`FigureResult` holding the measured
series plus the paper's reference observations, and renders to text.
``quick=True`` (the default used by the benchmark harness) trims
iteration counts; the shapes are unaffected.

Since the run-plan refactor every driver *declares* its simulations as
:class:`~repro.runtime.spec.RunSpec` sweeps and executes them through
:func:`repro.runtime.run_specs` — so runs shared between artifacts are
simulated once per process (result cache) and independent runs fan out
over workers when the runtime is configured with ``jobs > 1``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.netnames import NETWORKS
from repro.experiments.ascii_plot import bar_chart, line_chart
from repro.runtime import RunSpec, run_specs
from repro.series import REUSE_PERCENTS, Series, series_from_payload

__all__ = ["FigureResult", "FIGURES", "run_figure"]

NETS = tuple(NETWORKS)  # ('infiniband', 'myrinet', 'quadrics')
LABEL = NETWORKS        # canonical -> paper label


@dataclass
class FigureResult:
    """One reproduced figure."""

    fig_id: str
    title: str
    series: List[Series]
    ylabel: str
    kind: str = "line"          # 'line' | 'bar'
    paper_note: str = ""

    def render(self) -> str:
        if self.kind == "bar":
            labels, values = [], []
            for s in self.series:
                for _x, y in s.points:
                    labels.append(f"{s.label}")
                    values.append(y)
            txt = bar_chart(labels, values, title=f"{self.fig_id}: {self.title}",
                            unit="")
        else:
            txt = line_chart(self.series, title=f"{self.fig_id}: {self.title}",
                             ylabel=self.ylabel)
        if self.paper_note:
            txt += f"\n  paper: {self.paper_note}"
        return txt


# ----------------------------------------------------------------------
# sweep helpers
# ----------------------------------------------------------------------
def _bench_sweep(labelled_specs: Sequence[Tuple[str, RunSpec]]) -> List[Series]:
    """Execute (label, spec) pairs as one sweep; relabel the series."""
    series = []
    for (label, _spec), payload in zip(labelled_specs,
                                       run_specs([s for _l, s in labelled_specs])):
        s = series_from_payload(payload)
        s.label = label
        series.append(s)
    return series


def _per_network(bench: str, **kw) -> List[Series]:
    """One microbench spec per interconnect, labelled with the paper names."""
    return _bench_sweep([(LABEL[n], RunSpec.microbench(bench, n, **kw))
                         for n in NETS])


def _app_elapsed(specs: Sequence[RunSpec]) -> List[float]:
    """Execute app specs as one sweep; return full-run seconds for each."""
    return [p["elapsed_s"] for p in run_specs(specs)]


def _app_spec(app: str, klass: str, network: str, nprocs: int, quick: bool,
              ppn: int = 1, net_overrides: Optional[dict] = None) -> RunSpec:
    return RunSpec.app(app, klass, network, nprocs, ppn=ppn, record=False,
                       sample_iters=2 if quick else None,
                       net_overrides=net_overrides)


# ----------------------------------------------------------------------
# micro-benchmark figures
# ----------------------------------------------------------------------
def fig01(quick: bool = True) -> FigureResult:
    """Fig. 1: MPI latency across the three interconnects."""
    sizes = tuple(4 ** k for k in range(1, 8))
    series = _per_network("latency", sizes=sizes, iters=15 if quick else 40)
    return FigureResult("fig1", "MPI latency across three interconnects",
                        series, "us",
                        paper_note="small-msg: QSN 4.6, Myri 6.7, IBA 6.8 us; "
                                   "IBA wins at large sizes")


def fig02(quick: bool = True) -> FigureResult:
    """Fig. 2: uni-directional bandwidth, window sizes 4 and 16."""
    sizes = tuple(4 ** k for k in range(1, 11)) if not quick else \
        (16, 256, 1024, 2048, 4096, 65536, 1048576)
    series = _bench_sweep([
        (f"{LABEL[n]} {w}",
         RunSpec.microbench("bandwidth", n, sizes=sizes, window=w,
                            rounds=6 if quick else 12))
        for n in NETS for w in (4, 16)
    ])
    return FigureResult("fig2", "MPI uni-directional bandwidth (windows 4, 16)",
                        series, "MB/s",
                        paper_note="peaks: IBA 841, QSN 308, Myri 235 MB/s; "
                                   "IBA dips at 2K (eager->rendezvous); "
                                   "QSN drops when window > 16")


def fig03(quick: bool = True) -> FigureResult:
    """Fig. 3: host overhead during the latency test."""
    sizes = tuple(2 ** k for k in range(1, 11))
    series = _per_network("host_overhead", sizes=sizes,
                          iters=10 if quick else 30)
    return FigureResult("fig3", "MPI host overhead in the latency test",
                        series, "us",
                        paper_note="Myri ~0.8, IBA ~1.7, QSN ~3.3 us; QSN dips "
                                   "past 256 B (inline limit)")


def fig04(quick: bool = True) -> FigureResult:
    """Fig. 4: bi-directional latency."""
    sizes = tuple(4 ** k for k in range(1, 7))
    series = _per_network("bidir_latency", sizes=sizes,
                          iters=15 if quick else 30)
    return FigureResult("fig4", "MPI bi-directional latency", series, "us",
                        paper_note="small-msg: IBA 7.0, QSN 7.4, Myri 10.1 us "
                                   "(all degrade vs uni-directional)")


def fig05(quick: bool = True) -> FigureResult:
    """Fig. 5: bi-directional bandwidth."""
    sizes = (4096, 65536, 262144, 524288, 1048576) if quick else \
        tuple(4 ** k for k in range(1, 11))
    series = _per_network("bidir_bandwidth", sizes=sizes,
                          rounds=5 if quick else 10)
    return FigureResult("fig5", "MPI bi-directional bandwidth", series, "MB/s",
                        paper_note="IBA ~900 (PCI-X bound), QSN 375 (PCI bound), "
                                   "Myri 473 dropping <340 past 256K (SRAM)")


def fig06(quick: bool = True) -> FigureResult:
    """Fig. 6: computation/communication overlap potential."""
    sizes = (4, 256, 4096, 16384, 65536) if quick else tuple(4 ** k for k in range(1, 9))
    series = _per_network("overlap", sizes=sizes, iters=6 if quick else 10)
    return FigureResult("fig6", "Computation/communication overlap potential",
                        series, "us",
                        paper_note="IBA/Myri plateau past the eager limit "
                                   "(host-driven rendezvous); QSN keeps growing "
                                   "(NIC-progressed)")


def fig07(quick: bool = True) -> FigureResult:
    """Fig. 7: latency vs buffer reuse (0/50/100%)."""
    sizes = (64, 1024, 4096, 16384) if quick else tuple(4 ** k for k in range(3, 8))
    series = _bench_sweep([
        (f"{LABEL[n]} {pct}",
         RunSpec.microbench("reuse_latency", n, sizes=sizes,
                            iters=20 if quick else 40, reuse_pct=pct))
        for n in NETS for pct in REUSE_PERCENTS
    ])
    return FigureResult("fig7", "MPI latency vs buffer reuse (0/50/100%)",
                        series, "us",
                        paper_note="all three degrade without reuse: IBA >1K "
                                   "(registration), QSN at all sizes (MMU), "
                                   "Myri only past 16K")


def fig08(quick: bool = True) -> FigureResult:
    """Fig. 8: bandwidth vs buffer reuse (0/50/100%)."""
    sizes = (1024, 16384, 65536) if quick else tuple(4 ** k for k in range(1, 9))
    series = _bench_sweep([
        (f"{LABEL[n]} {pct}",
         RunSpec.microbench("reuse_bandwidth", n, sizes=sizes,
                            iters=64 if quick else 128, reuse_pct=pct))
        for n in NETS for pct in REUSE_PERCENTS
    ])
    return FigureResult("fig8", "MPI bandwidth vs buffer reuse (0/50/100%)",
                        series, "MB/s",
                        paper_note="IBA and QSN bandwidth collapse at 0% reuse; "
                                   "Myri unaffected below 16K")


def fig09(quick: bool = True) -> FigureResult:
    """Fig. 9: intra-node latency (two ranks on one node)."""
    sizes = tuple(4 ** k for k in range(1, 7))
    series = _per_network("intranode_latency", sizes=sizes, ppn=2,
                          iters=15 if quick else 30)
    return FigureResult("fig9", "Intra-node MPI latency", series, "us",
                        paper_note="Myri 1.3, IBA 1.6 us (shared memory); QSN "
                                   "worse than its inter-node latency (loopback)")


def fig10(quick: bool = True) -> FigureResult:
    """Fig. 10: intra-node bandwidth."""
    sizes = (4096, 65536, 262144, 1048576) if quick else tuple(4 ** k for k in range(1, 11))
    series = _per_network("intranode_bandwidth", sizes=sizes, ppn=2,
                          rounds=5 if quick else 10)
    return FigureResult("fig10", "Intra-node MPI bandwidth", series, "MB/s",
                        paper_note="Myri/QSN collapse past the L2 (cache "
                                   "thrash); IBA >450 MB/s large (HCA loopback)")


def fig11(quick: bool = True) -> FigureResult:
    """Fig. 11: MPI_Alltoall on 8 nodes (PMB)."""
    sizes = (4, 64, 1024, 4096) if quick else tuple(4 ** k for k in range(1, 7))
    series = _bench_sweep([
        (f"{LABEL[n]} Alltoall",
         RunSpec.microbench("alltoall", n, sizes=sizes, nprocs=8,
                            iters=8 if quick else 20))
        for n in NETS
    ])
    return FigureResult("fig11", "MPI_Alltoall on 8 nodes", series, "us",
                        paper_note="small-msg: IBA 31, Myri 36, QSN 67 us")


def fig12(quick: bool = True) -> FigureResult:
    """Fig. 12: MPI_Allreduce on 8 nodes (PMB)."""
    sizes = (8, 64, 1024, 4096) if quick else tuple(4 ** k for k in range(1, 7))
    series = _bench_sweep([
        (f"{LABEL[n]} Allreduce",
         RunSpec.microbench("allreduce", n, sizes=sizes, nprocs=8,
                            iters=8 if quick else 20))
        for n in NETS
    ])
    return FigureResult("fig12", "MPI_Allreduce on 8 nodes", series, "us",
                        paper_note="small-msg: QSN 28, Myri 35, IBA 46 us")


def fig13(quick: bool = True) -> FigureResult:
    """Fig. 13: MPI memory usage vs node count."""
    series = _per_network("memory_usage")
    return FigureResult("fig13", "MPI memory usage vs node count", series, "MB",
                        paper_note="IBA grows ~20->55 MB (per-RC-connection "
                                   "buffers); Myri and QSN stay flat")


# ----------------------------------------------------------------------
# application figures
# ----------------------------------------------------------------------
def _app_bars(fig_id: str, title: str, specs, note: str, quick: bool,
              ppn: int = 1, net_overrides: Optional[dict] = None,
              networks: Sequence[str] = NETS) -> FigureResult:
    plan = [(app, klass, np_, n)
            for app, klass, np_ in specs for n in networks]
    elapsed = _app_elapsed([_app_spec(app, klass, n, np_, quick, ppn=ppn,
                                      net_overrides=net_overrides)
                            for app, klass, np_, n in plan])
    series = []
    for (app, klass, np_, n), secs in zip(plan, elapsed):
        s = Series(f"{app.upper()}.{klass} {LABEL[n]}")
        s.add(np_, secs)
        series.append(s)
    return FigureResult(fig_id, title, series, "seconds", kind="bar",
                        paper_note=note)


def fig14(quick: bool = True) -> FigureResult:
    """Fig. 14: IS and MG class B on 8 nodes."""
    return _app_bars("fig14", "IS and MG class B on 8 nodes",
                     [("is", "B", 8), ("mg", "B", 8)],
                     "IBA wins IS by 38%/28% over Myri/QSN", quick)


def fig15(quick: bool = True) -> FigureResult:
    """Fig. 15: SP/BT on 4 nodes and LU on 8 nodes."""
    return _app_bars("fig15", "SP and BT on 4 nodes, LU on 8 nodes",
                     [("sp", "B", 4), ("bt", "B", 4), ("lu", "B", 8)],
                     "QSN competitive on SP/BT (overlap); LU near-parity", quick)


def fig16(quick: bool = True) -> FigureResult:
    """Fig. 16: CG and FT class B on 8 nodes."""
    return _app_bars("fig16", "CG and FT class B on 8 nodes",
                     [("cg", "B", 8), ("ft", "B", 8)],
                     "IBA leads both (bandwidth-bound FT, large-msg CG)", quick)


def fig17(quick: bool = True) -> FigureResult:
    """Fig. 17: Sweep3D (50^3 and 150^3) on 8 nodes."""
    return _app_bars("fig17", "Sweep3D (50 and 150) on 8 nodes",
                     [("sweep3d", "50", 8), ("sweep3d", "150", 8)],
                     "QSN worst at size 50; all comparable at 150", quick)


def _speedup_series(app: str, klass: str, quick: bool,
                    counts=(2, 4, 8), networks=NETS) -> List[Series]:
    """Speedup vs the smallest count (paper Figs. 18-23: base = 2 nodes)."""
    plan = [(n, np_) for n in networks for np_ in counts]
    elapsed = _app_elapsed([_app_spec(app, klass, n, np_, quick)
                            for n, np_ in plan])
    times = {key: secs for key, secs in zip(plan, elapsed)}
    series = []
    for n in networks:
        s = Series(LABEL[n])
        base = times[(n, counts[0])] * counts[0]
        for np_ in counts:
            s.add(np_, base / times[(n, np_)])
        series.append(s)
    return series


def _speedup_fig(fig_id, app, klass, note, quick, counts=(2, 4, 8),
                 networks=NETS) -> FigureResult:
    series = _speedup_series(app, klass, quick, counts=counts, networks=networks)
    return FigureResult(fig_id, f"Speedup of {app.upper()}.{klass}", series,
                        "speedup", paper_note=note)


def fig18(quick: bool = True) -> FigureResult:
    """Fig. 18: speedup of IS (base: 2 nodes)."""
    return _speedup_fig("fig18", "is", "B",
                        "IBA near-linear; Myri/QSN sublinear", quick)


def fig19(quick: bool = True) -> FigureResult:
    """Fig. 19: speedup of CG."""
    return _speedup_fig("fig19", "cg", "B", "super-linear at 8 (cache)", quick)


def fig20(quick: bool = True) -> FigureResult:
    """Fig. 20: speedup of MG."""
    return _speedup_fig("fig20", "mg", "B", "near-linear for all three", quick)


def fig21(quick: bool = True) -> FigureResult:
    """Fig. 21: speedup of LU."""
    return _speedup_fig("fig21", "lu", "B", "near-linear for all three", quick)


def fig22(quick: bool = True) -> FigureResult:
    """Fig. 22: speedup of Sweep3D-50."""
    return _speedup_fig("fig22", "sweep3d", "50", "good scaling, QSN trails", quick)


def fig23(quick: bool = True) -> FigureResult:
    """Fig. 23: speedup of Sweep3D-150."""
    return _speedup_fig("fig23", "sweep3d", "150", "near-linear for all", quick)


def fig24(quick: bool = True) -> FigureResult:
    """16-node InfiniBand (Topspin) scalability."""
    app_counts = [("is", "B", (2, 4, 8, 16)),
                  ("cg", "B", (2, 4, 8, 16)),
                  ("mg", "B", (2, 4, 8, 16)),
                  ("lu", "B", (2, 4, 8, 16)),
                  ("ft", "B", (4, 8, 16)),
                  ("sp", "B", (4, 16)),
                  ("bt", "B", (4, 16))]
    plan = [(app, klass, np_)
            for app, klass, counts in app_counts for np_ in counts]
    elapsed = _app_elapsed([_app_spec(app, klass, "infiniband", np_, quick)
                            for app, klass, np_ in plan])
    times = {key: secs for key, secs in zip(plan, elapsed)}
    series = []
    for app, klass, counts in app_counts:
        s = Series(app.upper())
        base = times[(app, klass, counts[0])] * counts[0]
        for np_ in counts:
            s.add(np_, base / times[(app, klass, np_)])
        series.append(s)
    return FigureResult("fig24", "InfiniBand scalability to 16 nodes (Topspin)",
                        series, "speedup",
                        paper_note="very good scalability for all applications")


def fig25(quick: bool = True) -> FigureResult:
    """SMP mode: 16 processes on 8 nodes, block mapping."""
    specs = [("is", "B", 16), ("cg", "B", 16), ("mg", "B", 16),
             ("lu", "B", 16), ("ft", "B", 16),
             ("sweep3d", "50", 16), ("sweep3d", "150", 16)]
    return _app_bars("fig25", "SMP: 16 processes on 8 nodes (block mapping)",
                     specs,
                     "IBA best except MG and Sweep3D-150", quick, ppn=2)


def fig26(quick: bool = True) -> FigureResult:
    """Fig. 26: InfiniBand latency, PCI vs PCI-X."""
    sizes = tuple(4 ** k for k in range(1, 7))
    iters = 15 if quick else 30
    series = _bench_sweep([
        ("PCI-X", RunSpec.microbench("latency", "infiniband", sizes=sizes,
                                     iters=iters)),
        ("PCI", RunSpec.microbench("latency", "infiniband", sizes=sizes,
                                   iters=iters,
                                   net_overrides={"bus_kind": "pci"})),
    ])
    return FigureResult("fig26", "InfiniBand latency: PCI vs PCI-X",
                        series, "us",
                        paper_note="PCI adds ~0.6 us for small messages")


def fig27(quick: bool = True) -> FigureResult:
    """Fig. 27: InfiniBand bandwidth, PCI vs PCI-X."""
    sizes = (4096, 65536, 1048576) if quick else tuple(4 ** k for k in range(1, 11))
    series = _bench_sweep([
        ("PCI-X", RunSpec.microbench("bandwidth", "infiniband", sizes=sizes,
                                     rounds=6)),
        ("PCI", RunSpec.microbench("bandwidth", "infiniband", sizes=sizes,
                                   rounds=6,
                                   net_overrides={"bus_kind": "pci"})),
    ])
    return FigureResult("fig27", "InfiniBand bandwidth: PCI vs PCI-X",
                        series, "MB/s",
                        paper_note="841 MB/s drops to 378 MB/s on PCI")


def fig28(quick: bool = True) -> FigureResult:
    """NAS over IB: PCI vs PCI-X (SP/BT on 4 nodes, others on 8)."""
    plan = [(app, klass, np_, label, overrides)
            for app, klass, np_ in [("is", "B", 8), ("mg", "B", 8),
                                    ("lu", "B", 8), ("cg", "B", 8),
                                    ("ft", "B", 8), ("sp", "B", 4),
                                    ("bt", "B", 4)]
            for label, overrides in (("PCI-X", None), ("PCI", {"bus_kind": "pci"}))]
    elapsed = _app_elapsed([_app_spec(app, klass, "infiniband", np_, quick,
                                      net_overrides=overrides)
                            for app, klass, np_, _label, overrides in plan])
    series = []
    for (app, _klass, np_, label, _ov), secs in zip(plan, elapsed):
        s = Series(f"{app.upper()} {label}")
        s.add(np_, secs)
        series.append(s)
    return FigureResult("fig28", "MPI over InfiniBand: PCI vs PCI-X (NAS class B)",
                        series, "seconds", kind="bar",
                        paper_note="average degradation below 5%")


FIGURES: Dict[str, Callable[..., FigureResult]] = {
    f"fig{i}": fn for i, fn in enumerate(
        [fig01, fig02, fig03, fig04, fig05, fig06, fig07, fig08, fig09,
         fig10, fig11, fig12, fig13, fig14, fig15, fig16, fig17, fig18,
         fig19, fig20, fig21, fig22, fig23, fig24, fig25, fig26, fig27,
         fig28], start=1)
}


def run_figure(fig_id: str, quick: bool = True) -> FigureResult:
    """Regenerate one figure by id ('fig1' .. 'fig28')."""
    try:
        fn = FIGURES[fig_id]
    except KeyError:
        raise KeyError(f"unknown figure {fig_id!r}; know fig1..fig28") from None
    return fn(quick=quick)
