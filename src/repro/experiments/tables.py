"""Table drivers: regenerate the paper's Tables 1-6.

Like the figure drivers, every table declares its application runs as
:class:`~repro.runtime.spec.RunSpec` sweeps.  Tables 1 and 3-6 read one
per-run summary (:func:`_profile_summary`) through
:func:`repro.runtime.derive`: the summary is computed once per run and
cached beside its payload, so a warm table reads a few numbers per run
and neither the payload nor its Recorder.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List

from repro.core.netnames import NETWORKS
from repro.experiments.ascii_plot import table as render_table
from repro.profiling import (
    Recorder,
    buffer_reuse_rate,
    collective_stats,
    intranode_stats,
    message_size_histogram,
    nonblocking_stats,
)
from repro.runtime import RunSpec, derive, run_specs

__all__ = ["TableResult", "TABLES", "run_table"]

NETS = tuple(NETWORKS)

#: the paper's application set, with the node counts it used
APP_SPECS = [("is", "B", 8), ("cg", "B", 8), ("mg", "B", 8), ("lu", "B", 8),
             ("ft", "B", 8), ("sp", "B", 4), ("bt", "B", 4),
             ("sweep3d", "50", 8), ("sweep3d", "150", 8)]

#: paper row labels per spec
APP_LABELS = ["IS", "CG", "MG", "LU", "FT", "SP", "BT", "S3d-50", "S3d-150"]


@dataclass
class TableResult:
    """One reproduced table."""

    table_id: str
    title: str
    headers: List[str]
    rows: List[List]
    paper_note: str = ""

    def render(self) -> str:
        txt = render_table(self.headers, self.rows,
                           title=f"{self.table_id}: {self.title}")
        if self.paper_note:
            txt += f"\n  paper: {self.paper_note}"
        return txt


def _profile_summary(payload: dict) -> dict:
    """Every profiling statistic Tables 1 and 3-6 read off one app run."""
    rec = Recorder.from_dict(payload["recorder"])
    return {"sizes": message_size_histogram(rec),
            "nonblocking": nonblocking_stats(rec),
            "reuse": buffer_reuse_rate(rec),
            "collective": collective_stats(rec),
            "intranode": intranode_stats(rec)}


def _profile_summaries(quick: bool, specs=APP_SPECS, ppn: int = 1):
    """Run each application on InfiniBand (one sweep); keep its summary."""
    plan = [RunSpec.app(app, klass, "infiniband", np_, ppn=ppn, record=True,
                        sample_iters=2 if quick else None)
            for app, klass, np_ in specs]
    return derive(plan, _profile_summary)


def table1(quick: bool = True) -> TableResult:
    """Message size distribution (per-process MPI send calls)."""
    rows = []
    for label, summary in zip(APP_LABELS, _profile_summaries(quick)):
        hist = summary["sizes"]
        rows.append([label, hist["<2K"], hist["2K-16K"], hist["16K-1M"],
                     hist[">1M"]])
    return TableResult(
        "table1", "Message Size Distribution",
        ["Apps", "<2K", "2K-16K", "16K-1M", ">1M"], rows,
        paper_note="IS 14/11/0/11; CG 16113/0/11856/0; MG 1607/630/3702/0; "
                   "LU 100021/0/1008/0; FT 24/0/0/22; SP 9/0/9636/0; "
                   "BT 9/0/4836/0; S3d-50 19236/0/0/0; S3d-150 28836/28800/0/0")


def table2(quick: bool = True) -> TableResult:
    """Execution times for 2/4/8 processes on all three networks."""
    specs = [("is", "B"), ("cg", "B"), ("mg", "B"), ("lu", "B"), ("ft", "B"),
             ("sweep3d", "50"), ("sweep3d", "150")]
    labels = ["IS", "CG", "MG", "LU", "FT", "S3d-50", "S3d-150"]
    # class B FT does not fit on 2 nodes
    plan = [(app, klass, net, np_)
            for app, klass in specs for net in NETS for np_ in (2, 4, 8)
            if not (app == "ft" and np_ == 2)]
    payloads = run_specs([
        RunSpec.app(app, klass, net, np_, record=False,
                    sample_iters=2 if quick else None)
        for app, klass, net, np_ in plan])
    secs = {key: p["elapsed_s"] for key, p in zip(plan, payloads)}
    rows = []
    for label, (app, klass) in zip(labels, specs):
        row = [label]
        for net in NETS:
            for np_ in (2, 4, 8):
                if app == "ft" and np_ == 2:
                    row.append("-")
                else:
                    row.append(round(secs[(app, klass, net, np_)], 2))
        rows.append(row)
    return TableResult(
        "table2", "Scalability with System Sizes (execution seconds)",
        ["Apps", "IBA 2", "IBA 4", "IBA 8", "Myri 2", "Myri 4", "Myri 8",
         "QSN 2", "QSN 4", "QSN 8"], rows,
        paper_note="e.g. LU: IBA 648/320/166, Myri 708/339/171, QSN 667/315/168")


def table3(quick: bool = True) -> TableResult:
    """Non-blocking MPI call usage per process."""
    rows = []
    for label, summary in zip(APP_LABELS, _profile_summaries(quick)):
        nb = summary["nonblocking"]
        rows.append([label, nb["isend"]["calls"], round(nb["isend"]["avg_size"]),
                     nb["irecv"]["calls"], round(nb["irecv"]["avg_size"])])
    return TableResult(
        "table3", "Non-Blocking MPI Calls (per process)",
        ["Apps", "Isend #", "Isend avg", "Irecv #", "Irecv avg"], rows,
        paper_note="IS/FT/S3d: none; CG/MG/LU: Irecv only; SP 4818@264K both; "
                   "BT 2418@293K both")


def table4(quick: bool = True) -> TableResult:
    """Buffer reuse rates (plain and size-weighted)."""
    rows = []
    for label, summary in zip(APP_LABELS, _profile_summaries(quick)):
        st = summary["reuse"]
        rows.append([label, round(st["reuse_pct"], 2),
                     round(st["weighted_reuse_pct"], 2)])
    return TableResult(
        "table4", "Buffer Reuse Rate",
        ["Apps", "% Reuse", "Wt % Reuse"], rows,
        paper_note="all apps ~99%+ except IS (81.08% / 27.40% weighted) and "
                   "FT (86.00% / 91.30%)")


def table5(quick: bool = True) -> TableResult:
    """Collective call counts and shares."""
    rows = []
    for label, summary in zip(APP_LABELS, _profile_summaries(quick)):
        st = summary["collective"]
        rows.append([label, st["calls"], round(st["pct_calls"], 2),
                     round(st["pct_volume"], 2)])
    return TableResult(
        "table5", "MPI Collective Calls",
        ["Apps", "# calls", "% calls", "% volume"], rows,
        paper_note="IS 35/97%/100%, FT 47/100%/100%; CG/LU/SP/BT near zero")


def table6(quick: bool = True) -> TableResult:
    """Intra-node point-to-point share, 16 processes on 8 nodes (block)."""
    specs = [(a, k, 16) for a, k, _n in APP_SPECS]  # 16 procs on 8 nodes
    rows = []
    for label, summary in zip(APP_LABELS,
                              _profile_summaries(quick, specs=specs, ppn=2)):
        st = summary["intranode"]
        rows.append([label, st["calls"], round(st["pct_calls"], 2),
                     round(st["pct_volume"], 2)])
    return TableResult(
        "table6", "Intra-Node Point-to-Point (block mapping, 2 ppn)",
        ["Apps", "# calls", "% calls", "% volume"], rows,
        paper_note="CG 43%/33%, LU 33%/22%, S3d 33%/33%, FT 0%; intra-node "
                   "traffic matters for most applications")


TABLES: Dict[str, Callable[..., TableResult]] = {
    "table1": table1, "table2": table2, "table3": table3,
    "table4": table4, "table5": table5, "table6": table6,
}


def run_table(table_id: str, quick: bool = True) -> TableResult:
    """Regenerate one table by id ('table1' .. 'table6')."""
    try:
        fn = TABLES[table_id]
    except KeyError:
        raise KeyError(f"unknown table {table_id!r}; know table1..table6") from None
    return fn(quick=quick)
