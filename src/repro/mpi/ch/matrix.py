"""The what-if device matrix: protocol knobs crossed with fabrics.

The CH3 split makes every protocol decision a declared capability, so
device variants that never shipped together become one sweep: any
rendezvous flavor a channel lists in ``ChannelCaps.rndv_flavors`` can
be driven over that fabric by passing ``rendezvous=...`` through
``mpi_options``.  This module enumerates the supported (fabric x
rendezvous) cells, runs one ping-pong per cell through the cached
run-plan layer, and renders the result next to each fabric's declared
capabilities.

CLI: ``python -m repro matrix [--full] [--jobs N]``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.netnames import NETWORKS
from repro.core.units import fmt_size
from repro.mpi.ch.caps import ChannelCaps

__all__ = [
    "MATRIX_NETWORKS", "MatrixCell", "fabric_caps", "enumerate_cells",
    "run_matrix", "render_caps_table", "render_matrix", "matrix_report",
]

MATRIX_NETWORKS: Tuple[str, ...] = tuple(NETWORKS)

#: rendezvous sizes — above every port's eager limit, so the flavor is
#: actually exercised (16 KB is eager-inclusive on Myrinet's GM port)
MATRIX_SIZES: Tuple[int, ...] = (32768, 262144)


@dataclass(frozen=True)
class MatrixCell:
    """One runnable configuration: a fabric plus a rendezvous flavor."""

    network: str
    rendezvous: str
    default: bool  # True for the flavor the real MPI implementation used

    @property
    def label(self) -> str:
        star = "*" if self.default else ""
        return f"{self.network}/{self.rendezvous}{star}"


def fabric_caps(network: str) -> ChannelCaps:
    """The capability declaration of ``network``'s channel."""
    from repro.mpi.world import MPIWorld

    return MPIWorld(2, network=network).devices[0].caps


def enumerate_cells(networks: Sequence[str] = MATRIX_NETWORKS) -> List[MatrixCell]:
    """Every supported (fabric, rendezvous flavor) combination."""
    cells = []
    for net in networks:
        caps = fabric_caps(net)
        for flavor in caps.rndv_flavors:
            cells.append(MatrixCell(net, flavor, flavor == caps.rndv_default))
    return cells


def run_matrix(cells: Optional[Sequence[MatrixCell]] = None,
               sizes: Sequence[int] = MATRIX_SIZES,
               iters: int = 10, warmup: int = 2) -> Dict[MatrixCell, dict]:
    """One cached ping-pong latency sweep per cell.

    Returns ``{cell: {size: latency_us}}``.  Cells for a default flavor
    deliberately omit the ``rendezvous`` option so they share cache
    entries (and digests) with the paper-figure runs.
    """
    from repro import runtime
    from repro.runtime.spec import RunSpec

    if cells is None:
        cells = enumerate_cells()
    specs = []
    for cell in cells:
        options = {} if cell.default else {"rendezvous": cell.rendezvous}
        specs.append(RunSpec.microbench(
            "latency", cell.network, sizes=tuple(sizes), iters=iters,
            warmup=warmup, mpi_options=options))
    payloads = runtime.run_specs(specs)
    return {cell: {int(x): y for x, y in payload["points"]}
            for cell, payload in zip(cells, payloads)}


def render_caps_table(networks: Sequence[str] = MATRIX_NETWORKS) -> str:
    """The per-fabric capability declarations, one column per port."""
    caps = {net: fabric_caps(net) for net in networks}

    def _lim(v: float) -> str:
        if v == 0:
            return "-"
        return "all" if v == float("inf") else fmt_size(int(v))

    rows = [
        ("two-sided send/recv", lambda c: "yes" if c.two_sided else "-"),
        ("RDMA write", lambda c: "yes" if c.rdma_write else "-"),
        ("RDMA read", lambda c: "yes" if c.rdma_read else "-"),
        ("NIC-side matching", lambda c: "yes" if c.nic_matching else "-"),
        ("persistent RDMA slots", lambda c: "yes" if c.rdma_slots else "-"),
        ("progress", lambda c: c.progress),
        ("inline limit", lambda c: _lim(c.inline_limit)),
        ("shmem limit", lambda c: _lim(c.shmem_limit)),
        ("allreduce", lambda c: c.allreduce_algo),
        ("rendezvous flavors", lambda c: " ".join(c.rndv_flavors)),
        ("default rendezvous", lambda c: c.rndv_default),
    ]
    w0 = max(len(r[0]) for r in rows)
    widths = {net: max(len(net), *(len(fn(caps[net])) for _, fn in rows))
              for net in networks}
    head = " ".join([" " * w0] + [net.rjust(widths[net]) for net in networks])
    lines = [head, "-" * len(head)]
    for name, fn in rows:
        lines.append(" ".join(
            [name.ljust(w0)] + [fn(caps[net]).rjust(widths[net])
                                for net in networks]))
    return "\n".join(lines)


def render_matrix(results: Dict[MatrixCell, dict],
                  sizes: Sequence[int]) -> str:
    """Latency table: one row per (fabric, flavor) cell."""
    label_w = max(len("cell"), *(len(c.label) for c in results))
    cols = [fmt_size(int(n)) for n in sizes]
    head = "  ".join(["cell".ljust(label_w)] + [c.rjust(10) for c in cols])
    lines = [head, "-" * len(head)]
    for cell, lat in results.items():
        vals = [f"{lat[int(n)]:8.2f}us" for n in sizes]
        lines.append("  ".join([cell.label.ljust(label_w)]
                               + [v.rjust(10) for v in vals]))
    lines.append("(* = the flavor the real implementation shipped with)")
    return "\n".join(lines)


def matrix_report(sizes: Sequence[int] = MATRIX_SIZES, iters: int = 10,
                  warmup: int = 2) -> str:
    """Capability table plus the full what-if latency matrix."""
    cells = enumerate_cells()
    results = run_matrix(cells, sizes=sizes, iters=iters, warmup=warmup)
    return ("channel capabilities\n====================\n"
            + render_caps_table() + "\n\n"
            + "rendezvous what-if matrix (one-way ping-pong latency)\n"
            + "=====================================================\n"
            + render_matrix(results, sizes))
