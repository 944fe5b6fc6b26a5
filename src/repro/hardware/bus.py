"""Host I/O bus models (PCI 64/66 and PCI-X 64/133).

The PCI family is a *shared, half-duplex* parallel bus: DMA reads (host
memory -> NIC) and DMA writes (NIC -> host memory) from every card on
the bus serialize on the same wires.  This single fact drives several of
the paper's results:

- InfiniBand's uni-directional bandwidth (841 MB/s) is wire-limited, but
  its bi-directional bandwidth saturates at ~900 MB/s — the PCI-X bus
  ceiling (Fig. 5).
- Forcing the HCA into a 66 MHz PCI slot caps bandwidth at 378 MB/s and
  adds ~0.6 µs latency (Figs. 26, 27).
- Quadrics' bi-directional bandwidth tops out at ~375 MB/s on its 66 MHz
  PCI slot (Fig. 5).
- Intra-node communication through a NIC loopback crosses the bus twice,
  halving the ceiling (InfiniBand's ~450 MB/s intra-node bandwidth is
  half its 900 MB/s PCI-X ceiling, §3.6).

We model a bus as one analytic FIFO server shared by both DMA directions
with a per-burst arbitration/setup overhead.
"""

from __future__ import annotations

from typing import Optional

from repro.core.engine import Simulator
from repro.core.resources import FifoServer
from repro.core.units import mbps_to_bytes_per_us
from repro.hardware.path import Stage

__all__ = ["HostBus", "make_pcix_bus", "make_pci_bus"]


class HostBus:
    """A shared half-duplex DMA bus with per-burst overhead."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        total_bw_mbps: float,
        burst_overhead_us: float,
        dma_setup_us: float,
    ) -> None:
        """
        Parameters
        ----------
        total_bw_mbps:
            Effective data bandwidth of the bus (paper MB/s = 2^20 B/s),
            shared across all cards and both DMA directions.
        burst_overhead_us:
            Arbitration + address-phase cost charged per DMA burst
            (i.e. per pipeline chunk).
        dma_setup_us:
            One-time descriptor fetch / doorbell-to-DMA cost per message,
            charged on the first burst only.  This is the component that
            makes small-message latency slightly worse on PCI than PCI-X.
        """
        self.sim = sim
        self.name = name
        self.total_bw_mbps = total_bw_mbps
        self.server = FifoServer(
            sim, mbps_to_bytes_per_us(total_bw_mbps), overhead_us=burst_overhead_us,
            name=f"bus.{name}",
        )
        self.burst_overhead_us = burst_overhead_us
        self.dma_setup_us = dma_setup_us

    def stage(self, name: str, burst_us: Optional[float] = None,
              setup_us: Optional[float] = None) -> Stage:
        """One DMA pass over this bus as a pipeline stage.

        Each chunk pays the per-burst overhead and the first chunk also
        the per-message DMA setup; a fabric with its own measured costs
        passes them as ``burst_us``/``setup_us``.  Both DMA directions
        of every card share the one server.
        """
        return Stage(self.server,
                     overhead_us=self.burst_overhead_us if burst_us is None else burst_us,
                     first_chunk_extra_us=self.dma_setup_us if setup_us is None else setup_us,
                     name=name)

    @property
    def bytes_moved(self) -> int:
        return self.server.bytes_moved

    def __repr__(self) -> str:  # pragma: no cover
        return f"<HostBus {self.name} {self.total_bw_mbps:.0f}MB/s>"


def make_pcix_bus(sim: Simulator, node_id: int) -> HostBus:
    """64-bit/133 MHz PCI-X: 1064 MB/s raw, ~900 MB/s effective.

    Calibration: IB bi-directional bandwidth plateaus at ~900 MB/s in
    Fig. 5 while each wire direction alone sustains 841 MB/s, so the
    effective bus ceiling sits just above 900.
    """
    return HostBus(
        sim,
        name=f"pcix.n{node_id}",
        total_bw_mbps=915.0,
        burst_overhead_us=0.30,
        dma_setup_us=0.25,
    )


def make_pcie_bus(sim: Simulator, node_id: int) -> HostBus:
    """A hypothetical next-generation serial bus (~PCIe x8 class).

    Not part of the paper's testbed: used by the what-if studies
    (``examples/whatif_nextgen.py``) to ask how the comparison would
    shift once the host bus stops being InfiniBand's ceiling — the
    trajectory the paper's conclusion hints at.
    """
    return HostBus(
        sim,
        name=f"pcie.n{node_id}",
        total_bw_mbps=1900.0,
        burst_overhead_us=0.15,
        dma_setup_us=0.15,
    )


def make_pci_bus(sim: Simulator, node_id: int) -> HostBus:
    """64-bit/66 MHz PCI: 528 MB/s raw, ~400 MB/s effective.

    Calibration: IB over PCI reaches 378 MB/s (Fig. 27) and Quadrics'
    bi-directional traffic saturates at ~375 MB/s (Fig. 5); both sit on
    64/66 PCI, pointing at an effective ceiling around 400 MB/s.  The
    slower bus also adds ~0.6 µs to small-message latency (Fig. 26),
    captured by the larger per-burst and setup costs.
    """
    return HostBus(
        sim,
        name=f"pci.n{node_id}",
        total_bw_mbps=400.0,
        burst_overhead_us=0.55,
        dma_setup_us=0.55,
    )
