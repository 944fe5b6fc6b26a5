"""Elan3 NIC model and the Quadrics fabric.

Path peculiarities vs. the other two networks:

- payloads up to the Elan3 **inline limit** are written into the NIC
  command port by the host (PIO) — the source bus DMA stage is skipped
  (its cost is part of the host's Tports overhead), giving Quadrics its
  4.6 µs latency on a mere 66 MHz PCI slot;
- larger messages are fetched by the Elan DMA engine over PCI;
- there is **no registration**: the per-node :class:`NicTlb` models the
  Elan MMU whose misses are serviced by host system software;
- arrivals are handled by the NIC (``NetPort.nic_handler``), so all
  Tports logic in :mod:`repro.networks.quadrics.tports` runs without the
  host.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.core.engine import Simulator
from repro.hardware.cluster import Cluster
from repro.hardware.memory import NicTlb
from repro.hardware.nic import NicPorts
from repro.hardware.path import PipelinePath, Stage
from repro.networks.base import Fabric, NetPort, Packet
from repro.networks.quadrics.params import QuadricsParams
from repro.networks.quadrics.tports import TportsPort

__all__ = ["QuadricsFabric"]


class QuadricsFabric(Fabric):
    """Elan3 QM-400 NICs around an Elite-16 crossbar."""

    kind = "quadrics"
    label = "QSN"
    header_bytes = 16  # Elan route flits + transaction header

    def __init__(self, sim: Simulator, cluster: Cluster,
                 params: QuadricsParams | None = None, **overrides) -> None:
        super().__init__(sim, cluster)
        topo_name = overrides.pop("topology", None)
        topo_radix = overrides.pop("topology_radix", None)
        if params is None:
            params = QuadricsParams(**overrides) if overrides else QuadricsParams()
        self.params = params
        self._init_topology(topo_name, topo_radix, params, "elite16")
        self.nics: Dict[int, NicPorts] = {}
        self.tlbs: Dict[int, NicTlb] = {}
        self.tports: Dict[int, TportsPort] = {}
        self._inline_paths: Dict[Tuple[int, int], PipelinePath] = {}

    # -- adapters -----------------------------------------------------------
    def nic(self, node_id: int) -> NicPorts:
        n = self.nics.get(node_id)
        if n is None:
            p = self.params
            n = NicPorts(
                self.sim,
                name=f"elan3.n{node_id}",
                engine_bw_bytes_per_us=p.engine_bw,
                wire_bw_bytes_per_us=p.wire_bw,
                tx_chunk_overhead_us=p.chunk_proc_us,
                rx_chunk_overhead_us=p.chunk_proc_us,
            )
            self.nics[node_id] = n
            self.tlbs[node_id] = NicTlb(entries=p.tlb_entries,
                                        miss_base_us=p.tlb_miss_base_us,
                                        miss_page_us=p.tlb_miss_page_us,
                                        bulk_threshold_pages=p.tlb_bulk_threshold_pages,
                                        bulk_page_us=p.tlb_bulk_page_us)
        return n

    def tport(self, rank: int) -> TportsPort:
        return self.tports[rank]

    def _on_attach(self, port: NetPort) -> None:
        self.nic(port.node_id)
        tp = TportsPort(self.sim, self, port.rank, self.tlbs[port.node_id])
        self.tports[port.rank] = tp
        # All arrivals are processed by the Elan, not queued for the host.
        port.nic_handler = tp.nic_arrival

    def flush_metrics(self) -> None:
        matches = 0
        for tp in self.tports.values():
            matches += tp.nic_matches
            tp.nic_matches = 0
        if matches:
            self.sim.metrics.inc("proto.nic_matches", matches)
        super().flush_metrics()

    # -- paths ------------------------------------------------------------
    # DMA layout: [0]=src bus, [1]=thread processor (TX), [2]=tx engine,
    # [3]=uplink, [4]=switch out-port, [5]=thread processor (RX),
    # [6]=rx engine, [7]=dst bus.  Local completion = cleared the TX
    # engine.
    local_stage_index = 2

    def _bus_stage(self, node: int, name: str) -> Stage:
        p = self.params
        bus = self.cluster.node(node).bus(p.bus_kind)
        return bus.stage(name, burst_us=p.bus_burst_overhead_us,
                         setup_us=p.bus_dma_setup_us)

    def _src_stages(self, node: int, dma: bool) -> list:
        """Source side; without ``dma`` the bytes arrive by PIO, so the
        bus DMA stage is left out."""
        p = self.params
        nic = self.nic(node)
        stages = [self._bus_stage(node, "src_bus")] if dma else []
        stages += [
            Stage(nic.mproc, first_chunk_extra_us=p.tx_proc_us,
                  trailing_us=p.tx_retire_us, name="elan_proc_tx"),
            Stage(nic.tx_engine, name="elan_tx"),
            Stage(nic.uplink, latency_us=p.wire_latency_us, name="uplink"),
        ]
        return stages

    def _dst_stages(self, node: int) -> list:
        p = self.params
        nic = self.nic(node)
        return [
            Stage(nic.mproc, first_chunk_extra_us=p.rx_proc_us, name="elan_proc_rx"),
            Stage(nic.rx_engine, name="elan_rx"),
            self._bus_stage(node, "dst_bus"),
        ]

    def _stages(self, src_node: int, dst_node: int, dma: bool) -> list:
        return [
            self._segment(self._src_stages, src_node, dma),
            *self.topology.switch_stages(src_node, dst_node),
            self._segment(self._dst_stages, dst_node),
        ]

    def _build_path(self, src_node: int, dst_node: int) -> PipelinePath:
        return PipelinePath(self.sim, self._stages(src_node, dst_node, dma=True),
                            name=f"qsn.{src_node}->{dst_node}",
                            split_stage=3)  # after the uplink

    def _inline_path(self, src_node: int, dst_node: int) -> PipelinePath:
        """PIO path for payloads within the Elan3 inline limit.

        No source bus DMA stage: the host already pushed the bytes into
        the command port (cost charged as Tports host overhead).
        """
        key = (src_node, dst_node)
        path = self._inline_paths.get(key)
        if path is None:
            path = PipelinePath(self.sim, self._stages(src_node, dst_node, dma=False),
                                name=f"qsn.pio.{src_node}->{dst_node}",
                                split_stage=2)  # after the uplink
            self._inline_paths[key] = path
        return path

    def _build_loopback_path(self, node: int) -> PipelinePath:
        """NIC loopback — MPICH-Quadrics has no shared-memory device, so
        intra-node messages cross the PCI bus twice (Fig. 9's
        intra-node-worse-than-inter-node result)."""
        p = self.params
        nic = self.nic(node)
        stages = [
            self._bus_stage(node, "bus_out"),
            Stage(nic.mproc, first_chunk_extra_us=p.tx_proc_us,
                  trailing_us=p.tx_retire_us, name="elan_proc_tx"),
            Stage(nic.tx_engine, name="elan_tx"),
            Stage(nic.mproc, first_chunk_extra_us=p.rx_proc_us, name="elan_proc_rx"),
            Stage(nic.rx_engine, name="elan_rx"),
            self._bus_stage(node, "bus_in"),
        ]
        return PipelinePath(self.sim, stages, name=f"qsn.loop{node}")

    # -- size-dependent path selection ----------------------------------------
    def _select_path(self, pkt: Packet, wire_bytes: int, src_node: int, dst_node: int):
        if pkt.nbytes <= self.params.inline_bytes and src_node != dst_node:
            # inline data leaves host memory synchronously (PIO); local
            # completion is after the TX engine (stage 1 of this path).
            return self._inline_path(src_node, dst_node), 1
        return super()._select_path(pkt, wire_bytes, src_node, dst_node)
