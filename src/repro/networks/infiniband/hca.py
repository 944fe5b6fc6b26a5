"""InfiniHost HCA model and the InfiniBand fabric.

Builds the pipeline stages for every node pair:

    src bus -> HCA TX engine -> uplink wire -> switch out-port (+wire)
    -> HCA RX engine -> dst bus

and a two-bus-crossing loopback path for NIC-routed intra-node traffic
(MVAPICH sends intra-node messages >= 16 KB through the HCA; the
resulting ~450 MB/s — half the PCI-X ceiling — matches §3.6).
"""

from __future__ import annotations

from typing import Dict

from repro.core.engine import Simulator
from repro.hardware.cluster import Cluster
from repro.hardware.memory import PinDownCache
from repro.hardware.nic import NicPorts
from repro.hardware.path import PipelinePath, Stage
from repro.networks.base import Fabric, NetPort
from repro.networks.infiniband.params import InfiniBandParams
from repro.networks.infiniband.verbs import VapiDevice

__all__ = ["InfiniBandFabric"]


class InfiniBandFabric(Fabric):
    """InfiniHost HCAs around an InfiniScale crossbar."""

    kind = "infiniband"
    label = "IBA"
    header_bytes = 40  # LRH+BTH+ICRC/VCRC of an IB packet

    def __init__(self, sim: Simulator, cluster: Cluster,
                 params: InfiniBandParams | None = None, **overrides) -> None:
        super().__init__(sim, cluster)
        topo_name = overrides.pop("topology", None)
        topo_radix = overrides.pop("topology_radix", None)
        if params is None:
            params = InfiniBandParams(**overrides) if overrides else InfiniBandParams()
        self.params = params
        self._init_topology(topo_name, topo_radix, params, "infiniscale")
        self.hcas: Dict[int, NicPorts] = {}
        self.pin_caches: Dict[int, PinDownCache] = {}
        self.devices: Dict[int, VapiDevice] = {}

    # -- adapters -----------------------------------------------------------
    def hca(self, node_id: int) -> NicPorts:
        h = self.hcas.get(node_id)
        if h is None:
            p = self.params
            h = NicPorts(
                self.sim,
                name=f"infinihost.n{node_id}",
                engine_bw_bytes_per_us=p.engine_bw,
                wire_bw_bytes_per_us=p.wire_bw,
                tx_chunk_overhead_us=p.chunk_proc_us,
                rx_chunk_overhead_us=p.chunk_proc_us,
            )
            self.hcas[node_id] = h
            self.pin_caches[node_id] = PinDownCache(
                capacity_bytes=p.pin_cache_bytes,
                register_base_us=p.reg_base_us,
                register_page_us=p.reg_page_us,
                deregister_page_us=p.dereg_page_us,
            )
        return h

    def vapi(self, rank: int) -> VapiDevice:
        """The per-rank VAPI context (created at attach time)."""
        return self.devices[rank]

    def on_link_failure(self, port_pkt) -> None:
        """RC retry exhaustion: the HCA transitions the QP to ERR.

        Matches verbs semantics — once ``retry_cnt`` runs out the queue
        pair is unusable until torn down and reconnected; the MPI layer
        sees the failure as a structured :class:`LinkFailure`.
        """
        dev = self.devices.get(port_pkt.src_rank)
        qp = dev.qps.get(port_pkt.dst_rank) if dev is not None else None
        if qp is not None:
            qp.state = "ERR"

    def _on_attach(self, port: NetPort) -> None:
        self.hca(port.node_id)
        self.devices[port.rank] = VapiDevice(
            self.sim, self, port.rank, self.pin_caches[port.node_id]
        )

    # -- paths ----------------------------------------------------------------
    # Stage layout: [0]=src bus, [1]=message processor (TX work),
    # [2]=tx engine, [3]=uplink, [4..]=routed switch hops (one on the
    # testbed crossbar), then message processor (RX work), rx engine,
    # dst bus.  Local completion = data has cleared the TX engine
    # (stage 2).
    local_stage_index = 2

    def _src_stages(self, node: int) -> list:
        p = self.params
        bus = self.cluster.node(node).bus(p.bus_kind)
        hca = self.hca(node)
        return [
            bus.stage("src_bus"),
            Stage(hca.mproc, first_chunk_extra_us=p.tx_proc_us,
                  trailing_us=p.cqe_gen_us, name="hca_proc_tx"),
            Stage(hca.tx_engine, name="hca_tx"),
            Stage(hca.uplink, latency_us=p.wire_latency_us, name="uplink"),
        ]

    def _dst_stages(self, node: int) -> list:
        p = self.params
        bus = self.cluster.node(node).bus(p.bus_kind)
        hca = self.hca(node)
        return [
            Stage(hca.mproc, first_chunk_extra_us=p.rx_proc_us, name="hca_proc_rx"),
            Stage(hca.rx_engine, name="hca_rx"),
            bus.stage("dst_bus"),
        ]

    def _build_path(self, src_node: int, dst_node: int) -> PipelinePath:
        stages = [
            self._segment(self._src_stages, src_node),
            *self.topology.switch_stages(src_node, dst_node),
            self._segment(self._dst_stages, dst_node),
        ]
        return PipelinePath(self.sim, stages, name=f"ib.{src_node}->{dst_node}",
                            split_stage=3)  # after the uplink

    def _build_loopback_path(self, node: int) -> PipelinePath:
        """HCA loopback: out through TX, straight back in through RX.

        Crosses the host bus twice, which is why MVAPICH's large-message
        intra-node bandwidth plateaus at about half the PCI-X ceiling.
        """
        p = self.params
        bus = self.cluster.node(node).bus(p.bus_kind)
        hca = self.hca(node)
        stages = [
            bus.stage("bus_out"),
            Stage(hca.mproc, first_chunk_extra_us=p.tx_proc_us,
                  trailing_us=p.cqe_gen_us, name="hca_proc_tx"),
            Stage(hca.tx_engine, name="hca_tx"),
            Stage(hca.mproc, first_chunk_extra_us=p.rx_proc_us, name="hca_proc_rx"),
            Stage(hca.rx_engine, name="hca_rx"),
            bus.stage("bus_in"),
        ]
        return PipelinePath(self.sim, stages, name=f"ib.loop{node}")
