"""LANai-XP NIC model and the Myrinet fabric.

The defining hardware feature is the 2 MB on-board SRAM through which
the 225 MHz LANai firmware moves every message.  Small messages cut
through (one SRAM pass); messages above
:attr:`~repro.networks.myrinet.params.MyrinetParams.sram_cutthrough_bytes`
are fully staged (store-and-forward: write + read = two SRAM-port passes
per chunk, on both the sending and receiving NIC).  One SRAM memory-port
server per NIC is shared by TX and RX traffic, so large bi-directional
streams saturate it — reproducing the Fig. 5 collapse from 473 MB/s to
under 340 MB/s past 256 KB while leaving uni-directional traffic at wire
speed.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.core.engine import Simulator
from repro.core.resources import FifoServer
from repro.hardware.cluster import Cluster
from repro.hardware.memory import PinDownCache
from repro.hardware.nic import NicPorts
from repro.hardware.path import PipelinePath, Stage
from repro.networks.base import Fabric, NetPort, Packet
from repro.networks.myrinet.gm import GmPort
from repro.networks.myrinet.params import MyrinetParams

__all__ = ["MyrinetFabric"]


class MyrinetFabric(Fabric):
    """LANai-XP NICs around a Myrinet-2000 crossbar."""

    kind = "myrinet"
    label = "Myri"
    header_bytes = 24  # GM header + Myrinet route/CRC

    def __init__(self, sim: Simulator, cluster: Cluster,
                 params: MyrinetParams | None = None, **overrides) -> None:
        super().__init__(sim, cluster)
        topo_name = overrides.pop("topology", None)
        topo_radix = overrides.pop("topology_radix", None)
        if params is None:
            params = MyrinetParams(**overrides) if overrides else MyrinetParams()
        self.params = params
        self._init_topology(topo_name, topo_radix, params, "myrinet2000")
        self.nics: Dict[int, NicPorts] = {}
        self.srams: Dict[int, FifoServer] = {}
        self.pin_caches: Dict[int, PinDownCache] = {}
        self.gm_ports: Dict[int, GmPort] = {}
        self._large_paths: Dict[Tuple[int, int], PipelinePath] = {}

    # -- adapters --------------------------------------------------------
    def nic(self, node_id: int) -> NicPorts:
        n = self.nics.get(node_id)
        if n is None:
            p = self.params
            n = NicPorts(
                self.sim,
                name=f"lanai.n{node_id}",
                engine_bw_bytes_per_us=p.engine_bw,
                wire_bw_bytes_per_us=p.wire_bw,
                tx_chunk_overhead_us=p.chunk_proc_us,
                rx_chunk_overhead_us=p.chunk_proc_us,
            )
            self.nics[node_id] = n
            self.srams[node_id] = FifoServer(
                self.sim, p.sram_bw, overhead_us=0.0, name=f"lanai.n{node_id}.sram"
            )
            self.pin_caches[node_id] = PinDownCache(
                capacity_bytes=p.pin_cache_bytes,
                register_base_us=p.reg_base_us,
                register_page_us=p.reg_page_us,
                deregister_page_us=p.dereg_page_us,
            )
        return n

    def gm(self, rank: int) -> GmPort:
        return self.gm_ports[rank]

    def _on_attach(self, port: NetPort) -> None:
        self.nic(port.node_id)
        p = self.params
        self.gm_ports[port.rank] = GmPort(
            self.sim, self, port.rank, self.pin_caches[port.node_id],
            send_tokens=p.send_tokens, recv_tokens=p.recv_tokens,
        )

    # -- paths --------------------------------------------------------------
    # Cut-through layout: [0]=src bus, [1]=LANai firmware (TX work),
    # [2]=tx engine, [3]=SRAM pass(es), then uplink, switch out-port,
    # LANai firmware (RX work), SRAM pass(es), rx engine, dst bus.
    local_stage_index = 2

    def _src_stages(self, node: int, staged: bool) -> list:
        p = self.params
        bus = self.cluster.node(node).bus(p.bus_kind)
        nic = self.nic(node)
        sram = self.srams[node]
        stages = [
            bus.stage("src_bus"),
            Stage(nic.mproc, first_chunk_extra_us=p.tx_proc_us,
                  trailing_us=p.send_done_proc_us, name="lanai_fw_tx"),
            Stage(nic.tx_engine, name="lanai_tx"),
        ]
        if staged:
            # full store-and-forward: write into SRAM (occupies the
            # memory port), then read back out (occupies it again and
            # must wait for the tail) — doubled SRAM traffic is what
            # saturates the port under large bi-directional streams.
            stages += [
                Stage(sram, name="src_sram_w"),
                Stage(sram, cut_through=False, name="src_sram_r"),
            ]
        else:
            stages += [Stage(sram, name="src_sram")]
        stages += [Stage(nic.uplink, latency_us=p.wire_latency_us, name="uplink")]
        return stages

    def _dst_stages(self, node: int, staged: bool) -> list:
        p = self.params
        bus = self.cluster.node(node).bus(p.bus_kind)
        nic = self.nic(node)
        sram = self.srams[node]
        stages = [Stage(nic.mproc, first_chunk_extra_us=p.rx_proc_us,
                        name="lanai_fw_rx")]
        if staged:
            stages += [
                Stage(sram, name="dst_sram_w"),
                Stage(sram, cut_through=False, name="dst_sram_r"),
            ]
        else:
            stages += [Stage(sram, name="dst_sram")]
        stages += [
            Stage(nic.rx_engine, name="lanai_rx"),
            bus.stage("dst_bus"),
        ]
        return stages

    def _stages(self, src_node: int, dst_node: int, staged: bool) -> list:
        return [
            self._segment(self._src_stages, src_node, staged),
            *self.topology.switch_stages(src_node, dst_node),
            self._segment(self._dst_stages, dst_node, staged),
        ]

    def _build_path(self, src_node: int, dst_node: int) -> PipelinePath:
        return PipelinePath(self.sim, self._stages(src_node, dst_node, staged=False),
                            name=f"myri.{src_node}->{dst_node}",
                            split_stage=4)  # after the uplink

    def _large_path(self, src_node: int, dst_node: int) -> PipelinePath:
        key = (src_node, dst_node)
        p = self._large_paths.get(key)
        if p is None:
            p = PipelinePath(self.sim, self._stages(src_node, dst_node, staged=True),
                             name=f"myri.sf.{src_node}->{dst_node}",
                             split_stage=5)  # after the uplink
            self._large_paths[key] = p
        return p

    def _build_loopback_path(self, node: int) -> PipelinePath:
        p = self.params
        bus = self.cluster.node(node).bus(p.bus_kind)
        nic = self.nic(node)
        sram = self.srams[node]
        stages = [
            bus.stage("bus_out"),
            Stage(nic.mproc, first_chunk_extra_us=p.tx_proc_us,
                  trailing_us=p.send_done_proc_us, name="lanai_fw_tx"),
            Stage(nic.tx_engine, name="lanai_tx"),
            Stage(sram, name="sram"),
            Stage(nic.mproc, first_chunk_extra_us=p.rx_proc_us, name="lanai_fw_rx"),
            Stage(nic.rx_engine, name="lanai_rx"),
            bus.stage("bus_in"),
        ]
        return PipelinePath(self.sim, stages, name=f"myri.loop{node}")

    # -- size-dependent path selection -------------------------------------
    def _select_path(self, pkt: Packet, wire_bytes: int, src_node: int, dst_node: int):
        if wire_bytes > self.params.sram_cutthrough_bytes and src_node != dst_node:
            return self._large_path(src_node, dst_node), self.local_stage_index
        return super()._select_path(pkt, wire_bytes, src_node, dst_node)
