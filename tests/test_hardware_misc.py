"""Tests for CPUs, memcpy model, buses, switch, nodes and cluster."""

import pytest

from repro.core.engine import Simulator
from repro.hardware.bus import make_pci_bus, make_pcix_bus
from repro.hardware.cluster import Cluster
from repro.hardware.cpu import HostCPU, MemcpyModel
from repro.hardware.node import Node
from repro.hardware.path import PipelinePath, Stage
from repro.hardware.switch import CrossbarSwitch


def _walk(stage, nbytes, first=True):
    """Delivery time of one single-chunk message walked through ``stage``
    alone, starting at t=0 (the path kernel the fabrics use)."""
    path = PipelinePath(stage.server.sim, [stage], chunk_bytes=1 << 30)
    return path.schedule(nbytes, start=0.0, charge_first_extra=first)[1]


class TestMemcpyModel:
    def test_rate_bands_monotonic(self):
        m = MemcpyModel()
        hot = m.copy_time(1024, working_set=1024)
        l2 = m.copy_time(1024, working_set=256 * 1024)
        mem = m.copy_time(1024, working_set=2 << 20)
        assert hot < l2 < mem

    def test_shmem_copy_thrashes_past_half_l2(self):
        m = MemcpyModel()
        small = m.shmem_copy_time(64 * 1024)
        big_per_byte = m.shmem_copy_time(1 << 20) / (1 << 20)
        small_per_byte = small / (64 * 1024)
        assert big_per_byte > 2 * small_per_byte

    def test_setup_dominates_tiny_copies(self):
        m = MemcpyModel()
        assert m.copy_time(1) == pytest.approx(m.setup_us, rel=0.05)


class TestHostCPU:
    def test_comm_vs_compute_accounting(self):
        sim = Simulator()
        cpu = HostCPU(sim, 0, 0)

        def work():
            yield cpu.compute(10.0)
            yield cpu.comm(2.5)
            yield cpu.comm_copy(1024)

        sim.spawn(work())
        sim.run()
        assert cpu.compute_time_us == pytest.approx(10.0)
        assert cpu.comm_time_us > 2.5
        assert sim.now == pytest.approx(10.0 + cpu.comm_time_us)

    def test_reset_accounting(self):
        sim = Simulator()
        cpu = HostCPU(sim, 0, 0)
        cpu.comm(1.0)
        cpu.reset_accounting()
        assert cpu.comm_time_us == 0.0


class TestBuses:
    def test_pcix_faster_than_pci(self):
        sim = Simulator()
        pcix = make_pcix_bus(sim, 0)
        pci = make_pci_bus(sim, 1)
        assert pcix.total_bw_mbps > 2 * pci.total_bw_mbps
        assert pci.dma_setup_us > pcix.dma_setup_us

    def test_serve_at_first_burst_setup(self):
        """A bus stage charges the DMA setup on a message's first burst."""
        sim = Simulator()
        bus = make_pcix_bus(sim, 0)
        t1 = _walk(bus.stage("dma"), 1024, first=True)
        bus2 = make_pcix_bus(sim, 1)
        t2 = _walk(bus2.stage("dma"), 1024, first=False)
        assert t1 - t2 == pytest.approx(bus.dma_setup_us)
        assert t2 == pytest.approx(bus.burst_overhead_us
                                   + 1024 / bus.server.bw)

    def test_stage_takes_fabric_burst_costs(self):
        sim = Simulator()
        stage = make_pci_bus(sim, 0).stage("dst_bus", burst_us=0.7,
                                           setup_us=0.0)
        assert (stage.overhead_us, stage.first_chunk_extra_us) == (0.7, 0.0)
        assert stage.name == "dst_bus"

    def test_both_directions_share_one_server(self):
        sim = Simulator()
        bus = make_pcix_bus(sim, 0)
        t1 = _walk(bus.stage("dma_read"), 100_000)
        t2 = _walk(bus.stage("dma_write"), 100_000)
        assert t2 > t1  # second transfer queued behind the first
        assert bus.bytes_moved == 200_000

    def test_unknown_bus_kind(self):
        sim = Simulator()
        node = Node(sim, 0)
        with pytest.raises(ValueError):
            node.bus("isa")


class TestSwitch:
    def test_output_port_contention(self):
        sim = Simulator()
        sw = CrossbarSwitch(sim, nports=8, port_bw_bytes_per_us=100.0,
                            cut_through_us=0.2)
        port = sw.out_port(3)
        t1 = _walk(Stage(port), 1000)
        t2 = _walk(Stage(port), 1000)
        assert t2 == pytest.approx(2 * t1)

    def test_distinct_ports_independent(self):
        sim = Simulator()
        sw = CrossbarSwitch(sim, nports=8, port_bw_bytes_per_us=100.0,
                            cut_through_us=0.2)
        t1 = _walk(Stage(sw.out_port(0)), 1000)
        t2 = _walk(Stage(sw.out_port(1)), 1000)
        assert t1 == t2  # no cross-port interference (full crossbar)

    def test_port_range_checked(self):
        sim = Simulator()
        sw = CrossbarSwitch(sim, nports=4, port_bw_bytes_per_us=1.0,
                            cut_through_us=0.0)
        with pytest.raises(ValueError):
            sw.out_port(4)

    def test_total_bytes_switched(self):
        sim = Simulator()
        sw = CrossbarSwitch(sim, nports=4, port_bw_bytes_per_us=10.0,
                            cut_through_us=0.0)
        _walk(Stage(sw.out_port(0)), 500)
        _walk(Stage(sw.out_port(1)), 700)
        assert sw.total_bytes_switched() == 1200


class TestClusterNode:
    def test_cluster_builds_nodes(self):
        sim = Simulator()
        cl = Cluster(sim, nnodes=8)
        assert cl.nnodes == 8
        assert cl.node(3).node_id == 3
        assert cl.node(0).ncores == 2  # dual-Xeon testbed nodes

    def test_cluster_needs_a_node(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            Cluster(sim, 0)

    def test_per_adapter_bus_segments(self):
        sim = Simulator()
        node = Node(sim, 0)
        assert node.bus("pcix") is node.bus("pcix")
        assert node.bus("pcix") is not node.bus("pcix:myri")
        assert node.bus("pci").total_bw_mbps < node.bus("pcix").total_bw_mbps
