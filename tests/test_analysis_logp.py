"""Tests for the LogGP parameter extraction."""

import pytest

from repro.analysis import extract_loggp, loggp_report
from repro.microbench import measure_bandwidth, measure_latency


class TestExtraction:
    @pytest.fixture(scope="class")
    def params(self):
        return {net: extract_loggp(net) for net in
                ("infiniband", "myrinet", "quadrics")}

    def test_model_consistency_with_latency(self, params):
        """L + o_s + o_r reconstructs the measured latency for the
        host-driven stacks; Quadrics legitimately breaks the LogP
        identity because its pre-posted receives overlap o_r with the
        flight time (the same NIC-offload the paper highlights)."""
        for net in ("infiniband", "myrinet"):
            p = params[net]
            lat = measure_latency(net, sizes=(8,), iters=25).at(8)
            assert p.latency == pytest.approx(lat, rel=0.15), (net, p.latency, lat)
        qsn = params["quadrics"]
        lat = measure_latency("quadrics", sizes=(8,), iters=25).at(8)
        assert qsn.latency >= lat - 0.2  # overheads overlap, never undershoot

    def test_big_G_matches_bandwidth(self, params):
        for net, p in params.items():
            bw = measure_bandwidth(net, sizes=(1 << 20,), rounds=8).at(1 << 20)
            assert p.bandwidth_mbps == pytest.approx(bw, rel=0.15), net

    def test_orderings_match_the_paper(self, params):
        iba, myri, qsn = (params["infiniband"], params["myrinet"],
                          params["quadrics"])
        # Fig. 3: Quadrics has by far the highest host overhead...
        assert qsn.o_send + qsn.o_recv > iba.o_send + iba.o_recv
        assert qsn.o_send + qsn.o_recv > myri.o_send + myri.o_recv
        # ...yet the lowest in-flight latency (NIC does the work)
        assert qsn.L < iba.L
        # Fig. 2: bandwidth ordering IBA >> QSN > Myri
        assert iba.bandwidth_mbps > 2 * qsn.bandwidth_mbps
        assert qsn.bandwidth_mbps > myri.bandwidth_mbps

    def test_gap_at_least_send_overhead(self, params):
        for net, p in params.items():
            assert p.g >= p.o_send - 1e-6, net

    def test_values_deterministic(self):
        a = extract_loggp("quadrics")
        b = extract_loggp("quadrics")
        assert a == b

    def test_pci_variant_increases_G(self):
        pcix = extract_loggp("infiniband")
        pci = extract_loggp("infiniband", net_overrides={"bus_kind": "pci"})
        assert pci.G > 1.8 * pcix.G     # 378 vs 841 MB/s
        assert pci.L > pcix.L           # slower bus crossing


class TestReport:
    def test_report_mentions_all_networks(self):
        txt = loggp_report()
        for label in ("IBA", "Myri", "QSN"):
            assert label in txt
        assert "L=" in txt and "G=" in txt
