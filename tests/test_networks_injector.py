"""Properties of the fabric injector: FIFO order, pacing, concurrency."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import Simulator
from repro.hardware.cluster import Cluster
from repro.networks import make_fabric
from repro.networks.base import Packet


def build(net, nnodes=2):
    sim = Simulator()
    cluster = Cluster(sim, nnodes)
    fab = make_fabric(net, sim, cluster)
    for r in range(nnodes):
        fab.attach(r, r)
    return sim, fab


class TestInjector:
    @given(sizes=st.lists(st.integers(min_value=1, max_value=1 << 20),
                          min_size=2, max_size=12))
    @settings(max_examples=25, deadline=None)
    def test_property_fifo_delivery_per_pair(self, sizes):
        """Any mix of message sizes delivers in send order."""
        sim, fab = build("infiniband")
        got = []
        fab.ports[1].nic_handler = lambda pkt: got.append(pkt.meta["i"])
        for i, n in enumerate(sizes):
            fab.send_packet(Packet(kind="x", src_rank=0, dst_rank=1,
                                   nbytes=n, meta={"i": i}))
        sim.run()
        assert got == list(range(len(sizes)))

    @given(sizes=st.lists(st.integers(min_value=1, max_value=1 << 19),
                          min_size=1, max_size=10))
    @settings(max_examples=25, deadline=None)
    def test_property_local_never_after_delivery(self, sizes):
        sim, fab = build("myrinet")
        deliveries = {}
        fab.ports[1].nic_handler = lambda pkt: deliveries.setdefault(
            pkt.meta["i"], sim.now)
        locals_ = {}
        for i, n in enumerate(sizes):
            ev = fab.send_packet(Packet(kind="x", src_rank=0, dst_rank=1,
                                        nbytes=n, meta={"i": i}))
            ev.add_callback(lambda e, i=i: locals_.setdefault(i, sim.now))
        sim.run()
        for i in range(len(sizes)):
            assert locals_[i] <= deliveries[i] + 1e-9

    def test_bounded_lookahead(self):
        """Source-side reservations never run far beyond the horizon."""
        sim, fab = build("quadrics")
        fab.ports[1].nic_handler = lambda pkt: None
        fab.send_packet(Packet(kind="x", src_rank=0, dst_rank=1,
                               nbytes=8 << 20, meta={}))
        # immediately after the send call, only ~horizon+group worth of
        # source-side capacity may be reserved
        path = fab.path(0, 1)
        split = path.split_stage
        max_nf = max(s.server.next_free for s in path.stages[:split + 1]
                     if s.server is not None)
        assert max_nf < fab.HORIZON_US + 2_000.0
        sim.run()

    def test_bidirectional_aggregate_beats_unidirectional(self):
        """Two directions on Myrinet reach ~2x one direction's rate."""
        def elapsed(bidir):
            sim, fab = build("myrinet")
            done = []
            fab.ports[0].nic_handler = lambda pkt: done.append(sim.now)
            fab.ports[1].nic_handler = lambda pkt: done.append(sim.now)
            n, sz = 8, 128 * 1024
            for _ in range(n):
                fab.send_packet(Packet(kind="x", src_rank=0, dst_rank=1,
                                       nbytes=sz, meta={}))
                if bidir:
                    fab.send_packet(Packet(kind="x", src_rank=1, dst_rank=0,
                                           nbytes=sz, meta={}))
            sim.run()
            return max(done)

        uni = elapsed(False)
        bi = elapsed(True)   # twice the data...
        assert bi < 1.25 * uni  # ...in barely more time (full duplex)

    def test_zero_byte_control_messages(self, network):
        sim, fab = build(network)
        got = []
        fab.ports[1].nic_handler = lambda pkt: got.append(sim.now)
        fab.send_packet(Packet(kind="x", src_rank=0, dst_rank=1,
                               nbytes=0, meta={}))
        sim.run()
        assert len(got) == 1 and got[0] > 0

    def test_deterministic_replay(self, network):
        def run_once():
            sim, fab = build(network)
            times = []
            fab.ports[1].nic_handler = lambda pkt: times.append(sim.now)
            for i in range(6):
                fab.send_packet(Packet(kind="x", src_rank=0, dst_rank=1,
                                       nbytes=1 << (8 + i), meta={}))
            sim.run()
            return times

        assert run_once() == run_once()


class TestPostPacket:
    """``post_packet`` is ``send_packet`` without the local-completion
    entry: the same reservations and deliveries, one engine entry fewer
    per packet."""

    #: control-sized to multi-group messages
    SIZES = (0, 4, 2048, 16 * 1024, 40_000, 64 * 1024 + 1, 300_000, 64, 96)
    #: across the switch both ways, and through node 0's NIC loopback
    PAIRS = ((0, 1), (1, 0), (0, 2))

    def _deliveries(self, network, post):
        sim, fab = build(network)
        fab.attach(2, 0)
        got = []
        for r in (0, 1, 2):
            fab.ports[r].nic_handler = lambda pkt: got.append(
                (pkt.meta["i"], sim.now))
        send = fab.post_packet if post else fab.send_packet
        for i, n in enumerate(self.SIZES):
            src, dst = self.PAIRS[i % 3]
            send(Packet(kind="x", src_rank=src, dst_rank=dst, nbytes=n,
                        meta={"i": i}))
        sim.run()
        return got, sim.events_processed

    def test_same_deliveries_one_entry_fewer(self, network):
        sent, sent_events = self._deliveries(network, post=False)
        posted, posted_events = self._deliveries(network, post=True)
        assert len(posted) == len(self.SIZES)
        assert posted == sent  # same order, same float times
        assert sent_events - posted_events == len(self.SIZES)


class TestIncast:
    def test_hotspot_receiver_limited_by_its_port(self):
        """7 senders flooding one node cannot exceed the switch out-port."""
        sim, fab = build("infiniband", nnodes=8)
        done = []
        for r in range(8):
            fab.ports[r].nic_handler = lambda pkt: done.append(sim.now)
        SZ = 256 * 1024
        for src in range(1, 8):
            for _ in range(4):
                fab.send_packet(Packet(kind="x", src_rank=src, dst_rank=0,
                                       nbytes=SZ, meta={}))
        sim.run()
        total = 7 * 4 * SZ
        agg = total / max(done) * 1e6 / 2**20
        # the receiver's out-port (wire rate) is the ceiling...
        assert agg < 900
        # ...and it is saturated, not idle
        assert agg > 650

    def test_disjoint_pairs_scale_linearly(self):
        """4 disjoint pairs move 4x the data of one pair in ~the same time."""
        def run(npairs):
            sim, fab = build("quadrics", nnodes=8)
            done = []
            for r in range(8):
                fab.ports[r].nic_handler = lambda pkt: done.append(sim.now)
            SZ = 512 * 1024
            for p in range(npairs):
                fab.send_packet(Packet(kind="x", src_rank=2 * p,
                                       dst_rank=2 * p + 1, nbytes=SZ, meta={}))
            sim.run()
            return max(done)

        one = run(1)
        four = run(4)
        assert four < 1.15 * one  # full crossbar: no cross-pair slowdown
