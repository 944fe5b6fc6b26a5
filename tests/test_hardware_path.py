"""Tests for pipeline paths: cut-through, store-and-forward, contention."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import Simulator
from repro.core.resources import FifoServer
from repro.hardware.path import PipelinePath, Stage, chunk_sizes


def make_path(sim, bws, chunk=16 * 1024, overheads=None, cut=None, split=None):
    stages = []
    for i, bw in enumerate(bws):
        srv = FifoServer(sim, bw, name=f"s{i}")
        stages.append(Stage(
            srv,
            overhead_us=(overheads[i] if overheads else 0.0),
            cut_through=(cut[i] if cut else True),
        ))
    return PipelinePath(sim, stages, chunk_bytes=chunk, split_stage=split)


class TestChunking:
    def test_exact_multiple(self):
        assert chunk_sizes(32768, 16384) == [16384, 16384]

    def test_remainder(self):
        assert chunk_sizes(20000, 16384) == [16384, 3616]

    def test_zero_is_single_empty_chunk(self):
        assert chunk_sizes(0, 16384) == [0]


class TestCutThrough:
    def test_serialization_paid_once_at_bottleneck(self):
        """Cut-through: total time ~= overheads + max serialization."""
        sim = Simulator()
        path = make_path(sim, bws=[1000.0, 100.0, 1000.0])
        _, delivered = path.schedule(10_000, start=0.0)
        # bottleneck = 10000/100 = 100us; fast stages add ~10us each
        assert delivered == pytest.approx(100.0, rel=0.25)

    def test_store_and_forward_adds_full_serialization(self):
        sim = Simulator()
        cut = make_path(sim, bws=[100.0, 100.0])
        snf = make_path(sim, bws=[100.0, 100.0], cut=[True, False])
        _, t_cut = cut.schedule(10_000, start=0.0)
        _, t_snf = snf.schedule(10_000, start=0.0)
        # S&F waits for the tail before forwarding: ~2x one serialization
        assert t_snf == pytest.approx(2 * t_cut, rel=0.05)
        assert t_cut == pytest.approx(100.0, rel=0.05)

    def test_latency_hop_adds_fixed_time(self):
        sim = Simulator()
        srv = FifoServer(sim, 1000.0)
        path = PipelinePath(sim, [Stage(srv, latency_us=5.0)])
        _, t = path.schedule(0, start=0.0)
        assert t == pytest.approx(5.0)

    def test_first_chunk_extra_charged_once(self):
        sim = Simulator()
        srv = FifoServer(sim, 1000.0)
        path = PipelinePath(sim, [Stage(srv, first_chunk_extra_us=3.0)],
                            chunk_bytes=1000)
        _, t = path.schedule(3000, start=0.0)
        # 3 chunks of 1us each + 3us extra on the first only
        assert t == pytest.approx(6.0)

    def test_charge_first_extra_flag(self):
        sim = Simulator()
        srv = FifoServer(sim, 1000.0)
        path = PipelinePath(sim, [Stage(srv, first_chunk_extra_us=3.0)],
                            chunk_bytes=1000)
        _, t = path.schedule(1000, start=0.0, charge_first_extra=False)
        assert t == pytest.approx(1.0)

    def test_trailing_occupancy_delays_followers_not_self(self):
        sim = Simulator()
        srv = FifoServer(sim, 1000.0)
        path = PipelinePath(sim, [Stage(srv, trailing_us=5.0)], chunk_bytes=1 << 20)
        _, t1 = path.schedule(1000, start=0.0)
        assert t1 == pytest.approx(1.0)       # own delivery unaffected
        _, t2 = path.schedule(1000, start=0.0)
        assert t2 == pytest.approx(7.0)       # follower queues behind trailing


class TestThroughput:
    def test_steady_state_rate_is_bottleneck(self):
        """Many messages: sustained rate == slowest stage bandwidth."""
        sim = Simulator()
        path = make_path(sim, bws=[500.0, 200.0, 800.0])
        total = 0
        last = 0.0
        for _ in range(50):
            _, last = path.schedule(16 * 1024, start=0.0)
            total += 16 * 1024
        assert total / last == pytest.approx(200.0, rel=0.02)

    def test_zero_load_latency_matches_fresh_schedule(self):
        """The idle-path answer is a `schedule` on fresh servers, also
        where a path holds one server at two stages and where a stage's
        trailing housekeeping delays the next chunk."""
        for nbytes in (0, 40_000, 64 * 1024):
            for name, path in _fresh_paths():
                expected = path.zero_load_latency(nbytes)
                _, got = path.schedule(nbytes, start=0.0)
                assert got == expected, (name, nbytes)

    def test_local_stage_completion_precedes_delivery(self):
        sim = Simulator()
        path = make_path(sim, bws=[1000.0, 10.0])
        local, delivered = path.schedule(10_000, start=0.0, local_stage=0)
        assert local < delivered
        assert local == pytest.approx(10.0, rel=0.1)

    @given(nbytes=st.integers(min_value=1, max_value=1 << 20),
           bw=st.floats(min_value=1.0, max_value=5000.0))
    @settings(max_examples=50, deadline=None)
    def test_property_delivery_at_least_serialization(self, nbytes, bw):
        sim = Simulator()
        path = make_path(sim, bws=[bw])
        _, t = path.schedule(nbytes, start=0.0)
        assert t >= nbytes / bw - 1e-6

    @given(sizes=st.lists(st.integers(min_value=1, max_value=100_000),
                          min_size=2, max_size=15))
    @settings(max_examples=40, deadline=None)
    def test_property_fifo_delivery_order(self, sizes):
        """Messages on one path deliver in send order."""
        sim = Simulator()
        path = make_path(sim, bws=[300.0, 150.0, 300.0])
        times = [path.schedule(n, start=0.0)[1] for n in sizes]
        assert times == sorted(times)



def _mixed_path(sim, bws, ovs, chunk):
    """Bus, NIC processor, an SRAM written cut-through then read out
    store-and-forward (one server, two stages), an uplink hop | a
    latency-only switch, the receive engine and the destination bus."""
    srv = [FifoServer(sim, bw, overhead_us=ov, name=f"s{i}")
           for i, (bw, ov) in enumerate(zip(bws, ovs))]
    stages = [
        Stage(srv[0], first_chunk_extra_us=0.25, name="src_bus"),
        Stage(srv[1], first_chunk_extra_us=1.7, trailing_us=0.3, name="proc"),
        Stage(srv[2], name="sram_w"),
        Stage(srv[2], cut_through=False, name="sram_r"),
        Stage(srv[3], latency_us=0.04, name="uplink"),
        Stage(None, latency_us=0.2, name="switch"),
        Stage(srv[4], overhead_us=0.05, name="rx"),
        Stage(srv[5], first_chunk_extra_us=0.25, name="dst_bus"),
    ]
    return PipelinePath(sim, stages, chunk_bytes=chunk, split_stage=4), srv


def _fresh_paths():
    """Idle paths to compare `zero_load_latency` with `schedule` on: a
    plain two-stage path, the mixed path with its NIC processor as the
    bottleneck (trailing occupancy) and with its SRAM as the bottleneck
    (one server at two stages), and each fabric's NIC loopback path,
    which crosses the host bus twice."""
    from repro.mpi.world import MPIWorld

    yield "plain", make_path(Simulator(), bws=[400.0, 100.0], overheads=[0.5, 0.2])
    ovs = [0.1, 0.4, 0.0, 0.2, 0.3, 0.1]
    for name, bws in (("mixed-proc", [800.0, 100.0, 500.0, 250.0, 250.0, 800.0]),
                      ("mixed-sram", [800.0, 300.0, 200.0, 250.0, 250.0, 800.0])):
        yield name, _mixed_path(Simulator(), bws, ovs, 4096)[0]
    for network in ("infiniband", "myrinet", "quadrics"):
        world = MPIWorld(4, ppn=2, network=network)
        yield f"{network}-loopback", world.fabric.path(0, 0)


@given(bws=st.lists(st.floats(min_value=50.0, max_value=5000.0),
                    min_size=6, max_size=6),
       ovs=st.lists(st.floats(min_value=0.0, max_value=2.0),
                    min_size=6, max_size=6),
       chunk=st.sampled_from([1000, 4096, 16 * 1024]),
       msgs=st.lists(st.tuples(st.integers(min_value=0, max_value=60_000),
                               st.floats(min_value=0.0, max_value=500.0)),
                     min_size=1, max_size=8))
@settings(max_examples=60, deadline=None)
def test_property_schedule_is_split_phase_walk(bws, ovs, chunk, msgs):
    """`schedule` reserves through the same kernel as the injector's
    split-phase walk (source stages, then destination stages, on the
    same chunk entries): times and server state agree bit for bit, and
    each server counts every chunk once per stage it holds (the SRAM
    server holds two) with that chunk's bytes."""
    sim = Simulator()
    whole, whole_srv = _mixed_path(sim, bws, ovs, chunk)
    split, split_srv = _mixed_path(sim, bws, ovs, chunk)
    chunks = sum(len(chunk_sizes(nbytes, chunk)) for nbytes, _ in msgs)
    nbytes_total = sum(nbytes for nbytes, _ in msgs)
    for nbytes, t0 in msgs:
        local, delivered = whole.schedule(nbytes, start=t0, local_stage=2)
        entries = [[t0, t0, csize, i == 0]
                   for i, csize in enumerate(chunk_sizes(nbytes, chunk))]
        src_local = split.walk_range(0, 5, entries, 2)
        split.walk_range(5, len(split.stages), entries)
        assert local == max(t0, src_local)
        assert delivered == max([t0] + [e[1] for e in entries])
    for i, (a, b) in enumerate(zip(whole_srv, split_srv)):
        assert (a.next_free, a.busy_time, a.transfers, a.bytes_moved) == \
            (b.next_free, b.busy_time, b.transfers, b.bytes_moved)
        stages = 2 if i == 2 else 1
        assert (a.transfers, a.bytes_moved) == \
            (chunks * stages, nbytes_total * stages)


def _simulate(spec, tracer=None):
    """An app payload with the metrics its world reported to a collector
    (the collector keeps the host wall time, which is not a result)."""
    from repro.apps.runner import simulate_app_spec
    from repro.obs.collector import collect

    with collect() as col:
        payload = simulate_app_spec(spec, tracer=tracer)
    return dict(payload, metrics=col.metrics.to_dict())


@pytest.mark.parametrize("network", ["infiniband", "myrinet", "quadrics"])
def test_hw_tracing_does_not_change_results(network):
    """Tracing is off the result path: the traced walk must reproduce the
    hot walk's arithmetic to the last ulp (Myrinet's IS.S once differed)."""
    from repro.core.tracing import Tracer
    from repro.runtime import RunSpec

    spec = RunSpec.app("is", "S", network, 4, record=True)
    plain = _simulate(spec)
    tracer = Tracer().enable(["hw"])
    traced = _simulate(spec, tracer=tracer)
    assert any(r.category == "hw" for r in tracer.records)
    assert traced["recorder"] == plain["recorder"]
    assert traced == plain


#: hw counters of one 1 MB ``measure_bandwidth`` run per fabric (the
#: paper's W=16 stream), pinned to the last bit
HW_PINS = {
    "infiniband": {
        "hw.bus.busy_us": 534659.3902339628, "hw.bus.bytes": 503374168.0,
        "hw.bus.transfers": 32162.0, "hw.nic.mproc_busy_us": 10521.243374169966,
        "hw.nic.rx_busy_us": 151946.91236370493,
        "hw.nic.tx_busy_us": 151946.91236370493,
        "hw.switch.busy_us": 284056.2222272073, "hw.switch.bytes": 251687084.0,
        "hw.wire.busy_us": 284056.2222272073, "hw.wire.bytes": 251687084.0,
    },
    "myrinet": {
        "hw.bus.busy_us": 534667.3614920656, "hw.bus.bytes": 503381816.0,
        "hw.bus.transfers": 32162.0, "hw.nic.mproc_busy_us": 22325.903381813412,
        "hw.nic.rx_busy_us": 485690.6592650024,
        "hw.nic.tx_busy_us": 485690.6592650024,
        "hw.sram.busy_us": 1411872.493519586,
        "hw.switch.busy_us": 1014930.8863956642, "hw.switch.bytes": 251690908.0,
        "hw.wire.busy_us": 1014930.8863956642, "hw.wire.bytes": 251690908.0,
    },
    "quadrics": {
        "hw.bus.busy_us": 1209829.2687774273, "hw.bus.bytes": 503331860.0,
        "hw.bus.transfers": 31681.0, "hw.nic.mproc_busy_us": 35108.963339560716,
        "hw.nic.rx_busy_us": 772160.6229540501,
        "hw.nic.tx_busy_us": 772160.6229540501,
        "hw.switch.busy_us": 695684.0736279039, "hw.switch.bytes": 251669780.0,
        "hw.wire.busy_us": 695684.0736279039, "hw.wire.bytes": 251669780.0,
    },
}


@pytest.mark.parametrize("network", sorted(HW_PINS))
def test_bandwidth_run_hw_counters_pinned(network):
    """Bus, wire, switch, SRAM and NIC counters of a 1 MB stream are
    exact: busy times keep their per-chunk float summation order, and
    the span tallies read back every chunk and byte."""
    from repro.microbench.bandwidth import measure_bandwidth
    from repro.obs.collector import collect

    with collect() as col:
        measure_bandwidth(network, sizes=(1 << 20,))
    counters = col.metrics.to_dict()["counters"]
    hw = {k: v for k, v in counters.items()
          if k.startswith(("hw.bus.", "hw.wire.", "hw.switch.", "hw.nic."))
          or k == "hw.sram.busy_us"}
    assert hw == HW_PINS[network]
