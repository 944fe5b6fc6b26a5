"""Unit + property tests for resources, stores, FIFO servers, conditions."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import SimulationError, Simulator
from repro.core.resources import AllOf, AnyOf, FifoServer, Gate, Resource, Store
from repro.hardware.path import PipelinePath, Stage


def _serve_at(srv, arrival, nbytes):
    """Reserve ``srv`` for one burst arriving at ``arrival`` through the
    path kernel; returns the absolute completion time."""
    path = PipelinePath(srv.sim, [Stage(srv)], chunk_bytes=1 << 30)
    return path.schedule(nbytes, start=arrival)[1]


class TestResource:
    def test_fifo_grant_order(self):
        sim = Simulator()
        res = Resource(sim, capacity=1)
        order = []

        def user(name, hold):
            yield res.acquire()
            order.append((name, sim.now))
            yield sim.timeout(hold)
            res.release()

        for i in range(3):
            sim.spawn(user(i, 2.0))
        sim.run()
        assert order == [(0, 0.0), (1, 2.0), (2, 4.0)]

    def test_capacity_gt_one(self):
        sim = Simulator()
        res = Resource(sim, capacity=2)
        assert res.try_acquire()
        assert res.try_acquire()
        assert not res.try_acquire()
        res.release()
        assert res.try_acquire()

    def test_release_idle_raises(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            Resource(sim).release()

    def test_bad_capacity(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            Resource(sim, capacity=0)


class TestStore:
    def test_put_then_get(self):
        sim = Simulator()
        store = Store(sim)
        store.put("a")
        store.put("b")
        got = []

        def getter():
            got.append((yield store.get()))
            got.append((yield store.get()))

        sim.spawn(getter())
        sim.run()
        assert got == ["a", "b"]

    def test_get_blocks_until_put(self):
        sim = Simulator()
        store = Store(sim)
        got = []

        def getter():
            got.append((yield store.get()))
            got.append(sim.now)

        def putter():
            yield sim.timeout(5)
            store.put("x")

        sim.spawn(getter())
        sim.spawn(putter())
        sim.run()
        assert got == ["x", 5.0]

    def test_get_nowait(self):
        sim = Simulator()
        store = Store(sim)
        with pytest.raises(LookupError):
            store.get_nowait()
        store.put(1)
        assert store.get_nowait() == 1
        assert len(store) == 0

    def test_multiple_getters_fifo(self):
        sim = Simulator()
        store = Store(sim)
        got = []

        def getter(name):
            item = yield store.get()
            got.append((name, item))

        sim.spawn(getter("g0"))
        sim.spawn(getter("g1"))

        def putter():
            yield sim.timeout(1)
            store.put("first")
            store.put("second")

        sim.spawn(putter())
        sim.run()
        assert got == [("g0", "first"), ("g1", "second")]


class TestFifoServer:
    def test_sequential_transfers_queue(self):
        sim = Simulator()
        srv = FifoServer(sim, bw_bytes_per_us=100.0, overhead_us=1.0)
        e1 = srv.transfer(100)  # 1 + 1 = 2us
        e2 = srv.transfer(200)  # starts at 2, +1+2 = 5
        done = []
        e1.add_callback(lambda e: done.append(sim.now))
        e2.add_callback(lambda e: done.append(sim.now))
        sim.run()
        assert done == [2.0, 5.0]

    def test_serve_at_future_arrival(self):
        """A reservation for a future arrival starts then, and a later
        call for an earlier arrival queues behind it (call order)."""
        sim = Simulator()
        srv = FifoServer(sim, bw_bytes_per_us=10.0)
        assert _serve_at(srv, 5.0, 10) == 6.0
        assert _serve_at(srv, 0.0, 10) == 7.0

    def test_utilization_and_stats(self):
        sim = Simulator()
        srv = FifoServer(sim, bw_bytes_per_us=1.0)
        srv.transfer(5)
        sim.run()
        assert srv.transfers == 1
        assert srv.bytes_moved == 5
        assert srv.utilization() == 1.0

    def test_zero_bandwidth_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            FifoServer(sim, bw_bytes_per_us=0)

    def test_negative_transfer_rejected(self):
        sim = Simulator()
        srv = FifoServer(sim, 1.0)
        with pytest.raises(ValueError):
            srv.transfer(-1)

    @given(sizes=st.lists(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_property_total_time_is_sum_of_service(self, sizes):
        """Back-to-back FIFO service: completion of last = sum of services."""
        sim = Simulator()
        srv = FifoServer(sim, bw_bytes_per_us=7.0, overhead_us=0.5)
        last = None
        for n in sizes:
            last = srv.transfer(n)
        expected = sum(0.5 + n / 7.0 for n in sizes)
        sim.run()
        assert srv.next_free == pytest.approx(expected)

    @given(arrivals=st.lists(st.floats(min_value=0, max_value=100), min_size=1, max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_property_serve_at_never_overlaps(self, arrivals):
        """Service intervals of path reservations never overlap (FIFO
        invariant)."""
        sim = Simulator()
        srv = FifoServer(sim, bw_bytes_per_us=3.0, overhead_us=0.1)
        prev_done = 0.0
        for a in arrivals:
            done = _serve_at(srv, a, 9)
            start = done - (0.1 + 3.0)
            assert start >= prev_done - 1e-9
            assert start >= a - 1e-9
            prev_done = done


class TestGate:
    def test_open_releases_all(self):
        sim = Simulator()
        gate = Gate(sim)
        hits = []

        def waiter(n):
            yield gate.wait()
            hits.append(n)

        for i in range(3):
            sim.spawn(waiter(i))

        def opener():
            yield sim.timeout(1)
            gate.open()

        sim.spawn(opener())
        sim.run()
        assert sorted(hits) == [0, 1, 2]
        assert gate.is_open

    def test_wait_on_open_gate_is_immediate(self):
        sim = Simulator()
        gate = Gate(sim, open_=True)
        hit = []

        def waiter():
            yield gate.wait()
            hit.append(sim.now)

        sim.spawn(waiter())
        sim.run()
        assert hit == [0.0]

    def test_pulse_does_not_leave_open(self):
        sim = Simulator()
        gate = Gate(sim)
        gate.pulse()
        assert not gate.is_open


class TestConditions:
    def test_allof_collects_values(self):
        sim = Simulator()
        evs = [sim.timeout(d, value=d) for d in (3.0, 1.0, 2.0)]
        combined = AllOf(sim, evs)
        sim.run()
        assert combined.value == [3.0, 1.0, 2.0]

    def test_allof_empty_fires_immediately(self):
        sim = Simulator()
        assert AllOf(sim, []).triggered

    def test_anyof_first_wins(self):
        sim = Simulator()
        evs = [sim.timeout(5, value="slow"), sim.timeout(1, value="fast")]
        any_ = AnyOf(sim, evs)
        sim.run(until_event=any_)
        assert any_.value == (1, "fast")

    def test_allof_propagates_failure(self):
        sim = Simulator()
        good = sim.timeout(1)
        bad = sim.event()
        bad.fail(RuntimeError("nope"), delay=0.5)
        combined = AllOf(sim, [good, bad])
        sim.run()
        assert isinstance(combined.exception, RuntimeError)
