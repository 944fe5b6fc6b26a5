"""Unit tests for the discrete-event kernel (events, processes, clock)."""

import gc

import pytest

from repro.core.engine import SimulationError, Simulator, Timeout, set_wall_timeout
from repro.core.process import Process, ProcessKilled


class TestEvent:
    def test_succeed_delivers_value(self):
        sim = Simulator()
        ev = sim.event()
        seen = []
        ev.add_callback(lambda e: seen.append(e.value))
        ev.succeed(42, delay=3.0)
        sim.run()
        assert seen == [42]
        assert sim.now == 3.0

    def test_double_trigger_rejected(self):
        sim = Simulator()
        ev = sim.event()
        ev.succeed(1)
        with pytest.raises(SimulationError):
            ev.succeed(2)
        with pytest.raises(SimulationError):
            ev.fail(RuntimeError("x"))

    def test_fail_requires_exception(self):
        sim = Simulator()
        with pytest.raises(TypeError):
            sim.event().fail("not an exception")

    def test_late_callback_fires_immediately(self):
        sim = Simulator()
        ev = sim.event()
        ev.succeed("v")
        sim.run()
        seen = []
        ev.add_callback(lambda e: seen.append(e.value))
        assert seen == ["v"]

    def test_ok_and_exception_properties(self):
        sim = Simulator()
        good = sim.event()
        good.succeed(1)
        assert good.ok and good.exception is None
        bad = sim.event()
        err = ValueError("boom")
        bad.fail(err)
        assert not bad.ok
        assert bad.exception is err
        with pytest.raises(ValueError):
            _ = bad.value


class TestTimeout:
    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            Timeout(sim, -1.0)

    def test_timeout_ordering_is_fifo_for_ties(self):
        sim = Simulator()
        order = []
        for i in range(5):
            t = sim.timeout(1.0, value=i)
            t.add_callback(lambda e: order.append(e.value))
        sim.run()
        assert order == [0, 1, 2, 3, 4]

    def test_clock_advances_monotonically(self):
        sim = Simulator()
        stamps = []
        for d in (5.0, 1.0, 3.0):
            sim.timeout(d).add_callback(lambda e: stamps.append(sim.now))
        sim.run()
        assert stamps == [1.0, 3.0, 5.0]


class TestProcess:
    def test_return_value_becomes_event_value(self):
        sim = Simulator()

        def proc():
            yield sim.timeout(2)
            return "done"

        p = sim.spawn(proc())
        sim.run()
        assert p.value == "done"
        assert not p.is_alive

    def test_exception_propagates_to_joiner(self):
        sim = Simulator()

        def bad():
            yield sim.timeout(1)
            raise ValueError("inner")

        def joiner():
            yield sim.spawn(bad())

        j = sim.spawn(joiner())
        sim.run()
        assert isinstance(j.exception, ValueError)

    def test_yielding_non_event_is_an_error(self):
        sim = Simulator()

        def wrong():
            yield 42

        p = sim.spawn(wrong())
        sim.run()
        assert isinstance(p.exception, SimulationError)

    def test_requires_generator(self):
        sim = Simulator()
        with pytest.raises(TypeError):
            Process(sim, lambda: None)  # type: ignore[arg-type]

    def test_kill_stops_process(self):
        sim = Simulator()
        log = []

        def immortal():
            try:
                while True:
                    yield sim.timeout(1)
                    log.append(sim.now)
            except ProcessKilled:
                log.append("killed")
                raise

        p = sim.spawn(immortal())

        def killer():
            yield sim.timeout(2.5)
            p.kill()

        sim.spawn(killer())
        sim.run()
        assert log == [1.0, 2.0, "killed"]
        assert not p.is_alive

    def test_processes_interleave_deterministically(self):
        sim = Simulator()
        log = []

        def worker(name, period):
            for _ in range(3):
                yield sim.timeout(period)
                log.append((name, sim.now))

        sim.spawn(worker("a", 1.0))
        sim.spawn(worker("b", 1.0))
        sim.run()
        assert log == [("a", 1.0), ("b", 1.0), ("a", 2.0), ("b", 2.0),
                       ("a", 3.0), ("b", 3.0)]

    def test_subgenerator_with_yield_from(self):
        sim = Simulator()

        def inner():
            yield sim.timeout(1)
            return 10

        def outer():
            v = yield from inner()
            yield sim.timeout(1)
            return v + 1

        p = sim.spawn(outer())
        sim.run()
        assert p.value == 11
        assert sim.now == 2.0


class TestRun:
    def test_run_until_event(self):
        sim = Simulator()

        def proc():
            yield sim.timeout(4)
            return "x"

        p = sim.spawn(proc())
        sim.timeout(100)  # later noise event
        assert sim.run(until_event=p) == "x"
        assert sim.now == 4.0

    def test_run_until_time_stops_clock(self):
        sim = Simulator()
        sim.timeout(10)
        sim.run(until=5.0)
        assert sim.now == 5.0

    def test_deadlock_detection(self):
        sim = Simulator()

        def stuck():
            yield sim.event()  # never triggered

        p = sim.spawn(stuck())
        with pytest.raises(SimulationError, match="deadlock"):
            sim.run(until_event=p)

    def test_horizon_exceeded_while_waiting(self):
        sim = Simulator()

        def slow():
            yield sim.timeout(100)

        p = sim.spawn(slow())
        with pytest.raises(SimulationError, match="horizon"):
            sim.run(until=10.0, until_event=p)

    def test_events_processed_counter(self):
        sim = Simulator()
        for _ in range(7):
            sim.timeout(1)
        sim.run()
        assert sim.events_processed == 7


class TestClockSemantics:
    def test_run_until_advances_clock_on_early_drain(self):
        sim = Simulator()
        sim.timeout(3.0)
        sim.run(until=50.0)
        assert sim.now == 50.0

    def test_priority_orders_same_timestamp(self):
        from repro.core.engine import PRIO_NORMAL, PRIO_URGENT

        sim = Simulator()
        order = []
        normal = sim.event()
        urgent = sim.event()
        normal.add_callback(lambda e: order.append("normal"))
        urgent.add_callback(lambda e: order.append("urgent"))
        normal.succeed(delay=1.0, priority=PRIO_NORMAL)
        urgent.succeed(delay=1.0, priority=PRIO_URGENT)
        sim.run()
        assert order == ["urgent", "normal"]


class TestFastEventCore:
    """Behaviour pins for the refactored hot path: slotted ready queues,
    ``schedule_at``, ``Delay`` yields and ``succeed_now`` chains."""

    def test_schedule_at_runs_callable_and_counts(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(2.0, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [2.0]
        assert sim.events_processed == 1

    def test_schedule_at_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError, match="negative"):
            sim.schedule_at(-1.0, lambda: None)

    def test_schedule_at_orders_with_timeouts_by_seq(self):
        # swapping a Timeout for schedule_at must not change same-time
        # ordering: both consume one seq and fire FIFO within a slot
        sim = Simulator()
        order = []
        sim.timeout(1.0).add_callback(lambda e: order.append("t1"))
        sim.schedule_at(1.0, lambda: order.append("s1"))
        sim.timeout(1.0).add_callback(lambda e: order.append("t2"))
        sim.schedule_at(1.0, lambda: order.append("s2"))
        sim.run()
        assert order == ["t1", "s1", "t2", "s2"]

    def test_zero_delay_during_run_urgent_before_normal(self):
        # zero-delay entries scheduled *while running* take the ready
        # deques; urgent ones must still fire before normal ones
        from repro.core.engine import PRIO_URGENT

        sim = Simulator()
        order = []

        def proc():
            yield sim.timeout(1.0)
            sim.schedule_at(0.0, lambda: order.append("normal"))
            sim.schedule_at(0.0, lambda: order.append("urgent"),
                            priority=PRIO_URGENT)
            yield sim.timeout(1.0)

        sim.spawn(proc())
        sim.run()
        assert order == ["urgent", "normal"]

    def test_same_slot_fifo_is_stable_at_scale(self):
        # seq tie-break: many same-time same-priority entries fire in
        # exactly the order they were scheduled (deque path during run)
        sim = Simulator()
        order = []

        def proc():
            yield sim.timeout(1.0)
            for i in range(100):
                sim.schedule_at(0.0, lambda i=i: order.append(i))
            yield sim.timeout(1.0)

        sim.spawn(proc())
        sim.run()
        assert order == list(range(100))

    def test_delay_yield_matches_timeout(self):
        # yield Delay(d) must be indistinguishable from yield timeout(d)
        from repro.core.engine import Delay

        def body(sim, pause):
            yield pause(1.5)
            yield pause(2.5)
            return sim.now

        sim_a = Simulator()
        pa = sim_a.spawn(body(sim_a, sim_a.timeout))
        sim_a.run()
        sim_b = Simulator()
        pb = sim_b.spawn(body(sim_b, Delay))
        sim_b.run()
        assert pa.value == pb.value == 4.0
        assert sim_a.events_processed == sim_b.events_processed

    def test_peak_queue_depth_tracks_high_water_mark(self):
        sim = Simulator()
        for i in range(5):
            sim.timeout(float(i + 1))
        assert sim.peak_queue_depth == 5
        sim.run()
        # draining does not lower the recorded peak
        assert sim.peak_queue_depth == 5

    def test_succeed_now_delivers_synchronously(self):
        sim = Simulator()
        ev = sim.event()
        seen = []
        ev.add_callback(lambda e: seen.append(e.value))
        ev.succeed_now("v")
        # delivered inside the call: no engine entry, no run() needed
        assert seen == ["v"]
        assert ev.processed and ev.ok and ev.value == "v"
        assert sim.events_processed == 0

    def test_succeed_now_double_trigger_rejected(self):
        sim = Simulator()
        ev = sim.event()
        ev.succeed_now(1)
        with pytest.raises(SimulationError, match="already triggered"):
            ev.succeed_now(2)
        with pytest.raises(SimulationError, match="already triggered"):
            ev.succeed(3)

    def test_succeed_now_late_waiter_fires_immediately(self):
        sim = Simulator()
        ev = sim.event()
        ev.succeed_now(7)
        late = []
        ev.add_callback(lambda e: late.append(e.value))
        assert late == [7]

    def test_succeed_now_resumes_waiting_process_inline(self):
        # a completion chain: the waiter continues at the same sim time,
        # *before* the triggering process's next statement
        sim = Simulator()
        order = []

        def waiter(ev):
            v = yield ev
            order.append(("woke", v, sim.now))

        def trigger(ev):
            yield sim.timeout(3.0)
            ev.succeed_now("done")
            order.append(("after-trigger", sim.now))

        ev = sim.event()
        sim.spawn(waiter(ev))
        sim.spawn(trigger(ev))
        sim.run()
        assert order == [("woke", "done", 3.0), ("after-trigger", 3.0)]


class TestCollectorPause:
    """``Simulator.run`` pauses the cyclic collector for its loop only."""

    def test_paused_inside_and_restored_after(self, caller_gc):
        sim = Simulator()
        seen = []
        sim.schedule_at(1.0, lambda: seen.append(gc.isenabled()))
        sim.run()
        assert seen == [False]
        assert gc.isenabled() is caller_gc

    def test_restored_after_deadlock(self, caller_gc):
        sim = Simulator()

        def stuck():
            yield sim.event()  # never triggered

        p = sim.spawn(stuck())
        with pytest.raises(SimulationError, match="deadlock"):
            sim.run(until_event=p)
        assert gc.isenabled() is caller_gc

    def test_restored_after_horizon(self, caller_gc):
        sim = Simulator()

        def slow():
            yield sim.timeout(100)

        p = sim.spawn(slow())
        with pytest.raises(SimulationError, match="horizon"):
            sim.run(until=10.0, until_event=p)
        assert gc.isenabled() is caller_gc

    def test_restored_after_wall_clock_timeout(self, caller_gc):
        sim = Simulator()

        def tick():
            sim.schedule_at(1.0, tick)  # livelock: never drains

        sim.schedule_at(1.0, tick)
        set_wall_timeout(0.01)
        try:
            with pytest.raises(SimulationError, match="wall-clock timeout"):
                sim.run()
        finally:
            set_wall_timeout(None)
        assert gc.isenabled() is caller_gc

    @staticmethod
    def _assert_run_leaves_no_cycles(world, rank_fn):
        """The invariant behind the pause: a run makes no cyclic garbage,
        so the paused collector never has anything to free.  The caller
        keeps the collector off too, so no automatic collection after
        the loop can free a cycle before the count."""
        was_on = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            world.run(rank_fn)
            found = gc.collect()
        finally:
            if was_on:
                gc.enable()
        assert found == 0

    def test_routed_alltoall_makes_no_cyclic_garbage(self):
        from repro.mpi.world import MPIWorld

        def rank_fn(comm):
            sbuf = comm.alloc(1024 * comm.size)
            rbuf = comm.alloc(1024 * comm.size)
            for _ in range(2):
                yield from comm.alltoall(sbuf, rbuf)

        world = MPIWorld(16, network="myrinet", record=False,
                         net_overrides={"topology": "clos"})
        self._assert_run_leaves_no_cycles(world, rank_fn)

    def test_nas_is_makes_no_cyclic_garbage(self):
        from repro.apps.classes import get_problem
        from repro.apps.nas import ISBench
        from repro.mpi.world import MPIWorld

        cfg = get_problem("is", "S")
        benches = {r: ISBench(cfg, 4) for r in range(4)}

        def rank_fn(comm):
            bench = benches[comm.rank]
            yield from bench.setup(comm)
            for it in range(cfg.niters):
                yield from bench.iteration(comm, it)
            yield from bench.finalize(comm)

        self._assert_run_leaves_no_cycles(MPIWorld(4, network="infiniband"), rank_fn)
