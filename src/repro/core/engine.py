"""Event core: simulated clock, ready queues and the base Event types.

The engine is deliberately minimal: an :class:`Event` is a one-shot
triggerable cell with callbacks; the :class:`Simulator` pops scheduled
entries in ``(time, priority, seq)`` order and fires them.  Generator
processes (see :mod:`repro.core.process`) are built on top by
registering a resume callback on whatever event they yield.

Hot-path design (see DESIGN.md §9):

* Entries live in **three queues**: a binary heap for future events and
  two FIFO deques — one per priority class — for entries scheduled with
  ``delay == 0`` while the run loop is active.  A zero-delay entry is
  always stamped with the *current* time and the next ``seq``, so each
  deque is internally sorted and a three-way front comparison restores
  the exact global ``(time, priority, seq)`` order the single heap used
  to produce.  Roughly half of all events in an MPI simulation are
  same-time handoffs (store puts, gate pulses, request completions);
  they now bypass the ``heappush``/``heappop`` pair entirely.
* :meth:`Simulator.schedule_at` schedules a **bare callable** instead of
  an Event — no allocation, no callback list — used for pure delays
  (:class:`Delay`) and internal wakeups.
* The run loop is **inlined**: no per-event method calls,
  ``until``/deadline checks hoisted (``until`` defaults to ``+inf`` so
  the horizon test is one float compare), and the wall-clock sampled
  every 4096 events through a local counter.
* Events store their first callback in a dedicated slot (``_cb1``) and
  only allocate a list for the second and later — the overwhelmingly
  common case is exactly one waiter.
* CPython's cyclic collector is **paused** while the loop runs
  (:func:`gc_paused`).  A run allocates hundreds of thousands of
  objects (events, requests, chunk states) that either live to the end
  or die by reference counting, so the collector's generational sweeps
  walk a growing heap and never find garbage.
"""

from __future__ import annotations

import gc
import time
from collections import deque
from contextlib import contextmanager
from heapq import heappop, heappush
from typing import Any, Callable, Optional

from repro.core.metrics import MetricsRegistry
from repro.core.tracing import Tracer

__all__ = ["Simulator", "Event", "Timeout", "Delay", "SimulationError",
           "set_wall_timeout", "get_wall_timeout", "gc_paused"]


class SimulationError(RuntimeError):
    """Raised for illegal engine operations (double trigger, deadlock...)."""


#: process-wide wall-clock budget (seconds) per Simulator.run() call;
#: None = unlimited.  Set by the runtime executor around each spec
#: (``--run-timeout``) so a livelocked run fails loudly instead of
#: hanging CI.  A module global (not a Simulator field) so it reaches
#: worlds built deep inside benchmark functions and worker processes.
_WALL_TIMEOUT_S: Optional[float] = None

#: how often (in processed events) the run loop samples the wall clock
_WALL_CHECK_MASK = 0x0FFF

_INF = float("inf")


def set_wall_timeout(seconds: Optional[float]) -> None:
    """Set (or clear, with None) the per-run wall-clock budget."""
    global _WALL_TIMEOUT_S
    _WALL_TIMEOUT_S = None if seconds is None else float(seconds)


def get_wall_timeout() -> Optional[float]:
    """The current per-run wall-clock budget in seconds, or None."""
    return _WALL_TIMEOUT_S


@contextmanager
def gc_paused():
    """Pause CPython's cyclic collector for the ``with`` block.

    For bulk work that allocates many objects but no reference cycles
    (the run loop, decoding cached results), where the collector's
    heap-growth sweeps only cost time.  The caller's setting is restored
    on every exit, and a collector the caller had off stays off.
    """
    was_on = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_on:
            gc.enable()


#: Priority used for ordinary events.
PRIO_NORMAL = 5
#: Priority for "urgent" bookkeeping events that must run before normal
#: events scheduled at the same timestamp (e.g. resource handoffs).
PRIO_URGENT = 0


class Event:
    """A one-shot occurrence in simulated time.

    An event starts *pending*, becomes *triggered* when given a value (or
    an exception), and is *processed* once the simulator has fired its
    callbacks.  Processes wait on events by yielding them.

    ``processed`` is the authoritative "already fired" flag; the first
    callback lives in ``_cb1`` and ``callbacks`` is lazily allocated for
    the second and later waiters.
    """

    __slots__ = ("sim", "_cb1", "callbacks", "_value", "_exc",
                 "triggered", "processed", "name")

    def __init__(self, sim: "Simulator", name: str = "") -> None:
        self.sim = sim
        self._cb1: Optional[Callable[["Event"], None]] = None
        self.callbacks: Optional[list] = None
        self._value: Any = None
        self._exc: Optional[BaseException] = None
        self.triggered = False
        self.processed = False
        self.name = name

    # -- inspection ---------------------------------------------------
    @property
    def ok(self) -> bool:
        """True once triggered successfully."""
        return self.triggered and self._exc is None

    @property
    def value(self) -> Any:
        """The success value (only meaningful once triggered)."""
        if self._exc is not None:
            raise self._exc
        return self._value

    @property
    def exception(self) -> Optional[BaseException]:
        return self._exc

    # -- triggering ---------------------------------------------------
    def succeed(self, value: Any = None, delay: float = 0.0, priority: int = PRIO_NORMAL) -> "Event":
        """Trigger this event with ``value`` after ``delay`` sim-time."""
        if self.triggered:
            raise SimulationError(f"event {self!r} already triggered")
        self.triggered = True
        self._value = value
        self.sim._schedule(self, delay, priority)
        return self

    def succeed_now(self, value: Any = None) -> "Event":
        """Trigger *and deliver* this event synchronously, right now.

        For same-timestamp completion chains (NIC completion -> handle
        done -> request done) where every waiter is already attached:
        delivers the same value at the same simulated time as
        ``succeed()`` with no delay, but without a trip through the
        event queue — the callbacks run inside the caller's dispatch
        instead of in a later same-time slot.  Late waiters still see
        the value via ``add_callback``'s processed-event path.  Not
        counted in ``events_processed`` (no engine entry exists).
        """
        if self.triggered:
            raise SimulationError(f"event {self!r} already triggered")
        self.triggered = True
        self._value = value
        self.processed = True
        cb = self._cb1
        if cb is not None:
            self._cb1 = None
            cb(self)
        cbs = self.callbacks
        if cbs is not None:
            self.callbacks = None
            for fn in cbs:
                fn(self)
        return self

    def fail(self, exc: BaseException, delay: float = 0.0, priority: int = PRIO_NORMAL) -> "Event":
        """Trigger this event with an exception after ``delay`` sim-time."""
        if self.triggered:
            raise SimulationError(f"event {self!r} already triggered")
        if not isinstance(exc, BaseException):
            raise TypeError("fail() requires an exception instance")
        self.triggered = True
        self._exc = exc
        self.sim._schedule(self, delay, priority)
        return self

    def add_callback(self, fn: Callable[["Event"], None]) -> None:
        """Run ``fn(event)`` when the event fires (immediately if fired)."""
        if self.processed:
            # Already processed: fire synchronously so late waiters still
            # observe the value.  This is what lets processes yield
            # already-completed events (e.g. a finished transfer).
            fn(self)
        elif self._cb1 is None:
            self._cb1 = fn
        else:
            cbs = self.callbacks
            if cbs is None:
                self.callbacks = [fn]
            else:
                cbs.append(fn)

    def remove_callback(self, fn: Callable[["Event"], None]) -> None:
        """Best-effort detach of a pending callback (no-op if absent)."""
        if self._cb1 is fn:
            cbs = self.callbacks
            if cbs:
                self._cb1 = cbs.pop(0)
            else:
                self._cb1 = None
        elif self.callbacks:
            try:
                self.callbacks.remove(fn)
            except ValueError:
                pass

    def _fire(self) -> None:
        """Deliver this event to its waiters (engine-internal)."""
        self.processed = True
        cb = self._cb1
        if cb is not None:
            self._cb1 = None
            cb(self)
        cbs = self.callbacks
        if cbs is not None:
            self.callbacks = None
            for fn in cbs:
                fn(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "processed" if self.processed else ("triggered" if self.triggered else "pending")
        label = self.name or self.__class__.__name__
        return f"<{label} {state} at t={self.sim.now:.3f}>"


class Timeout(Event):
    """An event that fires ``delay`` microseconds after creation."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None, priority: int = PRIO_NORMAL):
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        super().__init__(sim)
        self.delay = delay
        self.triggered = True
        self._value = value
        sim._schedule(self, delay, priority)


class Delay:
    """A pure pause a process may yield: no Event, no callback list.

    ``yield Delay(d)`` resumes the yielding process ``d`` microseconds
    later with value ``None``.  Semantically identical to yielding
    ``sim.timeout(d)`` (same priority class, same seq consumption, hence
    bit-identical ordering) but skips the Event allocation and callback
    registration — the engine schedules the process's resume bound
    method directly.  Only a *process* may yield one; it has no value,
    cannot fail and cannot be waited on by multiple waiters.
    """

    __slots__ = ("delay",)

    def __init__(self, delay: float) -> None:
        self.delay = delay


class Simulator:
    """Discrete-event simulator with a microsecond ``float`` clock."""

    def __init__(self) -> None:
        self.now: float = 0.0
        self._heap: list = []
        #: same-time ready queues (urgent / normal), only fed while running
        self._ready_u: deque = deque()
        self._ready_n: deque = deque()
        self._seq: int = 0
        self._nprocessed: int = 0
        self._npending: int = 0
        self._peak_pending: int = 0
        self._running = False
        #: per-run state other layers attach (pipeline paths share
        #: their span memos here)
        self.context: dict = {}
        #: per-run trace collector; off by default — hot paths guard
        #: every emission with a single cached ``tracer.enabled`` check
        self.tracer = Tracer()
        #: per-run named counters/gauges/histograms
        self.metrics = MetricsRegistry()

    # -- event factories ----------------------------------------------
    def event(self, name: str = "") -> Event:
        return Event(self, name)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def spawn(self, generator, name: str = "proc"):
        """Start a new generator process.  Returns the Process handle."""
        from repro.core.process import Process

        return Process(self, generator, name=name)

    # -- scheduling ---------------------------------------------------
    def _schedule(self, event: Event, delay: float, priority: int = PRIO_NORMAL) -> None:
        """Queue ``event`` to fire at ``now + delay`` (engine-internal)."""
        self._seq = seq = self._seq + 1
        self._npending = n = self._npending + 1
        if n > self._peak_pending:
            self._peak_pending = n
        if delay == 0.0 and self._running:
            if priority == PRIO_NORMAL:
                self._ready_n.append((self.now, PRIO_NORMAL, seq, event))
                return
            if priority == PRIO_URGENT:
                self._ready_u.append((self.now, PRIO_URGENT, seq, event))
                return
        heappush(self._heap, (self.now + delay, priority, seq, event))

    def schedule_at(self, delay: float, fn: Callable[[], None],
                    priority: int = PRIO_NORMAL) -> None:
        """Schedule a bare callable — no Event allocated, not cancellable.

        ``fn()`` is invoked (with no arguments) when the entry fires; it
        still consumes one ``seq`` and counts as one processed event, so
        swapping a Timeout for ``schedule_at`` changes neither ordering
        nor ``events_processed``.
        """
        if delay < 0:
            raise ValueError(f"negative schedule_at delay: {delay}")
        self._seq = seq = self._seq + 1
        self._npending = n = self._npending + 1
        if n > self._peak_pending:
            self._peak_pending = n
        if delay == 0.0 and self._running:
            if priority == PRIO_NORMAL:
                self._ready_n.append((self.now, PRIO_NORMAL, seq, fn))
                return
            if priority == PRIO_URGENT:
                self._ready_u.append((self.now, PRIO_URGENT, seq, fn))
                return
        heappush(self._heap, (self.now + delay, priority, seq, fn))

    def run(self, until: Optional[float] = None, until_event: Optional[Event] = None) -> Any:
        """Run until the queues drain, ``until`` time, or ``until_event`` fires.

        Returns ``until_event.value`` when given, else ``None``.
        """
        if self._running:
            raise SimulationError("run() is not reentrant")
        self._running = True
        wall = _WALL_TIMEOUT_S
        deadline = _INF if wall is None else time.monotonic() + wall
        horizon = _INF if until is None else until
        heap = self._heap
        ru = self._ready_u
        rn = self._ready_n
        pop_heap = heappop
        monotonic = time.monotonic
        n = self._nprocessed
        stop: Optional[list] = None
        if until_event is not None:
            stop = []
            until_event.add_callback(stop.append)
        try:
            with gc_paused():
                while True:
                    if stop is not None:
                        if stop:
                            return until_event.value
                        if not (ru or rn or heap):
                            raise SimulationError(
                                f"deadlock: event heap drained at t={self.now:.3f} "
                                f"while waiting for {until_event!r}"
                            )
                    elif not (ru or rn or heap):
                        break
                    # -- select the globally next entry (time, prio, seq) --
                    if ru:
                        e = ru[0]
                        src = 0
                        if rn and rn[0] < e:
                            e = rn[0]
                            src = 1
                        if heap and heap[0] < e:
                            e = heap[0]
                            src = 2
                        if src == 0:
                            ru.popleft()
                        elif src == 1:
                            rn.popleft()
                        else:
                            pop_heap(heap)
                    elif rn:
                        e = rn[0]
                        if heap and heap[0] < e:
                            e = pop_heap(heap)
                        else:
                            rn.popleft()
                    else:
                        e = pop_heap(heap)
                    t = e[0]
                    if t > horizon:
                        # push back: the entry has not fired
                        heappush(heap, e)
                        if stop is not None:
                            raise SimulationError(
                                f"simulation horizon {until} reached while waiting "
                                f"for {until_event!r}"
                            )
                        break
                    self.now = t
                    if not (n & _WALL_CHECK_MASK) and monotonic() > deadline:
                        heappush(heap, e)  # not fired; keep state consistent
                        raise SimulationError(
                            f"wall-clock timeout: run exceeded {wall}s "
                            f"(sim t={self.now:.3f}us, {n} events)")
                    n += 1
                    self._npending -= 1
                    obj = e[3]
                    if isinstance(obj, Event):
                        obj.processed = True
                        cb = obj._cb1
                        if cb is not None:
                            obj._cb1 = None
                            cb(obj)
                        cbs = obj.callbacks
                        if cbs is not None:
                            obj.callbacks = None
                            for fn in cbs:
                                fn(obj)
                    else:
                        obj()
                if until is not None and self.now < until:
                    self.now = until
                return None
        finally:
            self._nprocessed = n
            self._running = False
            # anything fast-pathed into the ready deques but unfired
            # (horizon stop) must survive into a future run() call
            if ru or rn:
                while ru:
                    heappush(heap, ru.popleft())
                while rn:
                    heappush(heap, rn.popleft())

    @property
    def events_processed(self) -> int:
        """Total events processed — useful for performance diagnostics.

        Updated when ``run()`` returns (the loop keeps a local counter);
        mid-run callbacks should not rely on it being current.
        """
        return self._nprocessed

    @property
    def pending_entries(self) -> int:
        """Currently scheduled entries (heap + ready deques).

        Unlike :attr:`events_processed` this is maintained *live* by the
        run loop, so mid-run probes (the timeline sampler) can read the
        instantaneous ready-queue depth.  Inside a callback the entry
        being dispatched has already been popped and is not counted.
        """
        return self._npending

    @property
    def peak_queue_depth(self) -> int:
        """High-water mark of simultaneously pending entries."""
        return self._peak_pending

    def __repr__(self) -> str:  # pragma: no cover
        pending = len(self._heap) + len(self._ready_u) + len(self._ready_n)
        return f"<Simulator t={self.now:.3f} pending={pending}>"
