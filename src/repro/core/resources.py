"""Queueing primitives: resources, mailboxes, FIFO bandwidth servers.

Three primitives cover every contention point in the simulated cluster:

- :class:`Resource` — counted semaphore with FIFO grant order (NIC
  doorbells, DMA engines, SRAM staging space).
- :class:`Store` — unbounded FIFO mailbox (packet queues between layers).
- :class:`FifoServer` — *analytic* FIFO bandwidth server used for buses,
  links and NIC processing pipelines.  It keeps a single ``next_free``
  timestamp instead of simulating a server process, so a transfer costs
  O(1) regardless of contention.  This is the key to simulating NAS-scale
  message counts quickly.

Plus composition helpers: :class:`Gate` (level-triggered broadcast
event), :class:`Condition`, :class:`AllOf`, :class:`AnyOf`.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Iterable, List, Optional

from repro.core.engine import PRIO_URGENT, Event, SimulationError, Simulator

__all__ = [
    "Resource",
    "Store",
    "FifoServer",
    "Gate",
    "Condition",
    "AllOf",
    "AnyOf",
]


class Resource:
    """Counted resource with FIFO grant order.

    Usage from a process::

        yield res.acquire()
        try:
            ...
        finally:
            res.release()
    """

    def __init__(self, sim: Simulator, capacity: int = 1, name: str = "resource") -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self.in_use = 0
        self._waiters: deque[Event] = deque()
        self._acq_name = name + ".acquire"

    def acquire(self) -> Event:
        ev = Event(self.sim, self._acq_name)
        if self.in_use < self.capacity and not self._waiters:
            self.in_use += 1
            ev.succeed(priority=PRIO_URGENT)
        else:
            self._waiters.append(ev)
        return ev

    def try_acquire(self) -> bool:
        """Non-blocking acquire; True on success."""
        if self.in_use < self.capacity and not self._waiters:
            self.in_use += 1
            return True
        return False

    def release(self) -> None:
        if self.in_use <= 0:
            raise SimulationError(f"release of idle resource {self.name}")
        if self._waiters:
            ev = self._waiters.popleft()
            ev.succeed(priority=PRIO_URGENT)  # slot passes directly to waiter
        else:
            self.in_use -= 1

    @property
    def queue_len(self) -> int:
        return len(self._waiters)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Resource {self.name} {self.in_use}/{self.capacity} q={len(self._waiters)}>"


class Store:
    """Unbounded FIFO mailbox with blocking ``get``.

    ``put`` is immediate (never blocks); ``get`` returns an Event that
    fires with the oldest item.  Items are delivered in put order, getters
    are served in get order.
    """

    def __init__(self, sim: Simulator, name: str = "store") -> None:
        self.sim = sim
        self.name = name
        self._items: deque = deque()
        self._getters: deque[Event] = deque()
        self._get_name = name + ".get"

    def put(self, item: Any) -> None:
        if self._getters:
            self._getters.popleft().succeed(item, priority=PRIO_URGENT)
        else:
            self._items.append(item)

    def get(self) -> Event:
        ev = Event(self.sim, self._get_name)
        if self._items:
            ev.succeed(self._items.popleft(), priority=PRIO_URGENT)
        else:
            self._getters.append(ev)
        return ev

    def get_nowait(self) -> Any:
        """Pop an item if available, else raise LookupError."""
        if not self._items:
            raise LookupError(f"store {self.name} empty")
        return self._items.popleft()

    def __len__(self) -> int:
        return len(self._items)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Store {self.name} items={len(self._items)} getters={len(self._getters)}>"


class FifoServer:
    """Analytic FIFO bandwidth server.

    Models a serial medium (bus, link direction, NIC engine) with
    bandwidth ``bw_bytes_per_us`` and an optional fixed per-transfer
    overhead.  A transfer enqueued at time *t* starts at
    ``max(t, next_free)`` and occupies the server for
    ``overhead + nbytes / bw``; the returned event fires at completion.

    Because the server state is just a timestamp, contention costs O(1)
    per transfer — no server process, no per-byte events.

    ``transfers`` and ``bytes_moved`` count this server's own
    :meth:`transfer` calls plus the chunks that pipeline walks reserved
    on it.  A walk tallies its chunks once per span, in a shared
    ``[chunks, bytes]`` cell, instead of bumping two counters on every
    server per chunk; :meth:`count_span` registers such a cell with the
    number of stages this server holds in the span, and the two
    properties read the cells back exactly.
    """

    def __init__(
        self,
        sim: Simulator,
        bw_bytes_per_us: float,
        overhead_us: float = 0.0,
        name: str = "server",
    ) -> None:
        if bw_bytes_per_us <= 0:
            raise ValueError("bandwidth must be positive")
        self.sim = sim
        self.bw = float(bw_bytes_per_us)
        self.overhead = float(overhead_us)
        self.name = name
        self._ev_name = name + ".xfer"
        self.next_free: float = 0.0
        self.busy_time: float = 0.0
        self._transfers = 0
        self._bytes = 0
        #: (cell, stages) pairs: span tallies this server reads back
        self._cells: List[tuple] = []

    def count_span(self, cell: list, stages: int) -> None:
        """Read ``cell = [chunks, bytes]`` back as ``stages`` reservations
        per chunk (a span may hold one server at several stages)."""
        self._cells.append((cell, stages))

    @property
    def transfers(self) -> int:
        """Reservations made on this server so far."""
        n = self._transfers
        for cell, stages in self._cells:
            n += cell[0] * stages
        return n

    @property
    def bytes_moved(self) -> int:
        """Bytes this server has served so far (per reservation)."""
        n = self._bytes
        for cell, stages in self._cells:
            n += cell[1] * stages
        return n

    def occupancy_us(self, nbytes: float, overhead: Optional[float] = None) -> float:
        """Service time for a transfer of ``nbytes``."""
        ov = self.overhead if overhead is None else overhead
        return ov + nbytes / self.bw

    def transfer(self, nbytes: float, overhead: Optional[float] = None) -> Event:
        """Enqueue a transfer; the event fires at completion time."""
        if nbytes < 0:
            raise ValueError("negative transfer size")
        now = self.sim.now
        start = now if now > self.next_free else self.next_free
        dur = self.occupancy_us(nbytes, overhead)
        done = start + dur
        self.next_free = done
        self.busy_time += dur
        self._transfers += 1
        self._bytes += int(nbytes)
        ev = Event(self.sim, self._ev_name)
        ev.succeed(delay=done - now)
        return ev

    def utilization(self) -> float:
        """Fraction of elapsed sim time this server was busy."""
        if self.sim.now <= 0:
            return 0.0
        return min(1.0, self.busy_time / self.sim.now)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<FifoServer {self.name} bw={self.bw:.1f}B/us next_free={self.next_free:.3f}>"


class Gate:
    """Level-triggered broadcast signal.

    ``wait()`` returns an event that fires as soon as the gate is (or
    becomes) open.  Opening releases *all* current waiters.  Useful for
    "queue became non-empty" style progress-engine wakeups.
    """

    def __init__(self, sim: Simulator, open_: bool = False, name: str = "gate") -> None:
        self.sim = sim
        self.name = name
        self._open = open_
        self._waiters: List[Event] = []
        self._ev_name = name + ".wait"

    @property
    def is_open(self) -> bool:
        return self._open

    def wait(self) -> Event:
        ev = Event(self.sim, self._ev_name)
        if self._open:
            ev.succeed(priority=PRIO_URGENT)
        else:
            self._waiters.append(ev)
        return ev

    def open(self) -> None:
        self._open = True
        waiters, self._waiters = self._waiters, []
        for ev in waiters:
            ev.succeed(priority=PRIO_URGENT)

    def close(self) -> None:
        self._open = False

    def pulse(self) -> None:
        """Release current waiters without leaving the gate open."""
        waiters, self._waiters = self._waiters, []
        for ev in waiters:
            ev.succeed(priority=PRIO_URGENT)


class Condition(Event):
    """Base for composite events over a set of child events."""

    __slots__ = ("events", "_pending")

    def __init__(self, sim: Simulator, events: Iterable[Event], name: str) -> None:
        super().__init__(sim, name=name)
        self.events: List[Event] = list(events)
        self._pending = len(self.events)
        if not self.events:
            self.succeed([])
            return
        for ev in self.events:
            ev.add_callback(self._child_fired)

    def _child_fired(self, ev: Event) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


class AllOf(Condition):
    """Fires when every child has fired; value = list of child values."""

    __slots__ = ()

    def __init__(self, sim: Simulator, events: Iterable[Event]) -> None:
        super().__init__(sim, events, name="all_of")

    def _child_fired(self, ev: Event) -> None:
        if self.triggered:
            return
        if ev.exception is not None:
            self.fail(ev.exception)
            return
        self._pending -= 1
        if self._pending == 0:
            self.succeed([e._value for e in self.events])


class AnyOf(Condition):
    """Fires when the first child fires; value = (index, value)."""

    __slots__ = ()

    def __init__(self, sim: Simulator, events: Iterable[Event]) -> None:
        super().__init__(sim, events, name="any_of")

    def _child_fired(self, ev: Event) -> None:
        if self.triggered:
            return
        if ev.exception is not None:
            self.fail(ev.exception)
            return
        self.succeed((self.events.index(ev), ev._value))
