"""Deterministic sim-time timeline sampling.

A :class:`TimelineSampler` rides inside an :class:`~repro.mpi.world.MPIWorld`
and snapshots *live* state — ready-queue depth, port/inbox queue
lengths, cumulative wire bytes, pipeline backlog, rendezvous
in-flight count, fault-plane retransmit counters — at fixed simulated
intervals.  Because the samples are taken at simulated times (not wall
times) and every probe only *reads* state, a timeline-enabled run is
exactly as deterministic as the run itself: serial and ``--jobs N``
execution produce byte-identical timeline payloads.

Opt-in is per spec: ``RunSpec.params["timeline"]`` (``True`` for the
default interval, or a number of microseconds) makes the executor wrap
the run in :func:`capture`; worlds built while a capture is active
install a sampler, and the collected per-world timelines land in the
payload under ``payload["timeline"]``.  Specs without the param digest
and execute exactly as before — the sampler does not exist.

Timing neutrality: sampler ticks are extra engine entries, but they
only read state, so the *times* of every other event are unchanged
(they do consume ``seq`` numbers, which preserves the relative order
of all pre-existing same-time entries).  The sampler stops
rescheduling itself the moment it is the only pending entry, so runs
still drain and deadlock detection still fires.

Memory is bounded: past ``max_samples`` stored rows the sampler
decimates (keeps every other row) and doubles its interval, so a
week-long simulated run still yields at most ``max_samples`` samples
on a uniform grid.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, List, Optional

__all__ = ["DEFAULT_INTERVAL_US", "MAX_SAMPLES", "TimelineConfig",
           "TimelineSampler", "capture", "active_capture"]

#: sampling interval when ``params["timeline"]`` is just ``True``
DEFAULT_INTERVAL_US = 10.0
#: stored-row cap; hitting it halves the rows and doubles the interval
MAX_SAMPLES = 512


class TimelineConfig:
    """One active capture: interval plus the per-world timelines collected."""

    __slots__ = ("interval_us", "max_samples", "collected")

    def __init__(self, interval_us: float,
                 max_samples: int = MAX_SAMPLES) -> None:
        if interval_us <= 0:
            raise ValueError(f"timeline interval must be > 0, "
                             f"got {interval_us!r}")
        self.interval_us = float(interval_us)
        self.max_samples = int(max_samples)
        #: one dict per world run inside the capture (see
        #: :meth:`TimelineSampler.finish` for the schema)
        self.collected: List[dict] = []


#: innermost active capture (a stack, mirroring ``metrics_sink``)
_CAPTURES: List[TimelineConfig] = []


@contextmanager
def capture(interval_us: float = DEFAULT_INTERVAL_US,
            max_samples: int = MAX_SAMPLES):
    """Collect a timeline from every world run inside the ``with`` body."""
    cfg = TimelineConfig(interval_us, max_samples)
    _CAPTURES.append(cfg)
    try:
        yield cfg
    finally:
        _CAPTURES.pop()


def active_capture() -> Optional[TimelineConfig]:
    """The innermost active capture, or None (the common case)."""
    return _CAPTURES[-1] if _CAPTURES else None


class _RndvWatch:
    """Live rendezvous in-flight counter, installed on every device.

    ``Ch3Device._count_msg`` bumps ``n`` when a rendezvous send starts
    and registers :meth:`dec` on the request's completion event, so the
    sampler reads the number of rendezvous transfers in flight *right
    now* — the queue the paper's buffer-reuse and hot-spot sections
    reason about.
    """

    __slots__ = ("n",)

    def __init__(self) -> None:
        self.n = 0

    def dec(self, _event) -> None:
        self.n -= 1


class TimelineSampler:
    """Periodic live-state snapshots of one world, on the sim clock."""

    def __init__(self, world, cfg: TimelineConfig) -> None:
        self.world = world
        self.sim = world.sim
        self.cfg = cfg
        self.interval = cfg.interval_us
        self.max_samples = max(8, cfg.max_samples)
        self.times: List[float] = []
        self.rows: List[Dict[str, float]] = []
        self._rndv = _RndvWatch()
        for dev in world.devices.values():
            dev.rndv_watch = self._rndv

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Take the t=0 sample and schedule the periodic tick."""
        self._sample(0.0)
        self.sim.schedule_at(self.interval, self._tick)

    def _tick(self) -> None:
        sim = self.sim
        self._sample(sim.now)
        # Stop when this tick was the only pending entry: the ranks are
        # done (or deadlocked), and rescheduling would keep the queues
        # non-empty forever — defeating run() drain and deadlock
        # detection alike.
        if sim.pending_entries == 0:
            return
        nxt = self.times[-1] + self.interval
        while nxt <= sim.now:
            nxt += self.interval
        sim.schedule_at(nxt - sim.now, self._tick)

    def _sample(self, now: float) -> None:
        sim = self.sim
        world = self.world
        row: Dict[str, float] = {
            "engine.pending": float(sim.pending_entries),
            "mpi.rndv.inflight": float(self._rndv.n),
        }
        row.update(world.fabric.timeline_sample(now))
        # host-progress devices queue arrivals on an inbox store; its
        # depth is the "port queue" a host-mode stack actually drains
        total = mx = 0
        for dev in world.devices.values():
            inbox = getattr(dev, "inbox", None)
            if inbox is not None:
                d = len(inbox)
                total += d
                if d > mx:
                    mx = d
        row["mpi.inbox.depth.total"] = float(total)
        row["mpi.inbox.depth.max"] = float(mx)
        # fault-plane retransmit counters are incremented live
        row.update(sim.metrics.counters_with_prefix("net.retx."))
        self.times.append(now)
        self.rows.append(row)
        if len(self.rows) >= self.max_samples:
            self.rows = self.rows[::2]
            self.times = self.times[::2]
            self.interval *= 2.0

    # ------------------------------------------------------------------
    def finish(self) -> dict:
        """Columnar JSON-able timeline for this world.

        Channels that appear mid-run (e.g. the first retransmit) are
        zero-filled for earlier samples, so every channel column has
        one value per stored time.
        """
        names = sorted({name for row in self.rows for name in row})
        return {
            "network": self.world.network,
            "nprocs": self.world.nprocs,
            "interval_us": self.interval,
            "samples": len(self.rows),
            "t": list(self.times),
            "channels": {name: [row.get(name, 0.0) for row in self.rows]
                         for name in names},
        }
