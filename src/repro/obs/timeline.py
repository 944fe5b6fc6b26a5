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
default interval, or a number of microseconds) sets the interval of the
spec's :class:`~repro.obs.collector.Collector`; every world built under
it installs a sampler, and the per-world timelines land in the payload
under ``payload["timeline"]``.  Specs without the param digest and
execute exactly as before — the sampler does not exist.

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

from typing import Dict, List

__all__ = ["DEFAULT_INTERVAL_US", "MAX_SAMPLES", "TimelineSampler"]

#: sampling interval when ``params["timeline"]`` is just ``True``
DEFAULT_INTERVAL_US = 10.0
#: stored-row cap; hitting it halves the rows and doubles the interval
MAX_SAMPLES = 512


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

    def __init__(self, world, interval_us: float,
                 max_samples: int = MAX_SAMPLES) -> None:
        self.world = world
        self.sim = world.sim
        self.interval = float(interval_us)
        self.max_samples = max(8, int(max_samples))
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
