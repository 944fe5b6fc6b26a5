"""Analytic pipelined message paths with cut-through forwarding.

A message travels host-bus -> NIC TX -> wire -> switch -> wire -> NIC RX
-> host-bus.  All three studied networks are *cut-through* end to end
(the paper notes wormhole/cut-through switching for all three fabrics),
so a message's serialization time is paid once — at the slowest stage —
while every stage still reserves occupancy that other traffic queues
behind.

Each chunk is walked through the stages analytically as a (head, tail)
pair:

- cut-through stage: service starts at ``max(head_in, next_free)``; the
  head leaves after the per-chunk overhead, the tail leaves at
  ``max(start + ov + nbytes/bw, tail_in + ov)`` — i.e. the stage can
  forward no faster than its own rate *or* than bytes arrive;
- store-and-forward stage (Myrinet's SRAM staging for large messages):
  service cannot start before the tail has fully arrived.

The stage's server ``next_free`` advances to the tail departure, so
contention (other messages, other chunks) is modelled exactly as a FIFO
queue.  Reservations are made in *call* order: two walks computed at
different sim times that overlap in the future are served in
computation order, an error bounded by one service time that leaves
steady-state throughput alone.  The walk costs O(stages x chunks)
arithmetic and posts a single engine event per message — the key to
simulating NAS-scale message counts quickly.  One kernel,
:meth:`PipelinePath.walk_span`, makes every reservation: the
injector's split-phase walks, :meth:`PipelinePath.schedule` and the
traced walk.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import List, Optional, Sequence, Tuple, Union

from repro.core.engine import Simulator
from repro.core.resources import FifoServer

__all__ = ["Stage", "PathSegment", "PipelinePath", "chunk_sizes"]

#: Default pipelining granularity (bytes): contention between messages
#: interleaves at this grain.
DEFAULT_CHUNK = 16 * 1024

#: ``Simulator.context`` key of the span memos shared by a run's paths
_SPAN_MEMOS = "hardware.path.spans"


def chunk_sizes(nbytes: int, chunk: int) -> List[int]:
    """Split ``nbytes`` into full chunks plus a remainder (never empty)."""
    if nbytes <= 0:
        return [0]
    full, rem = divmod(nbytes, chunk)
    sizes = [chunk] * full
    if rem:
        sizes.append(rem)
    return sizes


@dataclass
class Stage:
    """One pipeline stage: a shared FIFO server plus a fixed latency hop.

    ``overhead_us`` is the per-chunk service overhead (None = use the
    server's own default); ``first_chunk_extra_us`` is added to the first
    chunk only (descriptor fetch, DMA setup, route setup...).
    ``latency_us`` is pure propagation added after service.
    ``cut_through=False`` models store-and-forward staging.
    """

    server: Optional[FifoServer]
    overhead_us: Optional[float] = None
    first_chunk_extra_us: float = 0.0
    latency_us: float = 0.0
    cut_through: bool = True
    #: housekeeping the stage performs *after* forwarding each chunk
    #: (send retirement, CQE generation): occupies the server without
    #: delaying this message — but delaying whatever arrives next.
    trailing_us: float = 0.0
    name: str = ""


def _flatten(stage: Stage) -> tuple:
    """The constants the hot walk reads for one stage.

    Stages are fixed once built, and FifoServer.bw/.overhead are only
    ever written in __init__, so the effective overhead and the
    reciprocal bandwidth can be resolved once; only server.next_free
    and the stats mutate at run time, and those are reached through
    the server reference.
    """
    srv = stage.server
    if srv is None:
        return (None, 0.0, 0.0, stage.latency_us, stage.cut_through,
                stage.trailing_us, 0.0)
    ov = srv.overhead if stage.overhead_us is None else stage.overhead_us
    return (srv, ov, stage.first_chunk_extra_us, stage.latency_us,
            stage.cut_through, stage.trailing_us, 1.0 / srv.bw)


class PathSegment:
    """A fixed run of stages shared by many paths, flattened once.

    A fabric builds each node's source-side and destination-side stages
    as one segment apiece, and a topology builds one segment per routed
    link hop, so a routed pair's path is a few references to shared
    segments.  Paths share the Stage objects, which are never mutated
    after construction.
    """

    __slots__ = ("stages", "flat", "servers")

    def __init__(self, stages: Sequence[Stage]) -> None:
        self.stages = tuple(stages)
        self.flat = tuple(_flatten(s) for s in self.stages)
        #: the stages' servers in stage order; a path whose split falls
        #: at the end of its first segment scans these for its horizon
        self.servers = tuple(s.server for s in self.stages
                             if s.server is not None)


class PipelinePath:
    """An ordered sequence of stages a message flows through.

    ``split_stage`` marks the last *source-side* stage (typically the
    uplink): reservations up to it are made when the message is
    injected, while the destination-side stages are reserved by a
    deferred walk scheduled at the moment the data actually reaches
    them.  Without the split, a send burst would reserve far-future
    capacity on destination-side resources and spuriously serialize
    against cross-traffic (a FIFO server's scalar ``next_free`` cannot
    represent the idle gap before a future reservation).

    ``stages`` may mix single stages with :class:`PathSegment` objects;
    runs of single stages are gathered into segments of their own.  A
    path holds only its segments (``parts``) and the few values the
    injector reads per packet.  ``stages`` and ``flat`` are built from
    the parts on each read: only set-up, tracing and diagnostics read
    them.
    """

    __slots__ = ("sim", "parts", "chunk_bytes", "name", "split_stage",
                 "nstages", "src_end", "src_servers", "src_span",
                 "dst_span", "_spans")

    def __init__(self, sim: Simulator, stages: Sequence[Union[Stage, PathSegment]],
                 chunk_bytes: int = DEFAULT_CHUNK, name: str = "path",
                 split_stage: Optional[int] = None) -> None:
        self.sim = sim
        parts: List[PathSegment] = []
        loose: List[Stage] = []
        for part in stages:
            if isinstance(part, PathSegment):
                if loose:
                    parts.append(PathSegment(loose))
                    loose = []
                parts.append(part)
            else:
                loose.append(part)
        if loose:
            parts.append(PathSegment(loose))
        self.parts = tuple(parts)
        self.nstages = sum(len(part.stages) for part in parts)
        if not self.nstages:
            raise ValueError("path needs at least one stage")
        self.chunk_bytes = chunk_bytes
        self.name = name
        self.split_stage = split_stage
        #: the injector's split: stages [0, src_end) are reserved at
        #: injection, [src_end, nstages) as each chunk arrives
        self.src_end = self.nstages if split_stage is None else split_stage + 1
        #: servers of the source-side stages, for the injector's
        #: horizon scan (the furthest reservation among them)
        first = parts[0]
        if len(first.stages) == self.src_end:
            self.src_servers = first.servers
        else:
            self.src_servers = tuple(s.server for s in self.stages[:self.src_end]
                                     if s.server is not None)
        #: span memos of the two injector phases, resolved on first use
        #: (resolve_phases); dst_span stays None without a split
        self.src_span: Optional[tuple] = None
        self.dst_span: Optional[tuple] = None
        #: (s_from, s_to) -> span memo of any other range: schedule's
        #: whole path, the traced walk's single stages
        self._spans: Optional[dict] = None

    @property
    def stages(self) -> Tuple[Stage, ...]:
        """Every stage of the path, in order."""
        parts = self.parts
        if len(parts) == 1:
            return parts[0].stages
        return tuple(chain.from_iterable(part.stages for part in parts))

    @property
    def flat(self) -> tuple:
        """Every stage's flattened walk constants (see _flatten), in order."""
        parts = self.parts
        if len(parts) == 1:
            return parts[0].flat
        return tuple(chain.from_iterable(part.flat for part in parts))

    def _memo(self, s_from: int, s_to: int) -> tuple:
        """The memo of stages ``[s_from, s_to)``: their flattened
        constants and one ``[chunks, bytes]`` tally cell, which each of
        the span's servers reads back (see
        :class:`~repro.core.resources.FifoServer`).

        Memos are shared by content across the paths of one simulation
        (``sim.context``): the source phase of every path out of a node
        is one span, and so is the destination phase of every path
        into a node over one route's hops.  A cell per path would cost
        a 64-node all-to-all about 4 MB.
        """
        flat = self.flat[s_from:s_to]
        shared = self.sim.context.setdefault(_SPAN_MEMOS, {})
        memo = shared.get(flat)
        if memo is None:
            cell = [0, 0]
            holds: dict = {}
            for stage in flat:
                srv = stage[0]
                if srv is not None:
                    holds[srv] = holds.get(srv, 0) + 1
            for srv, stages in holds.items():
                srv.count_span(cell, stages)
            memo = shared[flat] = (flat, cell)
        return memo

    def resolve_phases(self) -> tuple:
        """Fill the ``src_span`` and ``dst_span`` slots; return ``src_span``.

        The injector walks every packet's source phase and each of its
        chunks' destination phase, so it reads their memos from these
        slots rather than probing a dict per walk.
        """
        self.src_span = self._memo(0, self.src_end)
        if self.src_end < self.nstages:
            self.dst_span = self._memo(self.src_end, self.nstages)
        return self.src_span

    def span(self, s_from: int, s_to: int) -> tuple:
        """The memo of stages ``[s_from, s_to)``, kept per range."""
        spans = self._spans
        if spans is None:
            spans = self._spans = {}
        memo = spans.get((s_from, s_to))
        if memo is None:
            memo = spans[(s_from, s_to)] = self._memo(s_from, s_to)
        return memo

    def walk_range(self, s_from: int, s_to: int, entries: Sequence[list],
                   local_stage: Optional[int] = None) -> float:
        """Walk chunk states through stages ``[s_from, s_to)`` in place.

        :meth:`walk_span` on the range's memo; see there.
        """
        return self.walk_span(self.span(s_from, s_to), s_from, entries,
                              local_stage)

    def walk_span(self, memo: tuple, s_from: int, entries: Sequence[list],
                  local_stage: Optional[int] = None,
                  _untraced: bool = False) -> float:
        """Walk chunk states through the span ``memo`` in place.

        ``memo`` covers stages ``[s_from, s_from + len(memo[0]))`` of
        this path (from :meth:`span`, or the ``src_span`` and
        ``dst_span`` slots).  ``entries`` is a list of ``[head, tail,
        nbytes, first]`` chunk states, updated in place chunk by chunk,
        so a server that appears at two stages sees each chunk's two
        reservations back to back.  Returns the max tail observed at
        ``local_stage`` (or 0.0 if that stage is outside the range).

        This is the one stage-reservation kernel: the injector's
        split-phase walks, :meth:`schedule` and the traced walk all
        reserve through these loops.  They run O(stages x chunks) for
        every message in the simulation, so the stage arithmetic is
        open-coded with locals, and the common destination-phase walk
        has no local stage to watch and gets its own loop without the
        per-stage index bookkeeping.  Per chunk and stage the loops
        write only the server's ``next_free`` and ``busy_time`` (a float
        sum whose order the metrics keep); chunks and bytes go to the
        span's tally cell once per walk.  ``_untraced`` is the traced
        walk's private way in, past the tracing check.
        """
        tracer = self.sim.tracer
        if tracer.wants_hw and not _untraced:
            return self._walk_traced(s_from, s_from + len(memo[0]), entries,
                                     local_stage, tracer)
        span, cell = memo
        cell[0] += len(entries)
        nbytes = 0
        if local_stage is None:
            for entry in entries:
                head, tail, csize, first = entry
                nbytes += csize
                # the same product as csize * inv_bw, on the float fast
                # path of every stage's multiply
                fsize = float(csize)
                for srv, ov, extra, lat, cut, trail, inv_bw in span:
                    if srv is None:
                        head += lat
                        tail += lat
                        continue
                    if first:
                        ov += extra
                    ser = fsize * inv_bw
                    nf = srv.next_free
                    # ``ready``: service start plus overhead, when the
                    # head may leave
                    if cut:
                        # the tail leaves no earlier than the stage's own
                        # rate allows and no earlier than bytes arrive, but
                        # the server is *occupied* only for its own service
                        # time: bytes trickling in slowly leave capacity to
                        # other flows, so both directions of a bus or SRAM
                        # run at their true aggregate rate
                        ready = (head if head > nf else nf) + ov
                        occupied = ready + ser
                        t2 = tail + ov
                        head = ready + lat
                        tail = (occupied if occupied > t2 else t2) + lat
                    else:  # store-and-forward: wait for the full chunk
                        ready = (tail if tail > nf else nf) + ov
                        occupied = ready + ser
                        head = ready + lat
                        tail = occupied + lat
                    srv.next_free = occupied + trail
                    srv.busy_time += ov + ser + trail
                entry[0] = head
                entry[1] = tail
            cell[1] += nbytes
            return 0.0
        local_max = 0.0
        for entry in entries:
            head, tail, csize, first = entry
            nbytes += csize
            fsize = float(csize)
            s = s_from
            for srv, ov, extra, lat, cut, trail, inv_bw in span:
                if srv is None:
                    head += lat
                    tail += lat
                else:
                    if first:
                        ov += extra
                    ser = fsize * inv_bw
                    nf = srv.next_free
                    if cut:
                        ready = (head if head > nf else nf) + ov
                        occupied = ready + ser
                        t2 = tail + ov
                        head = ready + lat
                        tail = (occupied if occupied > t2 else t2) + lat
                    else:  # store-and-forward: wait for the full chunk
                        ready = (tail if tail > nf else nf) + ov
                        occupied = ready + ser
                        head = ready + lat
                        tail = occupied + lat
                    srv.next_free = occupied + trail
                    srv.busy_time += ov + ser + trail
                if s == local_stage and tail > local_max:
                    local_max = tail
                s += 1
            entry[0] = head
            entry[1] = tail
        cell[1] += nbytes
        return local_max

    def _walk_traced(self, s_from: int, s_to: int, entries: List[list],
                     local_stage: Optional[int], tracer) -> float:
        """:meth:`walk_span` plus one ``hw`` span per (chunk, stage).

        Drives the same kernel one (chunk, stage) at a time, chunk-outer
        like the untraced walk (a Myrinet path holds one SRAM server at
        two stages), so turning tracing on cannot move a result by even
        one ulp.
        """
        stages = self.stages
        local_max = 0.0
        for entry in entries:
            chunk = [entry]
            csize = entry[2]
            for s in range(s_from, s_to):
                head_in, tail_in = entry[0], entry[1]
                self.walk_span(self.span(s, s + 1), s, chunk, None, True)
                head, tail = entry[0], entry[1]
                sname = stages[s].name or f"s{s}"
                tracer.emit(
                    head_in, "hw", f"{self.name}:{s}:{sname}",
                    f"{sname} {int(csize)}B", kind="X",
                    dur_us=max(tail - head_in, 0.0),
                    data={"path": self.name, "stage": s, "stage_name": sname,
                          "head_in": head_in, "tail_in": tail_in,
                          "head_out": head, "tail_out": tail, "nbytes": csize},
                )
                if s == local_stage and tail > local_max:
                    local_max = tail
        return local_max

    def schedule(self, nbytes: int, start: Optional[float] = None,
                 local_stage: Optional[int] = None,
                 charge_first_extra: bool = True) -> Tuple[float, float]:
        """Reserve capacity for a message through every stage at once.

        Returns ``(local_done, delivered)`` absolute times.
        ``local_done`` is the tail departure from stage index
        ``local_stage`` (source-side completion: data has left host
        memory, a sender-side CQE may be generated).  With
        ``local_stage=None`` it equals ``delivered``.

        ``start`` defaults to the current simulation time.  The fabric
        injector instead walks the source and destination phases apart
        (see ``split_stage``); both go through :meth:`walk_span`.
        """
        t0 = self.sim.now if start is None else start
        entries = [[t0, t0, csize, charge_first_extra and i == 0]
                   for i, csize in enumerate(chunk_sizes(nbytes, self.chunk_bytes))]
        local = self.walk_range(0, self.nstages, entries, local_stage)
        delivered = max(t0, max(e[1] for e in entries))
        if local_stage is None:
            return delivered, delivered
        return max(t0, local), delivered

    def backlog_us(self, now: float) -> float:
        """Worst queued-ahead time on this path's stage servers.

        ``max(next_free - now)`` over the stages: how far into the
        future the busiest stage is already reserved — the saturation
        signal the timeline sampler plots (a loaded link shows a
        sustained positive backlog, an idle one sits at zero).
        """
        backlog = 0.0
        for part in self.parts:
            for srv in part.servers:
                queued = srv.next_free - now
                if queued > backlog:
                    backlog = queued
        return backlog

    def zero_load_latency(self, nbytes: int) -> float:
        """Latency of ``nbytes`` through an idle path (no reservations).

        Useful for calibration assertions; does not mutate server state.
        It books occupancy exactly as :meth:`walk_span` does, on free
        times kept per server, so a server that a path holds at two
        stages (Myrinet's SRAM, a loopback's bus) is one server here
        too, and the answer equals a ``schedule`` on fresh servers.
        """
        flat = self.flat
        free: dict = {}
        delivered = 0.0
        for i, csize in enumerate(chunk_sizes(nbytes, self.chunk_bytes)):
            head = tail = 0.0
            for srv, ov, extra, lat, cut, trail, inv_bw in flat:
                if srv is None:
                    head += lat
                    tail += lat
                    continue
                if i == 0:
                    ov += extra
                ser = csize * inv_bw
                nf = free.get(srv, 0.0)
                start = max(head if cut else tail, nf)
                occupied = start + ov + ser
                head = start + ov + lat
                tail = (max(occupied, tail + ov) if cut else occupied) + lat
                free[srv] = occupied + trail
            delivered = max(delivered, tail)
        return delivered
