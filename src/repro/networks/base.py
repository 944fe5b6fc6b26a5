"""Fabric/port abstractions shared by the three interconnect models.

A :class:`Fabric` owns the adapters, switch and the cached
:class:`~repro.hardware.path.PipelinePath` between every (src, dst) node
pair.  MPI protocol engines move data by handing :class:`Packet` objects
to :meth:`Fabric.send_packet`; the fabric reserves pipeline capacity,
fires a *local completion* event when the data has left the source host
(the moment a sender-side CQ entry would appear) and delivers the packet
to the destination :class:`NetPort` when the last chunk lands in
destination host memory.

Delivery has two modes, mirroring where message processing happens:

- **host mode** (InfiniBand, Myrinet): the packet is queued on the
  port's RX store; the rank's MPI *progress engine* must run (inside an
  MPI call) to act on it.  This is what limits those stacks' ability to
  overlap a rendezvous handshake with computation (§3.4).
- **NIC mode** (Quadrics): the port's ``nic_handler`` runs immediately,
  on the NIC's time — tag matching and rendezvous progression happen
  without the host, which is exactly why Quadrics shows superior
  computation/communication overlap for large messages.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Callable, Dict, Optional, Tuple

from repro.core.engine import Event, Simulator
from repro.core.resources import Gate, Store
from repro.hardware.cluster import Cluster
from repro.hardware.path import PathSegment, PipelinePath, chunk_sizes

if TYPE_CHECKING:
    import numpy as np

__all__ = ["Packet", "NetPort", "Fabric"]


class Packet:
    """One wire message (payload or protocol control).

    ``kind`` is protocol-defined ('eager', 'rts', 'cts', 'fin', 'rdma',
    ...).  ``nbytes`` is the payload size used for timing; ``payload``
    optionally carries real data (verification-scale runs).  ``meta``
    carries protocol state (tag, communicator id, request handles...).

    A plain ``__slots__`` class: one is built per wire message on the
    hot path, and the slotted layout is measurably cheaper than a
    dataclass with a ``default_factory`` for ``meta``.
    """

    __slots__ = ("kind", "src_rank", "dst_rank", "nbytes", "meta",
                 "payload", "seq")

    def __init__(self, kind: str, src_rank: int, dst_rank: int, nbytes: int,
                 meta: Optional[dict] = None, payload: Optional[np.ndarray] = None,
                 seq: int = -1) -> None:
        self.kind = kind
        self.src_rank = src_rank
        self.dst_rank = dst_rank
        self.nbytes = nbytes
        self.meta = {} if meta is None else meta
        self.payload = payload
        self.seq = seq

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<Packet {self.kind} r{self.src_rank}->r{self.dst_rank} "
                f"{self.nbytes}B seq={self.seq}>")


class NetPort:
    """A rank's attachment point to a fabric."""

    def __init__(self, sim: Simulator, fabric: "Fabric", rank: int, node_id: int) -> None:
        self.sim = sim
        self.fabric = fabric
        self.rank = rank
        self.node_id = node_id
        #: queued arrivals awaiting host progress (host-mode networks)
        self.rx = Store(sim, name=f"{fabric.kind}.rx[{rank}]")
        #: pulsed whenever something lands in ``rx``
        self.rx_gate = Gate(sim, name=f"{fabric.kind}.gate[{rank}]")
        #: when set, arrivals are handed to the NIC instead of ``rx``
        self.nic_handler: Optional[Callable[[Packet], None]] = None

    def deliver(self, pkt: Packet) -> None:
        plane = self.fabric.fault_plane
        if plane is not None and plane.on_deliver(self, pkt):
            return  # consumed: dropped, corrupted or parked by a fault
        self._deliver_now(pkt)

    def _deliver_now(self, pkt: Packet) -> None:
        """Hand an arrival to the rank, past any fault checks."""
        if self.nic_handler is not None:
            self.nic_handler(pkt)
        else:
            self.rx.put(pkt)
            self.rx_gate.pulse()

    def __repr__(self) -> str:  # pragma: no cover
        return f"<NetPort {self.fabric.kind} rank={self.rank} node={self.node_id}>"


class Fabric:
    """Base class for the three interconnect models."""

    #: canonical name ('infiniband' | 'myrinet' | 'quadrics')
    kind: str = "abstract"
    #: paper series label ('IBA' | 'Myri' | 'QSN')
    label: str = "?"
    #: wire header+CRC bytes added to every packet
    header_bytes: int = 40

    def __init__(self, sim: Simulator, cluster: Cluster) -> None:
        self.sim = sim
        self.cluster = cluster
        #: routed switch topology; installed by _init_topology in every
        #: concrete fabric's constructor
        self.topology = None
        self.ports: Dict[int, NetPort] = {}
        self._paths: Dict[Tuple[int, int], PipelinePath] = {}
        self._segments: Dict[tuple, PathSegment] = {}
        self._injectors: Dict[int, "_Injector"] = {}
        self._pkt_seq = 0
        self._local_done_name = self.kind + ".local_done"
        #: wire counters batched here per packet and published to the
        #: metrics registry once per run (flush_metrics) — keeps the
        #: per-packet cost at three attribute bumps instead of three
        #: registry calls with string concatenation
        self._pkt_counts: Dict[str, int] = {}
        self._payload_bytes = 0
        self._wire_bytes = 0
        #: installed by MPIWorld when a run carries a FaultSpec; None
        #: keeps the delivery path at a single attribute check
        self.fault_plane = None

    def _init_topology(self, topo_name, radix, params, switch_name: str):
        """Build this fabric's switch topology (constructor helper).

        ``topo_name``/``radix`` come out of the ``net_overrides`` dict
        (keys ``topology`` / ``topology_radix``) before the parameter
        dataclass is constructed; ``None`` keeps the testbed's single
        crossbar, including its original switch name, port count and
        per-port servers.
        """
        from repro.hardware.topology import make_topology

        self.topology = make_topology(
            topo_name, self.sim, nnodes=max(self.cluster.nnodes, 2),
            port_bw_bytes_per_us=params.wire_bw,
            hop_latency_us=params.switch_latency_us,
            wire_latency_us=params.wire_latency_us,
            name=switch_name, radix=radix)
        # single-crossbar back-compat: fabric.switch keeps pointing at
        # the CrossbarSwitch; multi-stage fabrics have no single switch
        self.switch = getattr(self.topology, "switch", None)
        return self.topology

    # -- attachment -----------------------------------------------------
    def attach(self, rank: int, node_id: int) -> NetPort:
        if rank in self.ports:
            raise ValueError(f"rank {rank} already attached to {self.kind}")
        port = NetPort(self.sim, self, rank, node_id)
        self.ports[rank] = port
        if self.topology is not None:
            self.topology.attach_endpoint(node_id)
        self._on_attach(port)
        return port

    def _on_attach(self, port: NetPort) -> None:
        """Subclass hook (e.g. allocate per-connection resources)."""

    def install_fault_plane(self, plane) -> None:
        """Attach a :class:`repro.faults.FaultPlane` to this fabric."""
        self.fault_plane = plane

    def on_link_failure(self, pkt: Packet) -> None:
        """Hook: a packet exhausted its retry budget (about to raise).

        Subclasses transition connection state here — the InfiniBand
        fabric moves the RC queue pair to its error state, mirroring
        what the HCA does when ``retry_cnt`` runs out.
        """

    def node_of(self, rank: int) -> int:
        return self.ports[rank].node_id

    def same_node(self, a: int, b: int) -> bool:
        return self.node_of(a) == self.node_of(b)

    # -- paths ------------------------------------------------------------
    def path(self, src_node: int, dst_node: int) -> PipelinePath:
        """The (cached) pipeline from src_node to dst_node.

        ``src_node == dst_node`` returns the NIC loopback path (used when
        an MPI port routes intra-node traffic through the adapter).
        """
        key = (src_node, dst_node)
        p = self._paths.get(key)
        if p is None:
            if src_node == dst_node:
                p = self._build_loopback_path(src_node)
            else:
                p = self._build_path(src_node, dst_node)
            self._paths[key] = p
        return p

    def _build_path(self, src_node: int, dst_node: int) -> PipelinePath:
        raise NotImplementedError

    def _segment(self, build, node: int, *args) -> PathSegment:
        """``build(node, *args)``'s stages as a segment, built once.

        Fabrics keep the stages one node contributes to every path it
        starts or ends here, so building a routed pair's path costs
        only its switch hops.
        """
        key = (build.__name__, node, *args)
        seg = self._segments.get(key)
        if seg is None:
            seg = self._segments[key] = PathSegment(build(node, *args))
        return seg

    def _build_loopback_path(self, node: int) -> PipelinePath:
        raise NotImplementedError

    #: index of the last source-side stage in built paths (for local
    #: completion semantics); subclasses set this to match _build_path.
    local_stage_index: int = 1

    #: how far into the future one source may reserve pipeline capacity.
    #: Bounding this is what lets concurrent flows (e.g. the two
    #: directions of a bus) interleave rather than queue behind one
    #: burst's whole reservation.
    HORIZON_US: float = 80.0
    #: large messages reserve capacity in groups of this many bytes,
    #: re-checking the horizon between groups.
    GROUP_BYTES: int = 64 * 1024

    def _select_path(self, pkt: Packet, wire_bytes: int, src_node: int, dst_node: int):
        """Return (path, local_stage) for this packet; subclass hook."""
        local_stage = None if src_node == dst_node else self.local_stage_index
        return self.path(src_node, dst_node), local_stage

    # -- data movement ------------------------------------------------------
    def send_packet(self, pkt: Packet, extra_wire_bytes: int = 0) -> Event:
        """Move ``pkt`` to its destination port.

        Returns the *local completion* event (data out of source host).
        Delivery to the destination port is scheduled internally; all
        sends from one node go through that node's injector, which
        preserves FIFO order (one DMA engine) and paces capacity
        reservations to the horizon.
        """
        self._pkt_seq += 1
        pkt.seq = self._pkt_seq
        if self.fault_plane is not None:
            self.fault_plane.on_send(pkt)
        src_node = self.node_of(pkt.src_rank)
        dst_node = self.node_of(pkt.dst_rank)
        wire_bytes = pkt.nbytes + self.header_bytes + extra_wire_bytes
        path, local_stage = self._select_path(pkt, wire_bytes, src_node, dst_node)

        counts = self._pkt_counts
        kind = pkt.kind
        counts[kind] = counts.get(kind, 0) + 1
        self._payload_bytes += pkt.nbytes
        self._wire_bytes += wire_bytes

        local_ev = Event(self.sim, self._local_done_name)
        port = self.ports[pkt.dst_rank]
        job = _SendJob(pkt, path, wire_bytes, local_stage, local_ev, port)
        job.t_submit = self.sim.now
        self._injector(src_node).submit(job)
        return local_ev

    def _injector(self, src_node: int) -> "_Injector":
        inj = self._injectors.get(src_node)
        if inj is None:
            inj = _Injector(self.sim, self.HORIZON_US, self.GROUP_BYTES,
                            name=f"{self.kind}.inj{src_node}")
            self._injectors[src_node] = inj
        return inj

    def flush_metrics(self) -> None:
        """Publish the batched per-packet counters to ``sim.metrics``."""
        metrics = self.sim.metrics
        for kind, n in self._pkt_counts.items():
            metrics.inc("net.pkts." + kind, n)
        if self._payload_bytes:
            metrics.inc("net.bytes.payload", self._payload_bytes)
        if self._wire_bytes:
            metrics.inc("net.bytes.wire", self._wire_bytes)
        self._pkt_counts.clear()
        self._payload_bytes = 0
        self._wire_bytes = 0

    def timeline_sample(self, now: float) -> Dict[str, float]:
        """Live channel snapshot for the timeline sampler.

        Reads only: the batched per-packet tallies (cumulative until
        ``flush_metrics`` clears them at end of run), per-port RX queue
        depths, and the worst queued-ahead backlog across the cached
        pipeline paths.  Called at most once per sampling interval, so
        the O(ports + paths) scan is off the per-message hot path.
        """
        depth_total = depth_max = 0
        for port in self.ports.values():
            d = len(port.rx)
            depth_total += d
            if d > depth_max:
                depth_max = d
        backlog = 0.0
        for path in self._paths.values():
            b = path.backlog_us(now)
            if b > backlog:
                backlog = b
        return {
            "net.rx.depth.total": float(depth_total),
            "net.rx.depth.max": float(depth_max),
            "net.pkts": float(sum(self._pkt_counts.values())),
            "hw.wire.bytes": float(self._wire_bytes),
            "hw.path.backlog_us": backlog,
        }

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Fabric {self.kind} ports={len(self.ports)}>"


class _SendJob:
    """One message queued at a node's injector."""

    __slots__ = ("pkt", "path", "wire_bytes", "local_stage", "local_ev",
                 "port", "offset", "local_done", "delivered",
                 "pending_groups", "injected_all", "t_submit")

    def __init__(self, pkt: Packet, path: PipelinePath, wire_bytes: int,
                 local_stage, local_ev: Event, port: NetPort) -> None:
        self.pkt = pkt
        self.path = path
        self.wire_bytes = wire_bytes
        self.local_stage = local_stage
        self.local_ev = local_ev
        self.port = port
        self.offset = 0
        self.local_done = 0.0
        self.delivered = 0.0
        self.pending_groups = 0
        self.injected_all = False
        self.t_submit = 0.0

    @property
    def src_phase_end(self) -> int:
        split = self.path.split_stage
        return len(self.path.stages) if split is None else split + 1

    def horizon_time(self) -> float:
        """Furthest reservation on this job's *source-side* stages."""
        t = 0.0
        for srv in self.path._src_servers:
            nf = srv.next_free
            if nf > t:
                t = nf
        return t


class _Injector:
    """Per-source-node send serializer with bounded reservation lookahead.

    Models the single DMA/command engine of a NIC: messages are injected
    FIFO, and *source-side* capacity reservations never run more than
    ``horizon_us`` ahead of simulated time — large messages reserve in
    ``group_bytes``-sized slices.  Destination-side stages are reserved
    by a deferred walk at the moment the data reaches them, so two nodes
    streaming at each other interleave on shared resources (buses, NIC
    SRAM) instead of queueing behind each other's future reservations.
    """

    def __init__(self, sim: Simulator, horizon_us: float, group_bytes: int,
                 name: str = "injector") -> None:
        self.sim = sim
        self.horizon_us = horizon_us
        self.group_bytes = group_bytes
        self.name = name
        self._queue: deque = deque()
        self._sleeping = False

    def submit(self, job: _SendJob) -> None:
        self._queue.append(job)
        if not self._sleeping:
            self._pump()

    def _pump(self) -> None:
        self._sleeping = False
        while self._queue:
            job = self._queue[0]
            wake_at = job.horizon_time() - self.horizon_us
            if wake_at > self.sim.now:
                self._sleep_until(wake_at)
                return
            self._advance(job)
            if job.offset >= job.wire_bytes:
                self._queue.popleft()
                job.injected_all = True
                # data has left the host once every group cleared the
                # source-side stages; fire the local completion now.
                job.local_ev.succeed(delay=max(0.0, job.local_done - self.sim.now))
                if job.pending_groups == 0:
                    self._deliver(job)

    def _sleep_until(self, when: float) -> None:
        self._sleeping = True
        delay = when - self.sim.now
        self.sim.schedule_at(delay if delay > 0.0 else 0.0, self._pump)

    def _advance(self, job: _SendJob) -> None:
        """Reserve the next group of the message (source phase)."""
        first = job.offset == 0
        group = min(self.group_bytes, job.wire_bytes - job.offset)
        path = job.path
        now = self.sim.now
        entries = [
            [now, now, csize, first and i == 0]
            for i, csize in enumerate(chunk_sizes(group, path.chunk_bytes))
        ]
        phase_end = job.src_phase_end
        nstages = len(path.stages)
        local_stage = job.local_stage
        local = path.walk_range(0, phase_end, entries,
                                local_stage if (local_stage is not None and
                                                local_stage < phase_end) else None)
        if local > job.local_done:
            job.local_done = local
        if first:
            path.messages += 1
        path.bytes_moved += group
        job.offset += group if group > 1 else 1
        if phase_end >= nstages:
            tail = 0.0
            for e in entries:
                if e[1] > tail:
                    tail = e[1]
            self._group_done(job, tail)
            return
        # Destination phase: reserve each chunk's dst-side capacity at
        # that chunk's own arrival time.  Reserving any earlier would
        # plant future reservations on shared servers (scalar next_free
        # cannot represent the idle gap before them), spuriously
        # blocking cross-traffic that physically interleaves.
        schedule_at = self.sim.schedule_at
        for entry in entries:
            job.pending_groups += 1

            def _run_dst_phase(job=job, entry=entry, phase_end=phase_end):
                job.path.walk_range(phase_end, nstages, [entry])
                job.pending_groups -= 1
                self._group_done(job, entry[1])

            delay = entry[0] - now
            schedule_at(delay if delay > 0.0 else 0.0, _run_dst_phase)

    def _group_done(self, job: _SendJob, delivered: float) -> None:
        if delivered > job.delivered:
            job.delivered = delivered
        if job.injected_all and job.pending_groups == 0:
            self._deliver(job)

    def _deliver(self, job: _SendJob) -> None:
        if job.port is None:
            return
        port, job.port = job.port, None  # deliver exactly once
        tracer = self.sim.tracer
        if tracer.wants_net:
            pkt = job.pkt
            tracer.emit(
                job.t_submit, "net", job.path.name,
                f"{pkt.kind} {pkt.nbytes}B r{pkt.src_rank}->r{pkt.dst_rank}",
                kind="X", dur_us=max(job.delivered - job.t_submit, 0.0),
                data={"kind": pkt.kind, "src": pkt.src_rank, "dst": pkt.dst_rank,
                      "nbytes": pkt.nbytes, "wire_bytes": job.wire_bytes,
                      "seq": pkt.seq, "path": job.path.name,
                      "submit": job.t_submit, "local_done": job.local_done,
                      "delivered": job.delivered},
            )
        delay = job.delivered - self.sim.now
        self.sim.schedule_at(delay if delay > 0.0 else 0.0,
                             lambda: port.deliver(job.pkt))
