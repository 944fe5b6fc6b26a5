"""The shared protocol core: one CH3-style device over any channel.

:class:`Ch3Device` owns everything the three MPI ports used to
duplicate: protocol selection and accounting, the eager and rendezvous
state machines, the host progress engine (inbox + gate), per-(source,
ctx) sequence re-establishment, the intra-node shared-memory path, and
the NIC-progress completion discipline.  A fabric contributes only a
:class:`~repro.mpi.ch.channel.Channel` — wire actions, costs and a
:class:`~repro.mpi.ch.caps.ChannelCaps` declaration.

Two progress disciplines remain, now selected by capability:

- ``caps.progress == 'host'`` (MVAPICH, MPICH-GM): every arrival lands
  in a per-rank inbox and is only acted upon when the host runs the
  progress engine — i.e. inside an MPI call.  A rendezvous handshake
  therefore stalls while the application computes, which is exactly the
  overlap limitation §3.4 attributes to these two stacks.
- ``caps.progress == 'nic'`` (MPICH-Quadrics): matching and rendezvous
  run on the NIC; the host merely posts descriptors and waits on
  completion events.

Rendezvous comes in flavors (``--mpi-option rendezvous=...``):

- ``rdma_write`` — CTS carries the registered target address, the
  sender writes straight into the user buffer (the paper's MVAPICH and
  MPICH-GM default);
- ``rdma_read`` — RTS carries the registered *source* address, the
  receiver pulls the data with an RDMA read and FINs the sender: one
  less handshake leg on the critical path, at the price of sender-side
  registration up front;
- ``send_recv`` — no registration at all: the payload moves as a train
  of bounce-buffer-sized fragments, each copied on both hosts (what an
  RDMA-less MPICH would do, and the baseline the paper's Figs. 7/8
  registration-cache results are implicitly compared against);
- ``nic`` — the NIC's own matched rendezvous (Tports).

All entry points are generator coroutines charging host time via
``yield cpu.comm(...)``, so the paper's host overhead measurements fall
out of the same accounting.  The three fabric ports in
:mod:`repro.mpi.devices` subclass :class:`Ch3Device` only to name their
channel, memory model and port-specific extras.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence

from repro.core.engine import Simulator
from repro.core.resources import AllOf, Gate, Store
from repro.hardware.cpu import HostCPU
from repro.hardware.memory import AddressSpace
from repro.mpi.ch.caps import (PROGRESS_HOST, PROGRESS_NIC, RNDV_READ,
                               RNDV_SEND_RECV, resolve_rendezvous)
from repro.mpi.ch.channel import Channel
from repro.mpi.ch.payload import fill_buffer, fill_buffer_at, payload_of
from repro.mpi.matching import Envelope, MatchEngine
from repro.mpi.request import Request
from repro.mpi.status import Status

__all__ = ["Ch3Device"]


class Ch3Device:
    """One MPI rank: the shared protocol core over a fabric channel."""

    #: resident library footprint (Fig. 13 model), set per port
    MEM_BASE_MB: float = 0.0
    MEM_PER_CONN_MB: float = 0.0
    #: rank -> device table, wired by the world at construction; the
    #: None default makes an unwired device fail loudly rather than
    #: share state across worlds.
    peers: Optional[Dict[int, "Ch3Device"]] = None
    #: live rendezvous in-flight watch, installed per run by the
    #: timeline sampler (duck-typed ``.n`` / ``.dec``); the default None
    #: keeps the untimed hot path at a single attribute check
    rndv_watch: Optional[Any] = None

    def __init__(self, sim: Simulator, rank: int, cpu: HostCPU, fabric, port,
                 space: AddressSpace, recorder=None,
                 options: Optional[dict] = None) -> None:
        self.sim = sim
        self.rank = rank
        self.cpu = cpu
        self.fabric = fabric
        self.port = port
        self.space = space
        self.recorder = recorder
        self.options = dict(options or {})
        self.match = MatchEngine()
        #: batched per-protocol tallies, published by :meth:`flush_metrics`
        #: at end of run: proto -> [message count, byte total]
        self._proto_counts: Dict[str, list] = {}
        #: batched message-size tallies: nbytes -> count
        self._size_counts: Dict[int, int] = {}
        self.channel: Channel = self._make_channel()
        self.caps = self.channel.caps
        self.rendezvous = resolve_rendezvous(self.caps, self.options)
        progress = self.options.get("progress")
        if progress is not None and progress != self.caps.progress:
            raise ValueError(
                f"progress={progress!r} unsupported on {self.caps.fabric}: "
                f"{self.caps.port_name or 'this port'} is {self.caps.progress}-progressed")
        self.use_shmem = bool(self.options.get("use_shmem", True))
        #: RDMA-based collectives, gated on the channel's slot capability
        self.rdma_coll = (bool(self.options.get("rdma_collectives"))
                          and self.caps.rdma_slots)
        # MVAPICH-style sequencing: one source's messages may travel
        # over two channels (shared memory / NIC), so envelopes carry a
        # per-(destination, context) sequence number and the receiver
        # re-establishes send order before matching.
        self._send_seq: dict = {}    # (dst, ctx) -> last assigned
        self._recv_seq: dict = {}    # (src, ctx) -> next expected
        self._parked_seq: dict = {}  # ((src, ctx), seq) -> (env, handler)
        if self.caps.progress == PROGRESS_HOST:
            self.inbox = Store(self.sim, name=f"dev.inbox[{self.rank}]")
            self.gate = Gate(self.sim, name=f"dev.gate[{self.rank}]")
            # The NIC deposits arrivals in the host inbox and raises a
            # flag; no host time is charged until the progress engine
            # runs.  NIC-matched channels keep their own nic_handler.
            self.port.nic_handler = self._post_inbox

    def _make_channel(self) -> Channel:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    def memory_usage_mb(self, npeers: int) -> float:
        """Modelled resident MPI memory with ``npeers`` connected peers."""
        return self.MEM_BASE_MB + self.MEM_PER_CONN_MB * npeers

    def _record_transfer(self, peer: int, nbytes: int) -> None:
        if self.recorder is not None:
            self.recorder.record_transfer(
                self.rank, peer, nbytes,
                intra=self.fabric.same_node(self.rank, peer),
                time=self.sim.now,
            )

    def _count_msg(self, proto: str, req: Request) -> None:
        """Account one outgoing message under its wire protocol.

        ``proto`` is one of ``eager``/``rndv``/``inline``/``shmem``; also
        emits the protocol-choice trace instant when tracing is on.
        Tallies accumulate on the device and reach ``sim.metrics`` via
        :meth:`flush_metrics` (called once per run by the world).
        """
        nbytes = req.nbytes
        tally = self._proto_counts.get(proto)
        if tally is None:
            self._proto_counts[proto] = [1, nbytes]
        else:
            tally[0] += 1
            tally[1] += nbytes
        sizes = self._size_counts
        sizes[nbytes] = sizes.get(nbytes, 0) + 1
        if proto == "rndv":
            watch = self.rndv_watch
            if watch is not None:
                watch.n += 1
                req.done.add_callback(watch.dec)
        tracer = self.sim.tracer
        if tracer.wants_mpi:
            tracer.instant(self.sim.now, "mpi", f"rank{self.rank}",
                           f"{proto} {nbytes}B -> r{req.peer}",
                           data={"proto": proto, "nbytes": nbytes,
                                 "peer": req.peer, "tag": req.tag})

    def flush_metrics(self) -> None:
        """Publish batched protocol tallies to ``sim.metrics``."""
        m = self.sim.metrics
        for proto, (nmsgs, nbytes) in self._proto_counts.items():
            m.inc("mpi.msgs." + proto, nmsgs)
            m.inc("mpi.bytes." + proto, nbytes)
        self._proto_counts.clear()
        for nbytes, n in self._size_counts.items():
            m.observe_n("mpi.msg_size", nbytes, n)
        self._size_counts.clear()

    def _recv_status(self, src: int, tag: int, nbytes: int) -> Status:
        return Status(source=src, tag=tag, nbytes=nbytes)

    # ------------------------------------------------------------------
    # protocol selection
    # ------------------------------------------------------------------
    @property
    def eager_limit(self) -> int:
        return self.channel.eager_limit

    def _is_eager(self, nbytes: int) -> bool:
        if self.caps.eager_inclusive:
            return nbytes <= self.channel.eager_limit
        return nbytes < self.channel.eager_limit

    def _use_shmem_for(self, req: Request) -> bool:
        limit = self.caps.shmem_limit
        if not limit or not self.use_shmem:
            return False
        if req.peer == self.rank or not self.fabric.same_node(self.rank, req.peer):
            return False
        return req.nbytes < limit  # SHMEM_ALL (inf) covers every size

    # ------------------------------------------------------------------
    # sends
    # ------------------------------------------------------------------
    def isend(self, req: Request):
        if self._use_shmem_for(req):
            yield from self._shmem_isend(req)
            return
        if self.caps.progress == PROGRESS_NIC:
            yield from self._nic_isend(req)
            return
        yield from self.channel.connect(req.peer)
        self._record_transfer(req.peer, req.nbytes)
        yield from self.channel.acquire_send_credit(req)
        seq = self._next_seq(req.peer, req.ctx)
        if self._is_eager(req.nbytes):
            self._count_msg("eager", req)
            yield from self._eager_isend(req, seq)
        else:
            self._count_msg("rndv", req)
            yield from self._rndv_isend(req, seq)

    def _eager_isend(self, req: Request, seq: int = 0):
        cpu = self.cpu
        yield cpu.comm(self.channel.O_SEND_POST)
        # copy into the pre-registered bounce/ring buffer (hot in cache)
        yield cpu.comm(cpu.memcpy.copy_time(req.nbytes))
        self.channel.eager_send(req, seq)  # completes req (buffered)

    def _rndv_isend(self, req: Request, seq: int = 0):
        yield self.cpu.comm(self.channel.O_SEND_POST)
        yield from self.channel.send_rts(req, seq)
        # request completes when the FIN drains through the inbox

    def _nic_isend(self, req: Request):
        cpu = self.cpu
        yield from self.channel.acquire_send_credit(req)
        cost = self.channel.O_SEND
        if req.nbytes <= self.caps.inline_limit:
            self._count_msg("inline", req)
            # host PIO-copies the payload into the command port
            cost += cpu.memcpy.copy_time(req.nbytes)
        elif self._is_eager(req.nbytes):
            self._count_msg("eager", req)
        else:
            self._count_msg("rndv", req)
        yield cpu.comm(cost)
        yield from self.channel.prepare_buffer(req.buf)
        self._record_transfer(req.peer, req.nbytes)
        self.channel.nic_send(req)

    # ------------------------------------------------------------------
    # receives
    # ------------------------------------------------------------------
    def irecv(self, req: Request):
        yield self.cpu.comm(self.channel.O_RECV_POST)
        if self.caps.progress == PROGRESS_NIC:
            yield from self.channel.prepare_buffer(req.buf)
            yield from self.channel.nic_recv(req)
            return
        env = self.match.post_recv(req)
        if env is None:
            return
        if env.kind in ("eager", "shm"):
            yield from self._complete_eager_match(req, env)
        elif env.kind == "rts":
            yield from self._rndv_reply(req, env)
        else:  # pragma: no cover - defensive
            raise RuntimeError(f"unknown unexpected envelope kind {env.kind}")

    def _complete_eager_match(self, req: Request, env: Envelope):
        cpu = self.cpu
        yield cpu.comm(cpu.memcpy.copy_time(env.nbytes))
        fill_buffer(req.buf, env.payload)
        req.complete(self._recv_status(env.src, env.tag, env.nbytes))

    def _rndv_reply(self, req: Request, env: Envelope):
        yield self.cpu.comm(self.channel.O_RNDV)
        if self.rendezvous == RNDV_READ:
            yield from self.channel.rndv_read(req, env)
        else:
            yield from self.channel.send_cts(req, env)

    # ------------------------------------------------------------------
    # inbox + progress engine
    # ------------------------------------------------------------------
    def _post_inbox(self, item) -> None:
        if self.channel.nic_intercept(item):
            return
        self.inbox.put(item)
        self.gate.pulse()

    def _drain(self):
        """Process every queued inbox item; returns True if any work done."""
        worked = False
        while len(self.inbox):
            item = self.inbox.get_nowait()
            worked = True
            yield self.cpu.comm(self.channel.O_POLL)
            yield from self._handle(item)
        return worked

    def _handle(self, item):
        cpu = self.cpu
        if isinstance(item, Envelope):  # shared-memory arrival
            yield from self._arrive_in_order(item, self._handle_shm)
            return
        if isinstance(item, tuple):
            kind = item[0]
            if kind == "sfin":
                yield cpu.comm(self.channel.O_FIN)
                self.channel.on_send_fin()  # retire CQEs alongside the FIN
                item[1].complete()
                return
            if kind == "scb":
                yield cpu.comm(self.channel.O_SEND_CB)
                return
            if kind == "rdfin":  # RDMA-read flavor: data landed locally
                yield from self._finish_rndv_read(item[1], item[2])
                return
        yield from self.channel.handle_wire(item)

    def _finish_rndv_read(self, rreq: Request, env: Envelope):
        yield self.cpu.comm(self.channel.O_FIN)
        self.channel.on_send_fin()  # retire the rdma_read CQE
        rreq.complete(self._recv_status(env.src, env.tag, env.nbytes))
        self.channel.send_read_fin(env)

    # -- delivery helpers channels call back into -----------------------
    def deliver_eager(self, env: Envelope):
        yield self.cpu.comm(self.channel.O_MATCH)
        yield from self._arrive_in_order(env, self._match_eager)

    def deliver_rts(self, env: Envelope):
        yield self.cpu.comm(self.channel.O_MATCH)
        yield from self._arrive_in_order(env, self._match_rts)

    def deliver_cts(self, src: int, meta: dict):
        yield self.cpu.comm(self.channel.O_RNDV)
        if self.rendezvous == RNDV_SEND_RECV:
            yield from self._sr_send_data(meta["sreq"], meta)
        else:
            yield from self.channel.rndv_data(src, meta)

    def deliver_rdata(self, rreq: Request, src: int, tag: int, nbytes: int,
                      payload):
        yield self.cpu.comm(self.channel.O_FIN)
        fill_buffer(rreq.buf, payload)
        rreq.complete(self._recv_status(src, tag, nbytes))

    def deliver_fragment(self, src: int, meta: dict, nbytes: int, payload):
        """One send/recv-flavor fragment: match cost + host copy-out."""
        cpu = self.cpu
        yield cpu.comm(self.channel.O_MATCH)
        yield cpu.comm(cpu.memcpy.copy_time(nbytes))
        rreq: Request = meta["rreq"]
        fill_buffer_at(rreq.buf, meta["offset"], payload)
        if meta["last"]:
            rreq.complete(self._recv_status(src, meta["tag"], meta["total"]))

    def deliver_send_fin(self, sreq: Request):
        yield self.cpu.comm(self.channel.O_FIN)
        self.channel.on_send_fin()
        sreq.complete()

    def _match_eager(self, env: Envelope):
        req = self.match.arrive(env)
        if req is not None:
            yield from self._complete_eager_match(req, env)

    def _match_rts(self, env: Envelope):
        req = self.match.arrive(env)
        if req is not None:
            yield from self._rndv_reply(req, env)

    # -- send/recv rendezvous flavor: fragmented copy train --------------
    def _sr_send_data(self, sreq: Request, meta: dict):
        cpu = self.cpu
        rreq = meta["rreq"]
        total = sreq.nbytes
        data = payload_of(sreq.buf)
        chunk = max(1, self.channel.sr_chunk_bytes())
        offset = 0
        while True:
            n = min(chunk, total - offset)
            last = offset + n >= total
            yield from self.channel.acquire_send_credit(sreq)
            yield cpu.comm(self.channel.O_SEND_POST)
            # stage the fragment through the bounce buffer
            yield cpu.comm(cpu.memcpy.copy_time(n))
            frag = None if data is None else data[offset:offset + n]
            local = self.channel.send_fragment(sreq, rreq, offset, n,
                                               total, last, frag)
            if last:
                local.add_callback(
                    lambda _e: self._post_inbox(("sfin", sreq)))
                return
            offset += n

    # ------------------------------------------------------------------
    # channel-order re-establishment
    # ------------------------------------------------------------------
    def _next_seq(self, dst: int, ctx: int) -> int:
        key = (dst, ctx)
        self._send_seq[key] = self._send_seq.get(key, 0) + 1
        return self._send_seq[key]

    def _arrive_in_order(self, env: Envelope, handler):
        """Run ``handler(env)`` respecting per-(source, ctx) send order.

        Out-of-order arrivals (a shared-memory message overtaking an
        in-flight NIC rendezvous, say) are parked until their
        predecessors have been processed.
        """
        key = (env.src, env.ctx)
        expected = self._recv_seq.get(key, 1)
        if env.seq != expected:
            self._parked_seq[(key, env.seq)] = (env, handler)
            return
        yield from handler(env)
        nxt = expected + 1
        while True:
            parked = self._parked_seq.pop((key, nxt), None)
            if parked is None:
                break
            env2, handler2 = parked
            yield from handler2(env2)
            nxt += 1
        self._recv_seq[key] = nxt

    # ------------------------------------------------------------------
    # intra-node shared-memory channel
    # ------------------------------------------------------------------
    def _shmem_isend(self, req: Request):
        """Send ``req`` through shared memory (same-node peer)."""
        cpu = self.cpu
        self._count_msg("shmem", req)
        yield cpu.comm(self.channel.O_SHM_SEND)
        # copy into the shared segment (streaming, cache-thrash aware)
        yield cpu.comm(cpu.memcpy.shmem_copy_time(req.nbytes))
        env = Envelope(
            kind="shm", src=req.rank, tag=req.tag, ctx=req.ctx,
            nbytes=req.nbytes, payload=payload_of(req.buf),
            seq=self._next_seq(req.peer, req.ctx),
        )
        self._record_transfer(req.peer, req.nbytes)
        dst_dev = self.peers[req.peer]
        ev = self.sim.event("shm.deliver")
        ev.add_callback(lambda _e: dst_dev._post_inbox(env))
        ev.succeed(delay=self.channel.SHM_LATENCY)
        req.complete()

    def _handle_shm(self, env: Envelope):
        """Receiver-side processing of a shared-memory envelope."""
        cpu = self.cpu
        yield cpu.comm(self.channel.O_SHM_RECV)
        req = self.match.arrive(env)
        if req is not None:
            yield cpu.comm(cpu.memcpy.shmem_copy_time(env.nbytes))
            fill_buffer(req.buf, env.payload)
            req.complete(self._recv_status(env.src, env.tag, env.nbytes))
        # unmatched: parked in the unexpected queue; the copy-out is paid
        # when a matching receive is posted (see _complete_eager_match).

    # ------------------------------------------------------------------
    # completion
    # ------------------------------------------------------------------
    def waitall(self, reqs: Sequence[Request]):
        """Block until every request completes, driving progress."""
        if self.caps.progress == PROGRESS_NIC:
            if len(reqs) == 1:  # blocking send/recv: the hottest shape
                r = reqs[0]
                if not r.completed:
                    yield r.done
                yield self.cpu.comm(self.channel.O_COMPLETE)
                return
            pending = [r.done for r in reqs if not r.completed]
            if pending:
                # a lone pending event needs no AllOf fan-in
                yield pending[0] if len(pending) == 1 else AllOf(self.sim, pending)
            yield self.cpu.comm(self.channel.O_COMPLETE * max(1, len(reqs)))
            return
        pending = [r for r in reqs if not r.completed]
        # completion never reverts, so a forward index over ``pending``
        # checks each request once instead of rescanning on every wake-up
        i, n = 0, len(pending)
        while True:
            yield from self._drain()
            while i < n and pending[i].completed:
                i += 1
            if i == n:
                return
            # Sleep until the NIC flags new arrivals.  Registration
            # happens in the same instant as the emptiness check above,
            # so no pulse can slip through unobserved.
            yield self.gate.wait()

    def test(self, req: Request):
        if self.caps.progress == PROGRESS_NIC:
            yield self.cpu.comm(self.channel.O_TEST)
            return req.completed
        yield from self._drain()
        return req.completed

    def progress(self):
        """One explicit progress pass (used by MPI_Test / probes)."""
        if self.caps.progress == PROGRESS_NIC:
            # NIC-progressed network: nothing for the host to drive
            yield self.cpu.comm(self.channel.O_PROGRESS)
            return False
        return (yield from self._drain())

    def iprobe(self, ctx: int, source: int, tag: int):
        """Non-blocking probe: Status of a matching unexpected message,
        or None."""
        if self.caps.progress == PROGRESS_NIC:
            # query the NIC's pending-arrival list (one library call)
            yield self.cpu.comm(self.channel.O_IPROBE)
            return self.channel.nic_peek(ctx, source, tag)
        yield from self._drain()
        env = self.match.peek(ctx, source, tag)
        if env is None:
            return None
        return self._recv_status(env.src, env.tag, env.nbytes)

    def probe(self, ctx: int, source: int, tag: int):
        """Blocking probe: drive progress until a match is pending."""
        if self.caps.progress == PROGRESS_NIC:
            while True:
                st = yield from self.iprobe(ctx, source, tag)
                if st is not None:
                    return st
                yield self.channel.arrival_gate().wait()
        while True:
            yield from self._drain()
            env = self.match.peek(ctx, source, tag)
            if env is not None:
                return self._recv_status(env.src, env.tag, env.nbytes)
            yield self.gate.wait()
