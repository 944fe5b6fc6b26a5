"""Communicators: the user-facing MPI API.

All operations are generator coroutines invoked with ``yield from``
inside rank functions.  Blocking calls are built from the non-blocking
primitives exactly as in MPICH (``send = isend + wait``), so host
overhead and progress semantics are shared.

Sub-communicators carry their own context ids; collectives run in a
separate context (``ctx+1``) so internal traffic can never match user
point-to-point receives — the MPICH discipline.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.hardware.memory import Buffer
from repro.mpi import collectives as coll
from repro.mpi.constants import ANY_SOURCE, ANY_TAG, SUM, Op
from repro.mpi.datatypes import Datatype
from repro.mpi.request import PersistentRequest, Request
from repro.mpi.status import Status

__all__ = ["Communicator", "MPIEndpoint"]


class MPIEndpoint:
    """Everything one rank owns: CPU, address space, device, recorder."""

    def __init__(self, sim, world, rank: int, node_id: int, cpu, space, device, recorder) -> None:
        self.sim = sim
        self.world = world
        self.rank = rank
        self.node_id = node_id
        self.cpu = cpu
        self.space = space
        self.device = device
        self.recorder = recorder


class Communicator:
    """An MPI communicator bound to one rank's endpoint."""

    def __init__(self, endpoint: MPIEndpoint, group: Sequence[int], ctx: int) -> None:
        self.ep = endpoint
        self.group = list(group)
        self.ctx = ctx
        try:
            self.rank = self.group.index(endpoint.rank)
        except ValueError:
            raise ValueError(
                f"rank {endpoint.rank} not in communicator group {group}"
            ) from None
        self.size = len(self.group)
        self._dup_seq = 0
        self._split_seq = 0

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    @property
    def sim(self):
        return self.ep.sim

    @property
    def cpu(self):
        return self.ep.cpu

    def world_rank(self, comm_rank: int) -> int:
        return self.group[comm_rank]

    def comm_rank_of(self, world_rank: int) -> int:
        return self.group.index(world_rank)

    # -- buffer helpers ---------------------------------------------------
    def alloc(self, nbytes: int, recycle: bool = True) -> Buffer:
        """Allocate a raw (dataless) buffer in this rank's address space."""
        return self.ep.space.alloc(nbytes, recycle=recycle)

    def alloc_array(self, shape, dtype="float64", recycle: bool = True) -> Buffer:
        """Allocate a buffer backed by a real numpy array."""
        return self.ep.space.alloc_array(shape, dtype=dtype, recycle=recycle)

    def free(self, buf: Buffer) -> None:
        self.ep.space.free(buf)

    def alloc_bytes(self, nbytes: int) -> Buffer:
        """Alias kept for the quickstart examples."""
        return self.alloc(nbytes)

    # ------------------------------------------------------------------
    # internal point-to-point (no user-level call records)
    # ------------------------------------------------------------------
    def _isend(self, buf: Buffer, dest: int, tag: int, ctx: Optional[int] = None):
        req = Request(self.sim, "send", self.ep.rank, self.world_rank(dest), tag,
                      self.ctx if ctx is None else ctx, buf.nbytes, buf=buf)
        yield from self.ep.device.isend(req)
        return req

    def _irecv(self, buf: Optional[Buffer], source: int, tag: int,
               ctx: Optional[int] = None):
        peer = ANY_SOURCE if source == ANY_SOURCE else self.world_rank(source)
        nbytes = 0 if buf is None else buf.nbytes
        req = Request(self.sim, "recv", self.ep.rank, peer, tag,
                      self.ctx if ctx is None else ctx, nbytes, buf=buf)
        yield from self.ep.device.irecv(req)
        return req

    def _waitall(self, reqs: Sequence) -> list:
        for r in reqs:
            if isinstance(r, PersistentRequest):
                reqs = [r.active if isinstance(r, PersistentRequest) else r
                        for r in reqs]
                if any(r is None for r in reqs):
                    raise RuntimeError(
                        "waiting on an inactive persistent request")
                break
        yield from self.ep.device.waitall(reqs)
        return [r.status for r in reqs]

    # ------------------------------------------------------------------
    # public point-to-point
    # ------------------------------------------------------------------
    def isend(self, buf: Buffer, dest: int, tag: int = 0):
        """Non-blocking send; returns a Request."""
        t0 = self.sim.now
        req = yield from self._isend(buf, dest, tag)
        self._rec("isend", dest, buf.nbytes, buf.addr, t0, blocking=False)
        return req

    def irecv(self, buf: Buffer, source: int = ANY_SOURCE, tag: int = ANY_TAG):
        """Non-blocking receive; returns a Request."""
        t0 = self.sim.now
        req = yield from self._irecv(buf, source, tag)
        self._rec("irecv", source, buf.nbytes, buf.addr, t0, blocking=False)
        return req

    def send(self, buf: Buffer, dest: int, tag: int = 0):
        """Blocking send."""
        t0 = self.sim.now
        req = yield from self._isend(buf, dest, tag)
        yield from self._waitall([req])
        self._rec("send", dest, buf.nbytes, buf.addr, t0, blocking=True)

    def recv(self, buf: Buffer, source: int = ANY_SOURCE, tag: int = ANY_TAG):
        """Blocking receive; returns a Status."""
        t0 = self.sim.now
        req = yield from self._irecv(buf, source, tag)
        yield from self._waitall([req])
        status = self._translate_status(req.status)
        self._rec("recv", status.source, status.nbytes, buf.addr, t0, blocking=True)
        return status

    def sendrecv(self, sendbuf: Buffer, dest: int, sendtag: int,
                 recvbuf: Buffer, source: int, recvtag: int):
        """Combined send+receive; returns the receive Status."""
        t0 = self.sim.now
        rreq = yield from self._irecv(recvbuf, source, recvtag)
        sreq = yield from self._isend(sendbuf, dest, sendtag)
        yield from self._waitall([rreq, sreq])
        status = self._translate_status(rreq.status)
        self._rec("sendrecv", dest, sendbuf.nbytes, sendbuf.addr, t0, blocking=True)
        return status

    def wait(self, req):
        """Wait for one request; returns its (translated) Status."""
        statuses = yield from self._waitall([req])
        if isinstance(req, PersistentRequest):
            req._retire()
        return self._translate_status(statuses[0])

    def waitall(self, reqs: Sequence):
        """Wait for all requests; returns translated Statuses."""
        statuses = yield from self._waitall(reqs)
        for r in reqs:
            if isinstance(r, PersistentRequest):
                r._retire()
        return [self._translate_status(st) for st in statuses]

    def test(self, req: Request):
        """Non-blocking completion test; returns bool."""
        done = yield from self.ep.device.test(req)
        return done

    def waitany(self, reqs: Sequence):
        """Wait until at least one request completes; returns
        ``(index, Status)`` of the first completed request (lowest index
        on ties)."""
        from repro.core.resources import AnyOf

        handles = [r.active if isinstance(r, PersistentRequest) else r
                   for r in reqs]
        if any(r is None for r in handles):
            raise RuntimeError("waiting on an inactive persistent request")
        dev = self.ep.device

        def first_done():
            for i, r in enumerate(handles):
                if r.completed:
                    return i
            return None

        if dev.caps.progress == "host":  # host-driven progress engines
            while True:
                yield from dev._drain()
                i = first_done()
                if i is not None:
                    break
                yield dev.gate.wait()
        else:  # NIC-driven: block directly on the completion events
            if first_done() is None:
                yield AnyOf(self.sim, [r.done for r in handles])
            yield self.cpu.comm(0.18)
            i = first_done()
        if isinstance(reqs[i], PersistentRequest):
            reqs[i]._retire()
        return i, self._translate_status(handles[i].status)

    # ------------------------------------------------------------------
    # typed operations (MPI datatypes; derived types pay pack/unpack)
    # ------------------------------------------------------------------
    def send_typed(self, buf: Buffer, count: int, datatype: Datatype,
                   dest: int, tag: int = 0):
        """Blocking send of ``count`` elements of ``datatype``."""
        nbytes = datatype * count
        if nbytes > buf.nbytes:
            raise ValueError(
                f"{count} x {datatype.name} = {nbytes} B exceeds the "
                f"{buf.nbytes} B buffer")
        t0 = self.sim.now
        if not datatype.contiguous:
            # pack the strided section into a contiguous staging buffer
            yield self.cpu.comm(self.cpu.memcpy.copy_time(nbytes))
        view = buf.view(0, nbytes)
        req = yield from self._isend(view, dest, tag)
        yield from self._waitall([req])
        self._rec("send", dest, nbytes, buf.addr, t0, blocking=True)

    def recv_typed(self, buf: Buffer, count: int, datatype: Datatype,
                   source: int = ANY_SOURCE, tag: int = ANY_TAG):
        """Blocking receive of ``count`` elements of ``datatype``."""
        nbytes = datatype * count
        if nbytes > buf.nbytes:
            raise ValueError(
                f"{count} x {datatype.name} = {nbytes} B exceeds the "
                f"{buf.nbytes} B buffer")
        view = buf.view(0, nbytes)
        t0 = self.sim.now
        req = yield from self._irecv(view, source, tag)
        yield from self._waitall([req])
        if not datatype.contiguous:
            # unpack from the contiguous staging buffer
            yield self.cpu.comm(self.cpu.memcpy.copy_time(nbytes))
        status = self._translate_status(req.status)
        self._rec("recv", status.source, status.nbytes, buf.addr, t0, blocking=True)
        return status

    # ------------------------------------------------------------------
    # persistent requests (MPI_Send_init / MPI_Recv_init / MPI_Start)
    # ------------------------------------------------------------------
    def send_init(self, buf: Buffer, dest: int, tag: int = 0) -> PersistentRequest:
        """Create an inactive persistent send (no communication yet)."""
        return PersistentRequest(self, "send", buf, dest, tag)

    def recv_init(self, buf: Buffer, source: int = ANY_SOURCE,
                  tag: int = ANY_TAG) -> PersistentRequest:
        """Create an inactive persistent receive."""
        return PersistentRequest(self, "recv", buf, source, tag)

    def start(self, preq: PersistentRequest):
        """Activate one persistent request."""
        yield from preq._start()

    def startall(self, preqs: Sequence[PersistentRequest]):
        """Activate several persistent requests."""
        for p in preqs:
            yield from p._start()

    def iprobe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG):
        """Non-blocking probe; returns a Status or None."""
        peer = ANY_SOURCE if source == ANY_SOURCE else self.world_rank(source)
        st = yield from self.ep.device.iprobe(self.ctx, peer, tag)
        return None if st is None else self._translate_status(st)

    def probe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG):
        """Blocking probe; returns the Status of a pending message
        without receiving it."""
        t0 = self.sim.now
        peer = ANY_SOURCE if source == ANY_SOURCE else self.world_rank(source)
        st = yield from self.ep.device.probe(self.ctx, peer, tag)
        status = self._translate_status(st)
        self._rec("probe", status.source, status.nbytes, -1, t0, blocking=True)
        return status

    # ------------------------------------------------------------------
    # collectives (delegated to repro.mpi.collectives)
    # ------------------------------------------------------------------
    def barrier(self):
        yield from self._run_coll("barrier", 0, -1, coll.barrier(self))

    def bcast(self, buf: Buffer, root: int = 0):
        yield from self._run_coll("bcast", buf.nbytes, buf.addr,
                                  coll.bcast(self, buf, root))

    def reduce(self, sendbuf: Buffer, recvbuf: Optional[Buffer], op: Op = SUM, root: int = 0):
        yield from self._run_coll("reduce", sendbuf.nbytes, sendbuf.addr,
                                  coll.reduce(self, sendbuf, recvbuf, op, root))

    def allreduce(self, sendbuf: Buffer, recvbuf: Buffer, op: Op = SUM):
        yield from self._run_coll("allreduce", sendbuf.nbytes, sendbuf.addr,
                                  coll.allreduce(self, sendbuf, recvbuf, op))

    def alltoall(self, sendbuf: Buffer, recvbuf: Buffer):
        yield from self._run_coll("alltoall", sendbuf.nbytes, sendbuf.addr,
                                  coll.alltoall(self, sendbuf, recvbuf))

    def alltoallv(self, sendbuf: Buffer, sendcounts: Sequence[int],
                  recvbuf: Buffer, recvcounts: Sequence[int]):
        yield from self._run_coll("alltoallv", sendbuf.nbytes, sendbuf.addr,
                                  coll.alltoallv(self, sendbuf, sendcounts,
                                                 recvbuf, recvcounts))

    def allgather(self, sendbuf: Buffer, recvbuf: Buffer):
        yield from self._run_coll("allgather", sendbuf.nbytes, sendbuf.addr,
                                  coll.allgather(self, sendbuf, recvbuf))

    def reduce_scatter(self, sendbuf: Buffer, recvbuf: Buffer, op: Op = SUM):
        yield from self._run_coll("reduce_scatter", sendbuf.nbytes, sendbuf.addr,
                                  coll.reduce_scatter(self, sendbuf, recvbuf, op))

    def scan(self, sendbuf: Buffer, recvbuf: Buffer, op: Op = SUM):
        yield from self._run_coll("scan", sendbuf.nbytes, sendbuf.addr,
                                  coll.scan(self, sendbuf, recvbuf, op))

    def gather(self, sendbuf: Buffer, recvbuf: Optional[Buffer], root: int = 0):
        yield from self._run_coll("gather", sendbuf.nbytes, sendbuf.addr,
                                  coll.gather(self, sendbuf, recvbuf, root))

    def scatter(self, sendbuf: Optional[Buffer], recvbuf: Buffer, root: int = 0):
        yield from self._run_coll("scatter", recvbuf.nbytes, recvbuf.addr,
                                  coll.scatter(self, sendbuf, recvbuf, root))

    # ------------------------------------------------------------------
    # communicator management
    # ------------------------------------------------------------------
    def dup(self) -> "Communicator":
        """Duplicate this communicator (new contexts, same group).

        Context allocation is coordinated through the world registry so
        every rank's ``n``-th dup of the same communicator agrees.
        """
        self._dup_seq += 1
        ctx = self.ep.world.shared_ctx(("dup", self.ctx, self._dup_seq))
        return Communicator(self.ep, self.group, ctx)

    def split(self, color: int, key: int = 0):
        """Collective split into sub-communicators by color (generator)."""
        self._split_seq += 1
        pairs = self.alloc_array(3 * self.size, dtype="int64")
        mine = self.alloc_array(3, dtype="int64")
        mine.data[:] = (color, key, self.rank)
        yield from self._run_coll("allgather", mine.nbytes, mine.addr,
                                  coll.allgather(self, mine, pairs))
        rows = pairs.data.reshape(self.size, 3)
        members = [
            (int(k), int(r)) for c, k, r in rows if int(c) == color
        ]
        members.sort()
        group = [self.world_rank(r) for _k, r in members]
        self.free(pairs)
        self.free(mine)
        ctx = self.ep.world.shared_ctx(("split", self.ctx, self._split_seq, color))
        return Communicator(self.ep, group, ctx)

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _translate_status(self, status: Optional[Status]) -> Status:
        if status is None:
            return Status()
        src = status.source
        if src >= 0:
            try:
                src = self.comm_rank_of(src)
            except ValueError:
                pass
        return Status(source=src, tag=status.tag, nbytes=status.nbytes)

    def _rec(self, func: str, peer: int, nbytes: int, addr: int, t0: float,
             blocking: bool) -> None:
        tracer = self.sim.tracer
        if tracer.enabled:
            tracer.emit(t0, "mpi", f"rank{self.ep.rank}", func, kind="X",
                        dur_us=max(self.sim.now - t0, 0.0),
                        data={"peer": peer, "nbytes": nbytes})
        rec = self.ep.recorder
        if rec is None:
            return
        intra = None
        if 0 <= peer < self.size:
            intra = self.ep.device.fabric.same_node(self.ep.rank, self.world_rank(peer))
        rec.record_call(self.ep.rank, func, peer, nbytes, addr, t0, self.sim.now,
                        blocking=blocking, collective=False, intra=intra)

    def _run_coll(self, name: str, nbytes: int, addr: int, gen):
        rec = self.ep.recorder
        tracer = self.sim.tracer
        t0 = self.sim.now
        if tracer.enabled:
            tracer.begin(t0, "mpi", f"rank{self.ep.rank}", name,
                         data={"nbytes": nbytes, "ctx": self.ctx})
        if rec is not None:
            rec.enter_collective(self.ep.rank)
        try:
            yield from gen
        finally:
            if tracer.enabled:
                tracer.end(self.sim.now, "mpi", f"rank{self.ep.rank}", name)
            if rec is not None:
                rec.exit_collective(self.ep.rank)
                rec.record_call(self.ep.rank, name, -1, nbytes, addr, t0, self.sim.now,
                                blocking=True, collective=True, intra=None)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Communicator rank={self.rank}/{self.size} ctx={self.ctx}>"
