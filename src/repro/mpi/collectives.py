"""Collective algorithms, MPICH 1.2.x style.

All three studied MPI ports implement collectives over point-to-point
(§3.7 notes MVAPICH's collectives are pt2pt-based and Quadrics/Myrinet
use the stock MPICH algorithms), so we do the same — the collective
performance differences of Figs. 11 and 12 *emerge* from the
point-to-point characteristics rather than being calibrated:

- Barrier: dissemination (log2 P rounds of sendrecv);
- Bcast / Reduce: binomial trees;
- Allreduce: Reduce to root + Bcast (the MPICH 1.2.x composition — this
  is why small-message Allreduce costs ~2 log2(P) latencies);
- Alltoall(v): post all irecvs, post all isends, waitall (whose cost is
  dominated by per-message host/NIC occupancy — the Fig. 11 story);
- Allgather: ring;
- Gather / Scatter: linear with the root.

Reduction arithmetic is charged as host time via the memcpy model and
actually computed when buffers carry real arrays.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Optional, Sequence

from repro.hardware.memory import Buffer
from repro.mpi.constants import Op

__all__ = [
    "barrier", "bcast", "reduce", "allreduce", "alltoall", "alltoallv",
    "allgather", "gather", "scatter", "reduce_scatter", "scan",
]

#: tag used by internal collective traffic (separate context anyway)
COLL_TAG = 0xC011


def _cctx(comm) -> int:
    """The collective context id of a communicator."""
    return comm.ctx + 1


def _scratch(comm, template: Buffer, nbytes: int) -> Buffer:
    """Scratch buffer matching the payload-ness of ``template``."""
    if template is not None and template.data is not None:
        dtype = template.data.dtype
        n = max(1, nbytes // dtype.itemsize)
        return comm.alloc_array(n, dtype=dtype)
    return comm.alloc(nbytes)


def _copy_data(dst: Optional[Buffer], src: Optional[Buffer], nbytes: int) -> None:
    if dst is None or src is None or dst.data is None or src.data is None:
        return
    d = dst.data.reshape(-1).view("uint8")
    s = src.data.reshape(-1).view("uint8")
    n = min(nbytes, d.shape[0], s.shape[0])
    d[:n] = s[:n]


def _combine(comm, op: Op, acc: Buffer, incoming: Buffer):
    """acc = op(acc, incoming); charges host time for the arithmetic."""
    yield comm.cpu.comm(comm.cpu.memcpy.copy_time(acc.nbytes))
    if acc.data is not None and incoming.data is not None:
        a = acc.data.reshape(-1)
        b = incoming.data.reshape(-1)[: a.shape[0]].astype(a.dtype, copy=False)
        acc.data.reshape(-1)[:] = op(a, b)


# ----------------------------------------------------------------------
# barrier: dissemination
# ----------------------------------------------------------------------
def barrier(comm):
    """Dissemination barrier (log2 P rounds of pairwise exchange)."""
    size, rank = comm.size, comm.rank
    if size == 1:
        yield comm.cpu.comm(0.1)
        return
    if comm.ep.device.rdma_coll:  # channel capability + option, see Ch3Device
        yield from _rdma_barrier(comm)
        return
    token = comm.alloc(1)
    peer_buf = comm.alloc(1)
    k = 1
    while k < size:
        dst = (rank + k) % size
        src = (rank - k) % size
        rreq = yield from comm._irecv(peer_buf, src, COLL_TAG, ctx=_cctx(comm))
        sreq = yield from comm._isend(token, dst, COLL_TAG, ctx=_cctx(comm))
        yield from comm._waitall([rreq, sreq])
        k <<= 1
    comm.free(token)
    comm.free(peer_buf)


# ----------------------------------------------------------------------
# bcast: binomial tree rooted at `root`
# ----------------------------------------------------------------------
def bcast(comm, buf: Buffer, root: int = 0):
    """Binomial-tree broadcast from ``root``."""
    size, rank = comm.size, comm.rank
    if size == 1:
        return
    rel = (rank - root) % size
    mask = 1
    while mask < size:
        if rel & mask:
            src = (rel - mask + root) % size
            yield from _recv(comm, buf, src)
            break
        mask <<= 1
    mask >>= 1
    while mask > 0:
        if rel + mask < size:
            dst = (rel + mask + root) % size
            yield from _send(comm, buf, dst)
        mask >>= 1


# ----------------------------------------------------------------------
# reduce: binomial tree gather-with-combine
# ----------------------------------------------------------------------
def reduce(comm, sendbuf: Buffer, recvbuf: Optional[Buffer], op: Op, root: int = 0):
    """Binomial-tree reduction to ``root`` (recvbuf needed at root only)."""
    size, rank = comm.size, comm.rank
    acc = _scratch(comm, sendbuf, sendbuf.nbytes)
    _copy_data(acc, sendbuf, sendbuf.nbytes)
    if acc.data is not None and sendbuf.data is None:
        acc.data[:] = 0
    scratch = _scratch(comm, sendbuf, sendbuf.nbytes)
    rel = (rank - root) % size
    mask = 1
    while mask < size:
        if rel & mask:
            dst = (rel - mask + root) % size
            yield from _send(comm, acc, dst)
            break
        src_rel = rel | mask
        if src_rel < size:
            src = (src_rel + root) % size
            yield from _recv(comm, scratch, src)
            yield from _combine(comm, op, acc, scratch)
        mask <<= 1
    if rank == root and recvbuf is not None:
        _copy_data(recvbuf, acc, sendbuf.nbytes)
    comm.free(acc)
    comm.free(scratch)


# ----------------------------------------------------------------------
# allreduce — algorithm depends on the port's MPICH base version:
# reduce+bcast (MPICH 1.2.2/1.2.4: MVAPICH, MPICH-Quadrics) or
# recursive doubling (MPICH 1.2.5: MPICH-GM).  Fig. 12's orderings
# (Quadrics 28 µs < Myrinet 35 µs < InfiniBand 46 µs for small
# messages) follow from these compositions and the pt2pt latencies.
# ----------------------------------------------------------------------
def allreduce(comm, sendbuf: Buffer, recvbuf: Buffer, op: Op):
    """Allreduce; algorithm depends on the port (see module docstring)."""
    if (comm.ep.device.rdma_coll
            and sendbuf.nbytes <= 2048
            and comm.size & (comm.size - 1) == 0):
        yield from _rdma_allreduce(comm, sendbuf, recvbuf, op)
        return
    algo = comm.ep.device.caps.allreduce_algo
    if algo == "rdbl" and comm.size & (comm.size - 1) == 0:
        yield from _allreduce_rdbl(comm, sendbuf, recvbuf, op)
    else:
        yield from reduce(comm, sendbuf, recvbuf, op, root=0)
        yield from bcast(comm, recvbuf, root=0)


def _allreduce_rdbl(comm, sendbuf: Buffer, recvbuf: Buffer, op: Op):
    """Recursive doubling: log2(P) rounds of pairwise exchange+combine."""
    size, rank = comm.size, comm.rank
    acc = _scratch(comm, sendbuf, sendbuf.nbytes)
    _copy_data(acc, sendbuf, sendbuf.nbytes)
    scratch = _scratch(comm, sendbuf, sendbuf.nbytes)
    mask = 1
    while mask < size:
        partner = rank ^ mask
        rreq = yield from comm._irecv(scratch, partner, COLL_TAG, ctx=_cctx(comm))
        sreq = yield from comm._isend(acc, partner, COLL_TAG, ctx=_cctx(comm))
        yield from comm._waitall([rreq, sreq])
        yield from _combine(comm, op, acc, scratch)
        mask <<= 1
    _copy_data(recvbuf, acc, sendbuf.nbytes)
    comm.free(acc)
    comm.free(scratch)


# ----------------------------------------------------------------------
# RDMA-based collectives (MVAPICH option ``rdma_collectives``).
# Direct RDMA writes into pre-registered flag slots skip the matching
# path entirely — the [Kini et al. 03] optimization the paper says was
# in progress for MVAPICH (§3.7).  Slot keys carry a per-communicator
# epoch so rounds of successive collectives never alias.
# ----------------------------------------------------------------------
def _rdma_epoch(comm) -> int:
    n = getattr(comm, "_rdma_epoch", 0) + 1
    comm._rdma_epoch = n
    return n


def _rdma_barrier(comm):
    """Dissemination barrier over RDMA flags: log2(P) rounds."""
    size, rank = comm.size, comm.rank
    dev = comm.ep.device
    epoch = _rdma_epoch(comm)
    k = 1
    rnd = 0
    while k < size:
        dst = (rank + k) % size
        src = (rank - k) % size
        yield from dev.rdma_signal(dst, slot=("bar", comm.ctx, epoch, rnd, rank))
        yield from dev.rdma_wait_signal(("bar", comm.ctx, epoch, rnd, src))
        k <<= 1
        rnd += 1


def _rdma_allreduce(comm, sendbuf: Buffer, recvbuf: Buffer, op: Op):
    """Recursive-doubling allreduce over RDMA slot writes (small msgs)."""
    size, rank = comm.size, comm.rank
    dev = comm.ep.device
    epoch = _rdma_epoch(comm)
    acc = _scratch(comm, sendbuf, sendbuf.nbytes)
    _copy_data(acc, sendbuf, sendbuf.nbytes)
    mask = 1
    rnd = 0
    while mask < size:
        partner = rank ^ mask
        payload = None
        if acc.data is not None:
            payload = acc.data.reshape(-1).view("uint8").copy()
        yield from dev.rdma_signal(partner,
                                   slot=("ar", comm.ctx, epoch, rnd, rank),
                                   nbytes=sendbuf.nbytes, payload=payload)
        incoming = yield from dev.rdma_wait_signal(
            ("ar", comm.ctx, epoch, rnd, partner))
        yield comm.cpu.comm(comm.cpu.memcpy.copy_time(acc.nbytes))
        if acc.data is not None and incoming is not None:
            import numpy as np

            a = acc.data.reshape(-1)
            b = np.frombuffer(incoming.tobytes(), dtype=a.dtype)[: a.shape[0]]
            acc.data.reshape(-1)[:] = op(a, b)
        mask <<= 1
        rnd += 1
    _copy_data(recvbuf, acc, sendbuf.nbytes)
    comm.free(acc)


# ----------------------------------------------------------------------
# alltoall: post-all-irecv / post-all-isend / waitall
# ----------------------------------------------------------------------
def alltoall(comm, sendbuf: Buffer, recvbuf: Buffer):
    """All-to-all: post all irecvs, all isends, waitall (MPICH 1.2.x)."""
    size, rank = comm.size, comm.rank
    blk_s = sendbuf.nbytes // size
    blk_r = recvbuf.nbytes // size
    reqs = []
    for i in range(1, size):
        src = (rank - i) % size
        r = yield from comm._irecv(recvbuf.view(src * blk_r, blk_r), src,
                                   COLL_TAG, ctx=_cctx(comm))
        reqs.append(r)
    # local block: straight memcpy
    yield comm.cpu.comm(comm.cpu.memcpy.copy_time(blk_s))
    _copy_data(recvbuf.view(rank * blk_r, blk_r), sendbuf.view(rank * blk_s, blk_s), blk_s)
    for i in range(1, size):
        dst = (rank + i) % size
        s = yield from comm._isend(sendbuf.view(dst * blk_s, blk_s), dst,
                                   COLL_TAG, ctx=_cctx(comm))
        reqs.append(s)
    yield from comm._waitall(reqs)


def alltoallv(comm, sendbuf: Buffer, sendcounts: Sequence[int],
              recvbuf: Buffer, recvcounts: Sequence[int]):
    """Vector all-to-all; counts/displacements are in bytes."""
    size, rank = comm.size, comm.rank
    if len(sendcounts) != size or len(recvcounts) != size:
        raise ValueError("alltoallv counts must have comm.size entries")
    sdispl = list(accumulate(sendcounts[:-1], initial=0))
    rdispl = list(accumulate(recvcounts[:-1], initial=0))
    reqs = []
    for i in range(1, size):
        src = (rank - i) % size
        if recvcounts[src] > 0:
            r = yield from comm._irecv(
                recvbuf.view(int(rdispl[src]), int(recvcounts[src])), src,
                COLL_TAG, ctx=_cctx(comm))
            reqs.append(r)
    n_local = min(int(sendcounts[rank]), int(recvcounts[rank]))
    if n_local > 0:
        yield comm.cpu.comm(comm.cpu.memcpy.copy_time(n_local))
        _copy_data(recvbuf.view(int(rdispl[rank]), n_local),
                   sendbuf.view(int(sdispl[rank]), n_local), n_local)
    for i in range(1, size):
        dst = (rank + i) % size
        if sendcounts[dst] > 0:
            s = yield from comm._isend(
                sendbuf.view(int(sdispl[dst]), int(sendcounts[dst])), dst,
                COLL_TAG, ctx=_cctx(comm))
            reqs.append(s)
    yield from comm._waitall(reqs)


# ----------------------------------------------------------------------
# allgather: ring
# ----------------------------------------------------------------------
def allgather(comm, sendbuf: Buffer, recvbuf: Buffer):
    """Ring allgather: size-1 steps of neighbour shifts."""
    size, rank = comm.size, comm.rank
    blk = recvbuf.nbytes // size
    # place own contribution
    yield comm.cpu.comm(comm.cpu.memcpy.copy_time(min(blk, sendbuf.nbytes)))
    _copy_data(recvbuf.view(rank * blk, blk), sendbuf, min(blk, sendbuf.nbytes))
    if size == 1:
        return
    left = (rank - 1) % size
    right = (rank + 1) % size
    for step in range(size - 1):
        send_block = (rank - step) % size
        recv_block = (rank - step - 1) % size
        rreq = yield from comm._irecv(recvbuf.view(recv_block * blk, blk), left,
                                      COLL_TAG, ctx=_cctx(comm))
        sreq = yield from comm._isend(recvbuf.view(send_block * blk, blk), right,
                                      COLL_TAG, ctx=_cctx(comm))
        yield from comm._waitall([rreq, sreq])


# ----------------------------------------------------------------------
# reduce_scatter (equal blocks): reduce to root, scatter the blocks —
# the MPICH 1.2.x composition, consistent with allreduce
# ----------------------------------------------------------------------
def reduce_scatter(comm, sendbuf: Buffer, recvbuf: Buffer, op: Op):
    """Reduce then scatter equal blocks (MPICH 1.2.x composition)."""
    size, rank = comm.size, comm.rank
    blk = sendbuf.nbytes // size
    if recvbuf.nbytes < blk:
        raise ValueError(
            f"reduce_scatter needs a {blk} B receive block, got {recvbuf.nbytes}")
    tmp = _scratch(comm, sendbuf, sendbuf.nbytes)
    yield from reduce(comm, sendbuf, tmp if rank == 0 else None, op, root=0)
    yield from scatter(comm, tmp if rank == 0 else None, recvbuf, root=0)
    comm.free(tmp)


# ----------------------------------------------------------------------
# scan (inclusive prefix reduction): linear pipeline, MPICH 1.2.x style
# ----------------------------------------------------------------------
def scan(comm, sendbuf: Buffer, recvbuf: Buffer, op: Op):
    """Inclusive prefix reduction via a linear rank pipeline."""
    size, rank = comm.size, comm.rank
    acc = _scratch(comm, sendbuf, sendbuf.nbytes)
    _copy_data(acc, sendbuf, sendbuf.nbytes)
    if rank > 0:
        incoming = _scratch(comm, sendbuf, sendbuf.nbytes)
        yield from _recv(comm, incoming, rank - 1)
        yield from _combine(comm, op, acc, incoming)
        comm.free(incoming)
    if rank < size - 1:
        yield from _send(comm, acc, rank + 1)
    _copy_data(recvbuf, acc, sendbuf.nbytes)
    comm.free(acc)


# ----------------------------------------------------------------------
# gather / scatter: linear with root
# ----------------------------------------------------------------------
def gather(comm, sendbuf: Buffer, recvbuf: Optional[Buffer], root: int = 0):
    """Linear gather to ``root``."""
    size, rank = comm.size, comm.rank
    if rank == root:
        if recvbuf is None:
            raise ValueError("root must supply a receive buffer to gather")
        blk = recvbuf.nbytes // size
        yield comm.cpu.comm(comm.cpu.memcpy.copy_time(min(blk, sendbuf.nbytes)))
        _copy_data(recvbuf.view(rank * blk, blk), sendbuf, min(blk, sendbuf.nbytes))
        reqs = []
        for src in range(size):
            if src == rank:
                continue
            r = yield from comm._irecv(recvbuf.view(src * blk, blk), src,
                                       COLL_TAG, ctx=_cctx(comm))
            reqs.append(r)
        yield from comm._waitall(reqs)
    else:
        yield from _send(comm, sendbuf, root)


def scatter(comm, sendbuf: Optional[Buffer], recvbuf: Buffer, root: int = 0):
    """Linear scatter from ``root``."""
    size, rank = comm.size, comm.rank
    if rank == root:
        if sendbuf is None:
            raise ValueError("root must supply a send buffer to scatter")
        blk = sendbuf.nbytes // size
        reqs = []
        for dst in range(size):
            if dst == rank:
                continue
            s = yield from comm._isend(sendbuf.view(dst * blk, blk), dst,
                                       COLL_TAG, ctx=_cctx(comm))
            reqs.append(s)
        yield comm.cpu.comm(comm.cpu.memcpy.copy_time(min(blk, recvbuf.nbytes)))
        _copy_data(recvbuf, sendbuf.view(rank * blk, blk), min(blk, recvbuf.nbytes))
        yield from comm._waitall(reqs)
    else:
        yield from _recv(comm, recvbuf, root)


# ----------------------------------------------------------------------
# blocking internal helpers
# ----------------------------------------------------------------------
def _send(comm, buf: Buffer, dst: int):
    req = yield from comm._isend(buf, dst, COLL_TAG, ctx=_cctx(comm))
    yield from comm._waitall([req])


def _recv(comm, buf: Buffer, src: int):
    req = yield from comm._irecv(buf, src, COLL_TAG, ctx=_cctx(comm))
    yield from comm._waitall([req])
