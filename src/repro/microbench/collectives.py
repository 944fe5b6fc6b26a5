"""Collective micro-benchmarks, Pallas-MPI-Benchmark style (Figs. 11, 12).

PMB methodology: repeat the collective many times on all ranks and
report the average per-operation time.  The paper runs MPI_Alltoall and
MPI_Allreduce on 8 nodes for 4 B .. 4 KB.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.microbench.common import Series
from repro.mpi.world import MPIWorld

__all__ = ["measure_alltoall", "measure_allreduce", "COLL_SIZES"]

#: Figs. 11/12 x-axis: 4 B .. 4 KB
COLL_SIZES: Sequence[int] = tuple(4 ** k for k in range(1, 7))


def _alltoall_loop(comm, nbytes: int, iters: int, warmup: int):
    size = comm.size
    sbuf = comm.alloc(nbytes * size)
    rbuf = comm.alloc(nbytes * size)
    t0 = 0.0
    for i in range(warmup + iters):
        if i == warmup:
            yield from comm.barrier()
            t0 = comm.sim.now
        yield from comm.alltoall(sbuf, rbuf)
    if comm.rank == 0:
        return (comm.sim.now - t0) / iters


def _allreduce_loop(comm, nbytes: int, iters: int, warmup: int):
    # placeholder buffers of n float64 elements: PMB reads no sum, and a
    # dataless buffer charges the same bytes, addresses and combine cost
    n = max(1, nbytes // 8)
    sbuf = comm.alloc(8 * n)
    rbuf = comm.alloc(8 * n)
    t0 = 0.0
    for i in range(warmup + iters):
        if i == warmup:
            yield from comm.barrier()
            t0 = comm.sim.now
        yield from comm.allreduce(sbuf, rbuf)
    if comm.rank == 0:
        return (comm.sim.now - t0) / iters


def _measure(loop_fn, network: str, nprocs: int, sizes, iters, warmup,
             net_overrides) -> Series:
    series = Series(network)
    for n in sizes:
        world = MPIWorld(nprocs, network=network, record=False,
                         net_overrides=net_overrides)
        res = world.run(loop_fn, args=(n, iters, warmup))
        series.add(n, res.returns[0])
    return series


def measure_alltoall(network: str, nprocs: int = 8,
                     sizes: Sequence[int] = COLL_SIZES, iters: int = 20,
                     warmup: int = 3, net_overrides: Optional[dict] = None) -> Series:
    """Fig. 11: PMB Alltoall average time on ``nprocs`` nodes."""
    return _measure(_alltoall_loop, network, nprocs, sizes, iters, warmup,
                    net_overrides)


def measure_allreduce(network: str, nprocs: int = 8,
                      sizes: Sequence[int] = COLL_SIZES, iters: int = 20,
                      warmup: int = 3, net_overrides: Optional[dict] = None) -> Series:
    """Fig. 12: PMB Allreduce average time on ``nprocs`` nodes."""
    return _measure(_allreduce_loop, network, nprocs, sizes, iters, warmup,
                    net_overrides)
