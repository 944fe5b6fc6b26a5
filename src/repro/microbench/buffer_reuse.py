"""Buffer reuse micro-benchmarks (Figs. 7, 8).

Methodology (§3.5): over N iterations, a fraction R uses one fixed
buffer while the rest use completely fresh buffers.  Fresh buffers miss
the pin-down cache (InfiniBand, Myrinet above 16 KB) or the Elan MMU
translation cache (Quadrics), exposing registration / translation costs
that 100 %-reuse benchmarks never show.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.microbench.common import Series, bandwidth_mbps, run_pair
from repro.series import REUSE_PERCENTS

__all__ = ["measure_reuse_latency", "measure_reuse_bandwidth",
           "REUSE_LAT_SIZES", "REUSE_BW_SIZES", "REUSE_PERCENTS"]

#: Fig. 7 x-axis: 64 B .. 16 KB
REUSE_LAT_SIZES: Sequence[int] = tuple(4 ** k for k in range(3, 8))
#: Fig. 8 x-axis: 4 B .. 64 KB
REUSE_BW_SIZES: Sequence[int] = tuple(4 ** k for k in range(1, 9))


def _buffers_for(comm, nbytes: int, iters: int, reuse_pct: int):
    """Build the per-iteration buffer schedule for one rank."""
    fixed = comm.alloc(nbytes)
    bufs = []
    n_reuse = round(iters * reuse_pct / 100.0)
    for i in range(iters):
        if i < n_reuse:
            bufs.append(fixed)
        else:
            bufs.append(comm.alloc(nbytes, recycle=False))  # brand-new pages
    # interleave so reused/fresh alternate rather than cluster
    order = sorted(range(iters), key=lambda i: (i * 7919) % iters)
    return [bufs[i] for i in order]


def _reuse_pingpong(comm, nbytes: int, iters: int, reuse_pct: int, warmup: int):
    sched = _buffers_for(comm, nbytes, iters, reuse_pct)
    warm = comm.alloc(nbytes)
    t0 = 0.0
    for i in range(warmup):
        if comm.rank == 0:
            yield from comm.send(warm, dest=1, tag=0)
            yield from comm.recv(warm, source=1, tag=1)
        else:
            yield from comm.recv(warm, source=0, tag=0)
            yield from comm.send(warm, dest=0, tag=1)
    t0 = comm.sim.now
    for buf in sched:
        if comm.rank == 0:
            yield from comm.send(buf, dest=1, tag=0)
            yield from comm.recv(buf, source=1, tag=1)
        else:
            yield from comm.recv(buf, source=0, tag=0)
            yield from comm.send(buf, dest=0, tag=1)
    if comm.rank == 0:
        return (comm.sim.now - t0) / (2 * len(sched))


def _reuse_stream(comm, nbytes: int, iters: int, reuse_pct: int, window: int):
    sched = _buffers_for(comm, nbytes, iters, reuse_pct)
    ack = comm.alloc(4)
    t0 = comm.sim.now
    if comm.rank == 0:
        for start in range(0, len(sched), window):
            reqs = []
            for buf in sched[start:start + window]:
                r = yield from comm.isend(buf, dest=1, tag=0)
                reqs.append(r)
            yield from comm.waitall(reqs)
        yield from comm.recv(ack, source=1, tag=9)
        return bandwidth_mbps(len(sched) * nbytes, comm.sim.now - t0)
    else:
        for start in range(0, len(sched), window):
            reqs = []
            for buf in sched[start:start + window]:
                r = yield from comm.irecv(buf, source=0, tag=0)
                reqs.append(r)
            yield from comm.waitall(reqs)
        yield from comm.send(ack, dest=0, tag=9)


def measure_reuse_latency(network: str, reuse_pct: int,
                          sizes: Sequence[int] = REUSE_LAT_SIZES,
                          iters: int = 40, warmup: int = 3,
                          net_overrides: Optional[dict] = None) -> Series:
    """Fig. 7: latency at a given buffer reuse percentage."""
    series = Series(f"{network} {reuse_pct}%")
    for n in sizes:
        lat, _ = run_pair(_reuse_pingpong, network, args=(n, iters, reuse_pct, warmup),
                          net_overrides=net_overrides)
        series.add(n, lat)
    return series


def measure_reuse_bandwidth(network: str, reuse_pct: int,
                            sizes: Sequence[int] = REUSE_BW_SIZES,
                            iters: int = 128, window: int = 16,
                            net_overrides: Optional[dict] = None) -> Series:
    """Fig. 8: bandwidth at a given buffer reuse percentage."""
    series = Series(f"{network} {reuse_pct}%")
    for n in sizes:
        bw, _ = run_pair(_reuse_stream, network, args=(n, iters, reuse_pct, window),
                         net_overrides=net_overrides)
        series.add(n, bw)
    return series
