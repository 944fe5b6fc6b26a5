"""Latency micro-benchmarks (Figs. 1, 4, 26).

Uni-directional latency is the classic ping-pong: round-trip time over
many iterations, halved.  The bi-directional test has both sides send
simultaneously before receiving, stressing both directions of the NIC,
bus and wire at once (§3.3).
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.microbench.common import (PAPER_LAT_SIZES, Series, run_pair,
                                     summarize_samples)

__all__ = ["measure_latency", "measure_bidir_latency", "pingpong_fn",
           "pingping_fn"]


def pingpong_fn(comm, nbytes: int, iters: int, warmup: int,
                samples: Optional[list] = None):
    """Two-rank ping-pong; rank 0 returns the one-way latency in µs.

    Given a ``samples`` list, rank 0 also appends each post-warmup
    iteration's half round-trip to it, for repetition stats; reading
    the clock adds no event, so the headline mean is unchanged.
    """
    buf = comm.alloc(nbytes)
    total = warmup + iters
    t0 = 0.0
    for i in range(total):
        if i == warmup:
            t0 = comm.sim.now
        if comm.rank == 0:
            t_iter = comm.sim.now
            yield from comm.send(buf, dest=1, tag=0)
            yield from comm.recv(buf, source=1, tag=1)
            if samples is not None and i >= warmup:
                samples.append((comm.sim.now - t_iter) / 2.0)
        else:
            yield from comm.recv(buf, source=0, tag=0)
            yield from comm.send(buf, dest=0, tag=1)
    if comm.rank == 0:
        return (comm.sim.now - t0) / (2 * iters)


def pingping_fn(comm, nbytes: int, iters: int, warmup: int):
    """Bi-directional latency: both ranks isend, then recv, each step."""
    sbuf = comm.alloc(nbytes)
    rbuf = comm.alloc(nbytes)
    other = 1 - comm.rank
    total = warmup + iters
    t0 = 0.0
    for i in range(total):
        if i == warmup:
            t0 = comm.sim.now
        sreq = yield from comm.isend(sbuf, dest=other, tag=0)
        rreq = yield from comm.irecv(rbuf, source=other, tag=0)
        yield from comm.waitall([sreq, rreq])
    if comm.rank == 0:
        return (comm.sim.now - t0) / iters


def measure_latency(network: str, sizes: Sequence[int] = PAPER_LAT_SIZES,
                    iters: int = 30, warmup: int = 5,
                    net_overrides: Optional[dict] = None,
                    mpi_options: Optional[dict] = None,
                    faults: Optional[dict] = None,
                    stats: bool = False) -> Series:
    """Fig. 1 (and Fig. 26 with ``net_overrides={'bus_kind': 'pci'}``).

    ``stats=True`` records every post-warmup iteration and attaches
    per-size repetition statistics (``Series.stats``) without changing
    the headline points.
    """
    series = Series(network)
    if stats:
        series.stats = {}
    for n in sizes:
        samples = [] if stats else None
        lat, _ = run_pair(pingpong_fn, network, args=(n, iters, warmup, samples),
                          net_overrides=net_overrides,
                          mpi_options=mpi_options, faults=faults)
        if samples is not None:
            series.stats[float(n)] = summarize_samples(samples)
        series.add(n, lat)
    return series


def measure_bidir_latency(network: str, sizes: Sequence[int] = PAPER_LAT_SIZES,
                          iters: int = 30, warmup: int = 5,
                          net_overrides: Optional[dict] = None,
                          mpi_options: Optional[dict] = None) -> Series:
    """Fig. 4."""
    series = Series(network)
    for n in sizes:
        lat, _ = run_pair(pingping_fn, network, args=(n, iters, warmup),
                          net_overrides=net_overrides, mpi_options=mpi_options)
        series.add(n, lat)
    return series
