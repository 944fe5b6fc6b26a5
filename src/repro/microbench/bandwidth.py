"""Bandwidth micro-benchmarks (Figs. 2, 5, 27).

The paper's methodology (§3.1): the sender streams back-to-back
non-blocking sends up to a window W, waits for them, and repeats;
bandwidth is the sustained byte rate.  The window size matters — it is
how Fig. 2 exposes Quadrics' 16-deep transmit queue.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.microbench.common import (PAPER_BW_SIZES, Series, bandwidth_mbps,
                                     run_pair, summarize_samples)

__all__ = ["measure_bandwidth", "measure_bidir_bandwidth", "stream_fn",
           "bistream_fn"]


def stream_fn(comm, nbytes: int, window: int, rounds: int, warmup_rounds: int,
              samples: Optional[list] = None):
    """Windowed uni-directional stream; rank 0 returns MB/s.

    Given a ``samples`` list, rank 0 also appends each post-warmup
    round's MB/s to it; reading the clock adds no event, so the
    headline figure is unchanged.  Per-round rates exclude the final
    delivery handshake, so their mean sits slightly above the headline
    sustained figure — they measure dispersion, not a second bandwidth
    estimate.
    """
    total_rounds = warmup_rounds + rounds
    if comm.rank == 0:
        bufs = [comm.alloc(nbytes) for _ in range(window)]
        ack = comm.alloc(4)
        t0 = 0.0
        for r in range(total_rounds):
            if r == warmup_rounds:
                t0 = comm.sim.now
            t_round = comm.sim.now
            reqs = []
            for w in range(window):
                req = yield from comm.isend(bufs[w], dest=1, tag=0)
                reqs.append(req)
            yield from comm.waitall(reqs)
            if samples is not None and r >= warmup_rounds:
                samples.append(bandwidth_mbps(window * nbytes,
                                              comm.sim.now - t_round))
        # final handshake so timing covers delivery of the last window
        yield from comm.recv(ack, source=1, tag=9)
        elapsed = comm.sim.now - t0
        return bandwidth_mbps(rounds * window * nbytes, elapsed)
    else:
        bufs = [comm.alloc(nbytes) for _ in range(window)]
        ack = comm.alloc(4)
        for r in range(total_rounds):
            reqs = []
            for w in range(window):
                req = yield from comm.irecv(bufs[w], source=0, tag=0)
                reqs.append(req)
            yield from comm.waitall(reqs)
        yield from comm.send(ack, dest=0, tag=9)


def bistream_fn(comm, nbytes: int, window: int, rounds: int, warmup_rounds: int):
    """Windowed bi-directional stream; rank 0 returns aggregate MB/s."""
    other = 1 - comm.rank
    sbufs = [comm.alloc(nbytes) for _ in range(window)]
    rbufs = [comm.alloc(nbytes) for _ in range(window)]
    total_rounds = warmup_rounds + rounds
    t0 = 0.0
    for r in range(total_rounds):
        if r == warmup_rounds:
            t0 = comm.sim.now
        reqs = []
        for w in range(window):
            rr = yield from comm.irecv(rbufs[w], source=other, tag=0)
            reqs.append(rr)
        for w in range(window):
            sr = yield from comm.isend(sbufs[w], dest=other, tag=0)
            reqs.append(sr)
        yield from comm.waitall(reqs)
    elapsed = comm.sim.now - t0
    if comm.rank == 0:
        # both directions moved rounds*window*nbytes each
        return bandwidth_mbps(2.0 * rounds * window * nbytes, elapsed)


def measure_bandwidth(network: str, sizes: Sequence[int] = PAPER_BW_SIZES,
                      window: int = 16, rounds: int = 12, warmup_rounds: int = 3,
                      net_overrides: Optional[dict] = None,
                      mpi_options: Optional[dict] = None,
                      faults: Optional[dict] = None,
                      stats: bool = False) -> Series:
    """Fig. 2 (and Fig. 27 with ``net_overrides={'bus_kind': 'pci'}``).

    ``stats=True`` attaches per-size round-rate statistics
    (``Series.stats``) without changing the headline points.
    """
    series = Series(f"{network} W={window}")
    if stats:
        series.stats = {}
    for n in sizes:
        samples = [] if stats else None
        bw, _ = run_pair(stream_fn, network,
                         args=(n, window, rounds, warmup_rounds, samples),
                         net_overrides=net_overrides,
                         mpi_options=mpi_options, faults=faults)
        if samples is not None:
            series.stats[float(n)] = summarize_samples(samples)
        series.add(n, bw)
    return series


def measure_bidir_bandwidth(network: str, sizes: Sequence[int] = PAPER_BW_SIZES,
                            window: int = 16, rounds: int = 12, warmup_rounds: int = 3,
                            net_overrides: Optional[dict] = None,
                            mpi_options: Optional[dict] = None) -> Series:
    """Fig. 5 (window 16, like the paper)."""
    series = Series(network)
    for n in sizes:
        bw, _ = run_pair(bistream_fn, network, args=(n, window, rounds, warmup_rounds),
                         net_overrides=net_overrides, mpi_options=mpi_options)
        series.add(n, bw)
    return series
