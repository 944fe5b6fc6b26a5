"""Shared micro-benchmark machinery: size sweeps, result series, runners."""

from __future__ import annotations

from typing import Callable, Dict, Optional, Sequence

from repro.core.units import bytes_per_us_to_mbps
from repro.mpi.world import MPIWorld
from repro.series import Series, series_from_payload

__all__ = [
    "PAPER_LAT_SIZES", "PAPER_BW_SIZES", "PAPER_SMALL_SIZES",
    "Series", "run_pair", "bandwidth_mbps",
    "bench_registry", "series_from_payload", "measure",
    "summarize_samples",
]

#: Fig. 1 x-axis: 4 B .. 16 KB in powers of 4
PAPER_LAT_SIZES: Sequence[int] = tuple(4 ** k for k in range(1, 8))
#: Fig. 2 x-axis: 4 B .. 1 MB in powers of 4
PAPER_BW_SIZES: Sequence[int] = tuple(4 ** k for k in range(1, 11))
#: Fig. 3 x-axis: 2 B .. 1 KB in powers of 2
PAPER_SMALL_SIZES: Sequence[int] = tuple(2 ** k for k in range(1, 11))


def summarize_samples(samples: Sequence[float]) -> dict:
    """Repetition statistics for one measured point (n/mean/min/max/ci95).

    ``ci95`` is the normal-approximation 95% confidence half-width
    (1.96 * s / sqrt(n)), the dispersion report recommended by the
    "MPI Benchmarking Revisited" line of work; 0.0 when n < 2 (and, in
    this deterministic simulator, usually 0.0 exactly — the field earns
    its keep under fault injection and what-if perturbations).
    """
    n = len(samples)
    if n == 0:
        return {"n": 0, "mean": 0.0, "min": 0.0, "max": 0.0,
                "std": 0.0, "ci95": 0.0}
    mean = sum(samples) / n
    if n == 1:
        return {"n": 1, "mean": mean, "min": mean, "max": mean,
                "std": 0.0, "ci95": 0.0}
    var = sum((s - mean) ** 2 for s in samples) / (n - 1)
    std = var ** 0.5
    return {"n": n, "mean": mean, "min": min(samples), "max": max(samples),
            "std": std, "ci95": 1.96 * std / n ** 0.5}


def run_pair(rank_fn, network: str, nprocs: int = 2, ppn: int = 1,
             args: Sequence = (), net_overrides: Optional[dict] = None,
             record: bool = False, **world_kw):
    """Run a benchmark rank function on a fresh world; return rank 0's value."""
    world = MPIWorld(nprocs, network=network, ppn=ppn, record=record,
                     net_overrides=net_overrides, **world_kw)
    res = world.run(rank_fn, args=args)
    return res.returns[0], res


def bandwidth_mbps(nbytes_total: float, elapsed_us: float) -> float:
    """Paper-convention MB/s (MB = 2^20) from bytes over microseconds."""
    if elapsed_us <= 0:
        return 0.0
    return bytes_per_us_to_mbps(nbytes_total / elapsed_us)


# ----------------------------------------------------------------------
# run-plan integration: every measure_* sweep is addressable by name, so
# the figure drivers (and anyone else) can describe it as a RunSpec and
# get caching + parallel fan-out from repro.runtime for free.
# ----------------------------------------------------------------------
def bench_registry() -> Dict[str, Callable[..., Series]]:
    """Name -> ``measure_*`` function, for ``RunSpec(kind='microbench')``.

    Imports are local: the measurement modules import this one.
    """
    from repro.microbench import bandwidth as bw
    from repro.microbench import buffer_reuse as reuse
    from repro.microbench import collectives as coll
    from repro.microbench import intranode, latency, memusage, overhead, overlap

    return {
        "latency": latency.measure_latency,
        "bidir_latency": latency.measure_bidir_latency,
        "bandwidth": bw.measure_bandwidth,
        "bidir_bandwidth": bw.measure_bidir_bandwidth,
        "host_overhead": overhead.measure_host_overhead,
        "overlap": overlap.measure_overlap,
        "reuse_latency": reuse.measure_reuse_latency,
        "reuse_bandwidth": reuse.measure_reuse_bandwidth,
        "intranode_latency": intranode.measure_intranode_latency,
        "intranode_bandwidth": intranode.measure_intranode_bandwidth,
        "alltoall": coll.measure_alltoall,
        "allreduce": coll.measure_allreduce,
        "memory_usage": memusage.measure_memory_usage,
    }


def measure(bench: str, network: str, **kwargs) -> Series:
    """Run one registered micro-benchmark through the runtime cache.

    Keyword arguments mirror the underlying ``measure_*`` function
    (``sizes``, ``iters``, ``net_overrides``, plus bench-specific ones
    like ``window`` or ``reuse_pct``).
    """
    from repro import runtime
    from repro.runtime.spec import RunSpec

    spec = RunSpec.microbench(bench, network, **kwargs)
    return series_from_payload(runtime.run_spec(spec))
