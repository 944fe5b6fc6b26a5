"""MPI memory usage micro-benchmark (Fig. 13) and its closed form.

The paper runs a trivial barrier program on 2..8 nodes and reads each
process's resident memory from /proc.  Our MPI devices account their
modelled footprints (per-connection RC resources for MVAPICH, flat
pools for GM and Tports), so the measurement is a direct readout after
running the same barrier program.

``node_counts`` is a parameter (spec-addressable via ``RunSpec.params``)
so a sweep can read the footprint at any rank count.
:func:`analytic_memory_mb` states the same device memory model in
closed form, ``MEM_BASE_MB + MEM_PER_CONN_MB * npeers``, which the
simulated readout of a statically connected device must equal.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.microbench.common import Series
from repro.mpi.world import MPIWorld

__all__ = ["measure_memory_usage", "analytic_memory_mb", "MEM_NODE_COUNTS"]

MEM_NODE_COUNTS: Sequence[int] = tuple(range(2, 9))


def _barrier_program(comm):
    yield from comm.barrier()


def analytic_memory_mb(device_cls, nprocs: int) -> float:
    """Closed-form per-process MPI memory (MB) for ``nprocs`` ranks.

    Statically connected devices hold one connection per peer — exactly
    what the simulated barrier readout reports.
    """
    if nprocs < 1:
        raise ValueError("nprocs must be >= 1")
    return device_cls.MEM_BASE_MB + device_cls.MEM_PER_CONN_MB * (nprocs - 1)


def measure_memory_usage(network: str, node_counts: Sequence[int] = MEM_NODE_COUNTS,
                         net_overrides: Optional[dict] = None,
                         mpi_options: Optional[dict] = None) -> Series:
    """Per-process MPI memory (MB) vs. number of nodes."""
    series = Series(network)
    for n in node_counts:
        world = MPIWorld(n, network=network, record=False,
                         net_overrides=net_overrides, mpi_options=mpi_options)
        world.run(_barrier_program)
        series.add(n, world.memory_usage_mb(0))
    return series
