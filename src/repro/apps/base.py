"""Common application machinery: the AppBase contract and helpers."""

from __future__ import annotations

from typing import Optional

from repro.apps.classes import ProblemConfig
from repro.mpi.datatypes import ITEMSIZE

__all__ = ["AppBase"]


class AppBase:
    """Base class for the NAS / Sweep3D implementations.

    Subclasses implement ``setup``, ``iteration`` and ``finalize`` as
    generator coroutines over a communicator.  ``verify=True`` runs real
    numerics on real arrays (small classes); paper mode uses placeholder
    buffers and the calibrated work model.
    """

    NAME = "app"

    def __init__(self, cfg: ProblemConfig, nprocs: int, verify: bool = False) -> None:
        self.cfg = cfg
        self.nprocs = nprocs
        self.verify = verify
        self.verified: Optional[bool] = None
        self._iter_work_us = cfg.work_us_per_iter(nprocs)

    # -- lifecycle (subclass responsibilities) --------------------------
    def setup(self, comm):
        raise NotImplementedError
        yield  # pragma: no cover

    def iteration(self, comm, it: int):
        raise NotImplementedError
        yield  # pragma: no cover

    def finalize(self, comm):
        """Optional verification/teardown; default does nothing."""
        if False:  # pragma: no cover - make this a generator
            yield

    # -- helpers ------------------------------------------------------------
    def work(self, comm, fraction: float):
        """Charge ``fraction`` of one iteration's modelled compute.

        A generator (use ``yield from``); charges nothing in verify mode
        when the config carries no calibrated work.
        """
        us = self._iter_work_us * fraction
        if us > 0:
            yield comm.cpu.compute(us)

    def alloc_vec(self, comm, n: int, dtype: str = "float64"):
        """Array-backed in verify mode, placeholder otherwise.

        ``dtype`` is a numpy dtype name; a placeholder takes its size
        from ``ITEMSIZE``, so paper mode never imports numpy.
        """
        if self.verify:
            return comm.alloc_array(int(n), dtype=dtype)
        return comm.alloc(int(n) * ITEMSIZE[dtype])

    def alloc_bytes(self, comm, nbytes: int):
        return comm.alloc(int(max(nbytes, 1)))
