"""MPICH-logging-style call and transfer recording.

Two record streams:

- **calls**: one per user-level MPI call (Send, Irecv, Alltoall, ...).
  Carries the buffer address so buffer-reuse analysis (Table 4) works
  exactly like the paper's modified logger.
- **transfers**: one per point-to-point wire/shared-memory message,
  including those generated *inside* collectives.  Message-size
  distributions (Table 1) and communication volume shares (Tables 5, 6)
  are computed from this stream.

Recording can be scaled: application benchmarks that simulate a sample
of iterations and extrapolate set ``scale`` so the derived statistics
reflect the full run.

Both record types are ``NamedTuple``s whose field order *is* the row
format of the cached payload, so :meth:`Recorder.to_dict` and
:meth:`Recorder.from_dict` convert whole streams in bulk.

A Recorder rehydrated from a cached payload is **read-only**: the
profiling tables decode one per run and compute every statistic of the
run's summary from it (:func:`repro.runtime.derive`).  Only the live
world that fills a Recorder may record into it, clear it or set
``scale``/``sample_iters``.
"""

from __future__ import annotations

from itertools import repeat
from typing import Dict, List, NamedTuple, Optional

__all__ = ["CallRecord", "TransferRecord", "Recorder"]


class CallRecord(NamedTuple):
    """One user-level MPI call."""

    rank: int
    func: str              # 'send', 'isend', 'recv', 'irecv', 'alltoall', ...
    peer: int              # dest/source (world rank), -1 for collectives
    nbytes: int
    buf_addr: int          # -1 when no user buffer is involved
    t_start: float
    t_end: float
    blocking: bool
    collective: bool
    intra: Optional[bool]  # same-node peer? (None for collectives)


class TransferRecord(NamedTuple):
    """One point-to-point message put on a wire or shared segment."""

    rank: int
    peer: int
    nbytes: int
    intra: bool
    in_collective: bool
    time: float


def _rows(cls, rows):
    """``list(map(cls._make, rows))`` without a Python call per row.

    ``tuple.__new__`` builds each record in C, so the row lengths are
    checked once up front, with ``_make``'s ``TypeError``.
    """
    n = len(cls._fields)
    bad = set(map(len, rows)) - {n}
    if bad:
        raise TypeError(f"Expected {n} arguments, got {min(bad)}")
    return list(map(tuple.__new__, repeat(cls), rows))


class Recorder:
    """Collects call/transfer records from every rank of a world.

    Once decoded from a cached payload it is read-only by contract (see
    the module docstring).
    """

    def __init__(self) -> None:
        self.calls: List[CallRecord] = []
        self.transfers: List[TransferRecord] = []
        self._collective_depth: Dict[int, int] = {}
        #: multiply counts by this when extrapolating sampled runs
        self.scale: float = 1.0
        #: how many main-loop iterations were actually simulated (lets
        #: statistics isolate the steady-state last iteration)
        self.sample_iters: int = 1
        self.enabled = True

    # -- collective attribution -------------------------------------------
    def enter_collective(self, rank: int) -> None:
        self._collective_depth[rank] = self._collective_depth.get(rank, 0) + 1

    def exit_collective(self, rank: int) -> None:
        self._collective_depth[rank] = self._collective_depth.get(rank, 1) - 1

    def in_collective(self, rank: int) -> bool:
        return self._collective_depth.get(rank, 0) > 0

    # -- recording ---------------------------------------------------------
    def record_call(self, rank: int, func: str, peer: int, nbytes: int,
                    buf_addr: int, t_start: float, t_end: float,
                    blocking: bool, collective: bool, intra: Optional[bool]) -> None:
        if not self.enabled:
            return
        self.calls.append(CallRecord(rank, func, peer, nbytes, buf_addr,
                                     t_start, t_end, blocking, collective, intra))

    def record_transfer(self, rank: int, peer: int, nbytes: int, intra: bool,
                        time: float = 0.0) -> None:
        if not self.enabled:
            return
        self.transfers.append(TransferRecord(
            rank, peer, nbytes, intra, self.in_collective(rank), time
        ))

    # -- serialization ---------------------------------------------------------
    def to_dict(self) -> dict:
        """Plain-data form (for the run-plan cache); inverse of :meth:`from_dict`."""
        return {
            "scale": self.scale,
            "sample_iters": self.sample_iters,
            "calls": list(map(list, self.calls)),
            "transfers": list(map(list, self.transfers)),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Recorder":
        rec = cls()
        rec.scale = data["scale"]
        rec.sample_iters = data["sample_iters"]
        rec.calls = _rows(CallRecord, data["calls"])
        rec.transfers = _rows(TransferRecord, data["transfers"])
        return rec

    # -- convenience -----------------------------------------------------------
    def clear(self) -> None:
        self.calls.clear()
        self.transfers.clear()
        self._collective_depth.clear()

    @property
    def ncalls(self) -> int:
        return len(self.calls)

    @property
    def total_volume(self) -> int:
        return sum(t.nbytes for t in self.transfers)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Recorder calls={len(self.calls)} transfers={len(self.transfers)}>"
