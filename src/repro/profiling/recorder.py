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

A Recorder keeps each stream once, as the payload's rows: plain lists
(``call_rows`` / ``transfer_rows``) in the field order of the two
``NamedTuple`` record types.  Recording appends a row, and
:meth:`Recorder.to_dict` hands out shallow copies of the row lists, so
encoding a run copies no row.  The ``calls`` / ``transfers`` record
views are built the first time something reads them (and extended as
rows arrive); :meth:`Recorder.from_dict` keeps the payload's row lists
and checks their lengths, but builds no view.  The statistics of
:mod:`repro.profiling.stats` read the rows, so summarising a decoded run
never builds one either.

A Recorder rehydrated from a cached payload is **read-only**: the
profiling tables decode one per run and compute every statistic of the
run's summary from it (:func:`repro.runtime.derive`).  Only the live
world that fills a Recorder may record into it, clear it or set
``scale``/``sample_iters``.
"""

from __future__ import annotations

from itertools import islice, repeat
from typing import Dict, List, NamedTuple, Optional

from repro.core.engine import gc_paused

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


def _check_rows(cls, rows: list) -> list:
    """Raise ``_make``'s ``TypeError`` if any row has the wrong length."""
    n = len(cls._fields)
    bad = set(map(len, rows)) - {n}
    if bad:
        raise TypeError(f"Expected {n} arguments, got {min(bad)}")
    return rows


def _extend(view: list, cls, rows: list) -> list:
    """Append to ``view`` the records of the ``rows`` it lacks.

    ``tuple.__new__`` builds each record in C, so no Python-level call
    runs per row (the rows' lengths are checked where they come from).
    The cyclic collector is paused meanwhile: a large profile is a few
    hundred thousand fresh tuples and no cycles.
    """
    if len(view) < len(rows):
        with gc_paused():
            view.extend(map(tuple.__new__, repeat(cls),
                            islice(rows, len(view), None)))
    return view


class Recorder:
    """Collects call/transfer records from every rank of a world.

    Once decoded from a cached payload it is read-only by contract (see
    the module docstring).
    """

    def __init__(self) -> None:
        #: the payload rows, one list per record in the record's field order
        self.call_rows: List[list] = []
        self.transfer_rows: List[list] = []
        self._calls: List[CallRecord] = []
        self._transfers: List[TransferRecord] = []
        self._collective_depth: Dict[int, int] = {}
        #: multiply counts by this when extrapolating sampled runs
        self.scale: float = 1.0
        #: how many main-loop iterations were actually simulated (lets
        #: statistics isolate the steady-state last iteration)
        self.sample_iters: int = 1
        self.enabled = True

    @property
    def calls(self) -> List[CallRecord]:
        """One :class:`CallRecord` per row of ``call_rows``."""
        return _extend(self._calls, CallRecord, self.call_rows)

    @property
    def transfers(self) -> List[TransferRecord]:
        """One :class:`TransferRecord` per row of ``transfer_rows``."""
        return _extend(self._transfers, TransferRecord, self.transfer_rows)

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
        self.call_rows.append([rank, func, peer, nbytes, buf_addr,
                               t_start, t_end, blocking, collective, intra])

    def record_transfer(self, rank: int, peer: int, nbytes: int, intra: bool,
                        time: float = 0.0) -> None:
        if not self.enabled:
            return
        self.transfer_rows.append(
            [rank, peer, nbytes, intra, self.in_collective(rank), time])

    # -- serialization ---------------------------------------------------------
    def to_dict(self) -> dict:
        """Plain-data form (for the run-plan cache); inverse of :meth:`from_dict`.

        The row lists are shallow copies: the rows themselves are shared
        with this Recorder.
        """
        return {
            "scale": self.scale,
            "sample_iters": self.sample_iters,
            "calls": self.call_rows.copy(),
            "transfers": self.transfer_rows.copy(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Recorder":
        """Rebuild a (read-only) Recorder from :meth:`to_dict`'s form.

        Keeps the payload's row lists after checking their lengths; the
        ``calls`` / ``transfers`` views are built on first read.
        """
        rec = cls()
        rec.scale = data["scale"]
        rec.sample_iters = data["sample_iters"]
        rec.call_rows = _check_rows(CallRecord, data["calls"])
        rec.transfer_rows = _check_rows(TransferRecord, data["transfers"])
        return rec

    # -- convenience -----------------------------------------------------------
    def clear(self) -> None:
        self.call_rows.clear()
        self.transfer_rows.clear()
        self._calls.clear()
        self._transfers.clear()
        self._collective_depth.clear()

    @property
    def ncalls(self) -> int:
        return len(self.call_rows)

    @property
    def total_volume(self) -> int:
        return sum(row[2] for row in self.transfer_rows)  # nbytes

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<Recorder calls={len(self.call_rows)} "
                f"transfers={len(self.transfer_rows)}>")
