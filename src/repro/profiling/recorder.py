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

A Recorder keeps each stream packed: a :class:`CallBlock` /
:class:`TransferBlock` appends one fixed-width ``struct`` record per
row to a ``bytearray`` (44 B per call, 26 B per transfer), with a
call's ``func`` and tri-state ``intra`` stored as small codes.  Rows
are decoded on read: :meth:`RecordBlock.json_rows` gives the payload
rows (plain lists in the field order of the two ``NamedTuple`` record
types), :meth:`RecordBlock.records` the records, and the statistics of
:mod:`repro.profiling.stats` iterate the raw unpacked tuples.

:meth:`Recorder.to_dict` puts the blocks themselves in the payload, so
encoding a run copies nothing.  The run-plan layer carries them as they
are: its disk writer streams a block in slices, ``--jobs`` workers
pickle it as bytes, and the profiling tables summarise it directly.
Payloads become plain JSON rows only where they leave the runtime
(:func:`repro.runtime.cache.plain`).  :meth:`Recorder.from_dict` takes
either form: it shares a block, and packs plain rows.

A Recorder rehydrated from a payload is **read-only**: it may share its
blocks with the payload, and the profiling tables compute every
statistic of a run's summary from one of them
(:func:`repro.runtime.derive`).  Only the live world that fills a
Recorder may record into it, clear it or set
``scale``/``sample_iters``.
"""

from __future__ import annotations

import struct
from itertools import repeat
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional

from repro.core.engine import gc_paused

__all__ = ["CallRecord", "TransferRecord", "CallBlock", "TransferBlock",
           "Recorder"]


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


#: rows per slice of :meth:`RecordBlock.take_rows`
_TAKE_SLICE = 4096

#: a call's ``intra`` by its stored code, and the code of each value
_INTRA = (None, False, True)
_INTRA_CODE = {None: 0, False: 1, True: 2}


class RecordBlock:
    """One record stream, packed as ``ROW`` records in one ``bytearray``.

    Holds no Python object per row.  Pickles as its bytes (``--jobs``
    workers), compares equal to a block of the same class holding the
    same records, and is read through :meth:`unpacked`,
    :meth:`json_rows` and :meth:`records`.  ``len()``,
    ``json_rows(start, stop)`` and :meth:`take_rows` are what the
    run-plan layer's JSON writer and :func:`repro.runtime.cache.plain`
    use.
    """

    ROW: struct.Struct
    RECORD: type

    def __init__(self) -> None:
        self.buf = bytearray()

    def __len__(self) -> int:
        return len(self.buf) // self.ROW.size

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.__dict__ == other.__dict__

    __hash__ = None  # type: ignore[assignment]

    def unpacked(self, start: int = 0, stop: Optional[int] = None
                 ) -> Iterator[tuple]:
        """The stored tuples of rows ``start:stop``, codes undecoded."""
        size = self.ROW.size
        end = len(self.buf) if stop is None else stop * size
        return self.ROW.iter_unpack(memoryview(self.buf)[start * size:end])

    def json_rows(self, start: int = 0, stop: Optional[int] = None
                  ) -> List[list]:  # pragma: no cover - abstract
        """Rows ``start:stop`` as payload rows: plain lists in the
        record's field order, every value of its JSON type."""
        raise NotImplementedError

    def take_rows(self) -> List[list]:
        """All rows as payload rows, emptying the block while they are
        built: slices are decoded from the end and cut off the buffer, so
        its bytes are freed (in halves, as ``bytearray`` shrinks) before
        the last rows exist."""
        parts = []
        stop = len(self)
        while stop:
            start = max(0, stop - _TAKE_SLICE)
            parts.append(self.json_rows(start, stop))
            del self.buf[start * self.ROW.size:]
            stop = start
        self.clear()
        rows: List[list] = []
        for part in reversed(parts):
            rows += part
        return rows

    def records(self, start: int = 0, stop: Optional[int] = None) -> list:
        """Rows ``start:stop`` as ``RECORD`` tuples (``_make`` of the
        payload rows, built in C with the collector paused)."""
        with gc_paused():
            return list(map(tuple.__new__, repeat(self.RECORD),
                            self.json_rows(start, stop)))

    @classmethod
    def from_rows(cls, rows: Iterable[list]) -> "RecordBlock":
        """Pack payload rows; a row of the wrong length raises
        ``TypeError``."""
        block = cls()
        append = block.append
        for row in rows:
            append(*row)
        return block

    def append(self, *fields) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def clear(self) -> None:
        self.buf.clear()

    def __repr__(self) -> str:  # pragma: no cover
        return f"<{type(self).__name__} {len(self)} rows>"


class CallBlock(RecordBlock):
    """The calls stream.  ``func`` is stored as an index into
    :attr:`names` (in order of first appearance), ``intra`` as an index
    into ``(None, False, True)``."""

    ROW = struct.Struct("<iBiqqdd??B")
    RECORD = CallRecord

    def __init__(self) -> None:
        super().__init__()
        #: the ``func`` of each code, and the code of each ``func``
        self.names: List[str] = []
        self.codes: Dict[str, int] = {}

    def append(self, rank: int, func: str, peer: int, nbytes: int,
               buf_addr: int, t_start: float, t_end: float, blocking: bool,
               collective: bool, intra: Optional[bool]) -> None:
        code = self.codes.get(func)
        if code is None:
            code = self.codes[func] = len(self.names)
            self.names.append(func)
        self.buf += self.ROW.pack(rank, code, peer, nbytes, buf_addr,
                                  t_start, t_end, blocking, collective,
                                  _INTRA_CODE[intra])

    def json_rows(self, start: int = 0, stop: Optional[int] = None
                  ) -> List[list]:
        names, intra = self.names, _INTRA
        # rows share one int object per distinct size and address, as
        # the live rows shared their buffers' (a few dozen per run)
        same = {}.setdefault
        return [[rank, names[func], peer, same(nbytes, nbytes),
                 same(addr, addr), t0, t1, blocking, collective, intra[code]]
                for rank, func, peer, nbytes, addr, t0, t1, blocking,
                collective, code in self.unpacked(start, stop)]

    def clear(self) -> None:
        super().clear()
        self.names.clear()
        self.codes.clear()


class TransferBlock(RecordBlock):
    """The transfers stream; every field is stored as it is."""

    ROW = struct.Struct("<iiq??d")
    RECORD = TransferRecord

    def json_rows(self, start: int = 0, stop: Optional[int] = None
                  ) -> List[list]:
        same = {}.setdefault  # one int object per distinct size
        return [[rank, peer, same(nbytes, nbytes), intra, in_collective,
                 time]
                for rank, peer, nbytes, intra, in_collective, time
                in self.unpacked(start, stop)]

    def append(self, rank: int, peer: int, nbytes: int, intra: bool,
               in_collective: bool, time: float) -> None:
        self.buf += self.ROW.pack(rank, peer, nbytes, intra, in_collective,
                                  time)


class Recorder:
    """Collects call/transfer records from every rank of a world.

    Once decoded from a cached payload it is read-only by contract (see
    the module docstring).
    """

    def __init__(self) -> None:
        #: the packed streams (see the module docstring)
        self.call_block = CallBlock()
        self.transfer_block = TransferBlock()
        self._collective_depth: Dict[int, int] = {}
        #: multiply counts by this when extrapolating sampled runs
        self.scale: float = 1.0
        #: how many main-loop iterations were actually simulated (lets
        #: statistics isolate the steady-state last iteration)
        self.sample_iters: int = 1
        self.enabled = True

    @property
    def calls(self) -> List[CallRecord]:
        """The calls as :class:`CallRecord` tuples, decoded on each read."""
        return self.call_block.records()

    @property
    def transfers(self) -> List[TransferRecord]:
        """The transfers as :class:`TransferRecord` tuples, decoded on
        each read."""
        return self.transfer_block.records()

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
        self.call_block.append(rank, func, peer, nbytes, buf_addr, t_start,
                               t_end, blocking, collective, intra)

    def record_transfer(self, rank: int, peer: int, nbytes: int, intra: bool,
                        time: float = 0.0) -> None:
        if not self.enabled:
            return
        self.transfer_block.append(rank, peer, nbytes, intra,
                                   self.in_collective(rank), time)

    # -- serialization ---------------------------------------------------------
    def to_dict(self) -> dict:
        """Payload form (for the run-plan cache); inverse of :meth:`from_dict`.

        The streams are this Recorder's blocks themselves, not copies:
        record nothing into it afterwards.  The runtime writes them to
        disk as JSON rows and hands them to callers as plain lists.
        """
        return {
            "scale": self.scale,
            "sample_iters": self.sample_iters,
            "calls": self.call_block,
            "transfers": self.transfer_block,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Recorder":
        """Rebuild a (read-only) Recorder from :meth:`to_dict`'s form.

        Shares the payload's blocks, or packs its plain rows (a cached
        payload read back from disk); a row of the wrong length raises
        ``TypeError``.
        """
        rec = cls()
        rec.scale = data["scale"]
        rec.sample_iters = data["sample_iters"]
        calls, transfers = data["calls"], data["transfers"]
        rec.call_block = (calls if isinstance(calls, CallBlock)
                          else CallBlock.from_rows(calls))
        rec.transfer_block = (transfers if isinstance(transfers, TransferBlock)
                              else TransferBlock.from_rows(transfers))
        return rec

    # -- convenience -----------------------------------------------------------
    def clear(self) -> None:
        self.call_block.clear()
        self.transfer_block.clear()
        self._collective_depth.clear()

    @property
    def ncalls(self) -> int:
        return len(self.call_block)

    @property
    def total_volume(self) -> int:
        return sum(row[2] for row in self.transfer_block.unpacked())  # nbytes

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<Recorder calls={len(self.call_block)} "
                f"transfers={len(self.transfer_block)}>")
