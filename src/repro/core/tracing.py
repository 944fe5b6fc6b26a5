"""Structured simulator tracing.

A :class:`Tracer` collects ``TraceRecord`` tuples from any layer that
wants to report what it did (NIC engines, protocol state machines...).
Tracing is off by default and adds a single predicate check per record
when disabled, so it is safe to leave trace points in hot paths — the
contract hot call sites rely on is::

    tracer = self.sim.tracer
    if tracer.enabled:          # the *only* cost when tracing is off
        tracer.emit(...)

Records carry a ``kind`` using Chrome ``trace_event`` phase letters, so
the Perfetto exporter (:mod:`repro.profiling.trace_export`) is a direct
mapping:

- ``"X"`` — complete span (``dur_us`` holds the duration);
- ``"B"`` / ``"E"`` — begin / end of a span (paired by actor);
- ``"i"`` — instant event.

Category conventions used across the stack:

- ``engine`` — process lifecycle (spawn/finish);
- ``hw``     — pipeline-stage occupancy (bus, NIC engines, wire, switch);
- ``net``    — packet-level fabric spans (submit -> delivered);
- ``proto``  — network-library state transitions (CQEs, NIC matching,
  GM tokens);
- ``mpi``    — MPI calls, protocol choice, collectives.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Iterator, List, Optional

__all__ = ["TraceRecord", "Tracer", "TRACE_CATEGORIES"]

#: every category emitted by the built-in instrumentation, in layer order
#: ('net.retx' appears only in fault-injected runs — see repro.faults)
TRACE_CATEGORIES = ("engine", "hw", "net", "net.retx", "proto", "mpi")


@dataclass(frozen=True)
class TraceRecord:
    """One trace point: what happened, where, when (and for how long)."""

    time_us: float
    category: str
    actor: str
    detail: str
    data: Any = None
    #: Chrome trace_event phase: 'X' complete | 'B' begin | 'E' end | 'i' instant
    kind: str = "i"
    #: duration of an 'X' span (microseconds)
    dur_us: float = 0.0


class Tracer:
    """Append-only trace collector with category filtering.

    Hot call sites read the **cached predicates** — ``wants_hw``,
    ``wants_net``, ``wants_retx``, ``wants_proto``, ``wants_mpi``,
    ``wants_engine`` — which are plain booleans recomputed whenever the
    enabled state or category filter changes.  The disabled case then
    costs exactly one attribute load, with no method call and no set
    membership test.
    """

    def __init__(self, enabled: bool = False, categories: Optional[set] = None) -> None:
        self.enabled = enabled
        self.categories = categories  # None == all
        self.records: List[TraceRecord] = []
        self._refresh_predicates()

    def _refresh_predicates(self) -> None:
        """Recompute the per-category cached booleans."""
        self.wants_engine = self.wants("engine")
        self.wants_hw = self.wants("hw")
        self.wants_net = self.wants("net")
        self.wants_retx = self.wants("net.retx")
        self.wants_proto = self.wants("proto")
        self.wants_mpi = self.wants("mpi")

    # -- control --------------------------------------------------------
    def enable(self, categories: Optional[Iterable[str]] = None) -> "Tracer":
        """Turn tracing on (optionally restricted to ``categories``)."""
        self.enabled = True
        if categories is not None:
            self.categories = set(categories)
        self._refresh_predicates()
        return self

    def disable(self) -> None:
        self.enabled = False
        self._refresh_predicates()

    def wants(self, category: str) -> bool:
        """Would a record in ``category`` be kept?  Lets expensive call
        sites (per-stage pipeline walks) skip argument construction.
        Hot paths should read the cached ``wants_*`` attributes instead."""
        if not self.enabled:
            return False
        return self.categories is None or category in self.categories

    # -- emission -------------------------------------------------------
    def emit(self, time_us: float, category: str, actor: str, detail: str,
             data: Any = None, kind: str = "i", dur_us: float = 0.0) -> None:
        if not self.enabled:
            return
        if self.categories is not None and category not in self.categories:
            return
        self.records.append(TraceRecord(time_us, category, actor, detail,
                                        data, kind, dur_us))

    def instant(self, time_us: float, category: str, actor: str, detail: str,
                data: Any = None) -> None:
        self.emit(time_us, category, actor, detail, data, kind="i")

    def begin(self, time_us: float, category: str, actor: str, detail: str,
              data: Any = None) -> None:
        self.emit(time_us, category, actor, detail, data, kind="B")

    def end(self, time_us: float, category: str, actor: str, detail: str,
            data: Any = None) -> None:
        self.emit(time_us, category, actor, detail, data, kind="E")

    def span(self, time_us: float, category: str, actor: str, detail: str,
             dur_us: float, data: Any = None) -> None:
        """A complete span: started at ``time_us``, lasted ``dur_us``."""
        self.emit(time_us, category, actor, detail, data, kind="X", dur_us=dur_us)

    # -- inspection -----------------------------------------------------
    def filter(self, category: Optional[str] = None, actor: Optional[str] = None) -> Iterator[TraceRecord]:
        for rec in self.records:
            if category is not None and rec.category != category:
                continue
            if actor is not None and rec.actor != actor:
                continue
            yield rec

    def clear(self) -> None:
        self.records.clear()

    def __len__(self) -> int:
        return len(self.records)

    def dump(self, limit: int = 100) -> str:
        """Render the first ``limit`` records as aligned text lines."""
        lines = []
        for rec in self.records[:limit]:
            mark = {"B": "[", "E": "]", "X": "#"}.get(rec.kind, ".")
            lines.append(f"{rec.time_us:12.3f} {mark} {rec.category:<7} "
                         f"{rec.actor:<24} {rec.detail}")
        if len(self.records) > limit:
            lines.append(f"... ({len(self.records) - limit} more)")
        return "\n".join(lines)
