"""Trace exporters: Perfetto/Chrome JSON, category summaries, critical path.

Three consumers of the :class:`~repro.core.tracing.Tracer` stream:

- :func:`chrome_trace` / :func:`write_chrome_trace` render trace records
  in the Chrome ``trace_event`` JSON format, loadable in
  https://ui.perfetto.dev (or ``chrome://tracing``).  The simulator's
  microsecond clock maps directly onto the format's ``ts`` field, so
  what you see in the viewer *is* simulated time.
- :func:`category_summary` is a plain-text per-category digest for
  terminals.
- :func:`critical_path` decomposes one point-to-point message's latency
  into host / bus / NIC / wire / switch segments — the simulated
  counterpart of the paper's Fig. 3 latency breakdown.

Helpers :func:`traced_pingpong` and :func:`traced_app` build small
fully-traced worlds for the ``repro trace`` CLI subcommand.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.core.tracing import TRACE_CATEGORIES, Tracer

__all__ = [
    "chrome_trace",
    "write_chrome_trace",
    "category_summary",
    "CriticalPath",
    "critical_path",
    "traced_pingpong",
    "traced_app",
]


def _jsonable(value):
    """Coerce span payload values into something json.dump accepts."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return repr(value)


def chrome_trace(tracers: Union[Tracer, Dict[str, Tracer]],
                 recorder=None) -> dict:
    """Render tracer streams as a Chrome ``trace_event`` JSON object.

    ``tracers`` is one Tracer or a ``{label: Tracer}`` dict — each label
    becomes its own process row in the viewer (useful when comparing the
    same run over several networks).  ``recorder`` transfers, when
    given, appear as instant events on a dedicated track.
    """
    if isinstance(tracers, Tracer):
        tracers = {"sim": tracers}
    events: List[dict] = []
    for pid, (label, tracer) in enumerate(sorted(tracers.items()), start=1):
        events.append({"ph": "M", "pid": pid, "tid": 0,
                       "name": "process_name", "args": {"name": label}})
        tids: Dict[str, int] = {}
        for rec in tracer.records:
            tid = tids.get(rec.actor)
            if tid is None:
                tid = tids[rec.actor] = len(tids) + 1
                events.append({"ph": "M", "pid": pid, "tid": tid,
                               "name": "thread_name",
                               "args": {"name": rec.actor}})
            ev = {"name": rec.detail, "cat": rec.category, "ph": rec.kind,
                  "ts": rec.time_us, "pid": pid, "tid": tid}
            if rec.kind == "X":
                ev["dur"] = rec.dur_us
            elif rec.kind == "i":
                ev["s"] = "t"
            if rec.data is not None:
                ev["args"] = {"data": _jsonable(rec.data)}
            events.append(ev)
        if recorder is not None and pid == 1:
            tid = len(tids) + 1
            events.append({"ph": "M", "pid": pid, "tid": tid,
                           "name": "thread_name",
                           "args": {"name": "recorder.transfers"}})
            for t in recorder.transfers:
                events.append({
                    "name": f"xfer {t.nbytes}B r{t.rank}->r{t.peer}",
                    "cat": "mpi", "ph": "i", "s": "t", "ts": t.time,
                    "pid": pid, "tid": tid,
                    "args": {"data": {"rank": t.rank, "peer": t.peer,
                                      "nbytes": t.nbytes, "intra": t.intra,
                                      "in_collective": t.in_collective}},
                })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(path: str, tracers: Union[Tracer, Dict[str, Tracer]],
                       recorder=None) -> int:
    """Write :func:`chrome_trace` output to ``path`` (compact JSON, as
    the disk cache writes its payloads); returns #events."""
    from repro.runtime.cache import dump_json

    doc = chrome_trace(tracers, recorder=recorder)
    with open(path, "w", encoding="utf-8") as fh:
        dump_json(doc, fh)
    return len(doc["traceEvents"])


def category_summary(tracer: Tracer) -> str:
    """Plain-text digest: record counts and span time per category."""
    counts: Dict[str, int] = {}
    span_time: Dict[str, float] = {}
    actors: Dict[str, set] = {}
    for rec in tracer.records:
        counts[rec.category] = counts.get(rec.category, 0) + 1
        if rec.kind == "X":
            span_time[rec.category] = span_time.get(rec.category, 0.0) + rec.dur_us
        actors.setdefault(rec.category, set()).add(rec.actor)
    if not counts:
        return "(no trace records)"
    lines = [f"{'category':<10} {'records':>8} {'span µs':>12} {'tracks':>7}"]
    order = {c: i for i, c in enumerate(TRACE_CATEGORIES)}
    for cat in sorted(counts, key=lambda c: order.get(c, 99)):
        lines.append(f"{cat:<10} {counts[cat]:>8} "
                     f"{span_time.get(cat, 0.0):>12.2f} {len(actors[cat]):>7}")
    return "\n".join(lines)


@dataclass
class CriticalPath:
    """Latency decomposition of a single point-to-point message."""

    network: str
    nbytes: int
    total_us: float
    #: ordered ``(segment_name, microseconds)`` pairs summing to total
    segments: List[Tuple[str, float]] = field(default_factory=list)

    @property
    def segments_sum(self) -> float:
        return sum(us for _name, us in self.segments)

    def render(self) -> str:
        lines = [f"critical path: {self.nbytes} B over {self.network} "
                 f"= {self.total_us:.3f} µs"]
        for name, us in self.segments:
            share = 100.0 * us / self.total_us if self.total_us else 0.0
            lines.append(f"  {name:<28} {us:>9.3f} µs  {share:>5.1f}%")
        lines.append(f"  {'(sum of segments)':<28} {self.segments_sum:>9.3f} µs")
        return "\n".join(lines)


def _oneway_fn(comm, nbytes: int):
    buf = comm.alloc(nbytes)
    if comm.rank == 0:
        yield from comm.send(buf, dest=1)
    else:
        yield from comm.recv(buf, source=0)


def critical_path(network: str, nbytes: int = 4, **world_kwargs) -> CriticalPath:
    """Trace one ``nbytes`` message rank0->rank1 and attribute its latency.

    Runs a dedicated fully-traced 2-rank world, finds the wire crossing
    that carried the payload, and splits the end-to-end time into the
    source-host segment (MPI library + protocol work before the packet
    is submitted), one segment per pipeline stage (bus DMA, NIC engines,
    wire, switch), and the destination-host segment (matching, copy-out,
    completion).  Segments telescope, so they sum to the total exactly.
    """
    from repro.mpi.world import MPIWorld

    world_kwargs.setdefault("record", False)
    world = MPIWorld(2, network=network, tracer=Tracer().enable(),
                     **world_kwargs)
    res = world.run(_oneway_fn, args=(nbytes,))
    tracer = world.sim.tracer
    total = res.elapsed_us

    payload_spans = [r for r in tracer.records
                     if r.category == "net" and r.kind == "X"]
    if not payload_spans:
        raise RuntimeError(f"no wire crossing traced for {network} message")
    # the payload crossing is the largest packet (control traffic is tiny)
    net = max(payload_spans, key=lambda r: r.data["nbytes"])
    submit = net.data["submit"]
    delivered = net.data["delivered"]
    path_name = net.data["path"]

    # max tail-out per pipeline stage of the payload's path
    stage_tail: Dict[int, float] = {}
    stage_name: Dict[int, str] = {}
    for rec in tracer.records:
        if rec.category != "hw" or rec.data is None:
            continue
        if rec.data.get("path") != path_name:
            continue
        s = rec.data["stage"]
        tail = rec.data["tail_out"]
        if tail <= delivered + 1e-9 and tail > stage_tail.get(s, -1.0):
            stage_tail[s] = tail
            stage_name[s] = rec.data["stage_name"]

    segments: List[Tuple[str, float]] = [("src host (MPI+proto)", submit)]
    prev = submit
    for s in sorted(stage_tail):
        segments.append((stage_name[s], max(stage_tail[s] - prev, 0.0)))
        prev = max(prev, stage_tail[s])
    segments.append(("deliver slack", max(delivered - prev, 0.0)))
    segments.append(("dst host (match+copy)", max(total - delivered, 0.0)))
    return CriticalPath(network=network, nbytes=nbytes, total_us=total,
                        segments=segments)


def traced_pingpong(network: str, nbytes: int = 4, iters: int = 4,
                    categories: Optional[Sequence[str]] = None,
                    **world_kwargs):
    """Run a traced pingpong; returns ``(WorldResult, Tracer)``."""
    from repro.microbench.latency import pingpong_fn
    from repro.mpi.world import MPIWorld

    tracer = Tracer().enable(categories)
    world = MPIWorld(2, network=network, tracer=tracer, **world_kwargs)
    res = world.run(pingpong_fn, args=(nbytes, iters, 1))
    return res, tracer


def traced_app(app: str, klass: str, network: str, nprocs: int = 4,
               categories: Optional[Sequence[str]] = None, **spec_kwargs):
    """Run a traced NAS-style app kernel; returns ``(AppResult, Tracer)``.

    Always simulates fresh (never cache-served): trace records are not
    part of the cached payload.
    """
    from repro.apps.runner import (app_result_from_payload, simulate_app_spec)
    from repro.runtime.spec import RunSpec

    tracer = Tracer().enable(categories)
    spec = RunSpec.app(app, klass, network, nprocs, **spec_kwargs)
    payload = simulate_app_spec(spec, tracer=tracer)
    return app_result_from_payload(payload), tracer
