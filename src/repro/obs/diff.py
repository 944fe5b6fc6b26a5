"""``repro diff``: a side-by-side observatory for two simulated runs.

Takes two *run references* — compact strings like ``latency@myrinet`` or
``bandwidth@infiniband:rendezvous=send_recv`` — runs both through the
shared runtime (so cached payloads are reused), and renders what changed
and *why*:

- headline values per measured point (latency/bandwidth A vs B, Δ, Δ%);
- per-run counter deltas (protocol mix, retransmissions, hardware
  occupancy) from the metrics registries the payloads already carry;
- critical-path decomposition deltas from
  :mod:`repro.profiling.trace_export` — which pipeline stage the time
  moved to;
- ASCII timeline overlays (both runs sampled on the same sim-time grid
  by :mod:`repro.obs.timeline`) for the channels that actually moved.

Reference grammar::

    <target>@<network>[:key=val[,key=val...]]

``target`` is a registered microbench name (``latency``, ``bandwidth``,
...) or an ``app.class`` pair (``is.S``); the optional ``key=val`` list
becomes ``mpi_options`` for the run.  The reserved key ``topology``
instead selects the switch topology (``latency@infiniband:topology=
fat_tree`` routes through the multi-stage fabric of
:mod:`repro.hardware.topology`), so a diff can isolate exactly what
multi-hop routing costs.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs.timeline import DEFAULT_INTERVAL_US

__all__ = ["RunRef", "parse_run_ref", "diff_report"]

#: overlay channels tried in preference order; the first with nonzero
#: variation in either run is charted, plus the cumulative-bytes channel
PREFERRED_CHANNELS = (
    "net.rx.depth.total", "mpi.inbox.depth.total", "mpi.rndv.inflight",
    "hw.path.backlog_us", "engine.pending", "hw.wire.bytes",
)

#: counters surfaced in full in the delta table even when small; other
#: counters appear only when they differ between the runs
ALWAYS_SHOW = ("mpi.msgs.eager", "mpi.msgs.rndv", "net.pkts.data",
               "net.bytes.wire", "engine.events_total")


@dataclass(frozen=True)
class RunRef:
    """One parsed side of a diff: what to simulate."""

    target: str                      # bench name or "app.class"
    network: str
    options: Tuple[Tuple[str, object], ...] = ()

    @property
    def is_app(self) -> bool:
        return "." in self.target

    def describe(self) -> str:
        opts = ",".join(f"{k}={v}" for k, v in self.options)
        return f"{self.target}@{self.network}" + (f":{opts}" if opts else "")


def _coerce(value: str):
    low = value.lower()
    if low in ("true", "yes", "on"):
        return True
    if low in ("false", "no", "off"):
        return False
    for cast in (int, float):
        try:
            return cast(value)
        except ValueError:
            pass
    return value


def parse_run_ref(text: str) -> RunRef:
    """Parse ``target@network[:k=v,...]`` into a :class:`RunRef`."""
    head, sep, tail = text.partition(":")
    target, at, network = head.partition("@")
    if not at or not target or not network:
        raise ValueError(f"run ref needs target@network[:k=v,...], got {text!r}")
    options = []
    if sep and tail:
        for item in tail.split(","):
            key, eq, value = item.partition("=")
            if not eq or not key:
                raise ValueError(f"bad option {item!r} in run ref {text!r}")
            options.append((key, _coerce(value)))
    return RunRef(target=target, network=network, options=tuple(options))


def build_spec(ref: RunRef, size: int, iters: int, nprocs: int,
               interval_us: float):
    """RunSpec for one side of the diff, timeline sampling on."""
    from repro.microbench.common import bench_registry
    from repro.runtime.spec import RunSpec

    options = dict(ref.options)
    topology = options.pop("topology", None)  # spec field, not an MPI option
    options = options or None
    if ref.is_app:
        app, klass = ref.target.split(".", 1)
        spec = RunSpec.app(app, klass, ref.network, nprocs=nprocs,
                           record=False, sample_iters=2, mpi_options=options,
                           topology=topology)
        # timeline rides in params; RunSpec.app has no **params passthrough
        params = dict(spec.params)
        params["timeline"] = interval_us
        return spec.replace(params=params)
    registry = bench_registry()
    if ref.target not in registry:
        raise ValueError(f"unknown target {ref.target!r}; know app.class or "
                         f"{sorted(registry)}")
    kwargs: dict = {"sizes": (size,), "mpi_options": options,
                    "timeline": interval_us}
    # not every bench takes iters (bandwidth counts rounds); forward
    # only where the signature accepts it so defaults stay authoritative
    if "iters" in inspect.signature(registry[ref.target]).parameters:
        kwargs["iters"] = iters
    return RunSpec.microbench(ref.target, ref.network, topology=topology,
                              **kwargs)


# ----------------------------------------------------------------------
# rendering
# ----------------------------------------------------------------------
def _fmt_delta(a: float, b: float) -> Tuple[str, str]:
    """(Δ, Δ%) strings for one counter pair."""
    delta = b - a
    pct = f"{delta / a * 100.0:+.1f}%" if a else ("--" if not delta else "new")
    shown = f"{delta:+.0f}" if float(delta).is_integer() else f"{delta:+.3f}"
    return shown, pct


def _counter_delta_rows(ma: dict, mb: dict) -> List[Sequence]:
    ca = ma.get("counters", {})
    cb = mb.get("counters", {})
    def fmt(v: float) -> str:
        return f"{v:.0f}" if float(v).is_integer() else f"{v:.3f}"

    rows = []
    for name in sorted(set(ca) | set(cb)):
        a, b = ca.get(name, 0.0), cb.get(name, 0.0)
        if a == b and name not in ALWAYS_SHOW:
            continue
        d, pct = _fmt_delta(a, b)
        rows.append([name, fmt(a), fmt(b), d, pct])
    return rows


def _critical_path_rows(ref_a: RunRef, ref_b: RunRef, size: int
                        ) -> List[Sequence]:
    """Per-stage zero-load critical-path deltas, aligned by segment name."""
    from repro.profiling.trace_export import critical_path

    def segments(ref: RunRef) -> Dict[str, float]:
        options = dict(ref.options)
        topology = options.pop("topology", None)
        cp = critical_path(ref.network, nbytes=size,
                           mpi_options=options or None,
                           net_overrides={"topology": topology}
                           if topology else None)
        out: Dict[str, float] = {}
        for name, us in cp.segments:
            out[name] = out.get(name, 0.0) + us
        return out

    sa, sb = segments(ref_a), segments(ref_b)
    order = list(sa) + [n for n in sb if n not in sa]
    rows: List[Sequence] = []
    for name in order:
        a, b = sa.get(name, 0.0), sb.get(name, 0.0)
        d, pct = _fmt_delta(a, b)
        rows.append([name, f"{a:.3f}", f"{b:.3f}", d, pct])
    rows.append(["total", f"{sum(sa.values()):.3f}", f"{sum(sb.values()):.3f}",
                 *_fmt_delta(sum(sa.values()), sum(sb.values()))])
    return rows


def _pick_channels(tl_a: dict, tl_b: dict,
                   requested: Optional[Sequence[str]]) -> List[str]:
    avail = set(tl_a.get("channels", {})) | set(tl_b.get("channels", {}))
    if requested:
        return [c for c in requested if c in avail]
    picked = []
    for name in PREFERRED_CHANNELS:
        if name in avail and len(picked) < 2:
            va = tl_a.get("channels", {}).get(name, ())
            vb = tl_b.get("channels", {}).get(name, ())
            if (va and max(va) != min(va)) or (vb and max(vb) != min(vb)):
                picked.append(name)
    return picked


def _overlay(name: str, label_a: str, tl_a: dict, label_b: str, tl_b: dict
             ) -> str:
    from repro.experiments.ascii_plot import line_chart
    from repro.series import Series

    def as_series(label: str, tl: dict) -> Series:
        values = tl.get("channels", {}).get(name)
        times = tl.get("t", ())
        if not values:
            values = [0.0] * len(times)
        return Series(label, list(zip(times, values)))

    return line_chart([as_series(f"A {label_a}", tl_a),
                       as_series(f"B {label_b}", tl_b)],
                      title=f"timeline: {name}", logx=False,
                      ylabel=name.rsplit(".", 1)[-1])


def _headline_rows(pa: dict, pb: dict) -> List[Sequence]:
    """Measured-value rows: per-point for benches, elapsed for apps."""
    rows: List[Sequence] = []
    if pa.get("kind") == "microbench" and pb.get("kind") == "microbench":
        xa = {x: y for x, y in pa.get("points", ())}
        xb = {x: y for x, y in pb.get("points", ())}
        for x in sorted(set(xa) | set(xb)):
            a, b = xa.get(x, 0.0), xb.get(x, 0.0)
            d, pct = _fmt_delta(a, b)
            rows.append([f"{int(x)} B", f"{a:.2f}", f"{b:.2f}", d, pct])
    else:
        a = pa.get("elapsed_s", pa.get("elapsed_us", 0.0))
        b = pb.get("elapsed_s", pb.get("elapsed_us", 0.0))
        d, pct = _fmt_delta(a, b)
        rows.append(["elapsed", f"{a:.4f}", f"{b:.4f}", d, pct])
    return rows


def diff_report(ref_a: RunRef, ref_b: RunRef, size: int = 16384,
                iters: int = 20, nprocs: int = 4,
                interval_us: Optional[float] = None,
                channels: Optional[Sequence[str]] = None) -> str:
    """Run both references (cache-served when possible) and render the diff."""
    from repro import runtime
    from repro.experiments.ascii_plot import table
    from repro.runtime.executor import SpecExecutionError, is_error_payload

    interval = interval_us if interval_us else DEFAULT_INTERVAL_US
    spec_a = build_spec(ref_a, size, iters, nprocs, interval)
    spec_b = build_spec(ref_b, size, iters, nprocs, interval)
    pa, pb = runtime.run_specs([spec_a, spec_b])
    for ref, payload in ((ref_a, pa), (ref_b, pb)):
        if is_error_payload(payload):
            raise SpecExecutionError(payload)

    out: List[str] = []
    out.append(f"diff A={ref_a.describe()}  B={ref_b.describe()}")
    out.append(f"  A digest {spec_a.digest[:12]}   B digest {spec_b.digest[:12]}"
               f"   size={size}B")
    out.append("")
    out.append(table(["point", "A", "B", "delta", "delta%"],
                     _headline_rows(pa, pb), title="measured values"))
    rows = _counter_delta_rows(pa.get("metrics") or {}, pb.get("metrics") or {})
    if rows:
        out.append("")
        out.append(table(["counter", "A", "B", "delta", "delta%"], rows,
                         title="counter deltas"))
    if not ref_a.is_app and not ref_b.is_app:
        out.append("")
        out.append(table(["stage", "A us", "B us", "delta", "delta%"],
                         _critical_path_rows(ref_a, ref_b, size),
                         title=f"zero-load critical path @ {size} B"))
    tls_a, tls_b = pa.get("timeline") or [], pb.get("timeline") or []
    if tls_a and tls_b:
        # the last world of each run is the one that simulated `size`
        tl_a, tl_b = tls_a[-1], tls_b[-1]
        for name in _pick_channels(tl_a, tl_b, channels):
            out.append("")
            out.append(_overlay(name, ref_a.network, tl_a,
                                ref_b.network, tl_b))
    return "\n".join(out)
