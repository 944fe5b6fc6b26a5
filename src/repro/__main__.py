"""Command-line entry point: regenerate paper artifacts from a shell.

Usage::

    python -m repro fig1                 # one figure (fig1 .. fig28)
    python -m repro table2               # one table (table1 .. table6)
    python -m repro calibration          # parameter inventory + anchors
    python -m repro loggp                # LogGP characterization
    python -m repro profile is.B 8       # one app's communication profile
    python -m repro list                 # everything available
    python -m repro fig2 --full          # full (slow) sweep instead of quick
    python -m repro report --jobs 4      # fan simulations out over 4 workers
    python -m repro table2 --cache-dir .repro_cache # persist results on disk
    python -m repro trace fig1 --out trace.json     # Perfetto trace export
    python -m repro trace is.S --network myrinet    # trace one app kernel
    python -m repro fig1 --metrics       # per-run counters after the artifact
    python -m repro matrix               # what-if fabric x rendezvous matrix
    python -m repro bench latency --network infiniband \
        --mpi-option rendezvous=send_recv --eager-limit 1024   # what-if run
    python -m repro bench latency --fault drop_rate=0.01 \
        --network myrinet                # lossy wire, GM ack/resend absorbs
    python -m repro faults               # degradation curves per fabric
    python -m repro report --run-timeout 120   # livelock guard per spec
    python -m repro bench latency --stats --timeline 5 \
        --network myrinet                # repetition stats + sim-time timeline
    python -m repro fig1 --ledger runs.jsonl --progress  # run-lifecycle JSONL
    python -m repro diff latency@myrinet latency@quadrics       # A/B observatory
    python -m repro diff bandwidth@infiniband \
        bandwidth@infiniband:rendezvous=send_recv --size 65536
    python -m repro bench latency --topology fat_tree   # routed switch fabric
    python -m repro validate             # simulated vs. paper, per item

Installed as the ``repro`` console script as well.  The simulator's own
host-time speed is measured outside this CLI, by ``perfbench/run.py``
and the A/B driver ``tools/ab.py``.
"""

from __future__ import annotations

import argparse
import sys

from repro import runtime
from repro.core.netnames import NETWORKS
from repro.experiments import FIGURES, TABLES, run_figure, run_table


def _coerce_option(value: str):
    """CLI option values arrive as strings; recover bool/int/float."""
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


def parse_mpi_options(ns) -> dict:
    """``--mpi-option key=val`` pairs plus ``--eager-limit`` as a dict."""
    options = {}
    for item in ns.mpi_option or ():
        key, sep, value = item.partition("=")
        if not sep or not key:
            raise SystemExit(f"--mpi-option needs key=val, got {item!r}")
        options[key] = _coerce_option(value)
    if ns.eager_limit is not None:
        options["eager_limit"] = ns.eager_limit
    return options


def parse_faults(ns) -> dict:
    """``--fault key=val`` pairs plus ``--fault-seed`` as a dict.

    Validated eagerly through :class:`repro.faults.FaultSpec` so a typo
    fails here, not deep inside a worker process.
    """
    faults = {}
    for item in ns.fault or ():
        key, sep, value = item.partition("=")
        if not sep or not key:
            raise SystemExit(f"--fault needs key=val, got {item!r}")
        faults[key] = _coerce_option(value)
    if ns.fault_seed is not None:
        faults["seed"] = ns.fault_seed
    if faults:
        from repro.faults import FaultSpec

        try:
            FaultSpec.from_mapping(faults)
        except (ValueError, TypeError) as exc:
            raise SystemExit(f"bad --fault configuration: {exc}") from None
    return faults


def _network(ns) -> str:
    """The one fabric a single-network command runs on."""
    return ns.network or "infiniband"


def _cmd_profile(ns) -> int:
    """``repro profile <app.class> <nprocs>``: one app's communication profile."""
    from repro.apps import run_app
    from repro.profiling.report import app_profile_report

    if len(ns.args) != 2:
        raise SystemExit("profile needs: <app.class> <nprocs>")
    spec, nprocs = ns.args[0], int(ns.args[1])
    network = _network(ns)
    app, klass = spec.split(".", 1)
    res = run_app(app, klass, network, nprocs,
                  mpi_options=parse_mpi_options(ns) or None)
    print(app_profile_report(f"{spec} on {nprocs} x {network}", res.recorder))
    print(f"\nexecution time: {res.elapsed_s:.2f} s "
          f"({res.sim_iters}/{res.total_iters} iterations simulated)")
    return 0


def _parse_timeline(ns):
    """--timeline value as a RunSpec param: None, True (default) or µs."""
    if ns.timeline is None:
        return None
    if ns.timeline == "default":
        return True
    try:
        interval = float(ns.timeline)
    except ValueError:
        raise SystemExit(f"--timeline needs a sim-µs interval, "
                         f"got {ns.timeline!r}") from None
    if interval <= 0:
        raise SystemExit("--timeline interval must be > 0")
    return interval


def _render_timelines(payload, channels=None) -> None:
    """Print an ASCII chart per timeline-enabled world in ``payload``."""
    from repro.experiments.ascii_plot import line_chart
    from repro.obs.diff import PREFERRED_CHANNELS
    from repro.series import Series

    for tl in payload.get("timeline") or ():
        avail = tl.get("channels", {})
        wanted = [c for c in channels if c in avail] if channels else None
        if wanted is None:
            wanted = [c for c in PREFERRED_CHANNELS
                      if avail.get(c) and max(avail[c]) > min(avail[c])][:2]
        if not wanted:
            continue
        series = [Series(name, list(zip(tl.get("t", ()), avail[name])))
                  for name in wanted]
        print()
        print(line_chart(series, logx=False,
                         title=f"timeline {tl['network']} np={tl['nprocs']} "
                               f"(dt={tl['interval_us']:g}us, "
                               f"{tl['samples']} samples)"))


def _cmd_bench(ns) -> int:
    """``repro bench <name>``: one registered microbench, what-if knobs on."""
    import inspect

    from repro.experiments.ascii_plot import table
    from repro.microbench.common import bench_registry, series_from_payload
    from repro.runtime.spec import RunSpec

    name = ns.args[0] if ns.args else "latency"
    network = _network(ns)
    registry = bench_registry()
    if name not in registry:
        raise SystemExit(f"unknown bench {name!r}; "
                         f"know {sorted(registry)}")
    kwargs = {}
    options = parse_mpi_options(ns)
    if options:
        kwargs["mpi_options"] = options
    faults = parse_faults(ns)
    if faults:
        kwargs["faults"] = faults
    if ns.np is not None:
        kwargs["nprocs"] = ns.np
    accepted = inspect.signature(registry[name]).parameters
    if ns.stats:
        if "stats" not in accepted:
            raise SystemExit(f"bench {name!r} does not support --stats "
                             "(latency and bandwidth do)")
        kwargs["stats"] = True
    timeline = _parse_timeline(ns)
    if timeline is not None:
        kwargs["timeline"] = timeline
    if ns.topology is not None:
        kwargs["topology"] = ns.topology
    spec = RunSpec.microbench(name, network, **kwargs)
    payload = runtime.run_spec(spec)
    series = series_from_payload(payload)
    label = network + (f" {options}" if options else "") \
        + (f" faults={faults}" if faults else "")
    print(f"{name} on {label}")
    print(series.fmt(yunit="us" if "latency" in name else ""))
    if series.stats:
        rows = [[f"{int(x)} B", s["n"], f"{s['mean']:.3f}", f"{s['min']:.3f}",
                 f"{s['max']:.3f}", f"{s['std']:.4f}", f"{s['ci95']:.4f}"]
                for x, s in sorted(series.stats.items())]
        print()
        print(table(["size", "n", "mean", "min", "max", "std", "ci95"],
                    rows, title="repetition statistics"))
    _render_timelines(payload, ns.channel)
    return 0


def _cmd_diff(ns) -> int:
    """``repro diff <refA> <refB>``: run (or cache-serve) both and compare."""
    from repro.obs.diff import diff_report, parse_run_ref

    if len(ns.args) != 2:
        raise SystemExit("diff needs exactly two run refs, e.g. "
                         "`repro diff latency@myrinet latency@quadrics`")
    try:
        ref_a, ref_b = (parse_run_ref(a) for a in ns.args)
    except ValueError as exc:
        raise SystemExit(str(exc)) from None
    timeline = _parse_timeline(ns)
    size = 16384 if ns.size is None else ns.size
    print(diff_report(ref_a, ref_b, size=size,
                      iters=ns.iters if ns.iters is not None else 20,
                      nprocs=ns.np if ns.np is not None else 4,
                      interval_us=None if timeline in (None, True) else timeline,
                      channels=ns.channel))
    return 0


def _cmd_trace(ns) -> int:
    """``repro trace <target>``: run fully-traced and export Perfetto JSON."""
    from repro.profiling.trace_export import (category_summary, critical_path,
                                              traced_app, traced_pingpong,
                                              write_chrome_trace)

    target = ns.args[0] if ns.args else "pingpong"
    network = _network(ns)
    size = 4 if ns.size is None else ns.size
    cats = None
    if ns.categories:
        cats = [c.strip() for c in ns.categories.split(",") if c.strip()]
    options = parse_mpi_options(ns) or None
    tracers = {}
    cp_networks = []
    if "." in target:  # app.class kernel trace
        app, klass = target.split(".", 1)
        res, tracer = traced_app(app, klass, network, nprocs=4,
                                 categories=cats, mpi_options=options)
        tracers[f"{target}:{network}"] = tracer
        runtime.metrics().merge(res.metrics or {})
        cp_networks = [network]
    elif target in ("pingpong", "pt2pt"):
        res, tracer = traced_pingpong(network, nbytes=size,
                                      categories=cats, mpi_options=options)
        tracers[network] = tracer
        runtime.metrics().merge(res.metrics)
        cp_networks = [network]
    else:  # figN / tableN / latency: traced pingpong on all three fabrics
        for net in NETWORKS:
            res, tracer = traced_pingpong(net, nbytes=size,
                                          categories=cats, mpi_options=options)
            tracers[net] = tracer
            runtime.metrics().merge(res.metrics)
        cp_networks = list(NETWORKS)
    nev = write_chrome_trace(ns.out, tracers)
    print(f"wrote {nev} trace events to {ns.out} "
          "(load in https://ui.perfetto.dev)")
    for label, tracer in sorted(tracers.items()):
        print(f"\n[{label}]")
        print(category_summary(tracer))
    if cats is None or ("hw" in cats and "net" in cats):
        for net in cp_networks:
            print()
            print(critical_path(net, nbytes=size).render())
    return 0


def _show(text: str) -> int:
    print(text)
    return 0


def _cmd_calibration(ns) -> int:
    from repro.experiments.calibration import calibration_report

    return _show(calibration_report())


def _cmd_loggp(ns) -> int:
    from repro.analysis import loggp_report

    return _show(loggp_report())


def _cmd_validate(ns) -> int:
    from repro.experiments.validate import validation_report

    return _show(validation_report(quick=not ns.full))


def _cmd_report(ns) -> int:
    from repro.experiments.report_all import reproduce_all

    reproduce_all(quick=not ns.full, out=sys.stdout)
    return 0


def _cmd_matrix(ns) -> int:
    from repro.mpi.ch.matrix import matrix_report

    return _show(matrix_report(iters=30 if ns.full else 10))


def _cmd_faults(ns) -> int:
    from repro.experiments.degradation import degradation_report

    seed = 7 if ns.fault_seed is None else ns.fault_seed
    return _show(degradation_report(quick=not ns.full, seed=seed))


def _cmd_list(ns) -> int:
    from repro.apps.classes import PROBLEMS

    print("figures: " + " ".join(sorted(FIGURES, key=lambda f: int(f[3:]))))
    print("tables:  " + " ".join(sorted(TABLES)))
    print("apps:    " + " ".join(sorted(PROBLEMS)))
    print("other:   " + "  ".join(usage for name, usage, _ in COMMANDS
                                  if name != "list"))
    return 0


#: every command besides figN/tableN as (name, usage, handler); ``repro
#: list``, ``--help`` and :func:`_dispatch` all read this one table
COMMANDS = (
    ("calibration", "calibration", _cmd_calibration),
    ("loggp", "loggp", _cmd_loggp),
    ("validate", "validate", _cmd_validate),
    ("report", "report", _cmd_report),
    ("matrix", "matrix", _cmd_matrix),
    ("faults", "faults", _cmd_faults),
    ("trace", "trace [pingpong|figN|app.class]", _cmd_trace),
    ("bench", "bench <name>", _cmd_bench),
    ("profile", "profile <app.class> <nprocs>", _cmd_profile),
    ("diff", "diff <refA> <refB>", _cmd_diff),
    ("list", "list", _cmd_list),
)


def main(argv=None) -> int:
    """Parse arguments and dispatch to the requested artifact."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate artifacts from Liu et al. (SC'03) in simulation.")
    parser.add_argument("target", help=" | ".join(
        ["figN", "tableN"] + [name for name, _, _ in COMMANDS]))
    parser.add_argument("args", nargs="*", help="extra arguments (profile: "
                                                "app.class nprocs; trace: "
                                                "pingpong | figN | app.class; "
                                                "bench: microbench name)")
    parser.add_argument("--full", action="store_true",
                        help="full sweeps instead of the quick defaults")
    parser.add_argument("--network", default=None,
                        help="network for 'profile'/'trace'/'bench' "
                             "(default: infiniband)")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="run independent simulations on N worker "
                             "processes (default: 1 = serial)")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the run-result cache (every spec "
                             "re-simulates)")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="also persist results on disk under DIR "
                             "(convention: .repro_cache)")
    parser.add_argument("--metrics", action="store_true",
                        help="print the aggregated per-run metrics registry "
                             "after the artifact")
    parser.add_argument("--out", default="trace.json", metavar="FILE",
                        help="trace: output JSON path (default: trace.json)")
    parser.add_argument("--size", type=int, default=None, metavar="BYTES",
                        help="message size in bytes (trace default: 4; "
                             "diff default: 16384)")
    parser.add_argument("--categories", default=None, metavar="C1,C2",
                        help="trace: only these categories "
                             "(engine,hw,net,proto,mpi; default: all)")
    parser.add_argument("--mpi-option", action="append", default=None,
                        metavar="KEY=VAL", dest="mpi_option",
                        help="MPI protocol option (repeatable), e.g. "
                             "rendezvous=send_recv, use_shmem=false; keyed "
                             "into the result cache via RunSpec.mpi_options")
    parser.add_argument("--eager-limit", type=int, default=None,
                        metavar="BYTES", dest="eager_limit",
                        help="eager/rendezvous crossover in bytes (shorthand "
                             "for --mpi-option eager_limit=BYTES)")
    parser.add_argument("--fault", action="append", default=None,
                        metavar="KEY=VAL", dest="fault",
                        help="wire-fault parameter (repeatable), e.g. "
                             "drop_rate=0.01, corrupt_rate=0.005, "
                             "stall_period_us=500; keyed into the result "
                             "cache via RunSpec.faults")
    parser.add_argument("--fault-seed", type=int, default=None,
                        metavar="N", dest="fault_seed",
                        help="seed for the deterministic fault roll stream "
                             "(shorthand for --fault seed=N)")
    parser.add_argument("--run-timeout", type=float, default=None,
                        metavar="SECONDS", dest="run_timeout",
                        help="per-spec wall-clock budget; a run exceeding it "
                             "fails with SimulationError instead of hanging")
    parser.add_argument("--timeline", nargs="?", const="default", default=None,
                        metavar="US",
                        help="sample live counters every US sim-µs "
                             "(bench/diff; bare flag = 10µs default grid); "
                             "payloads gain a deterministic 'timeline' block")
    parser.add_argument("--ledger", default=None, metavar="FILE",
                        help="append structured JSONL run-lifecycle events "
                             "(run_started/run_finished/cache_hit/...) to FILE")
    parser.add_argument("--progress", action="store_true",
                        help="print a live per-spec progress line to stderr "
                             "as sweeps execute")
    parser.add_argument("--stats", action="store_true",
                        help="bench: record every repetition and report "
                             "n/mean/min/max/std/ci95 per size")
    parser.add_argument("--np", type=int, default=None, metavar="N",
                        help="process count for bench/diff runs "
                             "(default: bench 2, diff 4)")
    parser.add_argument("--iters", type=int, default=None, metavar="N",
                        help="iteration count for diff runs (default: 20)")
    parser.add_argument("--channel", action="append", default=None,
                        metavar="NAME",
                        help="timeline channel(s) to chart (repeatable; "
                             "default: auto-pick channels that moved)")
    parser.add_argument("--topology", default=None, metavar="KIND",
                        help="bench: switch topology "
                             "(single | fat_tree | clos | federated_elite; "
                             "default: single, the testbed crossbar); diff "
                             "takes it per side as ':topology=KIND'")
    # intermixed parsing so flags may precede trailing run refs
    # (`repro diff --size N latency@myrinet latency@quadrics`)
    ns = parser.parse_intermixed_args(argv)

    runtime.configure(jobs=ns.jobs, enabled=not ns.no_cache,
                      disk_dir=ns.cache_dir, timeout_s=ns.run_timeout,
                      ledger=ns.ledger, progress=True if ns.progress else None)

    rc = _dispatch(ns, parser)
    if ns.target.lower() != "list":
        if ns.metrics:
            print()
            reg = runtime.metrics()
            print(reg.summary(title="run metrics"))
            engine_line = reg.engine_summary()
            if engine_line:
                print(engine_line)
        trailer = f"[cache] {runtime.cache_stats()}"
        sweep = runtime.sweep_stats()
        if sweep.specs:
            trailer += f" | sweep: {sweep.line()}"
        print(trailer)
    return rc


def _dispatch(ns, parser) -> int:
    t = ns.target.lower()
    for name, _usage, handler in COMMANDS:
        if t == name:
            return handler(ns)
    if t in FIGURES:
        return _show(run_figure(t, quick=not ns.full).render())
    if t in TABLES:
        return _show(run_table(t, quick=not ns.full).render())
    parser.error(f"unknown target {ns.target!r}; try 'python -m repro list'")
    return 2  # pragma: no cover


if __name__ == "__main__":
    sys.exit(main())
