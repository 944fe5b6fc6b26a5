"""Host-time benchmark of the simulator: one workload per invocation.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload micro-full --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` makes the
traced run that attributes host time to the ``repro`` layers.  The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--write-pins`` records the
current result digests and engine-event counts in ``pins.json``.

See README.md in this directory for what each workload and metric means.
"""

import argparse
import collections
import contextlib
import gc
import json
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

from hostspeed import timed

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
PINS_PATH = os.path.join(BENCH_DIR, "pins.json")
#: fresh interpreters timed for the import + warm-up part of set-up
SETUP_SAMPLES = 3
#: a run makes at least this many timed passes: results must repeat,
#: and a per-op median of three rejects one pass caught in a host stall
MIN_PASSES = 3


def find_source(root):
    """The checkout's ``src`` directory; exit if it holds no ``repro``."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        sys.exit(f"error: no src/repro/ under {root}; run from the root "
                 f"of a source checkout")
    return src


def import_program(src):
    sys.path.insert(0, src)
    import repro
    origin = os.path.realpath(repro.__file__)
    if not origin.startswith(os.path.realpath(src) + os.sep):
        sys.exit(f"error: imported repro from {origin}, not from {src}")


def time_setup(src):
    """Median (reference, wall) seconds of fresh interpreters that import
    ``repro`` and warm up.

    A new process is the only way to pay the import cost again, so each
    sample is a child interpreter; the parent waits for every one.
    """
    code = ("import sys; sys.path[:0] = [%r, %r]; import workloads; "
            "workloads.warm_up()" % (src, BENCH_DIR))
    samples = [timed(subprocess.run, [sys.executable, "-c", code], check=True,
                     stdout=subprocess.DEVNULL)[1:]
               for _ in range(SETUP_SAMPLES)]
    return (statistics.median(ref for _wall, ref in samples),
            statistics.median(wall for wall, _ref in samples))


#: one op of one pass: reference and wall seconds, digest, kept values
Sample = collections.namedtuple("Sample", "ref_s wall_s digest kept")


class Tally:
    """Operation accounting for one run."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def fail(self, op, why):
        self.failures.append(f"{op}: {why}")


def run_pass(wl, ops, tally, profiler=None):
    """One pass over ``ops``: ``{op: Sample}``.

    Only ``produce`` is timed (and profiled); digests and checks run
    outside the timed region.  Each op starts from a collected heap:
    without it, when the collector's full sweeps land depends on what
    ran before, and the same pass swings by a quarter between op orders.
    """
    profiler = profiler or contextlib.nullcontext()

    def produce(op):
        with profiler:
            return wl.produce(op)

    wl.begin_pass()
    out = {}
    for op in ops:
        tally.attempted += 1
        gc.collect()
        try:
            result, wall, ref = timed(produce, op)
            digest, err, kept = wl.check(op, result)
        except Exception as exc:  # one failing op must not end the run
            wall = ref = 0.0
            digest, err, kept = None, f"{type(exc).__name__}: {exc}", None
        if err is not None:
            tally.fail(op, err)
        out[op] = Sample(ref, wall, digest, kept)
    return out


def compare_digests(reference, other, tally, label):
    """Fail every op whose digest differs from the reference pass."""
    for op, sample in other.items():
        ref = reference[op].digest
        if None not in (sample.digest, ref) and sample.digest != ref:
            tally.fail(op, f"{label} result differs from the first pass")


def load_pins():
    with open(PINS_PATH) as fh:
        return json.load(fh)


def drift(workload, first, pins):
    """Ops whose digest differs from the pinned one (reported, not failed)."""
    pinned = pins.get(workload, {}).get("ops", {})
    return sorted(op for op, sample in first.items()
                  if sample.digest is not None
                  and pinned.get(op, {}).get("digest") != sample.digest)


def canonical_events(workload, ops, pins):
    entry = pins[workload]
    if "events" in entry:
        return entry["events"]
    return sum(entry["ops"][op]["events"] for op in ops)


def measure(wl, ops, seconds, tally, pins):
    """Untraced run: as many timed passes as fit in ``seconds``."""
    passes = []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if (len(passes) >= MIN_PASSES
                and elapsed * (len(passes) + 1) / len(passes) > seconds):
            break
        passes.append(run_pass(wl, ops, tally))
        if len(passes) == 1:
            # peak of set-up plus one pass: later passes only add
            # allocator fragmentation, and their count varies with host
            # speed, so they would make the peak depend on the host
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        else:
            compare_digests(passes[0], passes[-1], tally, f"pass {len(passes)}")
    # per-op median over passes, summed: one transient stall costs one
    # sample of one op, not a whole pass
    def per_pass(field):
        return sum(statistics.median(getattr(p[op], field) for p in passes)
                   for op in ops)

    wall = per_pass("ref_s")
    first = passes[0]
    metrics = {"wall_s": (wall, "s")}
    metrics["sim_events_per_s"] = (
        canonical_events(wl.name, ops, pins) / wall, "1/s")
    metrics["peak_rss_mb"] = (peak_kb / 1024.0, "MB")
    outputs = {op: first[op].kept for op in ops}
    if all(v is not None for v in outputs.values()):
        metrics["paper_err_pct"] = (wl.paper_err_pct(outputs), "%")
    return metrics, first, len(passes), per_pass("wall_s")


def traced(wl, ops, tally, repro_dir, setup_counters):
    """Traced run: an untraced pass, a counter pass and a profiled pass."""
    from layers import LayerMap, LayerProfiler, Counters, LAYERS, OTHER

    base = run_pass(wl, ops, tally)
    counters = Counters()
    with counters:
        counted = run_pass(wl, ops, tally)
    compare_digests(base, counted, tally, "counter pass")
    profiler = LayerProfiler()
    profiled = run_pass(wl, ops, tally, profiler=profiler)
    compare_digests(base, profiled, tally, "profiled pass")

    layers = profiler.layers(LayerMap(repro_dir))
    total = sum(v["self_s"] for v in layers.values())
    metrics = {}
    for layer in LAYERS + (OTHER,):
        metrics[f"{layer}.self_s"] = (layers[layer]["self_s"], "s")
        metrics[f"{layer}.share"] = (layers[layer]["self_s"] / total, "ratio")
        metrics[f"{layer}.calls"] = (layers[layer]["calls"], "count")
    metrics.update(counters.metrics())
    metrics["runtime.store_s"] = setup_counters.metrics()["runtime.store_s"]
    base_wall = sum(v.ref_s for v in base.values())
    prof_wall = sum(v.ref_s for v in profiled.values())
    metrics["trace.overhead_x"] = (prof_wall / base_wall, "x")
    return metrics, base


def write_pins(wl, ops, seed_events):
    """Pin each op's digest and, for specs, its engine-event count."""
    pins = load_pins() if os.path.exists(PINS_PATH) else {}
    entry = {"ops": {}}
    wl.begin_pass()
    for op in ops:
        out = wl.produce(op)
        digest, err, _kept = wl.check(op, out)
        if err is not None:
            sys.exit(f"error: not pinning a failing op: {op}: {err}")
        row = {"digest": digest}
        if isinstance(out, dict):
            row["events"] = int(out["metrics"]["counters"]["engine.events_total"])
        entry["ops"][op] = row
    if seed_events:
        entry["events"] = int(seed_events)
    pins[wl.name] = entry
    with open(PINS_PATH, "w") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None):
    import workloads

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0,
                    help="permutes the order of operations; inputs are fixed")
    ap.add_argument("--seconds", type=float, default=25.0,
                    help="make as many timed passes as fit (at least %d)"
                    % MIN_PASSES)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-pins", action="store_true",
                    help="record result digests and event counts in pins.json")
    args = ap.parse_args(argv)

    # a terminated run still removes its scratch cache (finally below)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    root = os.getcwd()
    src = find_source(root)
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]     # no inherited cache backend or job count
    import_program(src)

    from layers import Counters

    work_root = tempfile.mkdtemp(prefix=".perfbench_tmp-", dir=root)
    try:
        wl = workloads.make(args.workload, work_root)
        ops = wl.ops()
        random.Random(args.seed).shuffle(ops)
        tally = Tally()

        setup_counters = Counters()
        import_s, import_wall_s = time_setup(src)
        workloads.warm_up()
        traced_setup = args.trace or args.write_pins
        with setup_counters if traced_setup else contextlib.nullcontext():
            wl.set_up()
        setup_s = import_s + wl.seed_s
        setup_wall_s = import_wall_s + wl.seed_wall_s

        if args.write_pins:
            write_pins(wl, ops, setup_counters.metrics()["core.events"][0])
            print(f"pinned {len(ops)} ops of {args.workload}")
            return 0
        pins = load_pins()

        raw = {}
        if args.trace:
            metrics, first = traced(wl, ops, tally,
                                    os.path.join(src, "repro"), setup_counters)
            npasses = 3
        else:
            metrics, first, npasses, raw["wall_s"] = measure(
                wl, ops, args.seconds, tally, pins)
            raw["setup_s"] = setup_wall_s
            metrics["setup_s"] = (setup_s, "s")
        drifted = drift(args.workload, first, pins)
    finally:
        shutil.rmtree(work_root, ignore_errors=True)

    print(f"workload {args.workload}: {len(ops)} ops x {npasses} passes, "
          f"seed {args.seed}, trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<28} {value:>16.6g} {unit}")
    for name, value in raw.items():     # before host-speed normalization
        print(f"  {'raw ' + name:<28} {value:>16.6g} s")
    print(f"  {'result_drift':<28} {len(drifted):>16d} count")
    for op in drifted:
        print(f"    drift: {op}")
    for line in tally.failures:
        print(f"    FAILED {line}")
    failed = len(tally.failures)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
