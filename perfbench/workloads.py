"""The benchmark's three workloads: what each runs and how it is checked.

A workload is a list of named *operations* plus a set-up step that
runs after the common :func:`warm_up`.  An
operation is one RunSpec (``micro-full``, ``apps``) or one rendered
paper artifact (``report-warm``).  ``produce(op)`` is the timed call;
``check(op, out)`` turns its output into ``(digest, error, kept)``: a
result digest, or an error message when the output is wrong, and the
few values ``paper_err_pct`` needs.  Nothing bigger is kept, so peak
memory does not depend on the order of operations.  Everything here goes through public
entry points of the ``repro`` package (``RunSpec``, ``runtime.reset``,
``runtime.run_specs``, ``run_figure``/``run_table``), so the same file
measures any revision that has them.
"""

import hashlib
import json
import math
import os

from hostspeed import timed

NETS = ("infiniband", "myrinet", "quadrics")

#: Figs. 1/2/4/5 point-to-point sweeps (2 ranks) and Figs. 11/12
#: collectives (8 ranks), default sizes and iterations, full simulation
MICRO_BENCHES = (("latency", 2), ("bidir_latency", 2), ("bandwidth", 2),
                 ("bidir_bandwidth", 2), ("alltoall", 8), ("allreduce", 8))

#: NAS class B + Sweep3D-50 at 8 ranks, one fabric each, recorded as the
#: profiling tables run them: (app, class, network)
APPS_8 = (("is", "B", "infiniband"), ("cg", "B", "myrinet"),
          ("mg", "B", "quadrics"), ("ft", "B", "infiniband"),
          ("lu", "B", "myrinet"), ("sweep3d", "50", "quadrics"))

#: Tables 1/3/4/5 and Figs. 1-13, quick mode
ARTIFACTS = ("table1", "table3", "table4", "table5") + tuple(
    f"fig{i}" for i in range(1, 14))

#: MICRO items compared on micro-full: (paper key, bench, size in bytes).
#: The 8-rank allreduce sweep starts at 4 B, its smallest message.
MICRO_ITEMS = (("latency_small_us", "latency", 4),
               ("bandwidth_peak_mbps", "bandwidth", 1 << 20),
               ("bidir_latency_us", "bidir_latency", 4),
               ("bidir_bandwidth_mbps", "bidir_bandwidth", 65536),
               ("alltoall_small_us", "alltoall", 4),
               ("allreduce_small_us", "allreduce", 4))

#: The same items read off the quick-mode figures on report-warm:
#: (paper key, figure, series label suffix, size in bytes)
FIGURE_ITEMS = (("latency_small_us", "fig1", "", 4),
                ("bandwidth_peak_mbps", "fig2", " 16", 1 << 20),
                ("bidir_latency_us", "fig4", "", 4),
                ("bidir_bandwidth_mbps", "fig5", "", 65536),
                ("alltoall_small_us", "fig11", " Alltoall", 4),
                ("allreduce_small_us", "fig12", " Allreduce", 8))


def payload_digest(payload):
    """sha256 of a payload's results: host-side keys and counters dropped.

    ``metrics`` (counters a revision may add to) and ``_``-prefixed
    wall-clock side channels are not results; everything else is.
    """
    core = {k: v for k, v in payload.items()
            if k != "metrics" and not k.startswith("_")}
    blob = json.dumps(core, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def text_digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def mean_abs_err_pct(pairs):
    """Mean |measured - paper| / paper over (paper, measured) pairs, in %."""
    errs = [abs(got - ref) / ref for ref, got in pairs
            if not math.isnan(ref) and ref]
    return 100.0 * sum(errs) / len(errs)


class SimWorkload:
    """Operations are RunSpecs executed with the result cache off."""

    # no cold seed: set-up is the common warm-up only
    seed_s = seed_wall_s = 0.0

    def __init__(self, name, specs):
        self.name = name
        self.specs = specs          # op name -> RunSpec

    def ops(self):
        return list(self.specs)

    def set_up(self):
        pass

    def begin_pass(self):
        from repro import runtime
        runtime.reset(jobs=1, enabled=False)

    def produce(self, op):
        from repro import runtime
        return runtime.run_specs([self.specs[op]])[0]

    def check(self, op, payload):
        from repro.runtime import is_error_payload
        if is_error_payload(payload):
            err = payload.get("error", {})
            return None, f"{err.get('type')}: {err.get('message')}", None
        kept = {"points": payload.get("points"),
                "elapsed_s": payload.get("elapsed_s")}
        return payload_digest(payload), None, kept


class MicroFull(SimWorkload):
    def __init__(self):
        from repro.runtime import RunSpec
        specs = {f"{bench}.{net}": RunSpec.microbench(bench, net, nprocs=np_)
                 for bench, np_ in MICRO_BENCHES for net in NETS}
        super().__init__("micro-full", specs)

    def paper_err_pct(self, outputs):
        from repro.experiments.paper_data import MICRO
        pairs = []
        for key, bench, size in MICRO_ITEMS:
            for i, net in enumerate(NETS):
                points = dict((int(x), y) for x, y in
                              outputs[f"{bench}.{net}"]["points"])
                pairs.append((MICRO[key][i], points[size]))
        return mean_abs_err_pct(pairs)


class Apps(SimWorkload):
    def __init__(self):
        from repro.runtime import RunSpec
        specs = {f"{app}.{klass}.{net}.8": RunSpec.app(
                     app, klass, net, 8, record=True, sample_iters=2)
                 for app, klass, net in APPS_8}
        # routed part: one run through each multistage topology
        specs["is.B.infiniband.32.fat_tree"] = RunSpec.app(
            "is", "B", "infiniband", 32, record=True, sample_iters=2,
            topology="fat_tree")
        for net, topo in (("myrinet", "clos"), ("quadrics", "federated_elite")):
            specs[f"alltoall.{net}.64.{topo}"] = RunSpec.microbench(
                "alltoall", net, nprocs=64, sizes=(1024,), iters=2, warmup=1,
                topology=topo)
        super().__init__("apps", specs)

    def paper_err_pct(self, outputs):
        from repro.experiments.paper_data import TABLE2
        pairs = []
        for app, klass, net in APPS_8:
            key = app if klass == "B" else f"{app}.{klass}"
            pairs.append((TABLE2[key][net][8],
                          outputs[f"{app}.{klass}.{net}.8"]["elapsed_s"]))
        return mean_abs_err_pct(pairs)


class ReportWarm:
    """Re-render paper artifacts from a warm disk cache.

    Set-up simulates every artifact once into a fresh disk cache (the
    cold seed).  Each pass then starts a fresh in-memory runtime over
    that cache, as a new ``repro report`` process would, so the pass
    reads every payload back from disk and simulates nothing.
    """

    name = "report-warm"

    def __init__(self, work_root):
        self.cache_dir = os.path.join(work_root, "cache")
        self.cold_text = {}
        self.seed_s = self.seed_wall_s = 0.0

    def ops(self):
        return list(ARTIFACTS)

    def set_up(self):
        from repro import runtime
        runtime.reset(jobs=1, disk_dir=self.cache_dir)
        # canonical order, not the seed's: which artifact simulates the
        # shared specs first must not move set-up time or peak memory
        for op in ARTIFACTS:
            (_art, text), wall, ref = timed(self._render, op)
            self.cold_text[op] = text
            self.seed_s += ref
            self.seed_wall_s += wall

    def begin_pass(self):
        from repro import runtime
        runtime.reset(jobs=1, disk_dir=self.cache_dir)

    @staticmethod
    def _render(op):
        from repro.experiments import run_figure, run_table
        art = (run_figure if op.startswith("fig") else run_table)(op, quick=True)
        return art, art.render()

    def produce(self, op):
        from repro import runtime
        misses = runtime.cache_stats().misses
        art, text = self._render(op)
        return art, text, runtime.cache_stats().misses - misses

    def check(self, op, out):
        art, text, simulated = out
        if simulated:
            return None, f"warm pass simulated {simulated} spec(s)", None
        if text != self.cold_text[op]:
            return None, "rendered text differs from the cold pass", None
        return text_digest(text), None, art

    def paper_err_pct(self, outputs):
        from repro.experiments.paper_data import MICRO
        from repro.networks import NETWORKS
        pairs = []
        for key, fig, suffix, size in FIGURE_ITEMS:
            series = {s.label: s for s in outputs[fig].series}
            for i, net in enumerate(NETS):
                got = series[NETWORKS[net] + suffix].at(size)
                pairs.append((MICRO[key][i], got))
        return mean_abs_err_pct(pairs)


def warm_up():
    """Pay one-time costs (lazy imports, registries) before any timing."""
    from repro import runtime
    from repro.runtime import RunSpec
    import repro.experiments  # noqa: F401  (pulls in every driver)

    runtime.reset(jobs=1, enabled=False)
    specs = [RunSpec.microbench("latency", net, sizes=(4,), iters=2)
             for net in NETS]
    specs.append(RunSpec.app("is", "S", "infiniband", 4, record=True))
    for payload in runtime.run_specs(specs):
        if runtime.is_error_payload(payload):
            raise RuntimeError(f"warm-up failed: {payload['error']}")


def make(name, work_root):
    if name == "micro-full":
        return MicroFull()
    if name == "apps":
        return Apps()
    if name == "report-warm":
        return ReportWarm(work_root)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("micro-full", "apps", "report-warm")
