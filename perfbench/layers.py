"""Traced-run instruments: a layer-bucketing profiler and boundary counters.

Neither is installed in an untraced run.  The traced run makes two
extra passes over the workload: one with :class:`Counters` patched onto
a few layer boundaries (no profiler, so their timers read host time
close to the untraced run's), and one under :class:`LayerProfiler`
(no counters, so no wrapper shows up in the profile).

Layers are the top-level packages of ``repro``.  Modules of ``repro``
outside the nine named layers (``obs``, ``analysis``, ``faults``, ...)
and calls that enter from the benchmark itself land in ``other``, so
the shares of the ten buckets sum to 1.
"""

import cProfile
import json
import os
import pstats
import time

LAYERS = ("core", "hardware", "networks", "mpi", "apps", "microbench",
          "profiling", "runtime", "experiments")
OTHER = "other"


# ----------------------------------------------------------------------
# profiler bucketing
# ----------------------------------------------------------------------
class LayerMap:
    """Map a code object's file to its layer, or None outside ``repro``."""

    def __init__(self, repro_dir):
        self.root = os.path.realpath(repro_dir) + os.sep
        self._memo = {}

    def __call__(self, filename):
        layer = self._memo.get(filename)
        if layer is None and filename not in self._memo:
            path = os.path.realpath(filename) if filename[:1] not in "~<" else ""
            if path.startswith(self.root):
                top = path[len(self.root):].split(os.sep, 1)[0]
                layer = top if top in LAYERS else OTHER
            self._memo[filename] = layer
        return layer


def attribute(stats, layer_of):
    """Bucket cProfile stats into per-layer self time and entering calls.

    ``stats`` is ``pstats.Stats.stats``: ``{func: (cc, nc, tt, ct,
    callers)}`` with ``callers[caller] = (nc, cc, tt, ct)``.  A ``repro``
    function's self time goes to its own layer.  A function outside
    ``repro`` (stdlib, builtins, numpy) charges the self time it spent
    under each caller to that caller's layer; a caller that is itself
    outside ``repro`` passes the charge on to its own callers in
    proportion to the cumulative time each of them spent in it.

    Returns ``{layer: {"self_s": s, "calls": n}}`` for every layer and
    ``other``; ``calls`` counts calls into the layer from another one.
    """
    own = {f: layer_of(f[0]) for f in stats}
    memo = {}

    def dist(func, active):
        """Layer distribution of the callers of a non-repro ``func``."""
        if own.get(func) is not None:
            return {own[func]: 1.0}
        if func in memo:
            return memo[func]
        callers = stats[func][4] if func in stats else {}
        active.add(func)
        acc, total = {}, 0.0
        for caller, entry in callers.items():
            if caller in active:
                continue
            weight = entry[3]
            if weight <= 0.0:
                continue
            total += weight
            for layer, share in dist(caller, active).items():
                acc[layer] = acc.get(layer, 0.0) + weight * share
        active.discard(func)
        out = ({k: v / total for k, v in acc.items()} if total > 0.0
               else {OTHER: 1.0})
        memo[func] = out
        return out

    def main_layer(func):
        d = dist(func, set())
        return max(d, key=d.get)

    out = {layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS + (OTHER,)}
    for func, (_cc, nc, tt, _ct, callers) in stats.items():
        layer = own[func]
        if layer is not None:
            out[layer]["self_s"] += tt
            entering = nc if not callers else sum(
                entry[0] for caller, entry in callers.items()
                if main_layer(caller) != layer)
            out[layer]["calls"] += entering
            continue
        if not callers:
            out[OTHER]["self_s"] += tt
            continue
        for caller, entry in callers.items():
            for owner, share in dist(caller, {func}).items():
                out[owner]["self_s"] += entry[2] * share
    return out


class LayerProfiler:
    """cProfile switched on only around the timed calls of a pass."""

    def __init__(self):
        self.prof = cProfile.Profile()

    def __enter__(self):
        self.prof.enable()
        return self

    def __exit__(self, *exc):
        self.prof.disable()
        return False

    def layers(self, layer_of):
        return attribute(pstats.Stats(self.prof).stats, layer_of)


# ----------------------------------------------------------------------
# boundary counters
# ----------------------------------------------------------------------
class Counters:
    """Counts and timers patched onto layer boundaries while installed.

    Used as a context manager; every patch is undone on exit.  Patches
    go on class attributes, so the program needs no hook of its own.
    Boundaries a revision lacks (e.g. ``Topology`` before the topology
    layer existed) are skipped, and their counters stay at 0.
    """

    def __init__(self):
        self.route_calls = 0
        self.match_calls = 0
        self.match_depth_sum = 0
        self.match_depth_max = 0
        self.match_scanned_sum = 0
        self.encode_s = 0.0
        self.decode_s = 0.0
        self.lookups = 0
        self.hits = 0
        self.lookup_us = []
        self.payload_bytes = 0
        self.store_s = 0.0
        self.render_s = 0.0
        self.payloads = []          # payloads simulated while installed
        self._undo = []

    # -- patching helpers ---------------------------------------------
    def _patch(self, owner, attr, make_wrapper):
        original = owner.__dict__[attr]
        setattr(owner, attr, make_wrapper(original))
        self._undo.append((owner, attr, original))

    def _timed(self, owner, attr, field):
        def make(original):
            def wrapper(*args, **kwargs):
                t0 = time.perf_counter()
                try:
                    return original(*args, **kwargs)
                finally:
                    setattr(self, field, getattr(self, field)
                            + time.perf_counter() - t0)
            return wrapper
        self._patch(owner, attr, make)

    def _match(self, queue_attr, original):
        """Queue depth at the call, and entries the scan examined.

        Depth is the length of the queue the linear scan walks; the scan
        stops at the first match, or examines the whole queue on a miss.
        """
        def wrapper(engine, item):
            before = list(getattr(engine, queue_attr))
            found = original(engine, item)
            if found is None:
                scanned = len(before)
            else:
                scanned = next(i for i, x in enumerate(before) if x is found) + 1
            self.match_calls += 1
            self.match_depth_sum += len(before)
            self.match_depth_max = max(self.match_depth_max, len(before))
            self.match_scanned_sum += scanned
            return found
        return wrapper

    def _count_route(self, original):
        def route(topo, src, dst):
            self.route_calls += 1
            return original(topo, src, dst)
        return route

    # -- install / remove ---------------------------------------------
    def __enter__(self):
        from repro.experiments.figures import FigureResult
        from repro.experiments.tables import TableResult
        from repro.mpi.matching import MatchEngine
        from repro.profiling.recorder import Recorder
        from repro.runtime import ResultCache
        import repro.runtime.executor as executor

        self._patch(MatchEngine, "post_recv",
                    lambda f: self._match("unexpected", f))
        self._patch(MatchEngine, "arrive", lambda f: self._match("posted", f))
        self._timed(Recorder, "to_dict", "encode_s")
        from_dict = Recorder.__dict__["from_dict"].__func__

        def timed_from_dict(cls, data):
            t0 = time.perf_counter()
            try:
                return from_dict(cls, data)
            finally:
                self.decode_s += time.perf_counter() - t0
        self._patch(Recorder, "from_dict",
                    lambda _f: classmethod(timed_from_dict))
        self._timed(ResultCache, "store", "store_s")
        self._timed(FigureResult, "render", "render_s")
        self._timed(TableResult, "render", "render_s")

        def make_lookup(original):
            def lookup(cache, spec):
                t0 = time.perf_counter()
                payload = original(cache, spec)
                self.lookup_us.append((time.perf_counter() - t0) * 1e6)
                self.lookups += 1
                if payload is not None:
                    self.hits += 1
                    self.payload_bytes += len(json.dumps(payload))
                return payload
            return lookup
        self._patch(ResultCache, "lookup", make_lookup)

        def make_execute(original):
            def execute_spec(spec):
                payload = original(spec)
                self.payloads.append(payload.get("metrics") or {})
                return payload
            return execute_spec
        self._patch(executor, "execute_spec", make_execute)

        try:
            from repro.hardware.topology import Topology
        except ImportError:     # revisions before the topology layer
            return self
        todo = [Topology]
        while todo:
            cls = todo.pop()
            todo.extend(cls.__subclasses__())
            if "route" in cls.__dict__:
                self._patch(cls, "route", self._count_route)
        return self

    def __exit__(self, *exc):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
        return False

    # -- results --------------------------------------------------------
    def metrics(self):
        """Per-layer counter metrics: name -> (value, unit)."""
        counters = [m.get("counters", {}) for m in self.payloads]
        peak = [m.get("histograms", {}).get("engine.peak_queue_depth", {})
                .get("max", 0) for m in self.payloads]

        def total(prefix):
            return sum(v for c in counters for k, v in c.items()
                       if k.startswith(prefix))

        samples = sorted(self.lookup_us)

        def pct(q):
            if not samples:
                return 0.0
            return samples[min(len(samples) - 1, round(q * (len(samples) - 1)))]

        calls = self.match_calls
        return {
            "core.events": (total("engine.events_total"), "count"),
            "core.peak_queue_depth": (max(peak, default=0), "count"),
            "hardware.wire_bytes": (total("hw.wire.bytes"), "B"),
            "hardware.route_calls": (self.route_calls, "count"),
            "networks.packets": (total("net.pkts."), "count"),
            "mpi.msgs": (total("mpi.msgs."), "count"),
            "mpi.match_calls": (calls, "count"),
            "mpi.match_depth_mean": (
                self.match_depth_sum / calls if calls else 0.0, "count"),
            "mpi.match_depth_max": (self.match_depth_max, "count"),
            "mpi.match_scanned_mean": (
                self.match_scanned_sum / calls if calls else 0.0, "count"),
            "profiling.encode_s": (self.encode_s, "s"),
            "profiling.decode_s": (self.decode_s, "s"),
            "runtime.lookups": (self.lookups, "count"),
            "runtime.hit_ratio": (
                self.hits / self.lookups if self.lookups else 0.0, "ratio"),
            "runtime.lookup_p50_us": (pct(0.50), "us"),
            "runtime.lookup_p95_us": (pct(0.95), "us"),
            "runtime.payload_mb": (self.payload_bytes / float(1 << 20), "MB"),
            "runtime.store_s": (self.store_s, "s"),
            "experiments.render_s": (self.render_s, "s"),
        }
