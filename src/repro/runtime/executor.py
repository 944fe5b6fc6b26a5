"""Spec execution: one dispatch function plus a parallel sweep executor.

:func:`execute_spec` is the single choke point every simulation in the
repo now flows through.  It is a *pure* function of the spec (the
simulator is deterministic), which licenses both layers above it:
results may be cached by spec digest, and independent specs may be
fanned out over ``multiprocessing`` workers with bit-identical output
to serial execution.

Failure isolation: the executor wraps every spec in
:func:`_safe_execute`, so one raising spec no longer sinks a whole
``pool.map`` sweep with an opaque multiprocessing traceback.  The
failed spec resolves to a structured *error payload* (``kind='error'``
with the exception type/message/traceback and the spec's digest), the
remaining specs complete, and ``strict=True`` re-raises at the end for
callers that prefer the old behaviour.  Error payloads are never
cached and never merged into metrics.

:meth:`SweepExecutor.derive` caches a value computed from each payload
beside it, so a warm reader of that value never reads the payload.
"""

from __future__ import annotations

import functools
import inspect
import time
import traceback
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.engine import gc_paused
from repro.core.metrics import MetricsRegistry
from repro.obs.collector import collect
from repro.obs.timeline import DEFAULT_INTERVAL_US
from repro.runtime.cache import DerivedKey, ResultCache, derived_key, plain
from repro.runtime.spec import KIND_APP, KIND_MICROBENCH, RunSpec, thaw_mapping

__all__ = ["execute_spec", "SweepExecutor", "SweepError", "SweepStats",
           "SpecExecutionError", "KIND_ERROR", "is_error_payload"]

#: payload kind marking a spec that raised instead of producing a result
KIND_ERROR = "error"

#: kind of a cache entry holding ``fn(payload)`` (see SweepExecutor.derive)
KIND_DERIVED = "derived"


class SpecExecutionError(RuntimeError):
    """A spec failed in a worker process (original traceback preserved)."""

    def __init__(self, payload: dict) -> None:
        err = payload.get("error", {})
        self.payload = payload
        super().__init__(
            f"{err.get('spec', 'spec')} failed with "
            f"{err.get('type', 'Exception')}: {err.get('message', '')}\n"
            f"--- worker traceback ---\n{err.get('traceback', '')}")


class SweepError(RuntimeError):
    """strict=True summary: one or more specs in a sweep failed."""

    def __init__(self, errors: List[dict]) -> None:
        self.errors = errors
        first = errors[0]["error"]
        super().__init__(
            f"{len(errors)} spec(s) failed in sweep; first: "
            f"{first['spec']} raised {first['type']}: {first['message']}")


def is_error_payload(payload) -> bool:
    """True if ``payload`` is a structured per-spec failure record."""
    return isinstance(payload, dict) and payload.get("kind") == KIND_ERROR


def execute_spec(spec: RunSpec) -> dict:
    """Run the simulation a spec describes and return its payload: plain
    JSON data, except that a recorded app run's ``recorder`` holds packed
    blocks (see :mod:`repro.runtime.cache`).

    Raises on failure (callers wanting isolation go through
    :class:`SweepExecutor`).  Must stay importable at module top level
    (no closures) so ``multiprocessing`` workers can receive it.

    The spec runs under its :func:`repro.obs.collector.collect`
    context: every :class:`~repro.mpi.world.MPIWorld` built for it
    hands the collector its metrics, which land in
    ``payload["metrics"]``.  A truthy ``timeline`` entry in
    ``spec.params`` also makes every world sample its live counters on
    a fixed sim-time grid; the timelines ride in
    ``payload["timeline"]``.  The grid is pure simulation time, so
    timeline payloads stay bit-deterministic (and cacheable) exactly
    like untimed ones.
    """
    with _collect(spec) as col:
        if spec.kind == KIND_APP:
            from repro.apps.runner import simulate_app_spec

            payload = simulate_app_spec(spec)
        elif spec.kind == KIND_MICROBENCH:
            payload = _execute_microbench(spec)
        else:  # pragma: no cover
            raise ValueError(f"unknown spec kind {spec.kind!r}")
    if col.metrics:
        payload["metrics"] = col.metrics.to_dict()
    if col.interval_us is not None:
        payload["timeline"] = col.timelines
    return payload


def _collect(spec: RunSpec):
    """The spec's collector; a second call inside the first joins it.

    ``True`` in ``spec.params["timeline"]`` (and the CLI's bare
    ``--timeline``) selects the default sampling interval; any other
    truthy value is the interval in sim-µs.
    """
    value = thaw_mapping(spec.params).get("timeline")
    if not value:
        interval = None
    elif value is True:
        interval = DEFAULT_INTERVAL_US
    else:
        interval = float(value)
    return collect(spec, interval_us=interval)


def _execute_microbench(spec: RunSpec) -> dict:
    from repro.microbench.common import bench_registry

    kwargs = thaw_mapping(spec.params)
    # timeline is executor-level (the interval of execute_spec's
    # collector), not a bench-function parameter
    kwargs.pop("timeline", None)
    try:
        fn = bench_registry()[spec.target]
    except KeyError:
        raise KeyError(f"unknown microbench {spec.target!r}; "
                       f"know {sorted(bench_registry())}") from None
    if spec.sizes:
        kwargs["sizes"] = spec.sizes
    if spec.iters is not None:
        kwargs["iters"] = spec.iters
    overrides = spec.merged_net_overrides()
    if overrides:
        kwargs["net_overrides"] = overrides
    # process-layout fields are forwarded only to benches that take them
    # (e.g. the collectives run on 8 nodes, intranode pins ppn=2 itself)
    accepted = inspect.signature(fn).parameters
    if "nprocs" in accepted:
        kwargs.setdefault("nprocs", spec.nprocs)
    if spec.mpi_options:
        if "mpi_options" not in accepted:
            raise TypeError(f"microbench {spec.target!r} does not accept "
                            "mpi_options")
        kwargs["mpi_options"] = thaw_mapping(spec.mpi_options)
    if spec.faults:
        if "faults" not in accepted:
            raise TypeError(f"microbench {spec.target!r} does not accept "
                            "fault injection")
        kwargs["faults"] = thaw_mapping(spec.faults)
    series = fn(spec.network, **kwargs)
    payload = {"kind": KIND_MICROBENCH, "bench": spec.target,
               "label": series.label,
               "points": [[float(x), float(y)] for x, y in series.points]}
    stats = getattr(series, "stats", None)
    if stats:
        # per-size repetition statistics (n / mean / min / max / ci95),
        # emitted by benches run with stats=True
        payload["stats"] = {str(x): dict(s) for x, s in stats.items()}
    return payload


def _error_payload(spec: RunSpec, exc: BaseException) -> dict:
    """Structured failure record for one spec (JSON-able, never cached)."""
    return {
        "kind": KIND_ERROR,
        "error": {
            "type": type(exc).__name__,
            "message": str(exc),
            "spec": spec.describe(),
            "digest": spec.digest,
            "traceback": traceback.format_exc(),
        },
    }


def _safe_execute(spec: RunSpec, timeout_s: Optional[float] = None,
                  keep_exception: bool = False) -> Tuple[dict, float, float]:
    """Isolated single-spec execution: errors become payloads.

    Returns ``(payload, elapsed_s, engine_s)``: the spec's
    end-to-end wall time (setup + run + teardown) and the part of it
    its engines spent in ``Simulator.run``.  Real time is not
    simulation output, so it travels beside the payload, never in it.

    Runs in workers via :func:`functools.partial`, so it must stay at
    module top level.  ``timeout_s`` arms the engine's wall-clock
    watchdog for this spec only.  ``keep_exception`` (serial path only)
    attaches the live exception object under ``"_exc"`` so in-process
    callers can re-raise the original — the key is stripped before any
    caching and never crosses a process boundary.
    """
    from repro.core import engine

    engine.set_wall_timeout(timeout_s)
    t0 = time.perf_counter()
    wall_s = 0.0
    try:
        # execute_spec joins this collector, so its engine wall time
        # is read here
        with _collect(spec) as col:
            payload = execute_spec(spec)
        wall_s = col.wall_s
    except Exception as exc:
        payload = _error_payload(spec, exc)
        if keep_exception:
            payload["_exc"] = exc
    finally:
        engine.set_wall_timeout(None)
    return payload, time.perf_counter() - t0, wall_s


def _ledger_summary(payload: dict) -> dict:
    """Compact per-run facts for the ``run_finished`` ledger event."""
    out: dict = {}
    m = payload.get("metrics") or {}
    sim_us = m.get("gauges", {}).get("engine.sim_time_us")
    if sim_us is not None:
        out["sim_us"] = round(sim_us, 3)
    events = m.get("counters", {}).get("engine.events_total")
    if events:
        out["events"] = int(events)
    retx = m.get("counters", {}).get("net.retx.pkts", 0.0)
    if retx:
        out["retx_pkts"] = int(retx)
    timelines = payload.get("timeline")
    if timelines:
        out["timeline_samples"] = sum(len(t.get("t", ())) for t in timelines)
    return out


@dataclass
class SweepStats:
    """Accumulated sweep-level accounting across one executor's lifetime.

    Wall-clock lives here (and in the run ledger), *outside* the cached
    payloads, so recording it never perturbs payload determinism.
    """

    specs: int = 0          #: specs requested (duplicates included)
    unique: int = 0         #: distinct digests among them
    executed: int = 0       #: simulated successfully this run
    cached: int = 0         #: served from the result cache
    errors: int = 0         #: resolved to error payloads
    wall_s: float = 0.0     #: summed per-spec wall time (simulated only)

    def line(self) -> str:
        """One-line human summary (the ``sweep:`` trailer of the CLI)."""
        parts = [f"{self.specs} spec(s) ({self.unique} unique)"]
        if self.executed:
            mean = self.wall_s / self.executed
            parts.append(f"{self.executed} simulated in {self.wall_s:.2f}s "
                         f"wall (mean {mean:.2f}s)")
        if self.cached:
            parts.append(f"{self.cached} cache-served")
        if self.errors:
            parts.append(f"{self.errors} FAILED")
        return ", ".join(parts)


class SweepExecutor:
    """Run a sweep of independent RunSpecs, cached and optionally parallel.

    ``jobs <= 1`` executes serially in-process; ``jobs > 1`` fans the
    cache misses out over a persistent ``multiprocessing`` pool that is
    created on first use and **reused across ``run()`` calls** (fork
    cost is paid once per executor, not once per sweep).  Call
    :meth:`close` — or use the executor as a context manager — to
    release the workers; a shared pool may also be passed in
    (``pool=``), in which case the executor never closes it.  Specs
    appearing more than once in a sweep are simulated once.  Results
    come back aligned with the input order either way, and — the sims
    being deterministic — parallel payloads are identical to serial
    ones.

    A failing spec yields an error payload (see :func:`is_error_payload`)
    in its slot instead of aborting the sweep; pass ``strict=True`` to
    re-raise a :class:`SweepError` after the survivors finish.
    ``timeout_s`` bounds each spec's wall-clock time (None = unlimited).

    Observability hooks (all optional, all out-of-band):

    - ``ledger`` — a :class:`repro.obs.ledger.RunLedger`; every sweep
      emits structured JSONL lifecycle events (``sweep_started``,
      ``cache_hit``, ``run_started``, ``run_finished``, ``run_error``,
      ``sweep_finished``) with spec digests and wall durations.
    - ``progress`` — a callable taking one string; called with a short
      live line per resolved spec.
    - ``sweep`` — a :class:`SweepStats` to accumulate into (the runtime
      facade shares one across an entire CLI invocation).
    """

    def __init__(self, jobs: int = 1, cache: Optional[ResultCache] = None,
                 metrics: Optional[MetricsRegistry] = None,
                 timeout_s: Optional[float] = None,
                 strict: bool = False,
                 ledger=None,
                 progress: Optional[Callable[[str], None]] = None,
                 sweep: Optional[SweepStats] = None,
                 pool=None) -> None:
        self.jobs = max(1, int(jobs))
        self.cache = cache
        self.timeout_s = timeout_s
        self.strict = strict
        self.ledger = ledger
        self.progress = progress
        self.sweep = sweep if sweep is not None else SweepStats()
        self._metrics = metrics if metrics is not None else MetricsRegistry()
        #: cache hits' metrics not yet merged into ``_metrics``, in
        #: arrival order (see :attr:`metrics`)
        self._pending: List[dict] = []
        self._pool = pool
        self._owns_pool = False

    # -- worker-pool lifecycle -----------------------------------------
    def _ensure_pool(self):
        if self._pool is None:
            # only ``jobs > 1`` builds a pool; serial start-up skips the import
            import multiprocessing

            self._pool = multiprocessing.Pool(processes=self.jobs)
            self._owns_pool = True
        return self._pool

    def close(self) -> None:
        """Release the worker pool (no-op for serial or shared pools)."""
        pool, self._pool = self._pool, None
        if pool is not None and self._owns_pool:
            pool.close()
            pool.join()
        self._owns_pool = False

    def __enter__(self) -> "SweepExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - gc-time safety net
        pool = getattr(self, "_pool", None)
        if pool is not None and getattr(self, "_owns_pool", False):
            try:
                pool.terminate()
            except Exception:
                pass

    @property
    def metrics(self) -> MetricsRegistry:
        """Aggregate of the per-run metrics of every unique payload this
        executor resolved (cache hits included: the metrics describe the
        simulated run, however it was obtained).

        A cache hit's metrics wait in a queue, which is merged in
        arrival order on the first read or direct update, so a warm
        sweep that nobody asks for metrics never merges, and the
        registry reads exactly as if every hit had been merged as it
        came.  Read the registry through this property (or
        :func:`repro.runtime.metrics`), not through a reference kept
        from before the sweep.
        """
        pending = self._pending
        if pending:
            self._pending = []
            merge = self._metrics.merge
            for m in pending:
                merge(m)
        return self._metrics

    # -- observability plumbing (no-ops when hooks are unset) ----------
    def _emit(self, event: str, spec: Optional[RunSpec] = None,
              **fields) -> None:
        """Append ``event`` to the ledger, if one is attached; ``spec``
        adds its label and digest first."""
        if self.ledger is None:
            return
        if spec is not None:
            fields = {"spec": spec.describe(), "digest": spec.digest,
                      **fields}
        self.ledger.emit(event, **fields)

    def _progress(self, msg: str) -> None:
        if self.progress is not None:
            self.progress(msg)

    # ------------------------------------------------------------------
    def run(self, specs: Sequence[RunSpec], packed: bool = False
            ) -> List[dict]:
        """Payloads aligned with ``specs``, as plain JSON data
        (:func:`~repro.runtime.cache.plain`); each unique digest is
        looked up once and, on a miss, simulated once.  With ``packed``,
        a payload simulated here keeps its packed blocks (read-only, see
        :meth:`_iter_run`)."""
        specs = list(specs)
        out: List[Optional[dict]] = [None] * len(specs)
        for slots, payload in self._iter_run(specs, packed):
            for index in slots:
                out[index] = payload
        return out  # type: ignore[return-value]

    def _iter_run(self, specs: List[RunSpec], packed: bool = False
                  ) -> Iterator[Tuple[List[int], dict]]:
        """Yield ``(slots, payload)`` once per unique digest of ``specs``:
        the cache hits first (their metrics queued), then each
        simulated spec as it finishes (stored, its metrics merged).
        A simulated payload is yielded with its packed blocks if
        ``packed``, else decoded (:func:`~repro.runtime.cache.plain`)
        like a hit.  ``slots`` are
        the digest's indexes in ``specs``.  With ``strict``, a
        :class:`SweepError` follows the last payload if any spec
        failed."""
        sweep = self.sweep
        sweep.specs += len(specs)
        indexes: Dict[str, List[int]] = {}
        for i, spec in enumerate(specs):
            indexes.setdefault(spec.digest, []).append(i)
        sweep.unique += len(indexes)
        pending: List[RunSpec] = []
        for where in indexes.values():
            spec = specs[where[0]]
            payload = self.cache.lookup(spec) if self.cache is not None else None
            if payload is None:
                pending.append(spec)
                continue
            sweep.cached += 1
            self._emit("cache_hit", spec)
            yield where, self._merged(payload, hit=True)
        errors: List[dict] = []
        if pending:
            self._emit("sweep_started", specs=len(specs),
                       unique=len(indexes), cached=len(indexes) - len(pending),
                       pending=len(pending), jobs=self.jobs)
            t_sweep = time.perf_counter()
            for done, (spec, (payload, elapsed, wall)) in enumerate(
                    self._iter_execute(pending), start=1):
                self._complete(spec, payload, elapsed, wall, errors, done,
                               len(pending))
                if not packed:
                    # with no cache this sweep holds the only reference
                    payload = plain(payload, take=self.cache is None)
                yield indexes[spec.digest], self._merged(payload)
                del payload  # hold none while the next spec runs
            finish = {"executed": len(pending) - len(errors),
                      "errors": len(errors),
                      "wall_s": round(time.perf_counter() - t_sweep, 4)}
            if self.cache is not None:
                finish["cache"] = self.cache.stats.as_dict()
            self._emit("sweep_finished", **finish)
        if errors and self.strict:
            raise SweepError(errors)

    def _merged(self, payload: dict, hit: bool = False) -> dict:
        """``payload``, its metrics merged into :attr:`metrics` (once
        per digest; an error payload merges nothing).  A cache hit's
        metrics join the queue instead."""
        if not is_error_payload(payload):
            m = payload.get("metrics")
            if m:
                if hit:
                    self._pending.append(m)
                else:
                    self.metrics.merge(m)
        return payload

    def _complete(self, spec: RunSpec, payload: dict, elapsed: float,
                  wall: float, errors: List[dict], pos: int,
                  total: int) -> None:
        """Post-execution bookkeeping for one simulated spec."""
        tag = f"[{pos}/{total}]"
        if is_error_payload(payload):
            errors.append(payload)
            self.sweep.errors += 1
            err = payload.get("error", {})
            self._emit("run_error", spec, wall_s=round(elapsed, 4),
                       type=err.get("type", "Exception"),
                       message=err.get("message", ""))
            self._progress(f"{tag} FAILED {spec.describe()} "
                           f"({err.get('type', 'Exception')})")
        else:
            self.sweep.executed += 1
            self.sweep.wall_s += elapsed
            if wall:
                # aggregate real time (and the event count it bought)
                # out-of-band: events/sec then reflects only specs
                # that actually simulated, never cache hits
                metrics = self.metrics
                metrics.inc("engine.wall_s", wall)
                m = payload.get("metrics") or {}
                metrics.inc(
                    "engine.events_executed",
                    m.get("counters", {}).get("engine.events_total", 0.0))
            if self.cache is not None:
                self.cache.store(spec, payload)
            self._emit("run_finished", spec, wall_s=round(elapsed, 4),
                       **_ledger_summary(payload))
            self._progress(f"{tag} done {spec.describe()} "
                           f"({elapsed:.2f}s)")

    def derive(self, specs: Sequence[RunSpec], fn: Callable[[dict], Any]
               ) -> List[Any]:
        """``fn(payload)`` for each spec, cached as a derived entry.

        Each spec's entry is looked up under :func:`derived_key` in the
        memory and disk tiers before any payload is read, so a warm
        hit never touches the base payload.  The specs that miss resolve
        as one sweep (parallel, deduplicated, exactly-once), summarised
        as they finish: each payload is stored, ``fn`` runs on it once
        per digest with the collector paused, and its value is stored
        before the next payload is taken.  A simulated payload reaches
        ``fn`` with its packed blocks (a cache hit arrives plain).  With
        a disk tier the base payload then leaves the memory tier (a
        later read is a disk hit), so a cold sweep holds one payload at
        a time; a memory-only cache keeps it.  ``fn``'s result must be JSON-able;
        it is stored with the base payload's ``metrics``, which a hit
        merges as :meth:`run` would have, so ``--metrics`` reads the
        same cold and warm.  An error payload is returned in its slot
        (``strict`` raises) and never stored.  Every caller of one
        entry gets the same value: read-only by contract.  With no
        cache, ``fn`` runs on every call.
        """
        specs = list(specs)
        values: Dict[str, Any] = {}
        keys: Dict[str, DerivedKey] = {}
        missing: List[RunSpec] = []
        for spec in specs:
            digest = spec.digest
            if digest in keys:
                continue
            key = keys[digest] = derived_key(spec, fn)
            entry = self.cache.lookup(key) if self.cache is not None else None
            if entry is None:
                missing.append(spec)
                continue
            values[digest] = entry["value"]
            self.sweep.unique += 1
            self.sweep.cached += 1
            self._emit("cache_hit", spec)
            if entry["metrics"]:
                self._pending.append(entry["metrics"])
        self.sweep.specs += len(specs) - len(missing)
        for slots, payload in self._iter_run(missing, packed=True):
            spec = missing[slots[0]]
            if is_error_payload(payload):
                values[spec.digest] = payload
                continue
            with gc_paused():
                value = fn(payload)
            values[spec.digest] = value
            if self.cache is not None:
                self.cache.store(keys[spec.digest], {
                    "kind": KIND_DERIVED, "value": value,
                    "metrics": payload.get("metrics")})
                self.cache.release(spec)
            del payload  # hold none while the next spec runs
        return [values[spec.digest] for spec in specs]

    def run_one(self, spec: RunSpec, packed: bool = False) -> dict:
        """One spec (``packed`` as in :meth:`run`); a failure re-raises
        (the original exception when the spec ran in-process, else a
        :class:`SpecExecutionError`)."""
        payload = self.run([spec], packed)[0]
        if is_error_payload(payload):
            exc = payload.pop("_exc", None)
            if exc is not None:
                raise exc
            raise SpecExecutionError(payload)
        return payload

    def _iter_execute(self, pending: List[RunSpec]
                      ) -> Iterator[Tuple[RunSpec, Tuple[dict, float, float]]]:
        """Yield ``(spec, _safe_execute(spec))`` in input order as they finish.

        Serial execution emits ``run_started`` just in time; the pool
        path announces the whole batch up front (workers run remotely)
        and streams completions back through order-preserving ``imap``
        so ledger/progress lines appear as specs finish, not after the
        barrier at the end of ``pool.map``.
        """
        if self.jobs <= 1 or len(pending) == 1:
            for spec in pending:
                self._emit("run_started", spec)
                yield spec, _safe_execute(spec, timeout_s=self.timeout_s,
                                          keep_exception=True)
            return
        for spec in pending:
            self._emit("run_started", spec)
        worker = functools.partial(_safe_execute, timeout_s=self.timeout_s)
        pool = self._ensure_pool()
        yield from zip(pending, pool.imap(worker, pending, chunksize=1))

    def __repr__(self) -> str:  # pragma: no cover
        return f"<SweepExecutor jobs={self.jobs} cache={self.cache!r}>"
