"""Unified run-plan layer: declarative specs, result cache, sweep executor.

Every simulation in the repo — micro-benchmark sweeps and application
runs alike — is described by a frozen :class:`RunSpec` and executed
through one shared pipeline::

    spec  ->  SweepExecutor  ->  ResultCache  ->  payload (plain dict)

The layer gives every artifact driver three properties for free:

- **dedup** — the class-B NAS run behind fig14 is the *same spec* as
  the one behind table2, so it is simulated once per process (and once
  ever, with the on-disk cache);
- **parallelism** — independent specs fan out over ``multiprocessing``
  workers (``--jobs N``) with byte-identical output to serial runs;
- **reproducible identity** — a spec's sha256 digest is stable across
  processes, so results are content-addressed, salted by code version.

Module-level helpers hold the process-wide executor configuration that
the CLI (``--jobs`` / ``--no-cache`` / ``--cache-dir`` / ``--ledger`` /
``--progress``) and the benchmark harness adjust::

    from repro import runtime
    runtime.configure(jobs=4, ledger="runs.jsonl")
    payloads = runtime.run_specs(specs)

:func:`derive` serves a value computed from each payload (the profiling
tables' per-run summary) from its own cache entry, so a warm reader
never reads the payload behind it.
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import Any, Callable, List, Optional, Sequence, Union

from repro.core.metrics import MetricsRegistry
from repro.obs.ledger import RunLedger
from repro.runtime.cache import (DEFAULT_CACHE_DIR, CacheStats, ResultCache,
                                 code_salt)
from repro.runtime.executor import (SpecExecutionError, SweepError,
                                    SweepExecutor, SweepStats, execute_spec,
                                    is_error_payload)
from repro.runtime.spec import (SPEC_SCHEMA_VERSION, RunSpec, freeze_mapping,
                                thaw_mapping)

__all__ = [
    "RunSpec", "ResultCache", "CacheStats", "SweepExecutor",
    "SweepError", "SpecExecutionError", "SweepStats", "is_error_payload",
    "execute_spec", "configure", "reset", "run_spec", "run_specs", "derive",
    "get_cache", "get_executor", "cache_stats", "metrics", "sweep_stats",
    "DEFAULT_CACHE_DIR", "SPEC_SCHEMA_VERSION", "code_salt",
    "freeze_mapping", "thaw_mapping",
]

#: process-wide runtime state; adjusted via configure()/reset()
_state = {"jobs": 1, "cache": ResultCache(), "metrics": MetricsRegistry(),
          "timeout_s": None, "strict": False,
          "ledger": None, "progress": None, "sweep": SweepStats(),
          "executor": None}


def _stderr_progress(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def _invalidate_executor() -> None:
    """Drop the cached process-wide executor (closing its worker pool),
    first merging the metrics it still queues into the process-wide
    registry."""
    old = _state.get("executor")
    _state["executor"] = None
    if old is not None:
        old.metrics  # reading the registry merges what is queued
        old.close()


def configure(jobs: Optional[int] = None, enabled: Optional[bool] = None,
              disk_dir: Optional[Union[str, Path, bool]] = None,
              timeout_s: Optional[float] = None,
              strict: Optional[bool] = None,
              ledger: Optional[Union[str, Path, RunLedger]] = None,
              progress: Optional[Union[bool, Callable[[str], None]]] = None,
              ) -> None:
    """Adjust the process-wide executor.

    ``jobs``: worker count for subsequent sweeps (1 = serial).
    ``enabled``: False drops the cache entirely (every spec re-simulates).
    ``disk_dir``: a path (or True for ``.repro_cache/``) enables the
    disk cache tier; existing in-memory entries are kept.
    ``timeout_s``: per-spec wall-clock budget (``--run-timeout``).
    ``strict``: re-raise sweep failures instead of returning error payloads.
    ``ledger``: a path (or open :class:`~repro.obs.ledger.RunLedger`) to
    append JSONL run-lifecycle events to (``--ledger``).
    ``progress``: True prints live per-spec lines to stderr; a callable
    receives them instead (``--progress``).
    """
    _invalidate_executor()
    if jobs is not None:
        _state["jobs"] = max(1, int(jobs))
    if enabled is not None:
        if not enabled:
            _state["cache"] = None
        elif _state["cache"] is None:
            _state["cache"] = ResultCache()
    cache = _state["cache"]
    if cache is not None and disk_dir is not None:
        if disk_dir is True:
            disk_dir = DEFAULT_CACHE_DIR
        cache.disk_dir = Path(disk_dir)
    if timeout_s is not None:
        _state["timeout_s"] = float(timeout_s) if timeout_s > 0 else None
    if strict is not None:
        _state["strict"] = bool(strict)
    if ledger is not None:
        old = _state["ledger"]
        if old is not None:
            old.close()
        _state["ledger"] = (ledger if isinstance(ledger, RunLedger)
                            else RunLedger(ledger))
    if progress is not None:
        if progress is True:
            _state["progress"] = _stderr_progress
        elif progress is False:
            _state["progress"] = None
        else:
            _state["progress"] = progress


def reset(jobs: int = 1, enabled: bool = True,
          disk_dir: Optional[Union[str, Path]] = None) -> None:
    """Fresh runtime state (empty cache, zeroed stats) — used by tests."""
    _invalidate_executor()
    _state["jobs"] = max(1, int(jobs))
    _state["cache"] = ResultCache(disk_dir=disk_dir) if enabled else None
    _state["metrics"] = MetricsRegistry()
    _state["timeout_s"] = None
    _state["strict"] = False
    old = _state["ledger"]
    if old is not None:
        old.close()
    _state["ledger"] = None
    _state["progress"] = None
    _state["sweep"] = SweepStats()


def get_cache() -> Optional[ResultCache]:
    """The process-wide cache, or None when caching is disabled."""
    return _state["cache"]


def get_executor() -> SweepExecutor:
    """The process-wide executor (persistent across sweeps).

    One executor — and therefore one worker pool — is shared by every
    ``run_specs`` call until :func:`configure` / :func:`reset` changes
    the configuration, so parallel sweeps stop paying a pool fork per
    artifact.
    """
    executor = _state.get("executor")
    if executor is None:
        executor = SweepExecutor(jobs=_state["jobs"], cache=_state["cache"],
                                 metrics=_state["metrics"],
                                 timeout_s=_state["timeout_s"],
                                 strict=_state["strict"],
                                 ledger=_state["ledger"],
                                 progress=_state["progress"],
                                 sweep=_state["sweep"])
        _state["executor"] = executor
    return executor


def metrics() -> MetricsRegistry:
    """Process-wide aggregate of metrics from every resolved run (the
    executor's queued metrics merged first, see
    :attr:`SweepExecutor.metrics`)."""
    executor = _state["executor"]
    return executor.metrics if executor is not None else _state["metrics"]


def sweep_stats() -> SweepStats:
    """Process-wide sweep accounting (specs, wall time, cache service)."""
    return _state["sweep"]


def run_specs(specs: Sequence[RunSpec]) -> List[dict]:
    """Run a sweep through the process-wide executor (cached, parallel)."""
    return get_executor().run(specs)


def derive(specs: Sequence[RunSpec], fn: Callable[[dict], Any]) -> List[Any]:
    """``fn(payload)`` per spec, cached beside the payloads
    (:meth:`SweepExecutor.derive`)."""
    return get_executor().derive(specs, fn)


def run_spec(spec: RunSpec, packed: bool = False) -> dict:
    """Run one spec through the process-wide executor (``packed`` as in
    :meth:`SweepExecutor.run`)."""
    return get_executor().run_one(spec, packed)


def cache_stats() -> CacheStats:
    """Current hit/miss counters (zeros if caching is disabled)."""
    cache = _state["cache"]
    return cache.stats if cache is not None else CacheStats()
