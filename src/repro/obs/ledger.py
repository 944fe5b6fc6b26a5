"""Structured run ledger: JSONL lifecycle events from sweep execution.

The :class:`~repro.runtime.executor.SweepExecutor` emits one JSON line
per lifecycle event to a :class:`RunLedger` — what a thousand-run sweep
needs to be watchable (``tail -f``) and auditable after the fact.  Each
line is self-describing::

    {"schema": 1, "event": "run_finished", "ts": 1754650000.123,
     "spec": "microbench:latency@infiniband np=2x1", "digest": "ab12...",
     "wall_s": 0.41, "sim_us": 1834.2, "events": 40586.0}

Event types and their required fields are pinned in :data:`EVENTS` /
:data:`REQUIRED_FIELDS`; :func:`validate_ledger` checks a file against
them (used by the CI obs-smoke job).  Timestamps (``ts``) are wall
clock and therefore *not* deterministic — which is exactly why this
stream lives in a side file and never inside cached payloads.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import List, Optional, Union

__all__ = ["LEDGER_SCHEMA", "EVENTS", "REQUIRED_FIELDS", "RunLedger",
           "read_ledger", "validate_ledger", "summarize_ledger"]

#: bump when the line layout changes incompatibly
LEDGER_SCHEMA = 1

#: every event type the executor emits
EVENTS = ("sweep_started", "cache_hit", "run_started", "run_finished",
          "run_error", "sweep_finished")

#: per-event required fields (beyond the envelope: schema, event, ts)
REQUIRED_FIELDS = {
    "sweep_started": ("specs", "unique", "cached", "pending", "jobs"),
    "cache_hit": ("spec", "digest"),
    "run_started": ("spec", "digest"),
    "run_finished": ("spec", "digest", "wall_s"),
    "run_error": ("spec", "digest", "wall_s", "type"),
    "sweep_finished": ("executed", "errors", "wall_s"),
}


class RunLedger:
    """Append-only JSONL event stream (opened lazily, flushed per line)."""

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = str(path)
        self._fh = None

    def emit(self, event: str, **fields) -> None:
        if event not in EVENTS:
            raise ValueError(f"unknown ledger event {event!r}; know {EVENTS}")
        record = {"schema": LEDGER_SCHEMA, "event": event,
                  "ts": round(time.time(), 3)}
        record.update(fields)
        line = json.dumps(record, separators=(",", ":"), default=str) + "\n"
        if self._fh is None:
            self._fh = open(self.path, "a", encoding="utf-8")
        self._fh.write(line)
        self._fh.flush()

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "RunLedger":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover
        return f"<RunLedger {self.path!r}>"


def read_ledger(path: Union[str, Path]) -> List[dict]:
    """Parse a ledger file into a list of event records (strict JSON)."""
    records = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


def validate_ledger(path: Union[str, Path]) -> List[str]:
    """Check a ledger file against the schema; returns error strings.

    An empty list means the file is valid.  Checks: every line parses,
    carries the envelope (schema/event/ts), is a known event type with
    its required fields, and every ``run_finished`` / ``run_error``
    digest was previously announced by a ``run_started``.
    """
    errors: List[str] = []
    started = set()
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        return [f"cannot read {path}: {exc}"]
    for i, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            errors.append(f"line {i}: not valid JSON ({exc})")
            continue
        if rec.get("schema") != LEDGER_SCHEMA:
            errors.append(f"line {i}: schema {rec.get('schema')!r} "
                          f"(expected {LEDGER_SCHEMA})")
        event = rec.get("event")
        if event not in EVENTS:
            errors.append(f"line {i}: unknown event {event!r}")
            continue
        if not isinstance(rec.get("ts"), (int, float)):
            errors.append(f"line {i}: missing/invalid ts")
        missing = [f for f in REQUIRED_FIELDS[event] if f not in rec]
        if missing:
            errors.append(f"line {i}: {event} missing fields {missing}")
            continue
        if event == "run_started":
            started.add(rec["digest"])
        elif event in ("run_finished", "run_error"):
            if rec["digest"] not in started:
                errors.append(f"line {i}: {event} for digest "
                              f"{rec['digest'][:12]}... without run_started")
    return errors


def summarize_ledger(records: List[dict]) -> str:
    """One-line digest of a parsed ledger (counts + wall totals)."""
    finished = [r for r in records if r.get("event") == "run_finished"]
    errored = [r for r in records if r.get("event") == "run_error"]
    hits = sum(1 for r in records if r.get("event") == "cache_hit")
    wall = sum(float(r.get("wall_s", 0.0)) for r in finished + errored)
    return (f"{len(records)} events: {len(finished)} runs finished, "
            f"{len(errored)} failed, {hits} cache hits, "
            f"{wall:.2f}s simulated wall")


def _main(argv: Optional[List[str]] = None) -> int:  # pragma: no cover
    """``python -m repro.obs.ledger <file>``: validate + summarize."""
    import sys

    args = argv if argv is not None else sys.argv[1:]
    if len(args) != 1:
        print("usage: python -m repro.obs.ledger <ledger.jsonl>")
        return 2
    errs = validate_ledger(args[0])
    if errs:
        for e in errs:
            print(f"INVALID: {e}")
        return 1
    print("OK: " + summarize_ledger(read_ledger(args[0])))
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(_main())
