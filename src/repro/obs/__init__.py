"""Time-resolved observability: timelines, run ledger, diff reports.

One collector per spec feeds them: :mod:`repro.obs.collector` takes
every world's metrics, engine wall time and timeline for the spec it
runs under.  Three consumers sit on top of the end-of-run counters PR 2
introduced:

- :mod:`repro.obs.timeline` — a deterministic sim-time sampler that
  snapshots live engine/fabric/MPI state at fixed simulated intervals,
  opt-in per spec via ``RunSpec.params["timeline"]``;
- :mod:`repro.obs.ledger` — an append-only JSONL stream of sweep
  lifecycle events (``run_started`` / ``run_finished`` / ``run_error``
  / ``cache_hit``) emitted by the sweep executor;
- :mod:`repro.obs.diff` — the ``repro diff`` CLI target: counter
  deltas, critical-path decomposition deltas and ASCII timeline
  overlays between two runs.

The package re-exports nothing: ``python -m repro.obs.ledger`` runs the
ledger validator, and importing the submodule from here first would
make runpy execute it twice.
"""
