"""Generate a complete reproduction report (every figure and table).

``reproduce_all()`` runs every artifact driver and renders one big text
report — the "run everything" entry point for someone auditing the
reproduction (``python -m repro report > REPORT.txt``).  Quick mode
takes ~10-15 minutes of wall time; full mode several times that.

All drivers execute their simulations through :mod:`repro.runtime`, so
runs shared between artifacts (e.g. the class-B NAS runs behind fig14,
fig18-23, table2 and the profiling tables) are simulated once; pass
``jobs > 1`` to fan independent runs out over worker processes.
"""

from __future__ import annotations

import sys
import time
from typing import Iterable, Optional, TextIO

from repro import runtime
from repro.core.netnames import NETWORKS
from repro.experiments.figures import FIGURES, run_figure
from repro.experiments.tables import TABLES, run_table

__all__ = ["reproduce_all"]


def reproduce_all(quick: bool = True, out: Optional[TextIO] = None,
                  artifacts: Optional[Iterable[str]] = None,
                  progress: bool = True, jobs: Optional[int] = None) -> str:
    """Run every figure/table driver (or the named subset) and render.

    Returns the full report text; also streams it to ``out`` if given.
    ``jobs`` (when set) reconfigures the process-wide runtime executor.
    ``progress`` writes a wall-time line per artifact and a run-cache
    trailer to stderr; they stay out of the report, so two runs of one
    revision give the same text.
    """
    if jobs is not None:
        runtime.configure(jobs=jobs)
    names = list(artifacts) if artifacts is not None else (
        sorted(FIGURES, key=lambda f: int(f[3:])) + sorted(TABLES))
    chunks = [
        "REPRODUCTION REPORT — Liu et al., SC'03",
        "(simulation; see EXPERIMENTS.md for calibration discipline)",
        "",
    ]

    def emit(text: str) -> None:
        chunks.append(text)
        if out is not None:
            print(text, file=out, flush=True)

    def note(text: str) -> None:
        if progress:
            print(text, file=sys.stderr, flush=True)

    stats = runtime.cache_stats()
    hits0, misses0 = stats.hits, stats.misses
    for name in names:
        t0 = time.time()
        if name in FIGURES:
            art = run_figure(name, quick=quick)
        elif name in TABLES:
            art = run_table(name, quick=quick)
        else:
            raise KeyError(f"unknown artifact {name!r}")
        wall = time.time() - t0
        emit(art.render())
        note(f"[{name}: regenerated in {wall:.1f}s wall]")
        emit("")
    if artifacts is None:
        emit(_variance_appendix())
        emit("")
    stats = runtime.cache_stats()
    note(f"[run cache: {stats.hits - hits0} hits, "
         f"{stats.misses - misses0} simulated specs]")
    return "\n".join(chunks)


def _variance_appendix() -> str:
    """Repetition-statistics appendix (à la *MPI Benchmarking Revisited*).

    Re-measures the headline latency points with per-iteration sampling
    (``stats=True``) and reports n / mean / min / ci95 per fabric.  In a
    deterministic simulator the dispersion is expected to be ~0 — the
    appendix *demonstrates* that, and becomes informative the moment a
    perturbation (faults, what-if knobs) makes iterations differ.
    """
    from repro.experiments.ascii_plot import table
    from repro.runtime.spec import RunSpec
    from repro.series import series_from_payload

    specs = [RunSpec.microbench("latency", net, sizes=(4, 16384), stats=True)
             for net in NETWORKS]
    rows = []
    for spec, payload in zip(specs, runtime.run_specs(specs)):
        if runtime.is_error_payload(payload):
            continue
        series = series_from_payload(payload)
        for x, s in sorted((series.stats or {}).items()):
            rows.append([spec.network, f"{int(x)} B", s["n"],
                         f"{s['mean']:.3f}", f"{s['min']:.3f}",
                         f"{s['ci95']:.4f}"])
    return table(["network", "size", "n", "mean us", "min us", "ci95"],
                 rows, title="appendix: repetition statistics "
                             "(per-iteration latency samples)")
