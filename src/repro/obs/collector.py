"""One collector per spec: what the worlds of one run observe.

:func:`repro.runtime.executor.execute_spec` opens a :func:`collect`
context around every spec.  Each :class:`~repro.mpi.world.MPIWorld`
built inside it installs a timeline sampler when the collector asks for
one, and at the end of its run hands the collector its metrics registry
(one merge), the wall time its engine spent in ``Simulator.run`` and
its timeline.  The executor writes ``payload["metrics"]`` and
``payload["timeline"]`` from the collector and keeps the wall time out
of the payload: real time is not simulation output.

Any other code that builds worlds (``repro trace``, tests) gathers the
same with ``with collect() as col:``.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, List, Optional

from repro.core.metrics import MetricsRegistry
from repro.obs.timeline import MAX_SAMPLES, TimelineSampler

__all__ = ["Collector", "collect", "active_collector"]


class Collector:
    """Merged metrics, engine wall time and timelines of one run's worlds."""

    __slots__ = ("owner", "interval_us", "max_samples", "metrics", "wall_s",
                 "timelines")

    def __init__(self, owner: Any = None, interval_us: Optional[float] = None,
                 max_samples: int = MAX_SAMPLES) -> None:
        if interval_us is not None and interval_us <= 0:
            raise ValueError(f"timeline interval must be > 0, "
                             f"got {interval_us!r}")
        self.owner = owner
        self.interval_us = interval_us
        self.max_samples = max_samples
        self.metrics = MetricsRegistry()
        #: seconds the worlds' engines spent inside ``Simulator.run``
        self.wall_s = 0.0
        #: one timeline per world run (see :meth:`TimelineSampler.finish`)
        self.timelines: List[dict] = []

    def sampler(self, world) -> Optional[TimelineSampler]:
        """A timeline sampler for ``world``, or None (the common case)."""
        if self.interval_us is None:
            return None
        return TimelineSampler(world, self.interval_us, self.max_samples)

    def report(self, metrics: MetricsRegistry, wall_s: float,
               sampler: Optional[TimelineSampler]) -> None:
        """Take one finished world's registry, engine wall time and timeline."""
        self.metrics.merge(metrics)
        self.wall_s += wall_s
        if sampler is not None:
            self.timelines.append(sampler.finish())


#: open collectors, innermost last
_ACTIVE: List[Collector] = []


@contextmanager
def collect(owner: Any = None, interval_us: Optional[float] = None,
            max_samples: int = MAX_SAMPLES):
    """Collect from every world built inside the ``with`` body.

    ``interval_us`` asks each world for a sim-time timeline on that
    grid.  ``owner`` names what the collector is for (the executor
    passes the RunSpec): opened while the innermost collector has the
    same owner, ``collect`` joins that collector instead of opening a
    second one, so both callers read the same totals.
    """
    top = _ACTIVE[-1] if _ACTIVE else None
    if owner is not None and top is not None and top.owner is owner:
        yield top
        return
    col = Collector(owner, interval_us, max_samples)
    _ACTIVE.append(col)
    try:
        yield col
    finally:
        _ACTIVE.pop()


def active_collector() -> Optional[Collector]:
    """The innermost open collector, or None."""
    return _ACTIVE[-1] if _ACTIVE else None
