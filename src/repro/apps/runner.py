"""Application runner: build a world, run an app, extrapolate sampled loops.

``run_app`` is a thin wrapper since the run-plan refactor: it builds a
:class:`~repro.runtime.spec.RunSpec` and executes it through the
process-wide runtime (:mod:`repro.runtime`), so identical runs are
served from the result cache and sweeps built by the figure/table
drivers can fan out in parallel.  The actual simulation lives in
:func:`simulate_app_spec`, which the runtime executor dispatches to.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Type

from repro.apps.base import AppBase
from repro.apps.classes import get_problem
from repro.apps.nas import (BTBench, CGBench, FTBench, ISBench, LUBench,
                            MGBench, SPBench)
from repro.apps.sweep3d import Sweep3DBench
from repro.mpi.world import MPIWorld
from repro.profiling.recorder import Recorder
from repro.runtime.spec import RunSpec, thaw_mapping

__all__ = ["APP_REGISTRY", "AppResult", "run_app", "simulate_app_spec",
           "app_result_from_payload"]

APP_REGISTRY: Dict[str, Type[AppBase]] = {
    "is": ISBench,
    "cg": CGBench,
    "mg": MGBench,
    "ft": FTBench,
    "lu": LUBench,
    "sp": SPBench,
    "bt": BTBench,
    "sweep3d": Sweep3DBench,
}


@dataclass
class AppResult:
    """Outcome of one simulated application run."""

    app: str
    klass: str
    network: str
    nprocs: int
    ppn: int
    #: full-run execution time (sampled loops extrapolated), seconds
    elapsed_s: float
    #: loop iterations actually simulated / in the full run
    sim_iters: int
    total_iters: int
    verified: Optional[bool]
    recorder: Optional[Recorder]
    #: serialized MetricsRegistry (counters/gauges/histograms) of the run
    metrics: Optional[dict] = None

    def __str__(self) -> str:  # pragma: no cover
        v = "" if self.verified is None else f" verified={self.verified}"
        return (f"{self.app}.{self.klass} {self.network} np={self.nprocs}: "
                f"{self.elapsed_s:.2f}s{v}")


def simulate_app_spec(spec: RunSpec, tracer=None) -> dict:
    """Execute one app RunSpec on a fresh world; return its payload.

    This is the simulation core behind ``run_app``, invoked by the
    runtime executor (possibly in a worker process), which adds the
    world's ``metrics`` from the spec's collector.  A recorded run's
    ``recorder`` carries the Recorder's packed blocks
    (:meth:`~repro.profiling.recorder.Recorder.to_dict`); the runtime
    decodes them where the payload leaves it.  In paper mode,
    only ``sample_iters`` of the homogeneous main loop are simulated;
    the loop time and the profile are extrapolated to the full
    iteration count (``recorder.scale``).
    """
    params = thaw_mapping(spec.params)
    verify = bool(params.get("verify", False))
    sample_iters = params.get("sample_iters")
    cfg = get_problem(spec.target, spec.klass)
    # one bench instance per rank: each holds that rank's local state
    benches = {r: APP_REGISTRY[spec.target](cfg, spec.nprocs, verify=verify)
               for r in range(spec.nprocs)}
    if verify:
        nsim = cfg.niters
    else:
        nsim = sample_iters if sample_iters is not None else (cfg.sample_iters or cfg.niters)
        nsim = min(max(nsim, 1), cfg.niters)
    marks: dict = {}

    def rank_fn(comm):
        bench = benches[comm.rank]
        yield from bench.setup(comm)
        yield from comm.barrier()
        if comm.rank == 0:
            marks["t_loop_start"] = comm.sim.now
        for it in range(nsim):
            yield from bench.iteration(comm, it)
        yield from comm.barrier()
        if comm.rank == 0:
            marks["t_loop_end"] = comm.sim.now
        yield from bench.finalize(comm)

    world = MPIWorld(spec.nprocs, network=spec.network, ppn=spec.ppn,
                     mapping=spec.mapping, record=spec.record,
                     net_overrides=spec.merged_net_overrides(),
                     mpi_options=thaw_mapping(spec.mpi_options) or None,
                     tracer=tracer, faults=spec.fault_mapping())
    res = world.run(rank_fn)
    loop_us = marks["t_loop_end"] - marks["t_loop_start"]
    setup_us = marks["t_loop_start"]
    elapsed_us = setup_us + loop_us * (cfg.niters / nsim)
    if spec.record and res.recorder is not None:
        res.recorder.scale = cfg.niters / nsim
        res.recorder.sample_iters = nsim
    flags = [b.verified for b in benches.values()]
    verified = None if all(v is None for v in flags) else all(v in (True, None) for v in flags)
    return {
        "kind": "app", "app": spec.target, "klass": spec.klass,
        "network": world.network, "nprocs": spec.nprocs, "ppn": spec.ppn,
        "elapsed_s": elapsed_us / 1e6, "sim_iters": nsim,
        "total_iters": cfg.niters, "verified": verified,
        "recorder": res.recorder.to_dict() if res.recorder is not None else None,
    }


def app_result_from_payload(payload: dict) -> AppResult:
    """Rehydrate an :class:`AppResult` (incl. a Recorder) from a payload,
    plain or packed."""
    recorder = (Recorder.from_dict(payload["recorder"])
                if payload["recorder"] is not None else None)
    return AppResult(
        app=payload["app"], klass=payload["klass"], network=payload["network"],
        nprocs=payload["nprocs"], ppn=payload["ppn"],
        elapsed_s=payload["elapsed_s"], sim_iters=payload["sim_iters"],
        total_iters=payload["total_iters"], verified=payload["verified"],
        recorder=recorder, metrics=payload.get("metrics"),
    )


def run_app(app: str, klass: str, network: str, nprocs: int, ppn: int = 1,
            verify: bool = False, sample_iters: Optional[int] = None,
            record: bool = True, net_overrides: Optional[dict] = None,
            mapping: str = "block", mpi_options: Optional[dict] = None) -> AppResult:
    """Run one (app, class) and return timing + profile (cached by spec).

    The result's Recorder may share the packed records the cache holds:
    read it, do not change it.
    """
    from repro import runtime

    spec = RunSpec.app(app, klass, network, nprocs, ppn=ppn, mapping=mapping,
                       verify=verify, sample_iters=sample_iters, record=record,
                       net_overrides=net_overrides, mpi_options=mpi_options)
    # packed: a recorded run simulated here hands its blocks to the
    # Recorder instead of decoding and re-packing them
    return app_result_from_payload(runtime.run_spec(spec, packed=True))
