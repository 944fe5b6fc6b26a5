"""World construction: cluster + fabric + MPI ranks, and ``mpi_run``.

A :class:`MPIWorld` assembles the full simulated stack for one MPI job:

- the node cluster (block process-to-node mapping by default, as used
  for the paper's SMP experiments §4.6);
- one fabric (InfiniBand / Myrinet / Quadrics, with optional parameter
  overrides such as ``bus_kind='pci'`` for the Fig. 26-28 experiments);
- one MPI endpoint + device per rank, wired for shared-memory and
  connection setup;
- a COMM_WORLD per rank.

Rank functions are generator coroutines taking the communicator::

    def pingpong(comm):
        ...
        yield from comm.send(buf, dest=1)

    result = mpi_run(pingpong, nprocs=2, network="quadrics")
"""

from __future__ import annotations

import inspect
import math
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.core.engine import Simulator
from repro.core.metrics import MetricsRegistry
from repro.core.resources import AllOf
from repro.core.tracing import Tracer
from repro.hardware.cluster import Cluster
from repro.hardware.cpu import MemcpyModel
from repro.hardware.memory import AddressSpace
from repro.mpi.communicator import Communicator, MPIEndpoint
from repro.mpi.devices import device_class_for
from repro.networks import canonical_network, make_fabric
from repro.obs.collector import active_collector
from repro.profiling.recorder import Recorder

__all__ = ["MPIWorld", "WorldResult", "mpi_run"]


@dataclass
class WorldResult:
    """Outcome of one simulated MPI job."""

    elapsed_us: float
    returns: List[Any]
    recorder: Optional[Recorder]
    world: "MPIWorld"
    metrics: Optional[MetricsRegistry] = None

    @property
    def elapsed_s(self) -> float:
        return self.elapsed_us / 1e6


class MPIWorld:
    """One simulated MPI job: cluster, fabric, endpoints, COMM_WORLDs."""

    def __init__(
        self,
        nprocs: int,
        network: str = "infiniband",
        ppn: int = 1,
        nnodes: Optional[int] = None,
        record: bool = True,
        net_overrides: Optional[dict] = None,
        mpi_options: Optional[dict] = None,
        mapping: str = "block",
        memcpy: Optional[MemcpyModel] = None,
        tracer: Optional[Tracer] = None,
        faults: Optional[dict] = None,
    ) -> None:
        """``mpi_options`` are forwarded to the MPI device (e.g.
        ``{"on_demand_connections": True}`` or ``{"rdma_collectives":
        True}`` for the MVAPICH port).  ``mapping`` is the
        process-to-node placement: ``"block"`` (the paper's §4.6
        choice) or ``"cyclic"``.  ``faults`` (a mapping or
        :class:`~repro.faults.FaultSpec`) injects deterministic wire
        faults, absorbed by the fabric's declared reliability protocol."""
        if nprocs < 1:
            raise ValueError("need at least one process")
        if ppn < 1:
            raise ValueError("ppn must be >= 1")
        if mapping not in ("block", "cyclic"):
            raise ValueError(f"unknown mapping {mapping!r} (block|cyclic)")
        self.nprocs = nprocs
        self.network = canonical_network(network)
        self.ppn = ppn
        self.mapping = mapping
        self.mpi_options = dict(mpi_options or {})
        self.sim = Simulator()
        if tracer is not None:
            self.sim.tracer = tracer
        if nnodes is None:
            nnodes = math.ceil(nprocs / ppn)
        self.nnodes = nnodes
        self.cluster = Cluster(self.sim, nnodes, ncores_per_node=max(2, ppn),
                               memcpy=memcpy)
        self.fabric = make_fabric(self.network, self.sim, self.cluster,
                                  **(net_overrides or {}))
        self.recorder: Optional[Recorder] = Recorder() if record else None
        self._ctx_registry: Dict[Any, int] = {}
        self._next_ctx = 100

        device_cls = device_class_for(self.fabric.kind)
        self.endpoints: List[MPIEndpoint] = []
        devices = {}
        core_used = [0] * nnodes
        for rank in range(nprocs):
            if mapping == "block":
                node_id = rank // ppn
            else:  # cyclic: round-robin over nodes
                node_id = rank % nnodes
            if node_id >= nnodes or core_used[node_id] >= max(2, ppn):
                raise ValueError(
                    f"{nprocs} ranks at {ppn}/node do not fit on {nnodes} nodes"
                )
            node = self.cluster.node(node_id)
            cpu = node.cpus[core_used[node_id]]
            core_used[node_id] += 1
            port = self.fabric.attach(rank, node_id)
            space = AddressSpace(rank)
            device = device_cls(self.sim, rank, cpu, self.fabric, port, space,
                                recorder=self.recorder, options=self.mpi_options)
            devices[rank] = device
            self.endpoints.append(
                MPIEndpoint(self.sim, self, rank, node_id, cpu, space, device,
                            self.recorder)
            )
        if faults:
            from repro.faults import FaultPlane, FaultSpec

            fspec = (faults if isinstance(faults, FaultSpec)
                     else FaultSpec.from_mapping(dict(faults)))
            if fspec.active:
                caps = devices[0].caps
                self.fabric.install_fault_plane(FaultPlane(
                    self.sim, self.fabric, fspec,
                    reliability=caps.reliability,
                    max_retries=caps.max_retries,
                    rto_us=caps.rto_us, ack_bytes=caps.ack_bytes))
        # wire shared-memory peer table and (for MVAPICH) RC connections
        all_ranks = list(range(nprocs))
        for dev in devices.values():
            dev.peers = devices
            if hasattr(dev, "init_connections"):
                dev.init_connections(all_ranks)
        self.devices = devices
        self.comms: List[Communicator] = [
            Communicator(ep, all_ranks, ctx=0) for ep in self.endpoints
        ]
        # the collector of the spec this world runs for (opened by
        # execute_spec) takes its metrics, wall time and timeline; it
        # asks for a timeline sampler only for timeline-enabled specs
        col = self._collector = active_collector()
        self._timeline = col.sampler(self) if col is not None else None
        self._ran = False

    # ------------------------------------------------------------------
    def comm(self, rank: int) -> Communicator:
        """Rank ``rank``'s COMM_WORLD."""
        return self.comms[rank]

    def shared_ctx(self, key) -> int:
        """Coordinated context allocation for dup/split (same key -> same ctx)."""
        ctx = self._ctx_registry.get(key)
        if ctx is None:
            ctx = self._next_ctx
            self._next_ctx += 2  # pt2pt + collective context pair
            self._ctx_registry[key] = ctx
        return ctx

    def memory_usage_mb(self, rank: int = 0) -> float:
        """Modelled resident MPI memory of one process (Fig. 13)."""
        return self.devices[rank].memory_usage_mb(self.nprocs - 1)

    # ------------------------------------------------------------------
    def run(self, rank_fn: Callable, args: Sequence = (), kwargs: Optional[dict] = None,
            until: Optional[float] = None) -> WorldResult:
        """Run ``rank_fn(comm, *args, **kwargs)`` on every rank to completion."""
        if self._ran:
            raise RuntimeError("an MPIWorld is single-shot; build a new one")
        self._ran = True
        kwargs = kwargs or {}
        # Generator rank functions are spawned directly: the extra
        # ``_wrap`` delegation frame used to tax every single resume of
        # every rank.  Anything else keeps the lazy-call wrapper.
        if inspect.isgeneratorfunction(rank_fn):
            procs = [
                self.sim.spawn(rank_fn(self.comms[r], *args, **kwargs),
                               name=f"rank{r}")
                for r in range(self.nprocs)
            ]
        else:
            procs = [
                self.sim.spawn(self._wrap(rank_fn, self.comms[r], args, kwargs),
                               name=f"rank{r}")
                for r in range(self.nprocs)
            ]
        done = AllOf(self.sim, procs)
        if self._timeline is not None:
            self._timeline.start()
        t0 = time.perf_counter()
        returns = self.sim.run(until_event=done, until=until)
        wall_s = time.perf_counter() - t0
        self._finalize_metrics()
        if self._collector is not None:
            self._collector.report(self.sim.metrics, wall_s, self._timeline)
        return WorldResult(elapsed_us=self.sim.now, returns=returns,
                           recorder=self.recorder, world=self,
                           metrics=self.sim.metrics)

    def _finalize_metrics(self) -> None:
        """Snapshot hardware occupancy counters into the metrics registry.

        The FifoServers already track busy time / bytes for free; this
        folds them into named metrics once at end of run instead of
        instrumenting the hot transfer paths.
        """
        m = self.sim.metrics
        m.set_gauge("engine.events", float(self.sim.events_processed))
        m.set_gauge("engine.sim_time_us", self.sim.now)
        # additive twin of the engine.events gauge: survives
        # MetricsRegistry.merge across the many worlds of a sweep
        m.inc("engine.events_total", self.sim.events_processed)
        # histograms merge with max, so the deepest world of a sweep wins
        m.observe("engine.peak_queue_depth", float(self.sim.peak_queue_depth))
        for dev in self.devices.values():
            dev.flush_metrics()
        self.fabric.flush_metrics()
        for node in self.cluster.nodes:
            for bus in node._buses.values():
                srv = bus.server
                m.inc("hw.bus.busy_us", srv.busy_time)
                m.inc("hw.bus.bytes", srv.bytes_moved)
                m.inc("hw.bus.transfers", srv.transfers)
        fabric = self.fabric
        nics = getattr(fabric, "hcas", None) or getattr(fabric, "nics", None) or {}
        for nic in nics.values():
            m.inc("hw.nic.tx_busy_us", nic.tx_engine.busy_time)
            m.inc("hw.nic.rx_busy_us", nic.rx_engine.busy_time)
            m.inc("hw.nic.mproc_busy_us", nic.mproc.busy_time)
            m.inc("hw.wire.busy_us", nic.uplink.busy_time)
            m.inc("hw.wire.bytes", nic.uplink.bytes_moved)
        for sram in (getattr(fabric, "srams", None) or {}).values():
            m.inc("hw.sram.busy_us", sram.busy_time)
        topology = getattr(fabric, "topology", None)
        if topology is not None:
            for link in topology.iter_links():
                m.inc("hw.switch.busy_us", link.busy_time)
                m.inc("hw.switch.bytes", link.bytes_moved)
        else:  # fabric predating the topology layer: read the switch
            switch = getattr(fabric, "switch", None)
            if switch is not None:
                for port in switch._out_ports.values():
                    m.inc("hw.switch.busy_us", port.busy_time)
                    m.inc("hw.switch.bytes", port.bytes_moved)
        for pc in (getattr(fabric, "pin_caches", None) or {}).values():
            m.inc("reg.cache.hits", pc.hits)
            m.inc("reg.cache.misses", pc.misses)
            m.inc("reg.cache.evicted_pages", pc.evicted_pages)
        for tlb in (getattr(fabric, "tlbs", None) or {}).values():
            m.inc("tlb.hits", tlb.hits)
            m.inc("tlb.misses", tlb.misses)
        # all three modelled fabrics are reliable in hardware; the
        # counter exists so dashboards need not special-case it
        m.inc("net.retransmits", 0)

    @staticmethod
    def _wrap(fn, comm, args, kwargs):
        out = fn(comm, *args, **kwargs)
        if hasattr(out, "send"):  # generator coroutine
            out = yield from out
        else:  # plain function: nothing to simulate, but stay a process
            yield comm.sim.timeout(0.0)
        return out

    def __repr__(self) -> str:  # pragma: no cover
        return f"<MPIWorld {self.network} nprocs={self.nprocs} ppn={self.ppn}>"


def mpi_run(rank_fn: Callable, nprocs: int, network: str = "infiniband",
            args: Sequence = (), kwargs: Optional[dict] = None,
            until: Optional[float] = None, **world_kwargs) -> WorldResult:
    """Build a world, run ``rank_fn`` on every rank, return the result."""
    world = MPIWorld(nprocs, network=network, **world_kwargs)
    return world.run(rank_fn, args=args, kwargs=kwargs, until=until)
