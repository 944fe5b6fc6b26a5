"""Switch topologies: route enumeration + per-hop contention links.

The paper's testbed hangs all eight nodes off one crossbar, so the
original fabric model hard-wired a single switch traversal.  This module
extracts that assumption into a :class:`Topology` object the fabrics
delegate to:

- :class:`SingleCrossbar` — the testbed model, preserved bit-identically
  (one output-port server per destination, one switch+wire hop);
- :class:`FatTree` — a folded Clos of InfiniScale-style 8-port
  crossbars, the shape of every large InfiniBand install;
- :class:`Clos` — Myrinet-2000 spine/leaf built from 16-port M2000
  crossbars (Myricom's "Clos256" line);
- :class:`FederatedElite` — Quadrics federated Elite-16 switches
  (QsNet's way of scaling past one Elite chip).

A topology answers two questions:

1. **Routing** — :meth:`Topology.route` enumerates the link keys a
   message from ``src`` to ``dst`` traverses, deterministically
   (destination-based d-mod-k up-link selection, the scheme real
   source-routed/destination-routed fat trees use).  The same pair
   always yields the same route, so simulations stay reproducible.
2. **Contention** — :meth:`Topology.switch_stages` materializes one
   :class:`~repro.core.resources.FifoServer` per traversed link (lazily,
   so a 4096-node topology costs only the links actually routed over)
   and wraps them in pipeline :class:`~repro.hardware.path.Stage`\\ s.
   Two flows whose routes share an up-link serialize at link rate —
   which is exactly the bisection behaviour a flat crossbar cannot show.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

from repro.core.engine import Simulator
from repro.core.resources import FifoServer
from repro.hardware.path import Stage
from repro.hardware.switch import CrossbarSwitch, make_link

__all__ = [
    "Topology", "SingleCrossbar", "MultiStageTopology", "FatTree", "Clos",
    "FederatedElite", "TOPOLOGIES", "make_topology", "make_link",
]

#: a route is a tuple of hashable link keys
LinkKey = Tuple
Route = Tuple[LinkKey, ...]


class Topology:
    """Base class: deterministic routes + lazily materialized links."""

    #: registry name ('single', 'fat_tree', ...)
    kind: str = "abstract"

    def __init__(self, sim: Simulator, nnodes: int, port_bw_bytes_per_us: float,
                 hop_latency_us: float, wire_latency_us: float,
                 name: str = "switch") -> None:
        if nnodes < 1:
            raise ValueError("topology needs at least one node")
        self.sim = sim
        self.nnodes = nnodes
        self.port_bw = port_bw_bytes_per_us
        self.hop_latency_us = hop_latency_us
        self.wire_latency_us = wire_latency_us
        self.name = name

    def attach_endpoint(self, node: int) -> None:
        """Register a node with live traffic (fabric attach hook)."""
        self._check_node(node)

    # -- routing --------------------------------------------------------
    def route(self, src_node: int, dst_node: int) -> Route:
        """Ordered link keys traversed from ``src_node`` to ``dst_node``.

        Pure: never creates servers.  Deterministic: same pair, same
        route.
        """
        raise NotImplementedError

    def nhops(self, src_node: int, dst_node: int) -> int:
        return len(self.route(src_node, dst_node))

    def link(self, key: LinkKey) -> FifoServer:
        """The (lazily created) FIFO server behind one link key."""
        raise NotImplementedError

    def switch_stages(self, src_node: int, dst_node: int) -> List[Stage]:
        """Pipeline stages for the switch traversal of one routed pair.

        Each hop charges the switch cut-through latency plus one wire
        flight; the final hop is named ``downlink`` to match the
        single-crossbar stage layout in traces and critical paths.
        """
        route = self.route(src_node, dst_node)
        per_hop = self.hop_latency_us + self.wire_latency_us
        last = len(route) - 1
        return [
            Stage(self.link(key), latency_us=per_hop,
                  name="downlink" if i == last else self._hop_name(key))
            for i, key in enumerate(route)
        ]

    @staticmethod
    def _hop_name(key: LinkKey) -> str:
        return "hop_" + "_".join(str(k) for k in key)

    def iter_links(self) -> Iterable[FifoServer]:
        """Every link server materialized so far (insertion order)."""
        raise NotImplementedError

    def _check_node(self, node: int) -> None:
        if not 0 <= node < self.nnodes:
            raise ValueError(f"node {node} out of range for "
                             f"{self.nnodes}-node topology")


class SingleCrossbar(Topology):
    """The paper's testbed: every node on one non-blocking crossbar.

    Wraps :class:`~repro.hardware.switch.CrossbarSwitch` so the route is
    a single output-port hop with the exact server, latency and naming
    the fabrics used before the topology layer existed — golden timings
    are pinned against this equivalence.
    """

    kind = "single"

    def __init__(self, sim: Simulator, nnodes: int, port_bw_bytes_per_us: float,
                 hop_latency_us: float, wire_latency_us: float,
                 name: str = "switch") -> None:
        super().__init__(sim, nnodes, port_bw_bytes_per_us, hop_latency_us,
                         wire_latency_us, name)
        self.switch = CrossbarSwitch(
            sim, nports=max(nnodes, 2),
            port_bw_bytes_per_us=port_bw_bytes_per_us,
            cut_through_us=hop_latency_us, name=name,
        )

    def attach_endpoint(self, node: int) -> None:
        self.switch.attach_endpoint(node)

    def route(self, src_node: int, dst_node: int) -> Route:
        self._check_node(src_node)
        self._check_node(dst_node)
        return (("out", dst_node),)

    def link(self, key: LinkKey) -> FifoServer:
        return self.switch.out_port(key[1])

    def iter_links(self) -> Iterable[FifoServer]:
        return self.switch._out_ports.values()


class MultiStageTopology(Topology):
    """A folded-Clos tree of fixed-radix crossbars with d-mod-k routing.

    ``radix``-port switches are split ``down`` ports toward the nodes
    and ``up`` ports toward the next level; ``levels`` is the smallest
    depth whose leaf fan-out covers ``nnodes``.  Node ``n`` sits under
    leaf ``n // down``; a (src, dst) pair diverging at level ``h`` routes
    ``h`` up-hops, ``h-1`` down-hops and the final node-facing port —
    same-leaf pairs traverse exactly one link, the flat-crossbar shape.

    Up-links are chosen by the destination's base-``down`` digits
    (d-mod-k): deterministic, spreads consecutive destinations across
    the ``up`` ports, and funnels far-group traffic onto shared links —
    reproducing the static-routing hotspots real fat trees show.
    """

    kind = "multistage"
    #: default switch radix (ports per crossbar chip); subclasses pin
    #: the chip the product line actually shipped
    default_radix = 8

    def __init__(self, sim: Simulator, nnodes: int, port_bw_bytes_per_us: float,
                 hop_latency_us: float, wire_latency_us: float,
                 name: str = "switch", radix: int | None = None) -> None:
        super().__init__(sim, nnodes, port_bw_bytes_per_us, hop_latency_us,
                         wire_latency_us, name)
        radix = self.default_radix if radix is None else int(radix)
        if radix < 4:
            raise ValueError(f"multi-stage radix must be >= 4, got {radix}")
        self.radix = radix
        self.down = radix // 2
        self.up = radix - self.down
        levels = 1
        while self.down ** levels < nnodes:
            levels += 1
        self.levels = levels
        self._links: Dict[LinkKey, FifoServer] = {}

    # -- routing --------------------------------------------------------
    def route(self, src_node: int, dst_node: int) -> Route:
        """d-mod-k up, destination-converged down.

        The up-port choice at hop ``lvl`` is the destination's
        base-``down`` digit ``lvl`` (mod ``up``); the accumulated choice
        prefix identifies which of the group's parallel switches the
        flow ascends through, so a full (``up == down``) tree keeps full
        bisection and contention comes only from genuine d-mod-k
        collisions.  Down-paths are destination-routed: all traffic to
        ``dst`` at one level converges on a single down-link — the
        classic fat-tree funnel.
        """
        self._check_node(src_node)
        self._check_node(dst_node)
        d, up = self.down, self.up
        h = 0
        while src_node // d ** (h + 1) != dst_node // d ** (h + 1):
            h += 1
        keys: List[LinkKey] = []
        qprefix = 0
        for lvl in range(h):
            qprefix += ((dst_node // d ** lvl) % up) * up ** lvl
            keys.append(("u", lvl, src_node // d ** (lvl + 1), qprefix))
        for lvl in range(h, 0, -1):
            keys.append(("d", lvl, dst_node))
        keys.append(("d", 0, dst_node))
        return tuple(keys)

    def link(self, key: LinkKey) -> FifoServer:
        srv = self._links.get(key)
        if srv is None:
            srv = make_link(self.sim, self.port_bw,
                            name=f"{self.name}.{'_'.join(map(str, key))}")
            self._links[key] = srv
        return srv

    def iter_links(self) -> Iterable[FifoServer]:
        return self._links.values()

    @staticmethod
    def _hop_name(key: LinkKey) -> str:
        side, lvl = key[0], key[1]
        return ("uplink" if side == "u" else "downhop") + str(lvl)


class FatTree(MultiStageTopology):
    """k-ary fat tree of InfiniScale-style 8-port crossbars."""

    kind = "fat_tree"
    default_radix = 8


class Clos(MultiStageTopology):
    """Myrinet-2000 spine/leaf Clos of 16-port M2000 crossbars."""

    kind = "clos"
    default_radix = 16


class FederatedElite(MultiStageTopology):
    """Quadrics federated Elite-16 switches (QsNet fat tree)."""

    kind = "federated_elite"
    default_radix = 16


TOPOLOGIES = {
    "single": SingleCrossbar,
    "fat_tree": FatTree,
    "clos": Clos,
    "federated_elite": FederatedElite,
}


def make_topology(kind: str | None, sim: Simulator, nnodes: int,
                  port_bw_bytes_per_us: float, hop_latency_us: float,
                  wire_latency_us: float, name: str = "switch",
                  radix: int | None = None) -> Topology:
    """Build a topology by registry name (None -> the testbed crossbar)."""
    key = "single" if kind is None else str(kind).lower()
    try:
        cls = TOPOLOGIES[key]
    except KeyError:
        raise ValueError(f"unknown topology {kind!r}; "
                         f"know {sorted(TOPOLOGIES)}") from None
    kwargs = {}
    if radix is not None:
        if cls is SingleCrossbar:
            raise ValueError("topology_radix only applies to multi-stage "
                             "topologies")
        kwargs["radix"] = radix
    return cls(sim, nnodes, port_bw_bytes_per_us, hop_latency_us,
               wire_latency_us, name=name, **kwargs)
