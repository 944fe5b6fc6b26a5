"""The three interconnect fabrics: InfiniBand, Myrinet, Quadrics.

Each subpackage models one adapter + switch + low-level messaging layer
with the same *software architecture* as the real stack:

- :mod:`repro.networks.infiniband` — Mellanox InfiniHost HCAs behind a
  VAPI-like verbs interface (RC queue pairs, completion queues, RDMA,
  explicit memory registration), InfiniScale 8-port 10 Gbps switch.
- :mod:`repro.networks.myrinet` — M3F-PCIXD-2 cards (225 MHz LANai-XP,
  2 MB SRAM) behind a GM-like layer (connectionless ports, send/recv
  matching by size class, directed send, registration), Myrinet-2000
  8-port switch, 2 Gbps links.
- :mod:`repro.networks.quadrics` — Elan3 QM-400 cards behind Elan3lib +
  Tports (global virtual addressing, NIC MMU, NIC-resident tag matching
  and message progression), Elite-16 switch, 400 MB/s links.

``make_fabric(name, sim, cluster)`` builds a fabric by name; the MPI
layer then instantiates the matching MPICH port on top of it.
"""

from __future__ import annotations

from repro.core.engine import Simulator
from repro.core.netnames import NETWORKS, canonical_network
from repro.hardware.cluster import Cluster
from repro.networks.base import Fabric, NetPort, Packet

__all__ = ["make_fabric", "Fabric", "NetPort", "Packet", "NETWORKS",
           "canonical_network"]


def make_fabric(name: str, sim: Simulator, cluster: Cluster, **overrides) -> Fabric:
    """Construct the named fabric attached to ``cluster``.

    ``overrides`` are forwarded to the fabric's parameter set — e.g.
    ``make_fabric("infiniband", sim, cluster, bus_kind="pci")`` builds
    the Fig. 26-28 "InfiniBand over 66 MHz PCI" configuration.
    """
    canon = canonical_network(name)
    if canon == "infiniband":
        from repro.networks.infiniband.hca import InfiniBandFabric

        return InfiniBandFabric(sim, cluster, **overrides)
    if canon == "myrinet":
        from repro.networks.myrinet.lanai import MyrinetFabric

        return MyrinetFabric(sim, cluster, **overrides)
    from repro.networks.quadrics.elan import QuadricsFabric

    return QuadricsFabric(sim, cluster, **overrides)
