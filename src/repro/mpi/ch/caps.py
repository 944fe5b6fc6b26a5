"""Channel capability declarations for the CH3-style protocol core.

Each fabric port implements the small :class:`~repro.mpi.ch.channel.Channel`
interface and *declares* what its hardware/firmware can do in a
:class:`ChannelCaps`.  The shared protocol core (:mod:`repro.mpi.ch.core`)
keys every behavioural decision off these capabilities instead of the
device's class — which is what lets protocol knobs (eager limit,
rendezvous flavor, progress discipline) compose with any fabric.

This mirrors the ADI3/CH3 layering of "Design and Implementation of
MPICH2 over InfiniBand with RDMA Support" (Liu et al.): one protocol
state machine, many thin channels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Tuple

__all__ = [
    "ChannelCaps", "resolve_rendezvous",
    "RNDV_WRITE", "RNDV_READ", "RNDV_SEND_RECV", "RNDV_NIC",
    "PROGRESS_HOST", "PROGRESS_NIC",
]

#: rendezvous flavors a channel may support
RNDV_WRITE = "rdma_write"      # CTS carries the target address; sender RDMA-writes
RNDV_READ = "rdma_read"        # RTS carries the source address; receiver RDMA-reads
RNDV_SEND_RECV = "send_recv"   # no registration: fragmented two-sided copy train
RNDV_NIC = "nic"               # the NIC's own matched-rendezvous (Tports)

#: progress disciplines
PROGRESS_HOST = "host"         # inbox + gate, progress only inside MPI calls
PROGRESS_NIC = "nic"           # matching/rendezvous on the NIC, host waits on events

#: shared-memory limit value meaning "every intra-node size goes via shmem"
SHMEM_ALL = math.inf


@dataclass(frozen=True)
class ChannelCaps:
    """What one fabric channel can do, declared once per port."""

    #: fabric kind this channel drives ('infiniband' | 'myrinet' | 'quadrics')
    fabric: str = ""
    #: matched two-sided send/recv on the wire
    two_sided: bool = True
    #: one-sided put into a remote registered buffer (RDMA write / directed send)
    rdma_write: bool = False
    #: one-sided get from a remote registered buffer
    rdma_read: bool = False
    #: tag matching runs on the NIC (Tports); implies requests complete
    #: via NIC callbacks rather than the host progress engine
    nic_matching: bool = False
    #: pre-registered RDMA flag slots for collectives ([Kini et al. 03])
    rdma_slots: bool = False
    #: progress discipline: PROGRESS_HOST or PROGRESS_NIC
    progress: str = PROGRESS_HOST
    #: bytes the host PIO-copies into the command port (0 = no inline path)
    inline_limit: int = 0
    #: bounce-buffer / fragment size class for copied (non-RDMA) bulk data
    bounce_bytes: int = 8192
    #: intra-node shared-memory cutover; 0 = no shmem channel,
    #: SHMEM_ALL = shmem for every size
    shmem_limit: float = 0.0
    #: whether the eager/rendezvous threshold comparison is inclusive
    #: (GM: nbytes <= limit eager) or strict (MVAPICH: nbytes < limit)
    eager_inclusive: bool = False
    #: allreduce composition of the port's MPICH base version: 1.2.5
    #: (MPICH-GM) ships recursive doubling ("rdbl"), the 1.2.2/1.2.4
    #: bases of the other two ports compose reduce+bcast (Fig. 12)
    allreduce_algo: str = "reduce_bcast"
    #: rendezvous flavors this channel supports (first ~ documentation order)
    rndv_flavors: Tuple[str, ...] = (RNDV_WRITE,)
    #: flavor used when no ``rendezvous`` option is given
    rndv_default: str = RNDV_WRITE
    #: reliability protocol absorbing injected wire faults
    #: ('rc' | 'ack_resend' | 'hw_retry' | 'none'; see repro.faults)
    reliability: str = "none"
    #: delivery attempts allowed per packet before the link is declared
    #: dead (IB RC's 3-bit retry_cnt, GM's resend budget, Elan microcode)
    max_retries: int = 7
    #: base retransmission timeout in µs (doubles per retry under 'rc')
    rto_us: float = 10.0
    #: per-packet acknowledgement bytes on the wire (GM's host-level
    #: acks; 0 where acks are piggybacked or hardware-internal)
    ack_bytes: int = 0
    #: human-readable port name for tables/docs
    port_name: str = field(default="", compare=False)

    def supports_rendezvous(self, flavor: str) -> bool:
        return flavor in self.rndv_flavors


def resolve_rendezvous(caps: ChannelCaps, options: dict,
                       option: Optional[str] = None) -> str:
    """Validate and resolve the rendezvous flavor for one device.

    ``options['rendezvous']`` (from ``--mpi-option rendezvous=...``)
    must be a flavor the channel declared; unknown or unsupported
    flavors fail loudly so a what-if sweep can't silently fall back to
    the default protocol.
    """
    flavor = option if option is not None else options.get("rendezvous")
    if flavor is None:
        return caps.rndv_default
    flavor = str(flavor)
    if not caps.supports_rendezvous(flavor):
        raise ValueError(
            f"rendezvous={flavor!r} unsupported on {caps.fabric or 'this fabric'} "
            f"({caps.port_name or 'channel'} supports: {', '.join(caps.rndv_flavors)})")
    return flavor
