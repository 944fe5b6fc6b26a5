"""CH3-style channel layer: one protocol core, thin fabric channels.

- :mod:`repro.mpi.ch.caps` — capability declarations + rendezvous flavors
- :mod:`repro.mpi.ch.payload` — buffer marshalling helpers
- :mod:`repro.mpi.ch.channel` — the fabric-facing Channel interface
- :mod:`repro.mpi.ch.core` — the shared protocol core (Ch3Device)
- :mod:`repro.mpi.ch.matrix` — the what-if device matrix
"""

from repro.mpi.ch.caps import (PROGRESS_HOST, PROGRESS_NIC, RNDV_NIC,
                               RNDV_READ, RNDV_SEND_RECV, RNDV_WRITE,
                               ChannelCaps, resolve_rendezvous)
from repro.mpi.ch.channel import Channel
from repro.mpi.ch.core import Ch3Device
from repro.mpi.ch.payload import fill_buffer, fill_buffer_at, payload_of

__all__ = [
    "ChannelCaps", "Channel", "Ch3Device", "resolve_rendezvous",
    "payload_of", "fill_buffer", "fill_buffer_at",
    "RNDV_WRITE", "RNDV_READ", "RNDV_SEND_RECV", "RNDV_NIC",
    "PROGRESS_HOST", "PROGRESS_NIC",
]

