"""The three MPI ports: thin fabric channels under the CH3 core.

Each port is a :class:`~repro.mpi.ch.channel.Channel` declaring its
capabilities plus a device class wiring it into the shared protocol
core (:class:`~repro.mpi.ch.core.Ch3Device`).
"""

from repro.mpi.ch.core import Ch3Device
from repro.mpi.devices.mpich_gm import GmChannel, MpichGmDevice
from repro.mpi.devices.mpich_quadrics import MpichQuadricsDevice, TportsChannel
from repro.mpi.devices.mvapich import MvapichChannel, MvapichDevice

__all__ = [
    "Ch3Device",
    "MvapichDevice",
    "MvapichChannel",
    "MpichGmDevice",
    "GmChannel",
    "MpichQuadricsDevice",
    "TportsChannel",
    "device_class_for",
]


def device_class_for(network_kind: str):
    """The MPI device class matching a fabric kind."""
    return {
        "infiniband": MvapichDevice,
        "myrinet": MpichGmDevice,
        "quadrics": MpichQuadricsDevice,
    }[network_kind]
