"""Payload marshalling helpers shared by every channel.

Simulated buffers may or may not be array-backed (apps that only model
timing allocate data-less buffers).  These helpers snapshot and deposit
bytes when both ends are real and degrade to no-ops otherwise, so the
protocol code never has to branch on it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.hardware.memory import Buffer

if TYPE_CHECKING:
    import numpy as np

__all__ = ["payload_of", "fill_buffer", "fill_buffer_at"]


def payload_of(buf: Optional[Buffer]) -> Optional[np.ndarray]:
    """Snapshot a buffer's bytes for in-flight transport (None if no data)."""
    if buf is None or buf.data is None:
        return None
    return buf.data.reshape(-1).view("uint8").copy()


def fill_buffer(buf: Optional[Buffer], payload: Optional[np.ndarray]) -> None:
    """Copy transported bytes into a receive buffer's array (if both real)."""
    if buf is None or buf.data is None or payload is None:
        return
    dst = buf.data.reshape(-1).view("uint8")
    n = min(dst.shape[0], len(payload))
    dst[:n] = payload[:n]


def fill_buffer_at(buf: Optional[Buffer], offset: int,
                   payload: Optional[np.ndarray]) -> None:
    """Deposit one fragment of a larger transfer at ``offset`` bytes.

    Used by the send/recv rendezvous flavor, which moves a large message
    as a train of bounce-buffer-sized fragments.
    """
    if buf is None or buf.data is None or payload is None:
        return
    dst = buf.data.reshape(-1).view("uint8")
    if offset >= dst.shape[0]:
        return
    n = min(dst.shape[0] - offset, len(payload))
    dst[offset:offset + n] = payload[:n]
