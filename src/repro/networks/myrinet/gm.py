"""GM-like messaging layer for the Myrinet model.

GM (§2.2) provides:

- a **connectionless** communication model with reliable in-order
  delivery between *ports*;
- **send/receive**: the receiver provides registered receive buffers
  (with a size class); the NIC DMAs an arriving message into the oldest
  matching provided buffer and posts a receive event the host picks up
  with ``gm_receive``;
- **directed send**: a remote memory write into an address the target
  previously communicated — no receive buffer consumed, no remote
  notification (MPICH-GM follows up with a control message);
- **token flow control**: a port holds finite send/receive tokens.

The LANai performs buffer selection at arrival time (free of host cost);
the host only pays when it calls into GM — those costs are charged by
the MPI layer.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Deque, Dict, Optional

from repro.core.engine import Event, Simulator
from repro.hardware.memory import Buffer, PinDownCache
from repro.networks.base import Packet

if TYPE_CHECKING:
    import numpy as np

__all__ = ["GmRecvEvent", "GmPort", "GmTokenError"]


class GmTokenError(RuntimeError):
    """Raised when a port exhausts its send or receive tokens."""


@dataclass
class GmRecvEvent:
    """What ``gm_receive`` hands to the host for one arrived message."""

    src_rank: int
    nbytes: int
    buffer: Optional[Buffer]  # None for directed-send notifications
    tag: int
    kind: str  # 'recv' | 'directed'
    meta: dict


class GmPort:
    """One rank's GM port."""

    def __init__(self, sim: Simulator, fabric, rank: int, pin_cache: PinDownCache,
                 send_tokens: int, recv_tokens: int) -> None:
        self.sim = sim
        self.fabric = fabric
        self.rank = rank
        self.pin_cache = pin_cache
        self.send_tokens = send_tokens
        self.recv_tokens = recv_tokens
        #: per-size-class FIFOs of provided receive buffers.  GM matches
        #: an arriving message to the oldest buffer of the message's
        #: size class (class = ceil(log2(size))).
        self._provided: Dict[int, Deque[Buffer]] = {}
        #: buffers across all size classes, kept in step with _provided
        self.provided_count = 0
        self._inflight_sends = 0

    # -- registration -------------------------------------------------------
    def register(self, buf: Buffer) -> float:
        """Ensure ``buf`` is registered; returns the host cost in µs."""
        return self.pin_cache.lookup(buf)

    # -- receive side -----------------------------------------------------
    @staticmethod
    def size_class(nbytes: int) -> int:
        """GM size class: smallest c with 2^c >= nbytes (min 5)."""
        c = 5
        while (1 << c) < nbytes:
            c += 1
        return c

    def provide_receive_buffer(self, buf: Buffer) -> None:
        """Hand a registered buffer to the NIC for incoming messages."""
        if self.provided_count >= self.recv_tokens:
            raise GmTokenError(f"rank {self.rank}: out of GM receive tokens")
        self._provided.setdefault(self.size_class(buf.nbytes), deque()).append(buf)
        self.provided_count += 1

    # -- send side ------------------------------------------------------------
    def send_with_callback(self, dst_rank: int, buf: Buffer, tag: int = 0,
                           payload: Optional[np.ndarray] = None,
                           meta: Optional[dict] = None) -> Event:
        """GM send: lands in the peer's oldest provided receive buffer.

        Returns the local ("send completed, buffer reusable") event.
        """
        if self._inflight_sends >= self.send_tokens:
            raise GmTokenError(f"rank {self.rank}: out of GM send tokens")
        self._inflight_sends += 1
        tracer = self.sim.tracer
        if tracer.enabled:
            tracer.instant(self.sim.now, "proto", f"gm.port[{self.rank}]",
                           f"send {buf.nbytes}B -> r{dst_rank}",
                           data={"tag": tag, "inflight": self._inflight_sends,
                                 "tokens": self.send_tokens})
        pkt = Packet(
            kind="gm.send",
            src_rank=self.rank,
            dst_rank=dst_rank,
            nbytes=buf.nbytes,
            meta={"tag": tag, **(meta or {})},
            payload=payload,
        )
        return self._with_send_done(self.fabric.send_packet(pkt))

    def directed_send(self, dst_rank: int, buf: Buffer, remote_buf: Buffer,
                      payload: Optional[np.ndarray] = None,
                      meta: Optional[dict] = None) -> Event:
        """GM directed send: write ``buf`` into the peer's ``remote_buf``."""
        if self._inflight_sends >= self.send_tokens:
            raise GmTokenError(f"rank {self.rank}: out of GM send tokens")
        if remote_buf.nbytes < buf.nbytes:
            raise ValueError(
                f"directed send of {buf.nbytes} B into {remote_buf.nbytes} B target"
            )
        self._inflight_sends += 1
        tracer = self.sim.tracer
        if tracer.enabled:
            tracer.instant(self.sim.now, "proto", f"gm.port[{self.rank}]",
                           f"directed_send {buf.nbytes}B -> r{dst_rank}",
                           data={"inflight": self._inflight_sends,
                                 "tokens": self.send_tokens})
        pkt = Packet(
            kind="gm.directed",
            src_rank=self.rank,
            dst_rank=dst_rank,
            nbytes=buf.nbytes,
            meta={"remote_buf": remote_buf, **(meta or {})},
            payload=payload,
        )
        return self._with_send_done(self.fabric.send_packet(pkt))

    def _with_send_done(self, local: Event) -> Event:
        """Track in-flight sends; the LANai's retirement work itself is
        modelled as trailing occupancy on the firmware stage (see
        :class:`repro.hardware.path.Stage`)."""
        local.add_callback(self._send_done)
        return local

    def _send_done(self, ev: Event) -> None:
        self._inflight_sends -= 1

    # -- NIC-side arrival processing ---------------------------------------
    def nic_accept(self, pkt: Packet) -> GmRecvEvent:
        """Called at delivery time: place data, build the receive event."""
        if pkt.kind == "gm.directed":
            rbuf: Buffer = pkt.meta["remote_buf"]
            if pkt.payload is not None and rbuf.data is not None:
                dst = rbuf.data.reshape(-1).view("uint8")
                n = min(len(pkt.payload), dst.shape[0])
                dst[:n] = pkt.payload[:n]
            return GmRecvEvent(pkt.src_rank, pkt.nbytes, None,
                               pkt.meta.get("tag", 0), "directed", pkt.meta)
        if pkt.kind == "gm.send":
            klass = self.size_class(pkt.nbytes)
            queue = self._provided.get(klass)
            if not queue:
                raise GmTokenError(
                    f"rank {self.rank}: GM send of {pkt.nbytes} B (size class "
                    f"{klass}) from {pkt.src_rank} arrived with no provided "
                    "receive buffer of that class"
                )
            buf = queue.popleft()
            self.provided_count -= 1
            tracer = self.sim.tracer
            if tracer.enabled:
                tracer.instant(self.sim.now, "proto", f"gm.port[{self.rank}]",
                               f"nic_accept {pkt.nbytes}B class={klass}",
                               data={"src": pkt.src_rank, "size_class": klass,
                                     "remaining": len(queue)})
            if pkt.payload is not None and buf.data is not None:
                dst = buf.data.reshape(-1).view("uint8")
                n = min(len(pkt.payload), dst.shape[0])
                dst[:n] = pkt.payload[:n]
            return GmRecvEvent(pkt.src_rank, pkt.nbytes, buf,
                               pkt.meta.get("tag", 0), "recv", pkt.meta)
        raise ValueError(f"GM port got foreign packet kind {pkt.kind!r}")
