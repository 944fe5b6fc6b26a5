"""Tports: tagged message passing with NIC-resident matching.

Tports (§2.3) is the Quadrics library MPICH's ADI2 port sits on.  Its
defining property for this study: **the NIC does the work**.  Tag
matching, unexpected-message buffering and the large-message rendezvous
(RTS / CTS / remote DMA) are executed by the Elan3 thread processor, so
they proceed while the host computes — the mechanism behind Quadrics'
superior computation/communication overlap (Fig. 6).  The host pays
only the Tports library call costs (which the paper measures as
Quadrics' comparatively *high* host overhead, Fig. 3).

Matching is charged on the Elan RX engine server: ``match_base_us`` plus
``match_per_posted_us`` per posted descriptor scanned.  With many posted
receives (e.g. the 7 preposted receives of an 8-rank Alltoall) arrivals
serialize behind the matcher — reproducing Quadrics' poor Alltoall
numbers (Fig. 11) despite its excellent latency.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, List, Optional

from repro.core.engine import Event, Simulator
from repro.core.resources import Gate
from repro.hardware.memory import Buffer, NicTlb
from repro.networks.base import Packet

if TYPE_CHECKING:
    import numpy as np

__all__ = ["TxHandle", "RxHandle", "TportsPort"]

#: wildcard selector for source / tag matching
ANY = -1

# The four descriptor types below are plain __slots__ classes: two are
# created per message on the hot path, so construction cost matters.


class TxHandle:
    """A pending Tports transmit; ``done`` fires when the source buffer
    is reusable (data has left host memory)."""

    __slots__ = ("done", "dst_rank", "tag", "nbytes")

    def __init__(self, done: Event, dst_rank: int, tag: Any, nbytes: int) -> None:
        self.done = done
        self.dst_rank = dst_rank
        self.tag = tag
        self.nbytes = nbytes


class RxHandle:
    """A posted Tports receive; ``done`` fires with the matched envelope
    ``(src_rank, tag, nbytes)``.

    ``copy_cost_us`` is the host copy cost (µs) the library must pay at
    completion — nonzero when the message was unexpected and staged in a
    system buffer.
    """

    __slots__ = ("done", "buf", "src_sel", "tag_sel", "copy_cost_us")

    def __init__(self, done: Optional[Event], buf: Optional[Buffer],
                 src_sel: int, tag_sel: Any, copy_cost_us: float = 0.0) -> None:
        self.done = done
        self.buf = buf
        self.src_sel = src_sel
        self.tag_sel = tag_sel
        self.copy_cost_us = copy_cost_us


class _StoredMsg:
    """An unexpected arrival staged in an Elan system buffer."""

    __slots__ = ("src_rank", "tag", "nbytes", "payload")

    def __init__(self, src_rank: int, tag: Any, nbytes: int,
                 payload: Optional[np.ndarray]) -> None:
        self.src_rank = src_rank
        self.tag = tag
        self.nbytes = nbytes
        self.payload = payload


class _ParkedRts:
    """A rendezvous request waiting for a matching receive."""

    __slots__ = ("src_rank", "tag", "nbytes", "tx_meta")

    def __init__(self, src_rank: int, tag: Any, nbytes: int, tx_meta: dict) -> None:
        self.src_rank = src_rank
        self.tag = tag
        self.nbytes = nbytes
        self.tx_meta = tx_meta


class TportsPort:
    """One rank's Tports endpoint (state lives on the NIC)."""

    def __init__(self, sim: Simulator, fabric, rank: int, tlb: NicTlb) -> None:
        self.sim = sim
        self.fabric = fabric
        self.rank = rank
        self.tlb = tlb
        self.params = fabric.params
        self.posted: List[RxHandle] = []
        #: unmatched arrivals (eager messages and rendezvous RTSs) in
        #: strict arrival order — MPI's non-overtaking guarantee depends
        #: on matching them in that order.
        self.pending: List[Any] = []
        self.inflight_tx = 0
        self.tx_slot_gate = Gate(sim, open_=True, name=f"tp.txslots[{rank}]")
        #: pulsed on every NIC-processed arrival (probe support)
        self.arrival_gate = Gate(sim, name=f"tp.arrivals[{rank}]")
        #: this rank's NIC message processor, resolved lazily (the NIC
        #: may not exist yet at attach time)
        self._mproc = None
        #: batched ``proto.nic_matches`` counter, published at end of run
        self.nic_matches = 0

    # ------------------------------------------------------------------
    # host-side API (call costs are charged by the MPI layer)
    # ------------------------------------------------------------------
    def tx_full(self) -> bool:
        return self.inflight_tx >= self.params.tx_queue_depth

    def tlb_cost(self, buf: Optional[Buffer]) -> float:
        """Host cost of ensuring NIC translations for ``buf``'s pages."""
        if buf is None:
            return 0.0
        return self.tlb.lookup(buf)

    def tx(self, dst_rank: int, tag: Any, buf: Buffer,
           payload: Optional[np.ndarray] = None, meta: Optional[dict] = None) -> TxHandle:
        """Post a transmit.  Caller must have checked :meth:`tx_full`."""
        p = self.params
        handle = TxHandle(Event(self.sim, "tp.tx"), dst_rank, tag, buf.nbytes)
        self.inflight_tx += 1
        if self.inflight_tx >= p.tx_queue_depth:
            self.tx_slot_gate.close()
        if buf.nbytes <= p.eager_bytes:
            m = {"tag": tag} if meta is None else {"tag": tag, **meta}
            pkt = Packet(
                kind="tp.msg", src_rank=self.rank, dst_rank=dst_rank,
                nbytes=buf.nbytes, meta=m, payload=payload,
            )
            local = self.fabric.send_packet(pkt)
            local.add_callback(lambda ev: self._tx_done(handle))
        else:
            # NIC-progressed rendezvous: a tiny RTS goes out now; the
            # data flows when the target NIC returns a CTS.
            pkt = Packet(
                kind="tp.rts", src_rank=self.rank, dst_rank=dst_rank,
                nbytes=0,
                meta={"tag": tag, "data_nbytes": buf.nbytes, "payload": payload,
                      "handle": handle, **(meta or {})},
            )
            self.fabric.post_packet(pkt)
        return handle

    def rx(self, src_sel: int, tag_sel: Any, buf: Optional[Buffer]) -> RxHandle:
        """Post a receive with (source, tag) selectors (ANY = wildcard)."""
        handle = RxHandle(Event(self.sim, "tp.rx"), buf, src_sel, tag_sel)
        # unmatched arrivals in arrival order (eager data and RTSs alike)
        for i, item in enumerate(self.pending):
            if self._sel_match(handle, item.src_rank, item.tag):
                del self.pending[i]
                if isinstance(item, _StoredMsg):
                    self._fill(buf, item.payload)
                    handle.copy_cost_us = self.fabric.cluster.memcpy.copy_time(item.nbytes)
                    handle.done.succeed((item.src_rank, item.tag, item.nbytes))
                else:  # rendezvous: reply with CTS, NIC streams the data
                    self._send_cts(item, handle)
                return handle
        # nothing pending: park the descriptor on the NIC
        self.posted.append(handle)
        return handle

    def peek(self, src_sel: int, tag_sel: Any):
        """First unmatched arrival matching the selectors, or None."""
        probe = RxHandle(None, None, src_sel, tag_sel)
        for item in self.pending:
            if self._sel_match(probe, item.src_rank, item.tag):
                return item
        return None

    def cancel_rx(self, handle: RxHandle) -> bool:
        """Remove a posted receive (MPI_Cancel support). True if removed."""
        try:
            self.posted.remove(handle)
            return True
        except ValueError:
            return False

    # ------------------------------------------------------------------
    # NIC-side processing
    # ------------------------------------------------------------------
    def nic_arrival(self, pkt: Packet) -> None:
        """Fabric delivery callback: charge the matcher, then process."""
        p = self.params
        mproc = self._mproc
        if mproc is None:
            fabric = self.fabric
            mproc = self._mproc = fabric.nic(fabric.node_of(self.rank)).mproc
        match_cost = p.match_base_us + p.match_per_posted_us * len(self.posted)
        self.nic_matches += 1
        tracer = self.sim.tracer
        if tracer.wants_proto:
            tracer.instant(self.sim.now, "proto", f"tp[{self.rank}]",
                           f"nic_match {pkt.kind} posted={len(self.posted)}",
                           data={"kind": pkt.kind, "src": pkt.src_rank,
                                 "posted": len(self.posted),
                                 "match_cost_us": match_cost})
        ev = mproc.transfer(0, overhead=match_cost)
        ev.add_callback(lambda _ev: self._nic_process(pkt))

    def _nic_process(self, pkt: Packet) -> None:
        if pkt.kind == "tp.msg":
            handle = self._match_posted(pkt.src_rank, pkt.meta["tag"])
            if handle is not None:
                self._fill(handle.buf, pkt.payload)
                # posted receives attached their completion callback when
                # they were parked, so the handle can complete in place
                handle.done.succeed_now((pkt.src_rank, pkt.meta["tag"], pkt.nbytes))
            else:
                self.pending.append(
                    _StoredMsg(pkt.src_rank, pkt.meta["tag"], pkt.nbytes,
                               None if pkt.payload is None else pkt.payload.copy())
                )
        elif pkt.kind == "tp.rts":
            rts = _ParkedRts(pkt.src_rank, pkt.meta["tag"], pkt.meta["data_nbytes"], pkt.meta)
            handle = self._match_posted(pkt.src_rank, pkt.meta["tag"])
            if handle is not None:
                self._send_cts(rts, handle)
            else:
                self.pending.append(rts)
        elif pkt.kind == "tp.cts":
            # we are the original sender: stream the data, NIC-only.
            meta = pkt.meta
            data_pkt = Packet(
                kind="tp.data", src_rank=self.rank, dst_rank=pkt.src_rank,
                nbytes=meta["data_nbytes"],
                meta={"tag": meta["tag"], "rx_handle": meta["rx_handle"]},
                payload=meta.get("payload"),
            )
            local = self.fabric.send_packet(data_pkt)
            tx_handle: TxHandle = meta["handle"]
            local.add_callback(lambda ev: self._tx_done(tx_handle))
        elif pkt.kind == "tp.data":
            handle: RxHandle = pkt.meta["rx_handle"]
            self._fill(handle.buf, pkt.payload)
            handle.done.succeed_now((pkt.src_rank, pkt.meta["tag"], pkt.nbytes))
        else:
            raise ValueError(f"Tports got foreign packet kind {pkt.kind!r}")
        self.arrival_gate.pulse()

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _send_cts(self, rts: _ParkedRts, handle: RxHandle) -> None:
        cts = Packet(
            kind="tp.cts", src_rank=self.rank, dst_rank=rts.src_rank, nbytes=0,
            meta={"tag": rts.tag, "data_nbytes": rts.nbytes, "rx_handle": handle,
                  "payload": rts.tx_meta.get("payload"), "handle": rts.tx_meta["handle"]},
        )
        self.fabric.post_packet(cts)

    def _tx_done(self, handle: TxHandle) -> None:
        self.inflight_tx -= 1
        if not self.tx_full():
            self.tx_slot_gate.open()
        handle.done.succeed_now(None)

    @staticmethod
    def _sel_match(handle: RxHandle, src: int, tag: Any) -> bool:
        ssel = handle.src_sel
        if ssel != ANY and ssel != src:
            return False
        sel = handle.tag_sel
        if type(sel) is int:  # plain tag (or ANY): no wildcard object
            return sel == ANY or sel == tag
        if hasattr(sel, "matches"):  # wildcard-capable selector object
            return sel.matches(tag)
        return sel == tag

    def _match_posted(self, src: int, tag: Any) -> Optional[RxHandle]:
        for i, handle in enumerate(self.posted):
            if self._sel_match(handle, src, tag):
                del self.posted[i]
                return handle
        return None

    @staticmethod
    def _fill(buf: Optional[Buffer], payload: Optional[np.ndarray]) -> None:
        if buf is None or payload is None or buf.data is None:
            return
        dst = buf.data.reshape(-1).view("uint8")
        n = min(len(payload), dst.shape[0])
        dst[:n] = payload[:n]
