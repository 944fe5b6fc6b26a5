"""VAPI-like verbs layer: queue pairs, completion queues, RDMA.

Mirrors the software interface of Mellanox VAPI as described in §2.1:
Reliable Connection (RC) queue pairs supporting send/receive and RDMA
write, explicit memory registration, and completion queues (CQs).

Timing model split of responsibilities:

- the *host* cost of posting work requests / polling CQs is charged by
  the MPI layer on the rank's CPU (that is the "host overhead" of
  Fig. 3);
- the *fabric* cost (bus DMA, HCA engines, wire, switch) is charged by
  :meth:`repro.networks.base.Fabric.send_packet` through the shared
  pipeline servers;
- registration cost comes from the HCA's pin-down cache
  (:class:`repro.hardware.memory.PinDownCache`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.core.engine import Event, Simulator
from repro.core.resources import Gate
from repro.hardware.memory import Buffer, PinDownCache, RegistrationError
from repro.networks.base import Packet

if TYPE_CHECKING:
    import numpy as np

__all__ = ["WorkCompletion", "CompletionQueue", "MemoryRegion", "QueuePair", "VapiDevice"]


@dataclass(frozen=True)
class WorkCompletion:
    """One CQ entry."""

    wr_id: int
    opcode: str  # 'send' | 'recv' | 'rdma_write'
    nbytes: int
    src_rank: int = -1
    imm_data: Optional[int] = None


class CompletionQueue:
    """A completion queue the host polls (or blocks on)."""

    def __init__(self, sim: Simulator, name: str = "cq") -> None:
        self.sim = sim
        self._entries: List[WorkCompletion] = []
        self.gate = Gate(sim, name=f"{name}.gate")
        self.name = name

    def push(self, wc: WorkCompletion) -> None:
        self._entries.append(wc)
        tracer = self.sim.tracer
        if tracer.enabled:
            tracer.instant(self.sim.now, "proto", self.name,
                           f"cqe {wc.opcode} {wc.nbytes}B",
                           data={"opcode": wc.opcode, "nbytes": wc.nbytes,
                                 "wr_id": wc.wr_id, "src_rank": wc.src_rank})
        self.gate.pulse()

    def poll(self, max_entries: int = 16) -> List[WorkCompletion]:
        """Non-blocking poll: pop up to ``max_entries`` completions."""
        got, self._entries = self._entries[:max_entries], self._entries[max_entries:]
        return got

    def __len__(self) -> int:
        return len(self._entries)


@dataclass(frozen=True)
class MemoryRegion:
    """A registered memory region (the result of VAPI reg_mr)."""

    buf: Buffer
    lkey: int


class QueuePair:
    """One side of an RC connection between two ranks."""

    def __init__(self, device: "VapiDevice", peer_rank: int) -> None:
        self.device = device
        self.peer_rank = peer_rank
        self.posted_recvs: List[tuple] = []  # (wr_id, Buffer)
        self.sends_posted = 0
        self._wr_seq = 0
        #: verbs QP state: 'RTS' (ready to send) until transport retry
        #: exhaustion moves it to 'ERR' (see InfiniBandFabric.on_link_failure)
        self.state = "RTS"

    # -- verbs ----------------------------------------------------------
    def next_wr_id(self) -> int:
        """A fresh work-request id, counted per QP so runs repeat exactly."""
        self._wr_seq += 1
        return self._wr_seq

    def post_recv(self, buf: Buffer, wr_id: int) -> None:
        self.posted_recvs.append((wr_id, buf))

    def post_send(self, buf: Buffer, wr_id: int, payload: Optional[np.ndarray] = None) -> Event:
        """RC send; consumes a posted receive at the peer.

        Returns the local-completion event; a 'send' CQE is pushed to the
        local CQ when it fires, and a 'recv' CQE appears at the peer when
        the message lands.
        """
        self.sends_posted += 1
        dev = self.device
        tracer = dev.sim.tracer
        if tracer.enabled:
            tracer.instant(dev.sim.now, "proto", f"ib.qp[{dev.rank}->{self.peer_rank}]",
                           f"post_send {buf.nbytes}B", data={"wr_id": wr_id})
        pkt = Packet(
            kind="ib.send",
            src_rank=dev.rank,
            dst_rank=self.peer_rank,
            nbytes=buf.nbytes,
            meta={"wr_id": wr_id},
            payload=payload,
        )
        local = dev.fabric.send_packet(pkt)
        local.add_callback(
            lambda ev: dev.send_cq.push(WorkCompletion(wr_id, "send", buf.nbytes))
        )
        return local

    def rdma_read(self, local_buf: Buffer, remote_buf: Buffer, wr_id: int) -> Event:
        """RDMA read: fetch the peer's ``remote_buf`` into ``local_buf``.

        Two wire crossings (request + response), no remote host
        involvement; the returned event fires when the data has landed
        locally and carries the bytes read (when the remote buffer is
        array-backed).  A 'rdma_read' CQE is pushed on completion.
        """
        if local_buf.nbytes < remote_buf.nbytes:
            raise RegistrationError(
                f"RDMA read of {remote_buf.nbytes} B into {local_buf.nbytes} B buffer")
        dev = self.device
        tracer = dev.sim.tracer
        if tracer.enabled:
            tracer.instant(dev.sim.now, "proto", f"ib.qp[{dev.rank}->{self.peer_rank}]",
                           f"rdma_read {remote_buf.nbytes}B", data={"wr_id": wr_id})
        done = dev.sim.event("ib.read_done")
        req_pkt = Packet(
            kind="ib.read_req", src_rank=dev.rank, dst_rank=self.peer_rank,
            nbytes=16, meta={"wr_id": wr_id, "remote_buf": remote_buf,
                             "reply_to": dev.rank, "done": done,
                             "local_buf": local_buf},
        )
        dev.fabric.send_packet(req_pkt)
        return done

    def rdma_write(
        self,
        local_buf: Buffer,
        remote_buf: Buffer,
        wr_id: int,
        payload: Optional[np.ndarray] = None,
        imm_data: Optional[int] = None,
        meta: Optional[dict] = None,
    ) -> Event:
        """RDMA write ``local_buf`` into the peer's ``remote_buf``.

        The remote host is not involved; with ``imm_data`` (or when the
        MPI layer passes ``meta``) a notification packet surfaces at the
        peer's port so the remote progress engine can observe the write
        — modelling MVAPICH's polling of RDMA-written eager ring slots.
        """
        if remote_buf.nbytes < local_buf.nbytes:
            raise RegistrationError(
                f"RDMA write of {local_buf.nbytes} B into {remote_buf.nbytes} B region"
            )
        dev = self.device
        tracer = dev.sim.tracer
        if tracer.enabled:
            tracer.instant(dev.sim.now, "proto", f"ib.qp[{dev.rank}->{self.peer_rank}]",
                           f"rdma_write {local_buf.nbytes}B",
                           data={"wr_id": wr_id, "imm": imm_data})
        m = {"wr_id": wr_id, "remote_buf": remote_buf, "imm": imm_data}
        if meta:
            m.update(meta)
        pkt = Packet(
            kind="ib.rdma",
            src_rank=dev.rank,
            dst_rank=self.peer_rank,
            nbytes=local_buf.nbytes,
            meta=m,
            payload=payload,
        )
        local = dev.fabric.send_packet(pkt)
        local.add_callback(
            lambda ev: dev.send_cq.push(WorkCompletion(wr_id, "rdma_write", local_buf.nbytes))
        )
        return local


class VapiDevice:
    """Per-rank VAPI context: QPs, CQs and the HCA's pin-down cache.

    The pin-down cache is shared per *HCA* (i.e. per node) because
    registrations are a property of the adapter, not the process.
    """

    def __init__(self, sim: Simulator, fabric, rank: int, pin_cache: PinDownCache) -> None:
        self.sim = sim
        self.fabric = fabric
        self.rank = rank
        self.pin_cache = pin_cache
        self.send_cq = CompletionQueue(sim, name=f"ib.scq[{rank}]")
        self.recv_cq = CompletionQueue(sim, name=f"ib.rcq[{rank}]")
        self.qps: Dict[int, QueuePair] = {}
        self._next_lkey = 1

    # -- connection management -------------------------------------------
    def connect(self, peer_rank: int) -> QueuePair:
        """Create (or return) the RC queue pair toward ``peer_rank``."""
        qp = self.qps.get(peer_rank)
        if qp is None:
            qp = QueuePair(self, peer_rank)
            self.qps[peer_rank] = qp
        return qp

    @property
    def nconnections(self) -> int:
        return len(self.qps)

    # -- memory registration ----------------------------------------------
    def reg_mr(self, buf: Buffer) -> tuple:
        """Register ``buf``; returns ``(MemoryRegion, host_cost_us)``.

        The cost reflects the pin-down cache state: ~0 for cached pages,
        the full kernel pinning cost otherwise.  The caller (MPI layer)
        charges it on the host CPU.
        """
        cost = self.pin_cache.lookup(buf)
        mr = MemoryRegion(buf, self._next_lkey)
        self._next_lkey += 1
        return mr, cost

    # -- inbound processing (invoked by the fabric on delivery) ------------
    def handle_delivery(self, pkt: Packet) -> Optional[WorkCompletion]:
        """NIC-side handling of an arrived packet; returns a CQE if any.

        For 'ib.send' this consumes the oldest posted receive on the QP
        (RC ordering).  For 'ib.rdma' the payload is placed directly in
        the target region.  Raises if a send arrives with no posted
        receive — RC treats that as a fatal receiver-not-ready error.
        """
        if pkt.kind == "ib.rdma":
            rbuf: Buffer = pkt.meta["remote_buf"]
            if pkt.payload is not None and rbuf.data is not None:
                n = min(len(pkt.payload), rbuf.data.reshape(-1).view("uint8").shape[0])
                rbuf.data.reshape(-1).view("uint8")[:n] = pkt.payload[:n]
            if pkt.meta.get("imm") is not None:
                wc = WorkCompletion(-1, "rdma_write", pkt.nbytes, pkt.src_rank, pkt.meta["imm"])
                self.recv_cq.push(wc)
                return wc
            return None
        if pkt.kind == "ib.read_req":
            # the responder HCA streams the data back without host help
            rbuf: Buffer = pkt.meta["remote_buf"]
            payload = None
            if rbuf.data is not None:
                payload = rbuf.data.reshape(-1).view("uint8").copy()
            resp = Packet(
                kind="ib.read_resp", src_rank=self.rank, dst_rank=pkt.meta["reply_to"],
                nbytes=rbuf.nbytes, payload=payload,
                meta={"wr_id": pkt.meta["wr_id"], "done": pkt.meta["done"],
                      "local_buf": pkt.meta["local_buf"]},
            )
            self.fabric.send_packet(resp)
            return None
        if pkt.kind == "ib.read_resp":
            lbuf: Buffer = pkt.meta["local_buf"]
            if pkt.payload is not None and lbuf.data is not None:
                dst = lbuf.data.reshape(-1).view("uint8")
                n = min(len(pkt.payload), dst.shape[0])
                dst[:n] = pkt.payload[:n]
            wc = WorkCompletion(pkt.meta["wr_id"], "rdma_read", pkt.nbytes, pkt.src_rank)
            self.send_cq.push(wc)
            pkt.meta["done"].succeed(pkt.payload)
            return wc
        if pkt.kind == "ib.send":
            qp = self.connect(pkt.src_rank)
            if not qp.posted_recvs:
                raise RegistrationError(
                    f"RC send from rank {pkt.src_rank} to {self.rank} with no posted receive"
                )
            wr_id, buf = qp.posted_recvs.pop(0)
            if pkt.payload is not None and buf.data is not None:
                n = min(len(pkt.payload), buf.data.reshape(-1).view("uint8").shape[0])
                buf.data.reshape(-1).view("uint8")[:n] = pkt.payload[:n]
            wc = WorkCompletion(wr_id, "recv", pkt.nbytes, pkt.src_rank)
            self.recv_cq.push(wc)
            return wc
        raise ValueError(f"VAPI device got foreign packet kind {pkt.kind!r}")
