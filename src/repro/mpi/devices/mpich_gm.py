"""MPICH-GM-style MPI port: the Myrinet channel under the CH3 core.

Structure follows the MPICH-over-GM port (§2.2): the Channel Interface
retargeted to GM.

- **eager** (<= 16 KB): sender copies into a pre-registered GM bounce
  buffer and ``gm_send``s it; the LANai deposits it in one of the
  receiver's provided buffers; the receiver's progress engine matches
  and copies out.  Neither side registers user memory — which is why
  Myrinet's latency/bandwidth are insensitive to buffer reuse until
  16 KB (Figs. 7, 8).
- **rendezvous** (> 16 KB): RTS via gm_send; the receiver registers its
  buffer and returns a CTS with the target address; the sender registers
  and issues a GM *directed send* straight into the user buffer.
- **intra-node**: shared memory for every size (Fig. 9's 1.3 µs).

GM has no remote get, so the channel declares ``rdma_write`` (directed
send) and ``send_recv`` rendezvous only; the copy-train flavor
fragments at the eager limit so every fragment fits a provided receive
buffer class.
"""

from __future__ import annotations

from repro.mpi.ch.caps import (RNDV_SEND_RECV, RNDV_WRITE, SHMEM_ALL,
                               ChannelCaps)
from repro.mpi.ch.channel import Channel
from repro.mpi.ch.core import Ch3Device
from repro.mpi.ch.payload import payload_of
from repro.mpi.matching import Envelope
from repro.mpi.request import Request
from repro.networks.myrinet.gm import GmRecvEvent

__all__ = ["MpichGmDevice", "GmChannel"]


class GmChannel(Channel):
    """GM message-passing channel (Myrinet), one per rank."""

    CAPS = ChannelCaps(
        fabric="myrinet", port_name="MPICH-GM 1.2.5..10",
        two_sided=True, rdma_write=True, rdma_read=False,
        nic_matching=False, rdma_slots=False, progress="host",
        inline_limit=0, bounce_bytes=16 * 1024, shmem_limit=SHMEM_ALL,
        eager_inclusive=True, allreduce_algo="rdbl",
        rndv_flavors=(RNDV_WRITE, RNDV_SEND_RECV),
        rndv_default=RNDV_WRITE,
        # GM's sliding-window ack/resend: every packet acked by the
        # LANai firmware, fixed software resend timer, generous budget
        reliability="ack_resend", max_retries=15, rto_us=18.0, ack_bytes=16,
    )

    # -- protocol thresholds --------------------------------------------
    #: eager/rendezvous switch (buffer-reuse sensitivity starts here)
    EAGER_LIMIT = 16 * 1024

    # -- host costs (µs) — calibrated against Figs. 1 & 3 -----------------
    # GM's host path is famously thin: ~0.8 µs total overhead (Fig. 3).
    O_SEND_POST = 0.22
    O_RECV_POST = 0.14
    O_MATCH = 0.14
    O_RNDV = 0.35
    O_FIN = 0.15
    O_POLL = 0.12

    # -- intra-node (Fig. 9: ~1.3 µs small-message latency) -----------------
    O_SHM_SEND = 0.42
    O_SHM_RECV = 0.38
    #: host cost of retiring a GM send-completion callback
    O_SEND_CB = 0.16

    #: receive buffers provided to the NIC at startup, per size class
    PROVIDED_PER_CLASS = 24

    def __init__(self, core: Ch3Device) -> None:
        super().__init__(core)
        self.gm = self.fabric.gm(core.rank)
        self._eager_limit = int(self.options.get("eager_limit", self.EAGER_LIMIT))
        # a ladder of size classes covering everything the eager path
        # (and its control messages) can carry
        top = self.gm.size_class(self._eager_limit)
        for klass in range(5, top + 1):
            for _ in range(self.PROVIDED_PER_CLASS):
                self.gm.provide_receive_buffer(core.space.alloc(1 << klass))

    @property
    def eager_limit(self) -> int:
        return self._eager_limit

    def sr_chunk_bytes(self) -> int:
        # every fragment must fit one provided receive-buffer class
        return self._eager_limit

    # ------------------------------------------------------------------
    # wire actions
    # ------------------------------------------------------------------
    def acquire_send_credit(self, req: Request):
        # honour GM send-token flow control
        while self.gm._inflight_sends >= self.gm.send_tokens:
            yield self.core.cpu.comm(0.5)

    def eager_send(self, req: Request, seq: int) -> None:
        local = self.gm.send_with_callback(
            req.peer, req.buf, tag=req.tag, payload=payload_of(req.buf),
            meta={"mpi": "eager", "ctx": req.ctx, "mseq": seq},
        )
        # GM reports send completion through a callback the host must
        # retire from its receive loop
        local.add_callback(lambda _e: self.core._post_inbox(("scb", None)))
        req.complete()  # buffered

    def send_rts(self, req: Request, seq: int):
        rts = self.core.space.alloc(32)  # tiny control message
        self.gm.send_with_callback(
            req.peer, rts, tag=req.tag,
            meta={"mpi": "rts", "ctx": req.ctx, "data_nbytes": req.nbytes,
                  "sreq": req, "mseq": seq},
        )
        self.core.space.free(rts)
        return
        yield  # pragma: no cover - generator shape

    def send_cts(self, req: Request, env: Envelope):
        meta = {"mpi": "cts", "ctx": env.ctx, "sreq": env.meta["sreq"],
                "rreq": req}
        if self.core.rendezvous != RNDV_SEND_RECV:
            # directed-send flavor pins the receive buffer; the
            # copy-train flavor reuses provided buffers instead
            yield self.core.cpu.comm(self.gm.register(req.buf))
            meta["remote_buf"] = req.buf
        cts = self.core.space.alloc(32)
        self.gm.send_with_callback(env.src, cts, tag=env.tag, meta=meta)
        self.core.space.free(cts)

    def rndv_data(self, src: int, meta: dict):
        sreq: Request = meta["sreq"]
        yield self.core.cpu.comm(self.gm.register(sreq.buf))
        local = self.gm.directed_send(
            src, sreq.buf, meta["remote_buf"],
            payload=payload_of(sreq.buf),
            meta={"mpi": "rdata", "rreq": meta["rreq"],
                  "tag": sreq.tag, "ctx": sreq.ctx},
        )
        local.add_callback(lambda _e: self.core._post_inbox(("sfin", sreq)))

    def send_fragment(self, sreq: Request, rreq: Request, offset: int,
                      nbytes: int, total: int, last: bool, frag):
        buf = self.core.space.alloc(max(nbytes, 1))
        local = self.gm.send_with_callback(
            sreq.peer, buf, tag=sreq.tag, payload=frag,
            meta={"mpi": "frag", "rreq": rreq, "tag": sreq.tag,
                  "offset": offset, "total": total, "last": last},
        )
        self.core.space.free(buf)
        # each gm_send's completion callback still costs the host
        local.add_callback(lambda _e: self.core._post_inbox(("scb", None)))
        return local

    # ------------------------------------------------------------------
    # progress-engine dispatch
    # ------------------------------------------------------------------
    def handle_wire(self, item):
        core = self.core
        # a GM packet: let the port do its NIC-side buffer accounting
        ev: GmRecvEvent = self.gm.nic_accept(item)
        if ev.kind == "recv" and ev.buffer is not None:
            self.gm.provide_receive_buffer(ev.buffer)  # replenish its class
        mpi_kind = ev.meta.get("mpi")
        if mpi_kind == "eager":
            env = Envelope("eager", ev.src_rank, ev.tag, ev.meta["ctx"],
                           ev.nbytes, payload=item.payload,
                           seq=ev.meta.get("mseq", 0))
            yield from core.deliver_eager(env)
        elif mpi_kind == "rts":
            env = Envelope("rts", ev.src_rank, ev.tag, ev.meta["ctx"],
                           ev.meta["data_nbytes"], meta={"sreq": ev.meta["sreq"]},
                           seq=ev.meta.get("mseq", 0))
            yield from core.deliver_rts(env)
        elif mpi_kind == "cts":
            yield from core.deliver_cts(ev.src_rank, ev.meta)
        elif mpi_kind == "rdata":
            yield from core.deliver_rdata(ev.meta["rreq"], ev.src_rank,
                                          ev.meta["tag"], ev.nbytes,
                                          item.payload)
        elif mpi_kind == "frag":
            yield from core.deliver_fragment(ev.src_rank, ev.meta,
                                             ev.nbytes, item.payload)
        else:  # pragma: no cover - defensive
            raise RuntimeError(f"MPICH-GM progress got unknown item {item!r}")


class MpichGmDevice(Ch3Device):
    """The MPI port used for Myrinet."""

    # -- memory model (Fig. 13: flat, connectionless) -----------------------
    MEM_BASE_MB = 9.0
    MEM_PER_CONN_MB = 0.05

    channel: GmChannel

    def _make_channel(self) -> GmChannel:
        return GmChannel(self)

    @property
    def gm(self):
        return self.channel.gm
