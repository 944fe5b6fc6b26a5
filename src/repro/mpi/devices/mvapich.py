"""MVAPICH-style MPI port: the InfiniBand channel under the CH3 core.

Protocol structure follows [Liu et al., ICS'03] / MVAPICH 0.9.1 (§2.1):

- **eager** (< 2 KB): the sender copies the payload into a
  pre-registered per-connection RDMA ring and RDMA-writes it into the
  receiver's ring; the receiver's progress engine polls the ring,
  matches and copies out.  Send requests complete locally (buffered).
- **rendezvous** (>= 2 KB): RTS -> (receive matched; receiver registers
  its buffer) -> CTS carrying the target address -> sender registers and
  RDMA-writes straight into the user buffer -> completion at both ends.
  Registration goes through the HCA's pin-down cache, so cold buffers
  pay the full pinning cost (Figs. 7, 8).
- **intra-node**: shared memory below 16 KB, HCA loopback above
  (bounded at ~half the PCI-X ceiling, §3.6).

The bandwidth dip at exactly 2 KB in Fig. 2 is this eager->rendezvous
switch; Fig. 13's per-node memory growth is the per-RC-connection ring
allocation modelled by ``MEM_PER_CONN_MB``.

Beyond the paper's default, the channel declares RDMA-read and
two-sided capability, so the what-if matrix can run ``rdma_read`` and
``send_recv`` rendezvous flavors over the same verbs layer.
"""

from __future__ import annotations

from repro.mpi.ch.caps import (RNDV_READ, RNDV_SEND_RECV, RNDV_WRITE,
                               ChannelCaps)
from repro.mpi.ch.channel import Channel
from repro.mpi.ch.core import Ch3Device
from repro.mpi.ch.payload import payload_of
from repro.mpi.matching import Envelope
from repro.mpi.request import Request
from repro.networks.base import Packet

__all__ = ["MvapichDevice", "MvapichChannel"]


class MvapichChannel(Channel):
    """VAPI verbs channel (InfiniBand), one per rank."""

    CAPS = ChannelCaps(
        fabric="infiniband", port_name="MVAPICH 0.9.1",
        two_sided=True, rdma_write=True, rdma_read=True,
        nic_matching=False, rdma_slots=True, progress="host",
        inline_limit=0, bounce_bytes=8192, shmem_limit=16 * 1024,
        eager_inclusive=False, allreduce_algo="reduce_bcast",
        rndv_flavors=(RNDV_WRITE, RNDV_READ, RNDV_SEND_RECV),
        rndv_default=RNDV_WRITE,
        # RC transport: 3-bit retry_cnt (max 7), Local Ack Timeout
        # doubling per retry; exhaustion moves the QP to ERR
        reliability="rc", max_retries=7, rto_us=12.0, ack_bytes=0,
    )

    # -- protocol thresholds --------------------------------------------
    #: eager/rendezvous switch (Fig. 2's 2 KB dip)
    EAGER_LIMIT = 2048

    # -- host costs (µs) — calibrated against Figs. 1 & 3 ----------------
    O_SEND_POST = 0.62   # descriptor build + doorbell
    O_RECV_POST = 0.30
    O_MATCH = 0.28       # envelope match in the progress engine
    O_RNDV = 0.45        # RTS/CTS handling
    O_FIN = 0.22
    O_POLL = 0.22

    # -- intra-node (Fig. 9: ~1.6 µs small-message latency) ---------------
    O_SHM_SEND = 0.52
    O_SHM_RECV = 0.47

    #: host cost of initiating / accepting an on-demand connection
    O_CONN_REQ = 45.0
    O_CONN_ACC = 35.0
    #: host cost of polling an RDMA collective flag slot
    O_SLOT = 0.12

    def __init__(self, core: Ch3Device) -> None:
        super().__init__(core)
        self.vapi = self.fabric.vapi(core.rank)
        #: lazy QP setup, the [Wu et al. 02] fix for Fig. 13's growth
        self.on_demand = bool(self.options.get("on_demand_connections"))
        #: ablation knobs (defaults reproduce MVAPICH 0.9.1)
        self._eager_limit = int(self.options.get("eager_limit", self.EAGER_LIMIT))
        self.pin_cache_enabled = bool(self.options.get("pin_down_cache", True))
        self._conn_pending: dict = {}  # peer -> Event (handshake in flight)

    @property
    def eager_limit(self) -> int:
        return self._eager_limit

    # ------------------------------------------------------------------
    # connection setup (static all-to-all like MVAPICH 0.9.1, or lazy
    # on-demand connection management)
    # ------------------------------------------------------------------
    def init_connections(self, ranks) -> None:
        if self.on_demand:
            return
        for r in ranks:
            if r != self.core.rank:
                self.vapi.connect(r)

    def connect(self, peer: int):
        """On-demand RC setup: request/reply handshake with the peer.

        The requester stalls for the round trip (plus however long the
        peer takes to run its progress engine) — the latency cost that
        static all-to-all setup avoids by paying memory instead.
        """
        core = self.core
        if not self.on_demand or peer == core.rank or peer in self.vapi.qps:
            return
        pending = self._conn_pending.get(peer)
        if pending is None:
            yield core.cpu.comm(self.O_CONN_REQ)
            pending = core.sim.event(f"ib.connect[{core.rank}->{peer}]")
            self._conn_pending[peer] = pending
            req = Packet(kind="ib.conn_req", src_rank=core.rank, dst_rank=peer,
                         nbytes=64, meta={})
            self.fabric.post_packet(req)
        # keep the progress engine running while the handshake is in
        # flight — the reply (and any crossing request) arrives through
        # our own inbox
        while not pending.triggered:
            worked = yield from core._drain()
            if pending.triggered:
                break
            if not worked:
                yield core.gate.wait()
        self.vapi.connect(peer)

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def _reg_cost(self, buf) -> float:
        """Registration cost; without the pin-down cache every message
        pays the full pin/unpin price (the [Tezuka et al. 98] baseline)."""
        if self.pin_cache_enabled:
            _mr, cost = self.vapi.reg_mr(buf)
            return cost
        pc = self.vapi.pin_cache
        return (pc.register_base_us + buf.npages * pc.register_page_us
                + buf.npages * pc.deregister_page_us)

    # ------------------------------------------------------------------
    # wire actions
    # ------------------------------------------------------------------
    def eager_send(self, req: Request, seq: int) -> None:
        pkt = Packet(
            kind="ib.ring", src_rank=self.core.rank, dst_rank=req.peer,
            nbytes=req.nbytes,
            meta={"tag": req.tag, "ctx": req.ctx, "mseq": seq},
            payload=payload_of(req.buf),
        )
        self.fabric.post_packet(pkt)
        req.complete()  # buffered: user buffer reusable immediately

    def send_rts(self, req: Request, seq: int):
        meta = {"tag": req.tag, "ctx": req.ctx, "data_nbytes": req.nbytes,
                "sreq": req, "mseq": seq}
        if self.core.rendezvous != RNDV_SEND_RECV:
            # register the send buffer up front (MVAPICH does this at
            # RTS time); the copy-train flavor never pins user memory
            yield self.core.cpu.comm(self._reg_cost(req.buf))
        if self.core.rendezvous == RNDV_READ:
            meta["sbuf"] = req.buf  # registered source for the remote get
        rts = Packet(kind="ib.rts", src_rank=self.core.rank, dst_rank=req.peer,
                     nbytes=0, meta=meta)
        self.fabric.post_packet(rts)

    def send_cts(self, req: Request, env: Envelope):
        meta = {"sreq": env.meta["sreq"], "rreq": req, "tag": env.tag,
                "ctx": env.ctx, "data_nbytes": env.nbytes}
        if self.core.rendezvous != RNDV_SEND_RECV:
            yield self.core.cpu.comm(self._reg_cost(req.buf))
        cts = Packet(kind="ib.cts", src_rank=self.core.rank, dst_rank=env.src,
                     nbytes=0, meta=meta)
        self.fabric.post_packet(cts)

    def rndv_data(self, src: int, meta: dict):
        sreq: Request = meta["sreq"]
        qp = self.vapi.connect(src)
        local = qp.rdma_write(
            sreq.buf, meta["rreq"].buf, wr_id=qp.next_wr_id(),
            payload=payload_of(sreq.buf),
            meta={"rreq": meta["rreq"], "tag": sreq.tag,
                  "ctx": sreq.ctx, "mpi_data": True},
        )
        local.add_callback(lambda ev: self.core._post_inbox(("sfin", sreq)))
        return
        yield  # pragma: no cover - generator shape

    def rndv_read(self, req: Request, env: Envelope):
        yield self.core.cpu.comm(self._reg_cost(req.buf))
        qp = self.vapi.connect(env.src)
        done = qp.rdma_read(req.buf, env.meta["sbuf"], wr_id=qp.next_wr_id())
        done.add_callback(
            lambda _e: self.core._post_inbox(("rdfin", req, env)))

    def send_read_fin(self, env: Envelope) -> None:
        fin = Packet(kind="ib.rfin", src_rank=self.core.rank, dst_rank=env.src,
                     nbytes=0, meta={"sreq": env.meta["sreq"]})
        self.fabric.post_packet(fin)

    def send_fragment(self, sreq: Request, rreq: Request, offset: int,
                      nbytes: int, total: int, last: bool, frag):
        pkt = Packet(
            kind="ib.frag", src_rank=self.core.rank, dst_rank=sreq.peer,
            nbytes=nbytes, payload=frag,
            meta={"rreq": rreq, "tag": sreq.tag, "offset": offset,
                  "total": total, "last": last},
        )
        return self.fabric.send_packet(pkt)

    def on_send_fin(self) -> None:
        self.vapi.send_cq.poll(64)  # retire CQEs alongside the FIN

    def nic_intercept(self, item) -> bool:
        # A real HCA answers RDMA read requests (and lands the
        # responses) without host involvement — route them to the verbs
        # layer at delivery time instead of parking them in the inbox.
        if isinstance(item, Packet) and item.kind in ("ib.read_req",
                                                      "ib.read_resp"):
            self.vapi.handle_delivery(item)
            return True
        return False

    # ------------------------------------------------------------------
    # progress-engine dispatch
    # ------------------------------------------------------------------
    def handle_wire(self, item):
        core = self.core
        cpu = core.cpu
        pkt: Packet = item
        if pkt.kind == "ib.ring":
            env = Envelope("eager", pkt.src_rank, pkt.meta["tag"], pkt.meta["ctx"],
                           pkt.nbytes, payload=pkt.payload,
                           seq=pkt.meta.get("mseq", 0))
            yield from core.deliver_eager(env)
        elif pkt.kind == "ib.rts":
            meta = {"sreq": pkt.meta["sreq"]}
            if "sbuf" in pkt.meta:
                meta["sbuf"] = pkt.meta["sbuf"]
            env = Envelope("rts", pkt.src_rank, pkt.meta["tag"], pkt.meta["ctx"],
                           pkt.meta["data_nbytes"], meta=meta,
                           seq=pkt.meta.get("mseq", 0))
            yield from core.deliver_rts(env)
        elif pkt.kind == "ib.cts":
            yield from core.deliver_cts(pkt.src_rank, pkt.meta)
        elif pkt.kind == "ib.rdma" and pkt.meta.get("mpi_data"):
            yield from core.deliver_rdata(pkt.meta["rreq"], pkt.src_rank,
                                          pkt.meta["tag"], pkt.nbytes,
                                          pkt.payload)
        elif pkt.kind == "ib.frag":
            yield from core.deliver_fragment(pkt.src_rank, pkt.meta,
                                             pkt.nbytes, pkt.payload)
        elif pkt.kind == "ib.rfin":
            yield from core.deliver_send_fin(pkt.meta["sreq"])
        elif pkt.kind == "ib.conn_req":
            yield cpu.comm(self.O_CONN_ACC)
            self.vapi.connect(pkt.src_rank)
            rep = Packet(kind="ib.conn_rep", src_rank=core.rank,
                         dst_rank=pkt.src_rank, nbytes=64, meta={})
            self.fabric.post_packet(rep)
        elif pkt.kind == "ib.conn_rep":
            yield cpu.comm(self.O_FIN)
            pending = self._conn_pending.pop(pkt.src_rank, None)
            if pending is not None and not pending.triggered:
                pending.succeed()
        elif pkt.kind == "ib.slot":
            # RDMA write into a pre-registered, pre-polled flag slot:
            # no matching, no unexpected queue — just a memory poll
            yield cpu.comm(self.O_SLOT)
            key = pkt.meta["slot"]
            slots = core._slots
            slots[key] = slots.get(key, 0) + 1
            if pkt.payload is not None:
                slots[(key, "data")] = pkt.payload
        else:  # pragma: no cover - defensive
            raise RuntimeError(f"MVAPICH progress got unknown item {item!r}")


class MvapichDevice(Ch3Device):
    """The MPI port used for InfiniBand."""

    # -- memory model (Fig. 13) ------------------------------------------
    MEM_BASE_MB = 15.0
    MEM_PER_CONN_MB = 5.7

    channel: MvapichChannel

    def __init__(self, *args, **kwargs) -> None:
        self._slots: dict = {}  # slot key -> arrival count
        super().__init__(*args, **kwargs)

    def _make_channel(self) -> MvapichChannel:
        return MvapichChannel(self)

    @property
    def vapi(self):
        return self.channel.vapi

    @property
    def on_demand(self) -> bool:
        return self.channel.on_demand

    @property
    def pin_cache_enabled(self) -> bool:
        return self.channel.pin_cache_enabled

    def init_connections(self, ranks) -> None:
        self.channel.init_connections(ranks)

    def memory_usage_mb(self, npeers: int = None) -> float:  # type: ignore[override]
        # with on-demand management only the QPs actually created are
        # backed by rings — the point of [Wu et al. 02]
        if self.on_demand or npeers is None:
            peers = self.vapi.nconnections
        else:
            peers = npeers
        return self.MEM_BASE_MB + self.MEM_PER_CONN_MB * peers

    # ------------------------------------------------------------------
    # RDMA-based collective primitives ([Kini et al. 03]: direct RDMA
    # writes into pre-registered slots, skipping tag matching entirely)
    # ------------------------------------------------------------------
    def rdma_signal(self, dst: int, slot, nbytes: int = 0, payload=None):
        """Fire an RDMA flag (optionally with a small payload) at dst."""
        yield from self.channel.connect(dst)
        yield self.cpu.comm(0.45)  # descriptor + doorbell, no copy path
        pkt = Packet(kind="ib.slot", src_rank=self.rank, dst_rank=dst,
                     nbytes=max(nbytes, 8), meta={"slot": slot}, payload=payload)
        self.fabric.post_packet(pkt)
        self._record_transfer(dst, max(nbytes, 8))

    def rdma_wait_signal(self, slot):
        """Poll until the flag for ``slot`` has been written; returns the
        payload if one was carried."""
        while self._slots.get(slot, 0) < 1:
            worked = yield from self._drain()
            if self._slots.get(slot, 0) >= 1:
                break
            if not worked:
                yield self.gate.wait()
        self._slots[slot] -= 1
        return self._slots.pop((slot, "data"), None)
