"""MPICH-over-Tports MPI port: the Quadrics channel under the CH3 core.

The ADI2 port on Tports (§2.3) is thin: Tports already provides tagged,
matched, reliable point-to-point messaging with **all progress on the
NIC**, so the channel declares ``nic_matching`` / NIC progress and the
shared core takes its completion-discipline path — requests complete
via NIC callbacks while the host computes (Fig. 6's overlap).  What
used to be a separate device lineage is now a capability declaration.

Distinctive behaviours this channel reproduces:

- the library's comparatively heavy host call costs (Fig. 3's ~3.3 µs
  total overhead, with the documented dip past the 288-byte inline
  limit);
- the 16-deep Tports transmit queue: posting a 17th outstanding send
  spins the host (Fig. 2's window>16 bandwidth drop);
- no shared-memory channel: intra-node messages loop through the Elan,
  crossing the PCI bus twice (Fig. 9);
- Elan MMU misses on fresh buffers are charged to the host as system
  software time (Figs. 7, 8's steep 0 %-reuse degradation).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.mpi.ch.caps import RNDV_NIC, ChannelCaps
from repro.mpi.ch.channel import Channel
from repro.mpi.ch.core import Ch3Device
from repro.mpi.ch.payload import payload_of
from repro.mpi.constants import ANY_SOURCE, ANY_TAG
from repro.mpi.request import Request
from repro.networks.quadrics.tports import ANY as TP_ANY

__all__ = ["MpichQuadricsDevice", "TportsChannel", "TagSelector"]


@dataclass(frozen=True)
class TagSelector:
    """Wildcard-capable Tports tag selector for (context, tag) keys."""

    ctx: int
    tag: int  # may be ANY_TAG

    def matches(self, other) -> bool:
        if not isinstance(other, tuple) or len(other) != 2:
            return False
        if other[0] != self.ctx:
            return False
        return self.tag == ANY_TAG or other[1] == self.tag


class TportsChannel(Channel):
    """Elan3 Tports channel (Quadrics), one per rank.

    Matching, eager staging and rendezvous all run in the NIC's thread
    processor (``tports.py``); the channel only prices the host library
    calls and keeps the Elan MMU coherent.
    """

    # -- host costs (µs) — calibrated against Figs. 1 & 3 ------------------
    #: Tports tx call (descriptor build, command issue)
    O_SEND = 1.45
    #: Tports rx post
    O_RECV_POST = 1.35
    #: host-side completion pickup (event word read)
    O_COMPLETE = 0.18

    def __init__(self, core: Ch3Device) -> None:
        self.tp = core.fabric.tport(core.rank)
        self.params = core.fabric.params
        eager = core.options.get("eager_limit")
        if eager is not None and int(eager) != self.params.eager_bytes:
            # The Tports eager/rendezvous switch lives in NIC firmware
            # (QuadricsParams is shared by every port of the fabric), so
            # an eager_limit option retunes the whole fabric.  Frozen
            # dataclass + idempotent across ranks: every rank writes the
            # same value.
            object.__setattr__(self.params, "eager_bytes", int(eager))
        #: this rank's NIC, resolved lazily (may not exist at init time)
        self._nic = None
        super().__init__(core)

    def _build_caps(self) -> ChannelCaps:
        return ChannelCaps(
            fabric="quadrics", port_name="MPICH 1.2.4..8quadrics",
            two_sided=True, rdma_write=True, rdma_read=True,
            nic_matching=True, rdma_slots=False, progress="nic",
            inline_limit=self.params.inline_bytes,
            bounce_bytes=self.params.eager_bytes, shmem_limit=0.0,
            eager_inclusive=True, allreduce_algo="reduce_bcast",
            rndv_flavors=(RNDV_NIC,), rndv_default=RNDV_NIC,
            # Elan3 link-level retry in NIC microcode: near-immediate
            # turnaround, effectively unbounded budget from software's view
            reliability="hw_retry", max_retries=31, rto_us=1.8, ack_bytes=0,
        )

    @property
    def eager_limit(self) -> int:
        return self.params.eager_bytes

    # ------------------------------------------------------------------
    # NIC-progress hooks
    # ------------------------------------------------------------------
    def acquire_send_credit(self, req: Request):
        cpu = self.core.cpu
        # Tports transmit queue is 16 deep; beyond it the host spins.
        while self.tp.tx_full():
            yield cpu.comm(self.params.tx_queue_full_penalty_us)
            yield self.tp.tx_slot_gate.wait()

    def prepare_buffer(self, buf):
        """Install missing Elan MMU translations.

        The update is performed by host system software but stalls the
        NIC's message processor too, so it steals NIC throughput — the
        Fig. 8 bandwidth collapse at 0% buffer reuse.
        """
        cost = self.tp.tlb_cost(buf)
        if cost > 0:
            self.core.cpu.comm_time_us += cost  # host-side accounting
            nic = self._nic
            if nic is None:
                fabric = self.fabric
                nic = self._nic = fabric.nic(fabric.node_of(self.core.rank))
            yield nic.mproc.transfer(0, overhead=cost)

    def nic_send(self, req: Request) -> None:
        handle = self.tp.tx(req.peer, (req.ctx, req.tag), req.buf,
                            payload=payload_of(req.buf))
        handle.done.add_callback(lambda _e: req.complete())

    def nic_recv(self, req: Request):
        core = self.core
        src_sel = TP_ANY if req.peer == ANY_SOURCE else req.peer
        tag_sel = TagSelector(req.ctx, req.tag)
        handle = self.tp.rx(src_sel, tag_sel, req.buf)
        if handle.copy_cost_us:
            # matched an unexpected message staged in a system buffer:
            # the library copies it out now, on the host
            yield core.cpu.comm(handle.copy_cost_us)

        def _completed(ev) -> None:
            src, tagkey, nbytes = ev.value
            tag = tagkey[1] if isinstance(tagkey, tuple) else tagkey
            req.complete(core._recv_status(src, tag, nbytes))

        handle.done.add_callback(_completed)

    def nic_peek(self, ctx: int, source: int, tag: int):
        src_sel = TP_ANY if source == ANY_SOURCE else source
        item = self.tp.peek(src_sel, TagSelector(ctx, tag))
        if item is None:
            return None
        tagkey = item.tag
        t = tagkey[1] if isinstance(tagkey, tuple) else tagkey
        return self.core._recv_status(item.src_rank, t, item.nbytes)

    def arrival_gate(self):
        return self.tp.arrival_gate


class MpichQuadricsDevice(Ch3Device):
    """The MPI port used for Quadrics."""

    # -- memory model (Fig. 13: flat) ---------------------------------------
    MEM_BASE_MB = 19.0
    MEM_PER_CONN_MB = 0.1

    channel: TportsChannel

    def _make_channel(self) -> TportsChannel:
        return TportsChannel(self)

    @property
    def tp(self):
        return self.channel.tp

    @property
    def params(self):
        return self.channel.params
