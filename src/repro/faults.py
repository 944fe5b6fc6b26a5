"""Deterministic fault injection and the reliability protocols that absorb it.

The paper's stacks are only fast because they are *reliable*: InfiniBand
RC queue pairs retransmit with retry counters and timeouts, GM acks and
resends every packet over lossy Myrinet links, and Elan3 retries in NIC
hardware.  The base simulator models a perfect wire, so those costs are
invisible.  This module adds both halves:

- a :class:`FaultSpec` — a frozen, seed-driven description of what the
  wire does wrong (drop, corrupt, duplicate, link-flap windows, NIC
  stall intervals).  It rides on :class:`~repro.runtime.spec.RunSpec`,
  so every fault configuration is a distinct content-addressed cache
  key;
- a :class:`FaultPlane` — the per-fabric runtime hooked into
  :meth:`~repro.networks.base.Fabric.post_packet` and
  :meth:`~repro.networks.base.NetPort.deliver` that rolls per-packet
  fault decisions and runs the channel's declared reliability protocol
  (``ChannelCaps.reliability``): ``'rc'`` ack/retransmit with
  exponential backoff, ``'ack_resend'`` fixed-timeout resend, or
  ``'hw_retry'`` near-immediate NIC retry.  Retry exhaustion surfaces
  as a structured :class:`LinkFailure` (a
  :class:`~repro.core.engine.SimulationError`), after giving the fabric
  a chance to transition connection state (IB marks the QP ``ERR``).

Determinism is load-bearing: fault decisions must not depend on event
interleaving, or the parallel executor's bit-identical-to-serial
guarantee breaks.  So there is no shared RNG stream — every roll is a
splitmix64-style hash of ``(seed, fault-id, attempt, salt)``, where the
fault-id is assigned to the *original* transmission at send time.  A
pleasant corollary: the set of packets dropped at rate ``r1 < r2`` is a
subset of those dropped at ``r2``, so degradation curves are monotone
by construction, not by luck.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Mapping, Optional

from repro.core.engine import SimulationError, Simulator

__all__ = ["FaultSpec", "FaultPlane", "LinkFailure",
           "RELIABILITY_PROTOCOLS"]

#: reliability protocols a channel may declare (ChannelCaps.reliability)
RELIABILITY_PROTOCOLS = ("none", "rc", "ack_resend", "hw_retry")

# roll salts: one independent hash stream per fault mechanism
_SALT_DROP = 0x01
_SALT_CORRUPT = 0x02
_SALT_DUP = 0x03


class LinkFailure(SimulationError):
    """A packet exhausted its channel's retry budget.

    Carries enough structure for a sweep driver (or a test) to report
    exactly which link died and why, instead of an opaque traceback.
    """

    def __init__(self, fabric: str, kind: str, src_rank: int, dst_rank: int,
                 attempts: int, cause: str) -> None:
        self.fabric = fabric
        self.kind = kind
        self.src_rank = src_rank
        self.dst_rank = dst_rank
        self.attempts = attempts
        self.cause = cause
        super().__init__(
            f"{fabric}: {kind} packet r{src_rank}->r{dst_rank} lost "
            f"{attempts} times ({cause}); retry budget exhausted")


@dataclass(frozen=True)
class FaultSpec:
    """What the wire does wrong, as plain frozen data.

    Rates are per-delivery-attempt probabilities in ``[0, 1)``; window
    parameters are in simulated microseconds (a period of 0 disables
    that mechanism).  ``seed`` selects the deterministic roll stream.
    """

    #: probability a packet silently vanishes on the wire
    drop_rate: float = 0.0
    #: probability a packet arrives CRC-broken (detected and discarded,
    #: so it behaves as a loss; payload integrity is never violated)
    corrupt_rate: float = 0.0
    #: probability the wire delivers a spurious duplicate (the receiver's
    #: reliability layer detects and discards it)
    dup_rate: float = 0.0
    #: link flap: every ``flap_period_us`` the link goes dark for
    #: ``flap_duration_us`` and in-flight arrivals are lost
    flap_period_us: float = 0.0
    flap_duration_us: float = 0.0
    #: NIC stall: every ``stall_period_us`` the receiving NIC freezes for
    #: ``stall_duration_us``; arrivals are delayed to the window's end
    stall_period_us: float = 0.0
    stall_duration_us: float = 0.0
    #: roll-stream seed (``--fault-seed``)
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("drop_rate", "corrupt_rate", "dup_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate < 1.0:
                raise ValueError(f"{name} must be in [0, 1), got {rate}")
        for name in ("flap_period_us", "flap_duration_us",
                     "stall_period_us", "stall_duration_us"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be >= 0")
        if self.flap_period_us and self.flap_duration_us >= self.flap_period_us:
            raise ValueError("flap_duration_us must be < flap_period_us")
        if self.stall_period_us and self.stall_duration_us >= self.stall_period_us:
            raise ValueError("stall_duration_us must be < stall_period_us")

    @classmethod
    def from_mapping(cls, mapping: Mapping) -> "FaultSpec":
        """Build from ``--fault key=val`` pairs; unknown keys fail loudly."""
        known = {f.name for f in fields(cls)}
        unknown = set(mapping) - known
        if unknown:
            raise ValueError(f"unknown fault parameter(s) {sorted(unknown)}; "
                             f"know {sorted(known)}")
        return cls(**{k: (int(v) if k == "seed" else float(v))
                      for k, v in mapping.items()})

    def to_mapping(self) -> dict:
        """Non-default fields only — the canonical RunSpec.faults form."""
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if value != f.default:
                out[f.name] = value
        return out

    @property
    def active(self) -> bool:
        """True if any fault mechanism is enabled."""
        return bool(self.drop_rate or self.corrupt_rate or self.dup_rate
                    or self.flap_period_us or self.stall_period_us)


_MASK64 = 0xFFFFFFFFFFFFFFFF
_GAMMA = 0x9E3779B97F4A7C15  # splitmix64 golden-ratio stream increment


def _mix64(x: int) -> int:
    """Splitmix64 finalizer: full avalanche over one 64-bit word."""
    x &= _MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    x ^= x >> 31
    return x


def _roll(seed: int, fid: int, attempt: int, salt: int) -> float:
    """Deterministic uniform float in [0, 1) for one fault decision.

    A chained splitmix64 hash of the decision's identity — stateless, so
    the outcome depends only on (seed, packet, attempt, mechanism),
    never on event interleaving or process count.  Each component is
    folded through a full finalizer round: a single combined round
    leaves visible structure across consecutive fault-ids.
    """
    x = _mix64(seed + _GAMMA * salt)
    x = _mix64(x + _GAMMA * fid)
    x = _mix64(x + _GAMMA * attempt)
    return x / 2.0**64


class FaultPlane:
    """Per-fabric fault runtime: rolls faults, runs the retry protocol.

    Installed by :class:`~repro.mpi.world.MPIWorld` when a run carries a
    :class:`FaultSpec`; the fabric consults it at exactly two points —
    :meth:`on_send` tags original transmissions with a fault identity,
    and :meth:`on_deliver` decides each arrival's fate.  With no plane
    installed the hot path pays one ``is not None`` check.
    """

    def __init__(self, sim: Simulator, fabric, spec: FaultSpec, *,
                 reliability: str = "none", max_retries: int = 7,
                 rto_us: float = 10.0, ack_bytes: int = 0) -> None:
        if reliability not in RELIABILITY_PROTOCOLS:
            raise ValueError(f"unknown reliability protocol {reliability!r}; "
                             f"know {RELIABILITY_PROTOCOLS}")
        self.sim = sim
        self.fabric = fabric
        self.spec = spec
        self.reliability = reliability
        self.max_retries = max_retries if reliability != "none" else 0
        self.rto_us = rto_us
        self.ack_bytes = ack_bytes
        self._next_fid = 0

    # -- send side ------------------------------------------------------
    def on_send(self, pkt) -> None:
        """Tag an original transmission with its fault identity.

        Retransmissions re-enter ``post_packet`` carrying their ``_fid``
        and incremented ``_attempt``, so the tag survives the round trip
        and every attempt rolls an independent decision.
        """
        if "_fid" not in pkt.meta:
            self._next_fid += 1
            pkt.meta["_fid"] = self._next_fid
            pkt.meta["_attempt"] = 0

    # -- receive side ---------------------------------------------------
    def on_deliver(self, port, pkt) -> bool:
        """Decide one arrival's fate; True means the plane consumed it."""
        spec = self.spec
        fid = pkt.meta.get("_fid")
        if fid is None:  # not tagged (plane installed mid-flight): pass
            return False
        attempt = pkt.meta.get("_attempt", 0)
        now = self.sim.now
        if spec.stall_period_us:
            into = now % spec.stall_period_us
            if into < spec.stall_duration_us:
                self._stall(port, pkt, spec.stall_duration_us - into)
                return True
        if spec.flap_period_us and (now % spec.flap_period_us
                                    < spec.flap_duration_us):
            self._lost(pkt, attempt, "flap")
            return True
        if spec.drop_rate and _roll(spec.seed, fid, attempt,
                                    _SALT_DROP) < spec.drop_rate:
            self._lost(pkt, attempt, "drop")
            return True
        if spec.corrupt_rate and _roll(spec.seed, fid, attempt,
                                       _SALT_CORRUPT) < spec.corrupt_rate:
            self._lost(pkt, attempt, "corrupt")
            return True
        metrics = self.sim.metrics
        if spec.dup_rate and _roll(spec.seed, fid, attempt,
                                   _SALT_DUP) < spec.dup_rate:
            # The wire delivered a spurious copy; the reliability layer
            # (RC PSN check / GM sequence window / Elan event word)
            # detects and discards it, so it never reaches the MPI layer
            # — only the detection is observable.
            metrics.inc("net.retx.dups")
            self._trace("dup", pkt, attempt)
        if self.ack_bytes:
            # GM-style host-level acknowledgement for every delivered
            # data packet: accounted as wire bytes, not as latency (the
            # ack travels opposite to the data stream).
            metrics.inc("net.retx.acks")
            metrics.inc("net.bytes.ack", self.ack_bytes)
        return False

    # -- fault outcomes -------------------------------------------------
    def _stall(self, port, pkt, remaining_us: float) -> None:
        """Receiving NIC frozen: park the packet until the window ends."""
        metrics = self.sim.metrics
        metrics.inc("net.retx.stalls")
        metrics.inc("net.retx.stall_us", remaining_us)
        self._trace("stall", pkt, pkt.meta.get("_attempt", 0),
                    delay_us=remaining_us)
        ev = self.sim.event("fault.stall")
        ev.add_callback(lambda _e: port._deliver_now(pkt))
        ev.succeed(delay=remaining_us)

    def _lost(self, pkt, attempt: int, cause: str) -> None:
        """One delivery attempt failed; retry or declare the link dead."""
        attempt += 1
        pkt.meta["_attempt"] = attempt
        metrics = self.sim.metrics
        metrics.inc("net.retx.losses")
        metrics.inc(f"net.retx.{cause}s" if cause != "flap"
                    else "net.retx.flap_drops")
        if attempt > self.max_retries:
            metrics.inc("net.retx.exhausted")
            self._trace("exhausted", pkt, attempt, cause=cause)
            self.fabric.on_link_failure(pkt)
            raise LinkFailure(self.fabric.kind, pkt.kind, pkt.src_rank,
                              pkt.dst_rank, attempt, cause)
        delay = self._backoff(attempt)
        metrics.inc("net.retransmits")
        metrics.inc("net.retx.pkts")
        metrics.inc("net.retx.bytes", pkt.nbytes)
        metrics.inc("net.retx.backoff_us", delay)
        self._trace("retx", pkt, attempt, cause=cause, delay_us=delay)
        ev = self.sim.event("fault.retx")
        ev.add_callback(lambda _e: self.fabric.post_packet(pkt))
        ev.succeed(delay=delay)

    def _backoff(self, attempt: int) -> float:
        """Retry timer per protocol, in µs.

        - ``rc``: IB RC transport timer with exponential backoff — the
          verbs Local Ack Timeout doubles per retry of the 3-bit
          ``retry_cnt`` budget;
        - ``ack_resend``: GM's fixed software resend timeout (the host
          resend loop re-arms a constant timer);
        - ``hw_retry``: Elan3 retries from NIC microcode as soon as the
          missing ack is noticed — near-wire-latency turnaround.
        """
        if self.reliability == "rc":
            return self.rto_us * (2.0 ** (attempt - 1))
        return self.rto_us

    def _trace(self, what: str, pkt, attempt: int, **extra) -> None:
        tracer = self.sim.tracer
        if tracer.enabled:
            tracer.instant(
                self.sim.now, "net.retx", f"{self.fabric.kind}.faults",
                f"{what} {pkt.kind} r{pkt.src_rank}->r{pkt.dst_rank} "
                f"try{attempt}",
                data={"what": what, "kind": pkt.kind, "src": pkt.src_rank,
                      "dst": pkt.dst_rank, "nbytes": pkt.nbytes,
                      "attempt": attempt,
                      "fid": pkt.meta.get("_fid"), **extra})

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<FaultPlane {self.fabric.kind} {self.reliability} "
                f"retries<={self.max_retries} rto={self.rto_us}us>")
