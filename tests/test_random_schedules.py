"""Randomized program stress: hypothesis-generated MPI schedules.

Generates random (but matched) communication schedules — arbitrary
sizes, tags, senders, mixes of blocking/non-blocking — and checks that
every payload arrives intact, in order per (pair, tag), on every
network.  This is the widest net for protocol races (eager/rendezvous
interleavings, unexpected-queue ordering, channel mixing).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mpi import mpi_run
from repro.mpi.world import MPIWorld

# a schedule is a list of (src, dst, nbytes, tag) with src != dst
_msg = st.tuples(
    st.integers(min_value=0, max_value=3),          # src
    st.integers(min_value=0, max_value=3),          # dst
    st.integers(min_value=1, max_value=100_000),    # nbytes
    st.integers(min_value=0, max_value=3),          # tag
).filter(lambda m: m[0] != m[1])

_schedule = st.lists(_msg, min_size=1, max_size=14)


def _checksum(src, dst, nbytes, tag, seq):
    """Deterministic payload fingerprint."""
    return (src * 7 + dst * 13 + nbytes * 3 + tag * 31 + seq * 17) % 251


def _run_schedule(schedule, network, nprocs=4, ppn=1, net_overrides=None):
    """Execute the schedule; receivers post in per-(src,tag) send order."""
    # per (src, dst, tag): ordered sequence numbers
    seqs = {}
    jobs = []
    for src, dst, nbytes, tag in schedule:
        key = (src, dst, tag)
        seqs[key] = seqs.get(key, 0) + 1
        jobs.append((src, dst, nbytes, tag, seqs[key]))

    def fn(comm):
        me = comm.rank
        reqs = []
        checks = []
        # post receives first (any order is fine: matching is by
        # (src, tag) in send order)
        for src, dst, nbytes, tag, seq in jobs:
            if dst == me:
                buf = comm.alloc_array(nbytes, dtype=np.uint8)
                r = yield from comm.irecv(buf, source=src, tag=tag)
                reqs.append(r)
                checks.append((buf, _checksum(src, dst, nbytes, tag, seq)))
        for src, dst, nbytes, tag, seq in jobs:
            if src == me:
                buf = comm.alloc_array(nbytes, dtype=np.uint8)
                buf.data[:] = _checksum(src, dst, nbytes, tag, seq)
                s = yield from comm.isend(buf, dest=dst, tag=tag)
                reqs.append(s)
        yield from comm.waitall(reqs)
        for buf, want in checks:
            assert buf.data[0] == want and buf.data[-1] == want

    world = MPIWorld(nprocs, network=network, ppn=ppn, record=False,
                     net_overrides=net_overrides)
    res = world.run(fn)
    return res.elapsed_us


class TestRandomSchedules:
    @given(schedule=_schedule, net=st.sampled_from(
        ["infiniband", "myrinet", "quadrics"]))
    @settings(max_examples=60, deadline=None)
    def test_property_all_payloads_delivered(self, schedule, net):
        _run_schedule(schedule, net)

    @given(schedule=_schedule,
           net=st.sampled_from(["infiniband", "myrinet", "quadrics"]),
           topology=st.sampled_from(["fat_tree", "clos", "federated_elite"]))
    @settings(max_examples=20, deadline=None)
    def test_property_routed_topologies(self, schedule, net, topology):
        """Radix-4 switches put the four nodes on two leaves, so pairs
        across them route three hops over shared up- and down-links:
        every payload arrives intact, and a rerun times identically."""
        overrides = {"topology": topology, "topology_radix": 4}
        elapsed = _run_schedule(schedule, net, net_overrides=overrides)
        assert _run_schedule(schedule, net, net_overrides=overrides) == elapsed

    @given(schedule=_schedule)
    @settings(max_examples=20, deadline=None)
    def test_property_smp_channels_mix_safely(self, schedule):
        """2 ranks per node: shared-memory + network channel mixing."""
        _run_schedule(schedule, "infiniband", ppn=2)

    @given(schedule=_schedule, net=st.sampled_from(
        ["infiniband", "myrinet", "quadrics"]))
    @settings(max_examples=15, deadline=None)
    def test_property_deterministic_timing(self, schedule, net):
        assert _run_schedule(schedule, net) == _run_schedule(schedule, net)

    @given(schedule=_schedule)
    @settings(max_examples=15, deadline=None)
    def test_property_options_preserve_semantics(self, schedule):
        """On-demand connections never change delivered data."""
        world_opts = {"mpi_options": {"on_demand_connections": True}}
        # reuse the runner with options via a closure over MPIWorld
        seqs = {}
        jobs = []
        for src, dst, nbytes, tag in schedule:
            key = (src, dst, tag)
            seqs[key] = seqs.get(key, 0) + 1
            jobs.append((src, dst, nbytes, tag, seqs[key]))

        def fn(comm):
            me = comm.rank
            reqs, checks = [], []
            for src, dst, nbytes, tag, seq in jobs:
                if dst == me:
                    buf = comm.alloc_array(nbytes, dtype=np.uint8)
                    r = yield from comm.irecv(buf, source=src, tag=tag)
                    reqs.append(r)
                    checks.append((buf, _checksum(src, dst, nbytes, tag, seq)))
            for src, dst, nbytes, tag, seq in jobs:
                if src == me:
                    buf = comm.alloc_array(nbytes, dtype=np.uint8)
                    buf.data[:] = _checksum(src, dst, nbytes, tag, seq)
                    s = yield from comm.isend(buf, dest=dst, tag=tag)
                    reqs.append(s)
            yield from comm.waitall(reqs)
            for buf, want in checks:
                assert buf.data[0] == want

        mpi_run(fn, nprocs=4, network="infiniband",
                mpi_options={"on_demand_connections": True})
