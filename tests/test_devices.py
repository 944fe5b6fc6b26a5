"""Device-level protocol behaviour tests (MVAPICH / MPICH-GM / Tports)."""

import numpy as np
import pytest

from repro.mpi import mpi_run
from repro.mpi.world import MPIWorld


def _roundtrip(network, nbytes, **world_kw):
    """One blocking exchange; returns the world for inspection."""
    def fn(comm):
        buf = comm.alloc_array(nbytes, dtype=np.uint8)
        if comm.rank == 0:
            buf.data[:] = 9
            yield from comm.send(buf, dest=1, tag=0)
            yield from comm.recv(buf, source=1, tag=1)
        else:
            yield from comm.recv(buf, source=0, tag=0)
            assert buf.data[0] == 9
            yield from comm.send(buf, dest=0, tag=1)

    world = MPIWorld(2, network=network, record=False, **world_kw)
    world.run(fn)
    return world


class TestMvapichProtocol:
    def test_eager_skips_registration(self):
        world = _roundtrip("infiniband", 1024)
        cache = world.fabric.pin_caches[0]
        assert cache.misses == 0  # eager copies through the preregistered ring

    def test_rendezvous_registers_both_sides(self):
        world = _roundtrip("infiniband", 64 * 1024)
        # each node's HCA pins the send and recv user buffers
        assert world.fabric.pin_caches[0].misses >= 1
        assert world.fabric.pin_caches[1].misses >= 1

    def test_send_cq_is_retired(self):
        """CQEs from rendezvous RDMA writes must not accumulate."""
        def fn(comm):
            buf = comm.alloc(64 * 1024)
            for i in range(10):
                if comm.rank == 0:
                    yield from comm.send(buf, dest=1, tag=i)
                else:
                    yield from comm.recv(buf, source=0, tag=i)

        world = MPIWorld(2, network="infiniband", record=False)
        world.run(fn)
        assert len(world.devices[0].vapi.send_cq) < 10

    def test_static_connections_all_to_all(self):
        world = MPIWorld(5, network="infiniband", record=False)
        for dev in world.devices.values():
            assert dev.vapi.nconnections == 4

    def test_rendezvous_to_self_completes(self):
        def fn(comm):
            sbuf = comm.alloc_array(32 * 1024, dtype=np.uint8)
            sbuf.data[:] = 5
            rbuf = comm.alloc_array(32 * 1024, dtype=np.uint8)
            r = yield from comm.irecv(rbuf, source=comm.rank, tag=0)
            s = yield from comm.isend(sbuf, dest=comm.rank, tag=0)
            yield from comm.waitall([r, s])
            assert (rbuf.data == 5).all()

        mpi_run(fn, nprocs=1, network="infiniband")


class TestGmProtocol:
    def test_receive_buffers_replenished(self):
        def fn(comm):
            buf = comm.alloc(256)
            for i in range(50):
                if comm.rank == 0:
                    yield from comm.send(buf, dest=1, tag=i)
                else:
                    yield from comm.recv(buf, source=0, tag=i)

        world = MPIWorld(2, network="myrinet", record=False)
        world.run(fn)
        gm1 = world.fabric.gm(1)
        # the pool returns to its initial provisioning level
        from repro.mpi.devices.mpich_gm import GmChannel
        top = gm1.size_class(GmChannel.EAGER_LIMIT)
        expected = GmChannel.PROVIDED_PER_CLASS * (top - 4)
        assert gm1.provided_count == expected

    def test_no_registration_below_16k(self):
        world = _roundtrip("myrinet", 8 * 1024)
        assert world.fabric.pin_caches[0].misses == 0

    def test_directed_send_registers_past_16k(self):
        world = _roundtrip("myrinet", 64 * 1024)
        assert world.fabric.pin_caches[0].misses >= 1

    def test_send_tokens_respected_under_flood(self):
        def fn(comm):
            if comm.rank == 0:
                bufs = [comm.alloc(64) for _ in range(100)]
                reqs = []
                for i, b in enumerate(bufs):
                    r = yield from comm.isend(b, dest=1, tag=0)
                    reqs.append(r)
                yield from comm.waitall(reqs)
            else:
                buf = comm.alloc(64)
                for _ in range(100):
                    yield from comm.recv(buf, source=0, tag=0)

        world = MPIWorld(2, network="myrinet", record=False)
        world.run(fn)  # must not raise GmTokenError
        assert world.fabric.gm(0)._inflight_sends == 0


class TestTportsProtocol:
    def test_tx_queue_blocks_seventeenth_send(self):
        """isend number 17 waits for a transmit slot (Fig. 2's knee)."""
        def fn(comm):
            # rendezvous-sized: a tx slot stays occupied until the
            # receiver's CTS lets the data flow
            if comm.rank == 0:
                bufs = [comm.alloc(8192) for _ in range(24)]
                stamps = []
                reqs = []
                for b in bufs:
                    t0 = comm.sim.now
                    r = yield from comm.isend(b, dest=1, tag=0)
                    stamps.append(comm.sim.now - t0)
                    reqs.append(r)
                yield from comm.waitall(reqs)
                return stamps
            buf = comm.alloc(8192)
            yield comm.cpu.compute(2000.0)  # let the tx queue fill
            for _ in range(24):
                yield from comm.recv(buf, source=0, tag=0)

        res = mpi_run(fn, nprocs=2, network="quadrics")
        stamps = res.returns[0]
        # the first 16 posts cost only the library call + MMU faults;
        # the 17th stalls until the sleeping receiver frees a slot, and
        # every later post waits for one more slot to drain
        assert max(stamps[:16]) < 50.0
        assert stamps[16] > 500.0
        assert min(stamps[17:]) > max(stamps[:16])

    def test_nic_completes_without_host(self):
        """A rendezvous completes while BOTH hosts compute."""
        def fn(comm):
            big = 256 * 1024
            if comm.rank == 0:
                buf = comm.alloc(big)
                req = yield from comm.isend(buf, dest=1, tag=0)
                yield comm.cpu.compute(100_000.0)
                assert req.completed  # NIC finished it during compute
                yield from comm.waitall([req])
            else:
                buf = comm.alloc(big)
                req = yield from comm.irecv(buf, source=0, tag=0)
                yield comm.cpu.compute(100_000.0)
                assert req.completed
                yield from comm.waitall([req])

        mpi_run(fn, nprocs=2, network="quadrics")

    def test_host_driven_stacks_stall_instead(self, ):
        """The same experiment on InfiniBand: the rendezvous cannot
        finish while both hosts compute (host-driven progress)."""
        def fn(comm):
            big = 256 * 1024
            if comm.rank == 0:
                buf = comm.alloc(big)
                req = yield from comm.isend(buf, dest=1, tag=0)
                yield comm.cpu.compute(100_000.0)
                assert not req.completed
                yield from comm.waitall([req])
            else:
                buf = comm.alloc(big)
                req = yield from comm.irecv(buf, source=0, tag=0)
                yield comm.cpu.compute(100_000.0)
                yield from comm.waitall([req])

        mpi_run(fn, nprocs=2, network="infiniband")

    def test_elan_tlb_hits_after_first_use(self):
        world = _roundtrip("quadrics", 8 * 1024)
        tlb = world.fabric.tlbs[0]
        first_misses = tlb.misses
        assert first_misses >= 1
        world2 = _roundtrip("quadrics", 8 * 1024)
        # within one run, repeated use of the same buffer hits
        assert world2.fabric.tlbs[0].hits >= 1


class TestHostOverheadAccounting:
    @pytest.mark.parametrize("network,lo,hi", [
        ("infiniband", 1.2, 2.3), ("myrinet", 0.5, 1.4), ("quadrics", 2.6, 4.0),
    ])
    def test_fig3_band(self, network, lo, hi):
        from repro.microbench import measure_host_overhead

        ovh = measure_host_overhead(network, sizes=(4,), iters=20).at(4)
        assert lo < ovh < hi

    def test_compute_not_counted_as_comm(self, network):
        def fn(comm):
            yield comm.cpu.compute(500.0)
            buf = comm.alloc(8)
            if comm.rank == 0:
                yield from comm.send(buf, dest=1, tag=0)
            else:
                yield from comm.recv(buf, source=0, tag=0)

        world = MPIWorld(2, network=network, record=False)
        world.run(fn)
        cpu = world.comms[0].cpu
        assert cpu.compute_time_us == pytest.approx(500.0)
        assert 0 < cpu.comm_time_us < 50.0
