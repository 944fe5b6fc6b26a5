#!/usr/bin/env python
"""Quickstart: write an MPI program, run it on three simulated fabrics.

Rank functions are generator coroutines over a communicator; every MPI
call is invoked with ``yield from``.  This example measures a ping-pong
and a windowed bandwidth stream on InfiniBand, Myrinet and Quadrics —
the building blocks of the paper's Figures 1 and 2.

Run:  python examples/quickstart.py
"""

from repro.mpi import mpi_run


def pingpong(comm, nbytes=8, iters=50):
    """Classic latency test; rank 0 returns the one-way latency in us."""
    buf = comm.alloc_array(nbytes, dtype="uint8")
    t0 = comm.sim.now
    for i in range(iters):
        if comm.rank == 0:
            buf.data[:] = i % 251          # real payload, really delivered
            yield from comm.send(buf, dest=1, tag=0)
            yield from comm.recv(buf, source=1, tag=1)
        else:
            yield from comm.recv(buf, source=0, tag=0)
            assert buf.data[0] == i % 251
            yield from comm.send(buf, dest=0, tag=1)
    if comm.rank == 0:
        return (comm.sim.now - t0) / (2 * iters)


def stream(comm, nbytes=1 << 20, window=16, rounds=32):
    """Windowed non-blocking stream; rank 0 returns MB/s."""
    bufs = [comm.alloc(nbytes) for _ in range(window)]
    ack = comm.alloc(4)
    t0 = comm.sim.now
    for _ in range(rounds):
        reqs = []
        for b in bufs:
            if comm.rank == 0:
                r = yield from comm.isend(b, dest=1, tag=0)
            else:
                r = yield from comm.irecv(b, source=0, tag=0)
            reqs.append(r)
        yield from comm.waitall(reqs)
    if comm.rank == 0:
        yield from comm.recv(ack, source=1, tag=9)
        elapsed = comm.sim.now - t0
        return rounds * window * nbytes / elapsed * 1e6 / 2**20
    yield from comm.send(ack, dest=0, tag=9)


def main():
    print(f"{'network':<12} {'latency (8B)':>14} {'bandwidth (1MB)':>17}")
    print("-" * 45)
    for net in ("infiniband", "myrinet", "quadrics"):
        lat = mpi_run(pingpong, nprocs=2, network=net).returns[0]
        bw = mpi_run(stream, nprocs=2, network=net).returns[0]
        print(f"{net:<12} {lat:>11.2f} us {bw:>12.0f} MB/s")
    print("\npaper (Figs. 1-2): IBA 6.8us/841MB/s, Myri 6.7us/235MB/s, "
          "QSN 4.6us/308MB/s")


if __name__ == "__main__":
    main()
