"""NPB IS — parallel integer (bucket) sort.

Communication per ranking iteration, as in the NPB reference code:

1. ``MPI_Allreduce`` of the bucket histogram (bucket count x int32);
2. ``MPI_Alltoall`` of per-destination key counts (one int each);
3. ``MPI_Alltoallv`` redistributing the keys themselves — at class B
   this is a ~16 MB buffer per process, the >1M-byte calls of Table 1.

IS is the paper's most bandwidth-bound benchmark: InfiniBand beats
Myrinet and Quadrics by 38 % / 28 % on it (§4.1).

Verify mode sorts real keys and checks global sortedness plus key
conservation.
"""

from __future__ import annotations

from repro.apps.base import AppBase

__all__ = ["ISBench"]


class ISBench(AppBase):
    NAME = "is"

    def setup(self, comm):
        cfg = self.cfg
        self.total_keys = cfg.size[0]
        self.nbuckets = int(cfg.params.get("buckets", 1024))
        self.local_n = self.total_keys // comm.size
        p = comm.size
        self.max_key = self.nbuckets * 64
        if self.verify:
            import numpy as np

            rng = np.random.default_rng(1234 + comm.rank)
            self.keys = comm.alloc_array(self.local_n, dtype="int32")
            self.keys.data[:] = rng.integers(0, self.max_key, self.local_n)
        else:
            self.keys = comm.alloc(self.local_n * 4)  # NPB keys are int32
        self.bucket_hist = self.alloc_vec(comm, self.nbuckets, dtype="int64")
        self.bucket_sum = self.alloc_vec(comm, self.nbuckets, dtype="int64")
        self.count_send = self.alloc_vec(comm, p, dtype="int64")
        self.count_recv = self.alloc_vec(comm, p, dtype="int64")
        # redistribution buffers sized generously (uniform keys)
        self.redist_cap = max(self.local_n * 2, 64)
        self.sendbuf = self.alloc_vec(comm, self.redist_cap, dtype="int32")
        self.recvbuf = self.alloc_vec(comm, self.redist_cap, dtype="int32")
        self.received_n = 0
        yield from comm.barrier()

    # ------------------------------------------------------------------
    def iteration(self, comm, it: int):
        from repro.mpi.constants import SUM

        p = comm.size
        yield from self.work(comm, 0.35)  # local histogramming
        if self.verify:
            import numpy as np

            hist, _ = np.histogram(self.keys.data,
                                   bins=self.nbuckets, range=(0, self.max_key))
            self.bucket_hist.data[:] = hist
        yield from comm.allreduce(self.bucket_hist, self.bucket_sum, op=SUM)

        # split buckets over processes, build per-destination key runs
        if self.verify:
            import numpy as np

            dest_of_key = (self.keys.data * p // self.max_key).astype(np.int64)
            order = np.argsort(dest_of_key, kind="stable")
            sorted_keys = self.keys.data[order]
            counts = np.bincount(dest_of_key, minlength=p).astype(np.int64)
            self.count_send.data[:] = counts
            self.sendbuf.data[:len(sorted_keys)] = sorted_keys
            sendcounts = [int(c) * 4 for c in counts]
        else:
            even = self.local_n // p
            sendcounts = [even * 4] * p
        yield from comm.alltoall(self.count_send, self.count_recv)
        if self.verify:
            recvcounts = [int(c) * 4 for c in self.count_recv.data]
        else:
            recvcounts = list(sendcounts)
        if not self.verify:
            # NPB IS allocates fresh key arrays every ranking iteration —
            # the low weighted buffer-reuse rate of Table 4
            comm.free(self.sendbuf)
            comm.free(self.recvbuf)
            self.sendbuf = comm.alloc(self.redist_cap * 4, recycle=False)
            self.recvbuf = comm.alloc(self.redist_cap * 4, recycle=False)
        yield from comm.alltoallv(self.sendbuf, sendcounts, self.recvbuf, recvcounts)
        self.received_n = sum(recvcounts) // 4
        yield from self.work(comm, 0.65)  # local ranking

    # ------------------------------------------------------------------
    def finalize(self, comm):
        from repro.mpi.constants import SUM

        if not self.verify:
            return
        import numpy as np

        # sort what we received and check global order + conservation
        mine = np.sort(self.recvbuf.data[:self.received_n].astype(np.int64))
        lo = int(mine[0]) if len(mine) else self.max_key
        hi = int(mine[-1]) if len(mine) else -1
        edge = comm.alloc_array(1, dtype="int64")
        if comm.rank < comm.size - 1:
            edge.data[0] = hi
            yield from comm.send(edge, dest=comm.rank + 1, tag=99)
        ok = bool(np.all(np.diff(mine) >= 0))
        if comm.rank > 0:
            yield from comm.recv(edge, source=comm.rank - 1, tag=99)
            left_hi = edge.data[0]
            ok = ok and (len(mine) == 0 or left_hi <= lo)
        count = comm.alloc_array(1, dtype="int64")
        total = comm.alloc_array(1, dtype="int64")
        count.data[0] = self.received_n
        yield from comm.allreduce(count, total, op=SUM)
        ok = ok and (total.data[0] == self.total_keys)
        self.verified = ok
