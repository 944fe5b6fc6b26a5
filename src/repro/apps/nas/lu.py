"""NPB LU — SSOR with 2-D pencil decomposition and wavefront pipelining.

The domain is decomposed in i-j pencils; each SSOR iteration makes a
lower-triangular sweep (dependencies on i-1, j-1: planes pipeline from
the north-west corner) and an upper-triangular sweep (reverse), with a
tiny ghost-strip exchange per k-plane per direction — LU's ~100 000
sub-2KB messages in Table 1.  Each iteration ends with full face
exchanges and a residual reduction (the 16K-1M entries).

LU is the paper's latency-bound benchmark: with mostly small messages,
the three interconnects come out nearly even (§4.1).

Verify mode runs a real scalar SSOR (Gauss-Seidel sweeps) for the 3-D
Poisson equation and checks the residual norm contracts.
"""

from __future__ import annotations

import math

from repro.apps.base import AppBase
from repro.apps.classes import proc_grid_2d
from repro.mpi.constants import SUM

__all__ = ["LUBench"]

#: NPB LU carries 5 solution components; the scalar verify kernel sends
#: 1 component, paper mode sends the real 5-component strip sizes.
NCOMP = 5


class LUBench(AppBase):
    NAME = "lu"

    def setup(self, comm):
        nx, ny, nz = self.cfg.size
        self.pi, self.pj = proc_grid_2d(comm.size)
        self.ci, self.cj = divmod(comm.rank, self.pj)
        self.nx_loc = nx // self.pi
        self.ny_loc = ny // self.pj
        self.nz = nz
        comps = 1 if self.verify else NCOMP
        # wavefront strips: one row/column of a k-plane
        self.s_ns = self.alloc_vec(comm, self.ny_loc * comps)
        self.r_ns = self.alloc_vec(comm, self.ny_loc * comps)
        self.s_ew = self.alloc_vec(comm, self.nx_loc * comps)
        self.r_ew = self.alloc_vec(comm, self.nx_loc * comps)
        # full-face exchange buffers (rhs stage)
        self.face_ns = self.alloc_vec(comm, self.ny_loc * self.nz * comps)
        self.face_ns_r = self.alloc_vec(comm, self.ny_loc * self.nz * comps)
        self.face_ew = self.alloc_vec(comm, self.nx_loc * self.nz * comps)
        self.face_ew_r = self.alloc_vec(comm, self.nx_loc * self.nz * comps)
        self.scal_a = self.alloc_vec(comm, 1)
        self.scal_b = self.alloc_vec(comm, 1)
        if self.verify:
            import numpy as np

            rng = np.random.default_rng(5 + comm.rank)
            self.u = np.zeros((self.nx_loc + 2, self.ny_loc + 2, self.nz + 2))
            self.f = np.zeros_like(self.u)
            self.f[1:-1, 1:-1, 1:-1] = rng.standard_normal(
                (self.nx_loc, self.ny_loc, self.nz))
            self.res_history = []
        yield from comm.barrier()

    # -- neighbours -------------------------------------------------------
    def _rank(self, ci, cj):
        return ci * self.pj + cj

    @property
    def north(self):
        return self._rank(self.ci - 1, self.cj) if self.ci > 0 else -1

    @property
    def south(self):
        return self._rank(self.ci + 1, self.cj) if self.ci < self.pi - 1 else -1

    @property
    def west(self):
        return self._rank(self.ci, self.cj - 1) if self.cj > 0 else -1

    @property
    def east(self):
        return self._rank(self.ci, self.cj + 1) if self.cj < self.pj - 1 else -1

    # -- wavefront sweeps -----------------------------------------------------
    def _plane_lower(self, k):
        """Gauss-Seidel update of plane k using updated i-1/j-1/k-1."""
        u, f = self.u, self.f
        for i in range(1, self.nx_loc + 1):
            for j in range(1, self.ny_loc + 1):
                u[i, j, k] = (u[i - 1, j, k] + u[i + 1, j, k] +
                              u[i, j - 1, k] + u[i, j + 1, k] +
                              u[i, j, k - 1] + u[i, j, k + 1] -
                              f[i, j, k]) / 6.0

    def _sweep(self, comm, lower: bool):
        """One triangular sweep, pipelined over k-planes."""
        ks = range(1, self.nz + 1) if lower else range(self.nz, 0, -1)
        recv_i = self.north if lower else self.south
        recv_j = self.west if lower else self.east
        send_i = self.south if lower else self.north
        send_j = self.east if lower else self.west
        gi = 0 if lower else self.nx_loc + 1
        gj = 0 if lower else self.ny_loc + 1
        si = self.nx_loc if lower else 1
        sj = self.ny_loc if lower else 1
        for k in ks:
            if recv_i >= 0:
                yield from comm.recv(self.r_ns, source=recv_i, tag=1000 + k)
                if self.verify:
                    self.u[gi, 1:-1, k] = self.r_ns.data
            if recv_j >= 0:
                yield from comm.recv(self.r_ew, source=recv_j, tag=2000 + k)
                if self.verify:
                    self.u[1:-1, gj, k] = self.r_ew.data
            yield from self.work(comm, 0.42 / self.nz)
            if self.verify:
                self._plane_lower(k)  # symmetric stencil: same update
            if send_i >= 0:
                if self.verify:
                    self.s_ns.data[:] = self.u[si, 1:-1, k]
                yield from comm.send(self.s_ns, dest=send_i, tag=1000 + k)
            if send_j >= 0:
                if self.verify:
                    self.s_ew.data[:] = self.u[1:-1, sj, k]
                yield from comm.send(self.s_ew, dest=send_j, tag=2000 + k)

    # -- full face exchange + residual (the rhs stage) -----------------------
    def _exchange_faces(self, comm):
        pairs = [
            (self.north, self.south, self.face_ns, self.face_ns_r, "i"),
            (self.west, self.east, self.face_ew, self.face_ew_r, "j"),
        ]
        for lo, hi, sbuf, rbuf, axis in pairs:
            for dst, src, pick, ghost in ((hi, lo, "hi", "lo"), (lo, hi, "lo", "hi")):
                if self.verify:
                    idx = (self.nx_loc if pick == "hi" else 1) if axis == "i" else \
                          (self.ny_loc if pick == "hi" else 1)
                    if axis == "i":
                        sbuf.data[:] = self.u[idx, 1:-1, 1:-1].reshape(-1)
                    else:
                        sbuf.data[:] = self.u[1:-1, idx, 1:-1].reshape(-1)
                reqs = []
                if src >= 0:
                    r = yield from comm.irecv(rbuf, source=src, tag=3000)
                    reqs.append(r)
                if dst >= 0:
                    s = yield from comm.isend(sbuf, dest=dst, tag=3000)
                    reqs.append(s)
                if reqs:
                    yield from comm.waitall(reqs)
                if self.verify and src >= 0:
                    gidx = (0 if ghost == "lo" else self.nx_loc + 1) if axis == "i" else \
                           (0 if ghost == "lo" else self.ny_loc + 1)
                    if axis == "i":
                        self.u[gidx, 1:-1, 1:-1] = rbuf.data.reshape(self.ny_loc, self.nz)
                    else:
                        self.u[1:-1, gidx, 1:-1] = rbuf.data.reshape(self.nx_loc, self.nz)

    def _residual_norm(self, comm):
        if self.verify:
            u, f = self.u, self.f
            lap = (u[:-2, 1:-1, 1:-1] + u[2:, 1:-1, 1:-1] +
                   u[1:-1, :-2, 1:-1] + u[1:-1, 2:, 1:-1] +
                   u[1:-1, 1:-1, :-2] + u[1:-1, 1:-1, 2:] -
                   6.0 * u[1:-1, 1:-1, 1:-1])
            r = f[1:-1, 1:-1, 1:-1] - lap
            self.scal_a.data[0] = float((r * r).sum())
        yield from comm.allreduce(self.scal_a, self.scal_b, op=SUM)
        if self.verify:
            return math.sqrt(self.scal_b.data[0])
        return 0.0

    # -- iteration ------------------------------------------------------------
    def iteration(self, comm, it: int):
        yield from self._sweep(comm, lower=True)
        yield from self._sweep(comm, lower=False)
        yield from self.work(comm, 0.16)
        yield from self._exchange_faces(comm)
        res = yield from self._residual_norm(comm)
        if self.verify:
            self.res_history.append(res)

    def finalize(self, comm):
        if not self.verify:
            return
        hist = self.res_history
        self.verified = bool(len(hist) >= 2 and hist[-1] < hist[0] * 0.7
                             and all(b <= a * 1.0001 for a, b in zip(hist, hist[1:])))
        if False:  # pragma: no cover
            yield
