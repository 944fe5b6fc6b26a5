"""NPB MG — multigrid V-cycles on a 3-D decomposition.

Each V-cycle runs residual/smoothing at every level with NPB-style
``comm3`` ghost-cell exchanges: three axes, two directions each, via
sendrecv with the 3-D grid neighbours (periodic).  Face sizes shrink
with the level, which is why MG's Table 1 profile spreads across all
three sub-1M buckets.

Verify mode runs a real V(1,1) cycle for the 3-D Poisson equation with
actual ghost exchanges and checks that the residual norm contracts
every cycle.
"""

from __future__ import annotations

import math

from repro.apps.base import AppBase
from repro.apps.classes import proc_grid_3d
from repro.mpi.constants import SUM

__all__ = ["MGBench"]


class MGBench(AppBase):
    NAME = "mg"

    def setup(self, comm):
        cfg = self.cfg
        self.pgrid = proc_grid_3d(comm.size)
        px, py, pz = self.pgrid
        nx, ny, nz = cfg.size
        self.loc = (nx // px, ny // py, nz // pz)
        # level 0 = finest; coarsen while every local dim stays >= 2
        self.levels = []
        dims = self.loc
        while all(d >= 2 for d in dims) and len(self.levels) < int(cfg.params.get("nlevels", 8)):
            self.levels.append(dims)
            dims = tuple(d // 2 for d in dims)
        self.coords = self._coords(comm.rank)
        if self.verify:
            import numpy as np

            self.u = [np.zeros((d[0] + 2, d[1] + 2, d[2] + 2)) for d in self.levels]
            self.rhs = [np.zeros_like(a) for a in self.u]
            rng = np.random.default_rng(11 + comm.rank)
            self.rhs[0][1:-1, 1:-1, 1:-1] = rng.standard_normal(self.levels[0])
            self.res_history = []
        # face buffers per level per axis (send + recv)
        self.fbuf = {}
        for lvl, d in enumerate(self.levels):
            for ax in range(3):
                shape = [d[0], d[1], d[2]]
                shape[ax] = 1
                n = math.prod(shape)
                self.fbuf[(lvl, ax, "s")] = self.alloc_vec(comm, n)
                self.fbuf[(lvl, ax, "r")] = self.alloc_vec(comm, n)
        self.scal_a = self.alloc_vec(comm, 1)
        self.scal_b = self.alloc_vec(comm, 1)
        # volume-proportional work weights, normalised so one V-cycle
        # charges exactly one iteration's work
        nlev = len(self.levels)
        weights = [8.0 ** -lvl for lvl in range(nlev)]
        per_cycle = sum(weights[:-1]) + 2 * weights[-1] + sum(weights[:-1]) + weights[0] * 0.3
        self._wnorm = per_cycle
        yield from comm.barrier()

    # -- topology -------------------------------------------------------
    def _coords(self, rank):
        px, py, pz = self.pgrid
        return (rank // (py * pz), (rank // pz) % py, rank % pz)

    def _rank_of(self, cx, cy, cz):
        px, py, pz = self.pgrid
        return ((cx % px) * py + (cy % py)) * pz + (cz % pz)

    def _neighbor(self, axis, delta):
        c = list(self.coords)
        c[axis] += delta
        return self._rank_of(*c)

    # -- communication ------------------------------------------------------
    def _comm3(self, comm, lvl):
        """Ghost exchange at one level: 3 axes x 2 directions."""
        for ax in range(3):
            if self.pgrid[ax] == 1:
                if self.verify:  # periodic wrap locally
                    a = self.u[lvl]
                    sl_lo = [slice(1, -1)] * 3
                    sl_hi = [slice(1, -1)] * 3
                    g_lo = [slice(1, -1)] * 3
                    g_hi = [slice(1, -1)] * 3
                    sl_lo[ax] = 1
                    sl_hi[ax] = -2
                    g_lo[ax] = -1
                    g_hi[ax] = 0
                    a[tuple(g_lo)] = a[tuple(sl_lo)]
                    a[tuple(g_hi)] = a[tuple(sl_hi)]
                continue
            lo = self._neighbor(ax, -1)
            hi = self._neighbor(ax, +1)
            sbuf = self.fbuf[(lvl, ax, "s")]
            rbuf = self.fbuf[(lvl, ax, "r")]
            for dir_, dst, src in ((0, hi, lo), (1, lo, hi)):
                if self.verify:
                    a = self.u[lvl]
                    sl = [slice(1, -1)] * 3
                    sl[ax] = -2 if dir_ == 0 else 1
                    sbuf.data[:] = a[tuple(sl)].reshape(-1)
                yield from comm.sendrecv(sbuf, dst, 70 + ax * 2 + dir_,
                                         rbuf, src, 70 + ax * 2 + dir_)
                if self.verify:
                    a = self.u[lvl]
                    gh = [slice(1, -1)] * 3
                    gh[ax] = 0 if dir_ == 0 else -1
                    dims = list(self.levels[lvl])
                    dims[ax] = 1
                    a[tuple(gh)] = rbuf.data.reshape(dims).squeeze(axis=ax)

    # -- numerics --------------------------------------------------------
    @staticmethod
    def _laplacian(u):
        return (u[:-2, 1:-1, 1:-1] + u[2:, 1:-1, 1:-1] +
                u[1:-1, :-2, 1:-1] + u[1:-1, 2:, 1:-1] +
                u[1:-1, 1:-1, :-2] + u[1:-1, 1:-1, 2:] -
                6.0 * u[1:-1, 1:-1, 1:-1])

    def _smooth(self, comm, lvl, sweeps=1):
        for _ in range(sweeps):
            yield from self._comm3(comm, lvl)
            yield from self.work(comm, (8.0 ** -lvl) / self._wnorm)
            if self.verify:
                u, f = self.u[lvl], self.rhs[lvl]
                u[1:-1, 1:-1, 1:-1] += (self._laplacian(u) - f[1:-1, 1:-1, 1:-1]) * (1.0 / 6.0) * 0.8

    def _residual(self, lvl):
        u, f = self.u[lvl], self.rhs[lvl]
        return f[1:-1, 1:-1, 1:-1] - self._laplacian(u)

    def iteration(self, comm, it: int):
        nlev = len(self.levels)
        # downstroke: smooth (psinv), residual (resid), restrict (rprj3)
        # — each with its own ghost exchange, like the NPB routines
        for lvl in range(nlev - 1):
            yield from self._smooth(comm, lvl)
            yield from self._comm3(comm, lvl)          # resid's exchange
            if self.verify:
                r = self._residual(lvl)
                coarse = r[0::2, 0::2, 0::2]
                d = self.levels[lvl + 1]
                self.rhs[lvl + 1][1:-1, 1:-1, 1:-1] = coarse[:d[0], :d[1], :d[2]]
                self.u[lvl + 1][:] = 0.0
        # coarsest solve: a few smoothings
        yield from self._smooth(comm, nlev - 1, sweeps=2)
        # upstroke: prolongate (interp, with exchange) + smooth (psinv)
        for lvl in range(nlev - 2, -1, -1):
            yield from self._comm3(comm, lvl + 1)      # interp's exchange
            if self.verify:
                corr = self.u[lvl + 1][1:-1, 1:-1, 1:-1]
                up = corr.repeat(2, 0).repeat(2, 1).repeat(2, 2)
                d = self.levels[lvl]
                self.u[lvl][1:-1, 1:-1, 1:-1] += up[:d[0], :d[1], :d[2]]
            yield from self._smooth(comm, lvl)
        if self.verify:
            local = float((self._residual(0) ** 2).sum())
            self.scal_a.data[0] = local
            yield from comm.allreduce(self.scal_a, self.scal_b, op=SUM)
            self.res_history.append(math.sqrt(self.scal_b.data[0]))
        else:
            yield from comm.allreduce(self.scal_a, self.scal_b, op=SUM)

    def finalize(self, comm):
        if not self.verify:
            return
        hist = self.res_history
        # V-cycles must contract the residual monotonically overall
        self.verified = bool(len(hist) >= 2 and hist[-1] < hist[0] * 0.5)
        if False:  # pragma: no cover
            yield
