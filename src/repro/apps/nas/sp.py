"""NPB SP — ADI pseudo-spectral solver on a square process grid.

SP (and BT, which shares this machinery) run on square process counts;
the paper therefore shows them on 4 nodes.  Each iteration performs
line solves in all three dimensions; distributed lines use *pipelined
Thomas elimination*: forward-substitution boundary coefficients flow
down the process line, solved values flow back — all via non-blocking
isend/irecv of large faces.  This is exactly the Table 3 signature the
paper highlights: thousands of Isend/Irecv calls averaging ~260-290 KB,
which is why Quadrics' NIC-progressed rendezvous makes it unusually
competitive on SP/BT (§4.3).

Verify mode solves real tridiagonal systems ``(1 + 2θ)x_i - θ(x_{i-1} +
x_{i+1}) = f_i`` along x and y across rank boundaries and checks the
residual row-by-row (using the neighbour values exchanged by the
pipeline); the z lines are rank-local and checked directly.
"""

from __future__ import annotations

import math

from repro.apps.base import AppBase

__all__ = ["SPBench"]

THETA = 0.35


class SPBench(AppBase):
    NAME = "sp"
    #: doubles exchanged per face point (solution + LHS coefficients);
    #: calibrated to Table 3's average message sizes (SP: ~264 KB)
    FACE_DOUBLES = 6.3
    #: work split across the iteration phases
    W_RHS = 0.25
    W_DIM = 0.25

    def setup(self, comm):
        q = int(round(math.sqrt(comm.size)))
        if q * q != comm.size:
            raise ValueError(f"{self.NAME.upper()} needs a square process count")
        self.q = q
        nx, ny, nz = self.cfg.size
        self.nx_loc, self.ny_loc, self.nz = nx // q, ny // q, nz
        self.ci, self.cj = divmod(comm.rank, q)

        def face(n_points):
            n = int(n_points * (2 if self.verify else self.FACE_DOUBLES))
            return self.alloc_vec(comm, max(n, 2))

        # x-pipeline (across ci): lines = ny_loc * nz
        self.x_lines = self.ny_loc * self.nz
        self.xf_s, self.xf_r = face(self.x_lines), face(self.x_lines)
        self.xb_s, self.xb_r = face(self.x_lines), face(self.x_lines)
        # y-pipeline (across cj): lines = nx_loc * nz
        self.y_lines = self.nx_loc * self.nz
        self.yf_s, self.yf_r = face(self.y_lines), face(self.y_lines)
        self.yb_s, self.yb_r = face(self.y_lines), face(self.y_lines)
        # z multipartition handoffs (across ci), same sizes as x faces
        self.zf_s, self.zf_r = face(self.x_lines), face(self.x_lines)
        self.zb_s, self.zb_r = face(self.x_lines), face(self.x_lines)
        # companion LHS-coefficient message buffers
        self.aux_s, self.aux_r = face(self.x_lines), face(self.x_lines)
        if self.verify:
            import numpy as np

            rng = np.random.default_rng(17 + comm.rank)
            self.rhs = rng.standard_normal((self.nx_loc, self.ny_loc, self.nz))
            self.ok = True
        yield from comm.barrier()

    # -- process line neighbours ------------------------------------------
    def _rank(self, ci, cj):
        return ci * self.q + cj

    def _line_neighbors(self, axis):
        """(pred, succ, my position, line count) for a pipelined dim."""
        if axis in ("x", "z"):  # pipelined across ci
            pos = self.ci
            pred = self._rank(self.ci - 1, self.cj) if self.ci > 0 else -1
            succ = self._rank(self.ci + 1, self.cj) if self.ci < self.q - 1 else -1
        else:  # y: across cj
            pos = self.cj
            pred = self._rank(self.ci, self.cj - 1) if self.cj > 0 else -1
            succ = self._rank(self.ci, self.cj + 1) if self.cj < self.q - 1 else -1
        return pred, succ, pos

    # -- pipelined Thomas solve ----------------------------------------------
    def _solve_dim(self, comm, axis, tag0):
        """Forward + backward substitution pipeline for one dimension."""
        pred, succ, _pos = self._line_neighbors(axis)
        fs, fr, bs, br = {
            "x": (self.xf_s, self.xf_r, self.xb_s, self.xb_r),
            "y": (self.yf_s, self.yf_r, self.yb_s, self.yb_r),
            "z": (self.zf_s, self.zf_r, self.zb_s, self.zb_r),
        }[axis]
        verify_xy = self.verify and axis in ("x", "y")

        if verify_xy:
            import numpy as np

            d, m, nlines = self._lines_of(axis)
            a = c = -THETA
            b = 1.0 + 2.0 * THETA
            cp = np.zeros((nlines, m))
            dp = np.zeros((nlines, m))

        # ---- forward elimination (boundary coefficients flow down) ----
        # NPB exchanges LHS coefficients and RHS in separate messages,
        # hence two isend/irecv pairs per pipeline phase (Table 3).
        if pred >= 0:
            r1 = yield from comm.irecv(fr, source=pred, tag=tag0)
            r2 = yield from comm.irecv(self.aux_r, source=pred, tag=tag0 + 2)
            yield from comm.waitall([r1, r2])
        yield from self.work(comm, self.W_DIM / 2)
        if verify_xy:
            import numpy as np

            if pred >= 0:
                cp_in = fr.data[:nlines]
                dp_in = fr.data[nlines:2 * nlines]
            else:
                cp_in = np.zeros(nlines)
                dp_in = np.zeros(nlines)
            prev_cp, prev_dp = cp_in, dp_in
            first = pred < 0
            for i in range(m):
                ai = 0.0 if (first and i == 0) else a
                denom = b - ai * prev_cp
                cp[:, i] = c / denom
                dp[:, i] = (d[:, i] - ai * prev_dp) / denom
                prev_cp, prev_dp = cp[:, i], dp[:, i]
            fs.data[:nlines] = cp[:, -1]
            fs.data[nlines:2 * nlines] = dp[:, -1]
        if succ >= 0:
            s1 = yield from comm.isend(fs, dest=succ, tag=tag0)
            s2 = yield from comm.isend(self.aux_s, dest=succ, tag=tag0 + 2)
            yield from comm.waitall([s1, s2])

        # ---- backward substitution (solved values flow back up) -------
        if succ >= 0:
            r1 = yield from comm.irecv(br, source=succ, tag=tag0 + 1)
            r2 = yield from comm.irecv(self.aux_r, source=succ, tag=tag0 + 3)
            yield from comm.waitall([r1, r2])
        yield from self.work(comm, self.W_DIM / 2)
        x_next = None
        if verify_xy:
            import numpy as np

            x = np.zeros((nlines, m))
            if succ >= 0:
                x_next = br.data[:nlines].copy()
                x[:, -1] = dp[:, -1] - cp[:, -1] * x_next
            else:
                x[:, -1] = dp[:, -1]
            for i in range(m - 2, -1, -1):
                x[:, i] = dp[:, i] - cp[:, i] * x[:, i + 1]
            bs.data[:nlines] = x[:, 0]
            self._check_lines(axis, d, x, x_next, last=succ < 0, first=pred < 0)
        if pred >= 0:
            s1 = yield from comm.isend(bs, dest=pred, tag=tag0 + 1)
            s2 = yield from comm.isend(self.aux_s, dest=pred, tag=tag0 + 3)
            yield from comm.waitall([s1, s2])

    def _lines_of(self, axis):
        """(rhs lines, local segment length, line count) for x or y."""
        import numpy as np

        if axis == "x":
            m = self.nx_loc
            d = np.transpose(self.rhs, (1, 2, 0)).reshape(-1, m).copy()
            return d, m, self.x_lines
        m = self.ny_loc
        d = np.transpose(self.rhs, (0, 2, 1)).reshape(-1, m).copy()
        return d, m, self.y_lines

    def _check_lines(self, axis, d, x, x_next, last, first):
        """Residual check of the distributed tridiagonal solve."""
        import numpy as np

        m = x.shape[1]
        a = c = -THETA
        b = 1.0 + 2.0 * THETA
        # interior rows of the local segment
        if m > 2:
            res = b * x[:, 1:-1] + a * x[:, :-2] + c * x[:, 2:] - d[:, 1:-1]
            self.ok = self.ok and bool(np.abs(res).max() < 1e-9)
        # last local row, using the successor's first value
        if last:
            res = b * x[:, -1] + a * x[:, -2] - d[:, -1]
        elif x_next is not None:
            res = b * x[:, -1] + a * x[:, -2] + c * x_next - d[:, -1]
        else:  # pragma: no cover
            res = np.zeros(1)
        self.ok = self.ok and bool(np.abs(res).max() < 1e-9)

    def _solve_z_local(self, comm):
        """z lines are rank-local; solve directly and check."""
        yield from self.work(comm, self.W_DIM / 2)
        if self.verify:
            import numpy as np

            m = self.nz
            d = self.rhs.reshape(-1, m)
            # Thomas solve, vectorized over lines
            dp = np.zeros((d.shape[0], m))
            cps = []
            cp_prev, dp_prev = 0.0, np.zeros(d.shape[0])
            for i in range(m):
                ai = 0.0 if i == 0 else -THETA
                denom = (1 + 2 * THETA) - ai * cp_prev
                cp_i = -THETA / denom
                dp[:, i] = (d[:, i] - ai * dp_prev) / denom
                cps.append(cp_i)
                cp_prev, dp_prev = cp_i, dp[:, i]
            x = np.zeros_like(dp)
            x[:, -1] = dp[:, -1]
            for i in range(m - 2, -1, -1):
                x[:, i] = dp[:, i] - cps[i] * x[:, i + 1]
            res = ((1 + 2 * THETA) * x[:, 1:-1] - THETA * x[:, :-2]
                   - THETA * x[:, 2:] - d[:, 1:-1])
            self.ok = self.ok and bool(np.abs(res).max() < 1e-9)
        yield from self.work(comm, self.W_DIM / 2)

    # -- iteration --------------------------------------------------------
    def iteration(self, comm, it: int):
        yield from self.work(comm, self.W_RHS)
        yield from self._solve_dim(comm, "x", tag0=4000)
        yield from self._solve_dim(comm, "y", tag0=4100)
        # z: multipartition cell handoffs + rank-local line solves
        if self.q > 1:
            yield from self._z_handoff(comm)
        yield from self._solve_z_local(comm)

    def _z_handoff(self, comm):
        """Multipartition z-stage exchanges (contents not verified)."""
        pred, succ, _ = self._line_neighbors("z")
        for tag, (dst, src, sb, rb) in enumerate((
                (succ, pred, self.zf_s, self.zf_r),
                (pred, succ, self.zb_s, self.zb_r))):
            reqs = []
            if src >= 0:
                r1 = yield from comm.irecv(rb, source=src, tag=4300 + tag)
                r2 = yield from comm.irecv(self.aux_r, source=src, tag=4310 + tag)
                reqs += [r1, r2]
            if dst >= 0:
                s1 = yield from comm.isend(sb, dest=dst, tag=4300 + tag)
                s2 = yield from comm.isend(self.aux_s, dest=dst, tag=4310 + tag)
                reqs += [s1, s2]
            if reqs:
                yield from comm.waitall(reqs)

    def finalize(self, comm):
        if self.verify:
            self.verified = bool(self.ok)
        if False:  # pragma: no cover
            yield
