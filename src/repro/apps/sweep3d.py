"""Sweep3D — the ASCI discrete-ordinates wavefront benchmark (§4).

The 3-D grid is decomposed over a 2-D ``npe_i x npe_j`` process grid;
k stays local.  For each of 8 octants, pipelined wavefronts traverse
the process grid diagonally: a rank receives the inflow faces for one
(k-block, angle-block) from its upstream i- and j-neighbours, sweeps
the block, and forwards the outflow faces downstream.  The paper runs
problem sizes 50^3 (i-faces ~1.2 KB: all messages under 2 KB) and 150^3
(i-faces 3.6 KB / j-faces 1.8 KB — Table 1's 28836/28800 split).

Verify mode sweeps real diamond-difference fluxes and compares the
accumulated scalar flux against a serial re-computation of the whole
grid on rank 0.
"""

from __future__ import annotations

from repro.apps.base import AppBase

__all__ = ["Sweep3DBench", "sweep_grid", "serial_sweep"]

#: fixed angular quadrature (6 angles)
MU = (0.23, 0.45, 0.65, 0.80, 0.92, 0.98)
ETA = (0.95, 0.85, 0.70, 0.55, 0.35, 0.15)
XI = (0.20, 0.27, 0.30, 0.25, 0.17, 0.10)
SIGMA = 1.0
SOURCE = 1.0

#: the 8 octants as (di, dj, dk) sweep directions
OCTANTS = [(di, dj, dk) for di in (1, -1) for dj in (1, -1) for dk in (1, -1)]


def sweep_grid(nprocs: int):
    """npe_i x npe_j process grid (npe_i >= npe_j, powers of two)."""
    import math

    lg = int(math.log2(nprocs))
    if 2 ** lg != nprocs:
        raise ValueError("sweep3d needs a power-of-two process count")
    npe_i = 2 ** ((lg + 1) // 2)
    npe_j = 2 ** (lg // 2)
    return npe_i, npe_j


class Sweep3DBench(AppBase):
    NAME = "sweep3d"

    def setup(self, comm):
        it, jt, kt = self.cfg.size
        self.npe_i, self.npe_j = sweep_grid(comm.size)
        self.ci, self.cj = divmod(comm.rank, self.npe_j)
        self.it_loc = it // self.npe_i
        self.jt_loc = jt // self.npe_j
        self.kt = kt
        self.mk = int(self.cfg.params.get("mk", 2))
        self.mmi = int(self.cfg.params.get("mmi", 3))
        self.nang = len(MU)
        self.kblocks = [(k, min(k + self.mk, kt)) for k in range(0, kt, self.mk)]
        self.ablocks = [(a, min(a + self.mmi, self.nang))
                        for a in range(0, self.nang, self.mmi)]
        fi = self.jt_loc * self.mk * self.mmi
        fj = self.it_loc * self.mk * self.mmi
        self.buf_i_s = self.alloc_vec(comm, fi)
        self.buf_i_r = self.alloc_vec(comm, fi)
        self.buf_j_s = self.alloc_vec(comm, fj)
        self.buf_j_r = self.alloc_vec(comm, fj)
        if self.verify:
            import numpy as np

            self.phi = np.zeros((self.it_loc, self.jt_loc, self.kt))
        yield from comm.barrier()

    def _rank(self, ci, cj):
        return ci * self.npe_j + cj

    # ------------------------------------------------------------------
    def iteration(self, comm, itn: int):
        total_blocks = len(self.kblocks) * len(self.ablocks) * len(OCTANTS)
        for di, dj, dk in OCTANTS:
            up_i = self.ci - di
            dn_i = self.ci + di
            up_j = self.cj - dj
            dn_j = self.cj + dj
            recv_i = self._rank(up_i, self.cj) if 0 <= up_i < self.npe_i else -1
            send_i = self._rank(dn_i, self.cj) if 0 <= dn_i < self.npe_i else -1
            recv_j = self._rank(self.ci, up_j) if 0 <= up_j < self.npe_j else -1
            send_j = self._rank(self.ci, dn_j) if 0 <= dn_j < self.npe_j else -1
            irange = range(self.it_loc) if di > 0 else range(self.it_loc - 1, -1, -1)
            jrange = range(self.jt_loc) if dj > 0 else range(self.jt_loc - 1, -1, -1)
            kbs = self.kblocks if dk > 0 else list(reversed(self.kblocks))
            for a0, a1 in self.ablocks:
                ma = a1 - a0
                inflow_k = None
                if self.verify:
                    import numpy as np

                    inflow_k = np.zeros((self.it_loc, self.jt_loc, ma))
                for k0, k1 in kbs:
                    kb = k1 - k0
                    if recv_i >= 0:
                        yield from comm.recv(self.buf_i_r, source=recv_i, tag=5000)
                    if recv_j >= 0:
                        yield from comm.recv(self.buf_j_r, source=recv_j, tag=6000)
                    yield from self.work(comm, 1.0 / total_blocks)
                    if self.verify:
                        inflow_k = self._sweep_block(
                            di, dj, dk, a0, a1, k0, k1, kb, ma,
                            irange, jrange, recv_i >= 0, recv_j >= 0, inflow_k)
                    if send_i >= 0:
                        yield from comm.send(self.buf_i_s, dest=send_i, tag=5000)
                    if send_j >= 0:
                        yield from comm.send(self.buf_j_s, dest=send_j, tag=6000)

    # -- real numerics -----------------------------------------------------
    def _sweep_block(self, di, dj, dk, a0, a1, k0, k1, kb, ma,
                     irange, jrange, have_i, have_j, inflow_k):
        import numpy as np

        mu, eta, xi = (np.array(q[a0:a1]) for q in (MU, ETA, XI))
        # inflow faces for this block
        fi = (self.buf_i_r.data[:self.jt_loc * kb * ma]
              .reshape(self.jt_loc, kb, ma).copy()
              if have_i else np.zeros((self.jt_loc, kb, ma)))
        fj = (self.buf_j_r.data[:self.it_loc * kb * ma]
              .reshape(self.it_loc, kb, ma).copy()
              if have_j else np.zeros((self.it_loc, kb, ma)))
        ks = range(k0, k1) if dk > 0 else range(k1 - 1, k0 - 1, -1)
        denom = SIGMA + mu + eta + xi
        for i in irange:
            for j in jrange:
                kin = inflow_k[i, j]
                for idx, k in enumerate(ks):
                    kslot = k - k0
                    cell = (SOURCE + mu * fi[j, kslot] + eta * fj[i, kslot]
                            + xi * kin) / denom
                    fi[j, kslot] = 2.0 * cell - fi[j, kslot]
                    fj[i, kslot] = 2.0 * cell - fj[i, kslot]
                    kin = 2.0 * cell - kin
                    self.phi[i, j, k] += cell.sum()
                inflow_k[i, j] = kin
        self.buf_i_s.data[:fi.size] = fi.reshape(-1)
        self.buf_j_s.data[:fj.size] = fj.reshape(-1)
        return inflow_k

    # -- verification --------------------------------------------------------
    def finalize(self, comm):
        if not self.verify:
            return
        import numpy as np

        send = comm.alloc_array(self.phi.size, dtype="float64")
        send.data[:] = self.phi.reshape(-1)
        gath = comm.alloc_array(self.phi.size * comm.size, dtype="float64") \
            if comm.rank == 0 else None
        yield from comm.gather(send, gath, root=0)
        if comm.rank == 0:
            it = self.it_loc * self.npe_i
            jt = self.jt_loc * self.npe_j
            ref = serial_sweep(it, jt, self.kt, self.mk, self.mmi,
                               iters=self.cfg.niters)
            got = np.zeros((it, jt, self.kt))
            for r in range(comm.size):
                ci, cj = divmod(r, self.npe_j)
                tile = gath.data[r * self.phi.size:(r + 1) * self.phi.size]
                got[ci * self.it_loc:(ci + 1) * self.it_loc,
                    cj * self.jt_loc:(cj + 1) * self.jt_loc, :] = \
                    tile.reshape(self.phi.shape)
            err = np.abs(got - ref).max() / (np.abs(ref).max() + 1e-30)
            self.verified = bool(err < 1e-10)
        else:
            self.verified = True


def serial_sweep(it, jt, kt, mk, mmi, iters=1):
    """Single-process reference of the same sweep recursion."""
    import numpy as np

    phi = np.zeros((it, jt, kt))
    nang = len(MU)
    kblocks = [(k, min(k + mk, kt)) for k in range(0, kt, mk)]
    for _ in range(iters):
        for di, dj, dk in OCTANTS:
            irange = range(it) if di > 0 else range(it - 1, -1, -1)
            jrange = range(jt) if dj > 0 else range(jt - 1, -1, -1)
            kbs = kblocks if dk > 0 else list(reversed(kblocks))
            for a0 in range(0, nang, mmi):
                a1 = min(a0 + mmi, nang)
                mu, eta, xi = (np.array(q[a0:a1]) for q in (MU, ETA, XI))
                ma = a1 - a0
                denom = SIGMA + mu + eta + xi
                inflow_k = np.zeros((it, jt, ma))
                for k0, k1 in kbs:
                    kb = k1 - k0
                    fi = np.zeros((jt, kb, ma))
                    fj = np.zeros((it, kb, ma))
                    ks = range(k0, k1) if dk > 0 else range(k1 - 1, k0 - 1, -1)
                    for i in irange:
                        for j in jrange:
                            kin = inflow_k[i, j]
                            for k in ks:
                                kslot = k - k0
                                cell = (SOURCE + mu * fi[j, kslot]
                                        + eta * fj[i, kslot] + xi * kin) / denom
                                fi[j, kslot] = 2.0 * cell - fi[j, kslot]
                                fj[i, kslot] = 2.0 * cell - fj[i, kslot]
                                kin = 2.0 * cell - kin
                                phi[i, j, k] += cell.sum()
                            inflow_k[i, j] = kin
    return phi
