"""NPB FT — 3-D FFT with slab decomposition and Alltoall transposes.

Following the reference code's structure: the initial field is
forward-transformed once at setup; each timed iteration *evolves* the
spectrum (pointwise factors) and inverse-transforms it back to real
space — one global transpose (``MPI_Alltoall`` of the entire local
volume) per iteration.  Those are the ~16 MB-per-process calls that put
FT in Table 1's >1M bucket 22 times and make it bandwidth-bound (§4.1).

Verify mode uses a scalar evolution factor, so after ``k`` iterations
the real-space field must equal ``initial * factor**k`` exactly — a
strong end-to-end check of the distributed FFT — and the setup-time
spectrum is additionally compared against ``numpy.fft.fftn`` on rank 0.
"""

from __future__ import annotations

from repro.apps.base import AppBase
from repro.mpi.constants import SUM

__all__ = ["FTBench"]

#: scalar spectral evolution factor per iteration (verify mode)
EVOLVE = 0.9


class FTBench(AppBase):
    NAME = "ft"

    def setup(self, comm):
        nx, ny, nz = self.cfg.size
        p = comm.size
        if nz % p or nx % p:
            raise ValueError("FT needs nx and nz divisible by nprocs")
        self.nx, self.ny, self.nz = nx, ny, nz
        self.nz_loc = nz // p   # slab layout: (nz_loc, ny, nx)
        self.nx_loc = nx // p   # transposed layout: (nx_loc, ny, nz)
        vol = nx * ny * self.nz_loc
        self.field = self.alloc_vec(comm, vol * 2)       # real-space slab
        self.spectrum = self.alloc_vec(comm, vol * 2)    # transposed layout
        self.scratch = self.alloc_vec(comm, vol * 2)
        self.scratch2 = self.alloc_vec(comm, vol * 2)
        self.chk_a = self.alloc_vec(comm, 2)
        self.chk_b = self.alloc_vec(comm, 2)
        if self.verify:
            import numpy as np

            rng = np.random.default_rng(3 + comm.rank)
            init = (rng.standard_normal((self.nz_loc, ny, nx)) +
                    1j * rng.standard_normal((self.nz_loc, ny, nx)))
            self._set(self.field, init.reshape(-1))
            self.initial = init.copy()
        yield from comm.barrier()
        yield from self._forward(comm)

    # -- complex views over float64-backed buffers ----------------------
    @staticmethod
    def _cview(buf, shape):
        return buf.data.view("complex128").reshape(shape)

    @staticmethod
    def _set(buf, arr):
        buf.data.view("complex128").reshape(-1)[:] = arr.reshape(-1)

    # -- distributed transforms ------------------------------------------
    def _forward(self, comm):
        """slab field -> spectrum in transposed (x-distributed) layout."""
        p = comm.size
        yield from self.work(comm, 0.30)
        if self.verify:
            import numpy as np

            a = self._cview(self.field, (self.nz_loc, self.ny, self.nx)).copy()
            a = np.fft.fft(a, axis=2)   # x
            a = np.fft.fft(a, axis=1)   # y
            blocks = [a[:, :, d * self.nx_loc:(d + 1) * self.nx_loc]
                      for d in range(p)]
            self._set(self.scratch, np.concatenate([b.reshape(-1) for b in blocks]))
        yield from comm.alltoall(self.scratch, self.scratch2)
        yield from self.work(comm, 0.20)
        if self.verify:
            import numpy as np

            t = self._cview(self.scratch2, (p, self.nz_loc, self.ny, self.nx_loc))
            pencil = np.transpose(t, (3, 2, 0, 1)).reshape(self.nx_loc, self.ny, self.nz)
            self._set(self.spectrum, np.fft.fft(pencil, axis=2))  # z

    def _inverse(self, comm, spec_arr):
        """spectrum (transposed layout) -> real-space slab field."""
        p = comm.size
        yield from self.work(comm, 0.20)
        if self.verify:
            import numpy as np

            pencil = np.fft.ifft(
                spec_arr.reshape(self.nx_loc, self.ny, self.nz), axis=2)
            blocks = [pencil[:, :, d * self.nz_loc:(d + 1) * self.nz_loc]
                      for d in range(p)]
            self._set(self.scratch, np.concatenate([b.reshape(-1) for b in blocks]))
        yield from comm.alltoall(self.scratch, self.scratch2)
        yield from self.work(comm, 0.30)
        if self.verify:
            import numpy as np

            t = self._cview(self.scratch2, (p, self.nx_loc, self.ny, self.nz_loc))
            slab = np.transpose(t, (3, 2, 0, 1)).reshape(self.nz_loc, self.ny, self.nx)
            slab = np.fft.ifft(slab, axis=1)
            slab = np.fft.ifft(slab, axis=2)
            self._set(self.field, slab)

    # -- iterations -----------------------------------------------------------
    def iteration(self, comm, it: int):
        yield from self.work(comm, 0.15)  # evolve the spectrum
        spec = None
        if self.verify:
            spec = (self._cview(self.spectrum, (-1,)) * (EVOLVE ** (it + 1))).copy()
        yield from self._inverse(comm, spec)
        if self.verify:
            f = self._cview(self.field, (-1,))
            self.chk_a.data[0] = float(f.real.sum())
            self.chk_a.data[1] = float(f.imag.sum())
        yield from comm.allreduce(self.chk_a, self.chk_b, op=SUM)
        yield from self.work(comm, 0.15)

    # -- verification ------------------------------------------------------
    def finalize(self, comm):
        if not self.verify:
            return
        import numpy as np

        # 1. local end-to-end check: field == initial * EVOLVE^niters
        k = self.cfg.niters
        got = self._cview(self.field, (self.nz_loc, self.ny, self.nx))
        want = self.initial * (EVOLVE ** k)
        scale = np.abs(want).max() + 1e-30
        ok = bool(np.abs(got - want).max() / scale < 1e-9)
        # 2. spectrum vs numpy.fft.fftn on the gathered cube (rank 0)
        spec = self._cview(self.spectrum, (-1,)).copy()
        sbuf = comm.alloc_array(2 * spec.size, dtype="float64")
        sbuf.data.view("complex128")[:] = spec
        gspec = comm.alloc_array(2 * spec.size * comm.size, dtype="float64") \
            if comm.rank == 0 else None
        yield from comm.gather(sbuf, gspec, root=0)
        obuf = comm.alloc_array(2 * self.initial.size, dtype="float64")
        obuf.data.view("complex128")[:] = self.initial.reshape(-1)
        gorig = comm.alloc_array(2 * self.initial.size * comm.size, dtype="float64") \
            if comm.rank == 0 else None
        yield from comm.gather(obuf, gorig, root=0)
        if comm.rank == 0:
            p = comm.size
            cube = gorig.data.view("complex128").reshape(self.nz, self.ny, self.nx)
            ref = np.fft.fftn(cube)  # axes (z, y, x)
            got_spec = gspec.data.view("complex128").reshape(
                p, self.nx_loc, self.ny, self.nz)
            # transposed layout is (x, y, z): rearrange the reference
            ref_t = np.transpose(ref, (2, 1, 0))  # (nx, ny, nz)
            got_full = got_spec.reshape(self.nx, self.ny, self.nz)
            err = np.abs(got_full - ref_t).max() / (np.abs(ref_t).max() + 1e-30)
            ok = ok and bool(err < 1e-8)
        self.verified = ok
