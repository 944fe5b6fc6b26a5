"""Application benchmarks: NAS Parallel Benchmarks and Sweep3D (§4).

Each application is implemented once, with its real communication
schedule, and runs in two modes:

- **verify mode**: a small problem instance with real numpy data; the
  numerics are checked (CG/MG residuals, FT against ``numpy.fft``, IS
  sortedness, LU/SP/BT convergence, Sweep3D flux balance);
- **paper mode**: the class-B (or Sweep3D 50^3/150^3) geometry — real
  message sizes and counts, placeholder buffers, computation charged
  from a calibrated per-rank work model.  Long iteration loops simulate
  a sample of iterations and extrapolate (the loops are homogeneous).

Computation calibration (see :mod:`repro.apps.classes`): each app's
per-rank work is fitted once against the paper's Table 2 *2-node
InfiniBand* column (plus a documented superlinearity factor for the
cache effects behind the paper's super-linear speedups).  Nothing is
calibrated per network or per node count — those differences emerge
from the communication model.
"""

from repro.apps.classes import PROBLEMS, ProblemConfig, proc_grid_2d, proc_grid_3d

__all__ = [
    "PROBLEMS",
    "ProblemConfig",
    "run_app",
    "AppResult",
    "APP_REGISTRY",
    "proc_grid_2d",
    "proc_grid_3d",
]


def __getattr__(name):
    # Lazy runner exports: the runner imports the whole MPI stack, which
    # reading the problem table (``repro list``) does not need.
    if name in ("run_app", "AppResult", "APP_REGISTRY"):
        from repro.apps import runner

        return getattr(runner, name)
    raise AttributeError(f"module 'repro.apps' has no attribute {name!r}")
