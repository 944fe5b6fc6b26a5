"""Start-up stays numpy-free: numpy loads only where real arrays move.

Paper-mode runs use placeholder buffers, so importing the runtime and
the experiment drivers and running them (Fig. 12's allreduce included)
must not import numpy (about 150 ms of a fresh interpreter's start-up),
and importing the runtime must not load the hardware or fabric models
either.  Verify-mode numerics and array-backed buffers must still load
numpy.  A render from a warm cache simulates nothing, and ``repro list``
reads the problem table only, so neither may import the MPI stack.  Each
check runs in a fresh interpreter, because this test process has numpy
(and the MPI stack) loaded already.
"""

import os
import subprocess
import sys
import textwrap

import repro

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def _fresh(code):
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                         capture_output=True, text=True, timeout=300, env=env)
    assert out.returncode == 0, out.stderr
    return out.stdout


def test_paper_mode_never_imports_numpy():
    out = _fresh("""
        import sys
        from repro import runtime
        from repro.runtime import RunSpec

        stack = sorted(m for m in sys.modules
                       if m.startswith(("repro.networks", "repro.hardware")))
        assert not stack, f"importing the runtime loaded {stack}"
        import repro.experiments  # noqa: F401

        runtime.reset(jobs=1, enabled=False)
        specs = [RunSpec.microbench("latency", net, sizes=(4,), iters=2)
                 for net in ("infiniband", "myrinet", "quadrics")]
        specs.append(RunSpec.app("is", "S", "infiniband", 4, record=True))
        # Fig. 12's PMB allreduce: placeholder buffers, no sums
        specs.append(RunSpec.microbench("allreduce", "quadrics",
                                        sizes=(8, 1024), nprocs=8, iters=8))
        for payload in runtime.run_specs(specs):
            assert not runtime.is_error_payload(payload), payload
        assert "numpy" not in sys.modules, "paper mode imported numpy"

        spec = RunSpec.app("is", "S", "infiniband", 4, verify=True)
        payload, = runtime.run_specs([spec])
        assert "numpy" in sys.modules
        print("verified", payload["verified"])
    """)
    assert out.split() == ["verified", "True"]


def test_array_backed_allreduce_loads_numpy():
    out = _fresh("""
        import sys
        from repro import runtime
        from repro.mpi import SUM, mpi_run

        def rank_fn(comm):
            send = comm.alloc_array(4, dtype="int64")
            recv = comm.alloc_array(4, dtype="int64")
            send.data[:] = comm.rank + 1
            yield from comm.allreduce(send, recv, op=SUM)
            return recv.data.tolist()

        assert "numpy" not in sys.modules
        res = mpi_run(rank_fn, nprocs=4, network="infiniband")
        assert "numpy" in sys.modules
        print(res.returns[0])
    """)
    assert out.strip() == "[10, 10, 10, 10]"


def test_list_never_imports_the_mpi_stack():
    """``repro list`` reads the problem table only."""
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "repro", "list"],
        capture_output=True, text=True, timeout=300, env=env)
    assert out.returncode == 0, out.stderr
    assert "apps:" in out.stdout
    loaded = [line.rsplit("|", 1)[-1].strip()
              for line in out.stderr.splitlines()]
    assert "repro.apps.classes" in loaded
    assert not [m for m in loaded if m.startswith("repro.mpi")], loaded


def test_warm_renders_never_import_the_mpi_stack(tmp_path):
    """Re-rendering from a warm disk cache reads payloads and decodes
    Recorders only, so the MPI and device stack stays unimported."""
    warm = f"""
        import sys
        from repro import runtime
        from repro.experiments import run_figure
        from repro.experiments.tables import _profile_summaries, _profile_summary
        from repro.runtime import RunSpec

        runtime.reset(jobs=1, disk_dir={str(tmp_path)!r})
        run_figure("fig13", quick=True).render()
        _profile_summaries(True, specs=[("is", "S", 4)])
        spec = RunSpec.app("is", "S", "infiniband", 4, record=True)
        _profile_summary(runtime.run_spec(spec))
        print(runtime.cache_stats().misses,
              "repro.mpi.world" in sys.modules)
    """
    cold = _fresh(warm).split()
    assert cold[1] == "True"  # the cold pass simulated, so it loaded MPI
    assert _fresh(warm).split() == ["0", "False"]
