"""Tests for the CLI entry point, the profile report and new collectives."""

import hashlib
import subprocess
import sys

import numpy as np
import pytest

from repro.mpi import MAX, SUM, mpi_run
from repro.profiling.report import app_profile_report, profile_dict


def _cli(*args, timeout=300):
    return subprocess.run([sys.executable, "-m", "repro", *args],
                          capture_output=True, text=True, timeout=timeout)


class TestCli:
    def test_list(self):
        out = _cli("list")
        assert out.returncode == 0
        assert "fig28" in out.stdout and "table6" in out.stdout
        assert "sweep3d.150" in out.stdout

    def test_calibration(self):
        out = _cli("calibration")
        assert out.returncode == 0
        assert "wire_bw_mbps" in out.stdout

    def test_figure(self):
        out = _cli("fig13")
        assert out.returncode == 0
        assert "memory usage" in out.stdout

    def test_unknown_target(self):
        out = _cli("fig99")
        assert out.returncode != 0
        assert "unknown target" in out.stderr

    def test_profile(self):
        out = _cli("profile", "is.S", "4")
        assert out.returncode == 0
        assert "communication profile" in out.stdout
        assert "collectives:" in out.stdout

    def test_profile_output_pinned(self):
        """``repro profile lu.B 8`` keeps its text byte for byte (sha256
        taken when ``run_app`` still decoded and re-packed the run)."""
        out = _cli("profile", "lu.B", "8")
        assert out.returncode == 0
        assert hashlib.sha256(out.stdout.encode()).hexdigest() == (
            "9b8598470a0b6f549df570e4d05034cafe848f1bc312fd474cde867fb7eadbd6")

    def test_profile_needs_args(self):
        out = _cli("profile")
        assert out.returncode != 0

    def test_listed_targets_all_dispatch(self):
        """`repro list`, `--help` and dispatch all read one command table."""
        from repro.__main__ import COMMANDS

        names = [name for name, _usage, handler in COMMANDS]
        assert all(callable(handler) for _n, _u, handler in COMMANDS)
        assert len(set(names)) == len(names)
        out = _cli("list")
        other = next(line for line in out.stdout.splitlines()
                     if line.startswith("other:"))
        listed = [w for w in other.split()[1:] if w[0] not in "<["]
        assert listed + ["list"] == names
        flat = " ".join(_cli("--help").stdout.split())
        targets = flat.split("positional arguments: target ", 1)[1]
        targets = targets.split(" args ", 1)[0].split(" | ")
        assert targets == ["figN", "tableN"] + names


class TestProfileReport:
    def test_report_covers_every_section(self):
        from repro.apps import run_app

        res = run_app("cg", "S", "infiniband", 4, sample_iters=2)
        txt = app_profile_report("cg.S", res.recorder)
        for token in ("message sizes", "non-blocking", "buffer reuse",
                      "collectives", "intra-node"):
            assert token in txt

    def test_profile_dict_keys(self):
        from repro.apps import run_app

        res = run_app("lu", "S", "myrinet", 4, sample_iters=2)
        d = profile_dict(res.recorder)
        assert set(d) == {"message_sizes", "wire_transfers", "nonblocking",
                          "buffer_reuse", "collectives", "intranode"}


class TestNewCollectives:
    @pytest.mark.parametrize("nprocs", [2, 3, 4, 8])
    def test_reduce_scatter_matches_numpy(self, network, nprocs):
        def fn(comm):
            n = comm.size
            sb = comm.alloc_array(2 * n, dtype=np.int64)
            sb.data[:] = np.arange(2 * n) + 10 * comm.rank
            rb = comm.alloc_array(2, dtype=np.int64)
            yield from comm.reduce_scatter(sb, rb, op=SUM)
            contributions = np.array([np.arange(2 * n) + 10 * r
                                      for r in range(n)]).sum(axis=0)
            expect = contributions[2 * comm.rank:2 * comm.rank + 2]
            assert (rb.data == expect).all()

        mpi_run(fn, nprocs=nprocs, network=network)

    @pytest.mark.parametrize("op,npop", [(SUM, np.add), (MAX, np.maximum)])
    def test_scan_matches_numpy(self, network, op, npop):
        def fn(comm):
            sb = comm.alloc_array(3, dtype=np.int64)
            sb.data[:] = [comm.rank, comm.rank * 2, 7 - comm.rank]
            rb = comm.alloc_array(3, dtype=np.int64)
            yield from comm.scan(sb, rb, op=op)
            acc = np.array([0, 0, 7])
            expect = None
            for r in range(comm.rank + 1):
                row = np.array([r, r * 2, 7 - r])
                expect = row if expect is None else npop(expect, row)
            assert (rb.data == expect).all(), (comm.rank, rb.data, expect)

        mpi_run(fn, nprocs=5, network=network)

    def test_reduce_scatter_bad_recv_size(self):
        def fn(comm):
            sb = comm.alloc(32 * comm.size)
            rb = comm.alloc(4)  # too small for one block
            with pytest.raises(ValueError, match="reduce_scatter"):
                yield from comm.reduce_scatter(sb, rb)

        mpi_run(fn, nprocs=4, network="infiniband")
