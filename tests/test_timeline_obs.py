"""Time-resolved telemetry: timeline sampler, run ledger, diff.

Locks down the contracts of the PR-7 observability layer:

- timeline-enabled payloads are bit-deterministic: serial and
  ``jobs=4`` sweeps produce byte-identical JSON, and sampling never
  perturbs the simulation (headline points match untimed runs);
- timeline-off specs digest exactly as before the feature existed
  (golden digest pins), so the on-disk cache keys of every existing
  result stay valid;
- the sampler decimates to its sample cap on a uniform grid;
- the run ledger emits schema-valid JSONL lifecycle events, including
  ``cache_hit`` on re-runs, and ``validate_ledger`` catches corruption;
- sweep wall-clock aggregates into :class:`SweepStats` while the
  wall times never reach cached payloads;
- ``repro diff`` renders counter deltas, critical-path deltas and a
  timeline overlay;
- ``stats=True`` benches report per-repetition statistics consistent
  with the headline mean.
"""

from __future__ import annotations

import io
import json
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest

from repro import runtime
from repro.__main__ import main
from repro.obs.ledger import (RunLedger, read_ledger, summarize_ledger,
                              validate_ledger)
from repro.obs.collector import collect
from repro.runtime.spec import RunSpec


@pytest.fixture(autouse=True)
def _fresh_runtime():
    runtime.reset()
    yield
    runtime.reset()


def _tl_specs(interval=10.0):
    return [RunSpec.microbench("latency", net, sizes=(4, 16384), iters=5,
                               timeline=interval)
            for net in ("infiniband", "myrinet", "quadrics")]


# ---------------------------------------------------------------------------
# timeline determinism
# ---------------------------------------------------------------------------

def test_timeline_serial_vs_parallel_byte_identical():
    serial = runtime.run_specs(_tl_specs())
    runtime.reset(jobs=4)
    parallel = runtime.run_specs(_tl_specs())
    assert (json.dumps(serial, sort_keys=True)
            == json.dumps(parallel, sort_keys=True))
    for payload in serial:
        assert payload["timeline"], "timeline block missing"
        for tl in payload["timeline"]:
            assert len(tl["t"]) == tl["samples"] > 0
            assert tl["t"][0] == 0.0
            for values in tl["channels"].values():
                assert len(values) == tl["samples"]


def test_timeline_does_not_perturb_simulation():
    timed = runtime.run_spec(
        RunSpec.microbench("latency", "myrinet", sizes=(4, 16384), iters=5,
                           timeline=10.0))
    plain = runtime.run_spec(
        RunSpec.microbench("latency", "myrinet", sizes=(4, 16384), iters=5))
    assert timed["points"] == plain["points"]
    assert "timeline" not in plain
    # the sampler's own events must not leak into the run's metrics
    assert (timed["metrics"]["gauges"]["engine.sim_time_us"]
            == plain["metrics"]["gauges"]["engine.sim_time_us"])


def test_timeline_off_digests_pinned():
    """Specs without a timeline param keep their pre-feature digests."""
    bench = RunSpec.microbench("latency", "myrinet", sizes=(4, 1024), iters=10)
    app = RunSpec.app("is", "S", "infiniband", nprocs=4, record=False,
                      sample_iters=2)
    assert bench.digest == ("c85a74c8575201cbba158f95d30c747b"
                            "2b43dd79e4d746e8b193569c96ce29ba")
    assert app.digest == ("f5a4b7eec729b86f30c5a3bc99743a68"
                          "d4dd5b925d98169a2bfcd9eb99f6dd5a")
    # and a timeline param keys a distinct cache entry
    assert bench.replace(params={"timeline": 10.0}).digest != bench.digest


def test_timeline_channels_capture_live_state():
    payload = runtime.run_spec(
        RunSpec.microbench("bandwidth", "infiniband", sizes=(65536,),
                           timeline=5.0))
    channels = payload["timeline"][0]["channels"]
    assert max(channels["mpi.rndv.inflight"]) > 0, "rendezvous never seen"
    assert max(channels["engine.pending"]) > 0
    assert channels["hw.wire.bytes"] == sorted(channels["hw.wire.bytes"]), \
        "cumulative wire bytes must be monotonic"


@pytest.mark.parametrize("size", [4, 64])
def test_timeline_backlog_reads_size_variant_paths(size):
    """A run that sends only over a size variant (Quadrics' inline
    ``pio`` path for small messages) still shows its pipeline backlog."""
    payload = runtime.run_spec(
        RunSpec.microbench("latency", "quadrics", sizes=(size,),
                           timeline=1.0))
    (timeline,) = payload["timeline"]
    assert max(timeline["channels"]["hw.path.backlog_us"]) > 0.0


def test_timeline_decimation_keeps_uniform_grid():
    from repro.microbench.latency import measure_latency

    with collect(interval_us=0.5, max_samples=64) as col:
        measure_latency("myrinet", sizes=(16384,), iters=40)
    (tl,) = col.timelines
    assert tl["samples"] <= 64
    times = tl["t"]
    assert len(times) > 8
    steps = {round(b - a, 9) for a, b in zip(times, times[1:])}
    assert len(steps) == 1, f"non-uniform grid after decimation: {steps}"
    assert tl["interval_us"] > 0.5, "decimation should coarsen the interval"


# ---------------------------------------------------------------------------
# run ledger
# ---------------------------------------------------------------------------

def test_ledger_lifecycle_and_cache_hits(tmp_path):
    path = tmp_path / "runs.jsonl"
    runtime.configure(ledger=path)
    specs = [RunSpec.microbench("latency", net, sizes=(4,), iters=3)
             for net in ("infiniband", "myrinet")]
    runtime.run_specs(specs)
    runtime.run_specs(specs)  # all served from cache
    assert validate_ledger(path) == []
    events = [r["event"] for r in read_ledger(path)]
    assert events == ["sweep_started", "run_started", "run_finished",
                      "run_started", "run_finished", "sweep_finished",
                      "cache_hit", "cache_hit"]
    records = read_ledger(path)
    finished = [r for r in records if r["event"] == "run_finished"]
    for rec in finished:
        assert rec["digest"] in {s.digest for s in specs}
        assert rec["wall_s"] >= 0
        assert rec["sim_us"] > 0
        assert rec["events"] > 0
    assert "2 runs finished" in summarize_ledger(records)


def test_ledger_validation_catches_corruption(tmp_path):
    path = tmp_path / "bad.jsonl"
    with RunLedger(path) as ledger:
        ledger.emit("run_started", spec="x", digest="d1")
    with open(path, "a") as fh:
        fh.write("not json\n")
        fh.write(json.dumps({"schema": 1, "event": "bogus_event",
                             "ts": 1.0}) + "\n")
        fh.write(json.dumps({"schema": 1, "event": "run_finished",
                             "ts": 1.0, "spec": "x", "digest": "other",
                             "wall_s": 0.1}) + "\n")
    errors = validate_ledger(path)
    assert len(errors) == 3
    assert any("parse" in e or "json" in e.lower() for e in errors)
    assert any("bogus_event" in e for e in errors)
    assert any("run_started" in e for e in errors)


def test_ledger_rejects_unknown_event(tmp_path):
    with RunLedger(tmp_path / "l.jsonl") as ledger:
        with pytest.raises(ValueError):
            ledger.emit("not_an_event")


def test_ledger_validator_module_runs_without_warnings(tmp_path):
    """`python -m repro.obs.ledger` must not be imported twice by runpy."""
    path = tmp_path / "runs.jsonl"
    with RunLedger(path) as ledger:
        ledger.emit("run_started", spec="x", digest="d1")
        ledger.emit("run_finished", spec="x", digest="d1", wall_s=0.1)
    out = subprocess.run([sys.executable, "-W", "error::RuntimeWarning",
                          "-m", "repro.obs.ledger", str(path)],
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("OK: ")


# ---------------------------------------------------------------------------
# sweep stats / wall-clock side channels
# ---------------------------------------------------------------------------

def test_sweep_stats_aggregate_and_payloads_stay_clean(tmp_path):
    runtime.configure(disk_dir=tmp_path / "cache")
    lines = []
    runtime.configure(progress=lines.append)
    specs = _tl_specs(interval=50.0)
    payloads = runtime.run_specs(specs + specs)  # duplicates dedup
    sweep = runtime.sweep_stats()
    assert sweep.specs == 6
    assert sweep.unique == 3
    assert sweep.executed == 3
    assert sweep.errors == 0
    assert sweep.wall_s > 0
    assert "6 spec(s) (3 unique)" in sweep.line()
    assert len(lines) == 3 and all("done" in ln for ln in lines)
    for payload in payloads:
        assert "_wall_s" not in payload
        assert "_elapsed_s" not in payload
    # the on-disk JSON must be side-channel-free too
    for blob in (tmp_path / "cache").rglob("*.json"):
        data = json.loads(blob.read_text())
        assert "_wall_s" not in str(data)
        assert "_elapsed_s" not in str(data)


def test_sweep_stats_count_errors():
    runtime.configure(progress=None)
    bad = RunSpec.microbench("latency", "myrinet", sizes=(4,),
                             timeline=-1.0)  # invalid interval -> error payload
    (payload,) = runtime.run_specs([bad])
    assert runtime.is_error_payload(payload)
    assert runtime.sweep_stats().errors == 1


# ---------------------------------------------------------------------------
# CLI: diff / bench --stats
# ---------------------------------------------------------------------------

def _run_cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = main(argv)
    return rc, buf.getvalue()


def test_cli_diff_renders_all_sections():
    rc, out = _run_cli(["diff", "latency@myrinet", "latency@quadrics",
                        "--size", "16384"])
    assert rc == 0
    assert "measured values" in out
    assert "counter deltas" in out
    assert "zero-load critical path" in out
    assert "timeline:" in out, "no timeline overlay rendered"
    assert "mpi.msgs.rndv" in out


def test_cli_diff_is_cache_served_on_second_run():
    _run_cli(["diff", "latency@myrinet", "latency@quadrics"])
    hits0 = runtime.cache_stats().hits
    _run_cli(["diff", "latency@myrinet", "latency@quadrics"])
    assert runtime.cache_stats().hits >= hits0 + 2


def test_cli_diff_mpi_option_refs():
    rc, out = _run_cli(["diff", "bandwidth@infiniband",
                        "bandwidth@infiniband:rendezvous=send_recv",
                        "--size", "65536"])
    assert rc == 0
    assert "rendezvous=send_recv" in out


def test_cli_bench_stats_and_timeline():
    err = io.StringIO()
    with redirect_stderr(err):
        rc, out = _run_cli(["bench", "latency", "--network", "myrinet",
                            "--stats", "--timeline", "20"])
    assert rc == 0
    assert "repetition statistics" in out
    assert "timeline myrinet" in out
    # the trailer carries the sweep's wall time, so it stays off stdout
    assert "| sweep:" in err.getvalue()
    assert "| sweep:" not in out


def test_cli_bench_iters_reach_the_bench():
    rc, out = _run_cli(["bench", "latency", "--network", "myrinet",
                        "--stats", "--iters", "3"])
    assert rc == 0
    row = next(ln for ln in out.splitlines() if ln.lstrip().startswith("4 B"))
    assert row.split()[2] == "3"    # repetitions counted per size
    with pytest.raises(SystemExit, match="takes no --iters"):
        main(["bench", "memory_usage", "--iters", "2"])


# ---------------------------------------------------------------------------
# repetition statistics
# ---------------------------------------------------------------------------

def test_latency_stats_match_headline():
    payload = runtime.run_spec(
        RunSpec.microbench("latency", "quadrics", sizes=(4, 16384), iters=8,
                           stats=True))
    stats = payload["stats"]
    points = dict(payload["points"])
    for x_str, s in stats.items():
        assert s["n"] == 8
        # deterministic simulator: every iteration identical, mean == point
        assert s["mean"] == pytest.approx(points[float(x_str)], rel=1e-9)
        assert s["ci95"] < 1e-9  # float noise only; dispersion is zero
    # and the Series round-trips through the payload
    from repro.microbench.common import series_from_payload

    series = series_from_payload(payload)
    assert series.stats is not None
    assert set(series.stats) == {4.0, 16384.0}


def test_bandwidth_stats_available():
    payload = runtime.run_spec(
        RunSpec.microbench("bandwidth", "myrinet", sizes=(65536,), stats=True))
    (s,) = payload["stats"].values()
    assert s["n"] == 12  # default rounds
    assert s["mean"] > 0


def test_summarize_samples_math():
    from repro.microbench.common import summarize_samples

    s = summarize_samples([1.0, 2.0, 3.0, 4.0])
    assert s["n"] == 4
    assert s["mean"] == 2.5
    assert s["min"] == 1.0 and s["max"] == 4.0
    assert s["std"] == pytest.approx(1.29099, rel=1e-4)
    assert s["ci95"] == pytest.approx(1.96 * s["std"] / 2.0)
    assert summarize_samples([])["n"] == 0
    assert summarize_samples([5.0])["ci95"] == 0.0
