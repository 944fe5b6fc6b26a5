"""Tests for the observability layer: tracing, metrics, exporters, CLI.

Locks down the contracts the instrumentation rests on:

- a disabled tracer costs one predicate check and records nothing;
- category filters drop records at emission time;
- the Chrome/Perfetto export is valid ``trace_event`` JSON carrying
  spans from every instrumented layer (engine, hw, net, mpi);
- the critical-path decomposition of a single pt2pt message telescopes
  to the simulated end-to-end latency (within 1%, in fact exactly);
- metrics ride inside cached RunSpec payloads and aggregate across a
  sweep, cache hits included; every bench's worlds reach its payload,
  however the bench builds them;
- the Recorder stamps transfers with simulation time.
"""

from __future__ import annotations

import inspect
import json
import time

import pytest

from repro.core.metrics import MetricsRegistry
from repro.core.tracing import TRACE_CATEGORIES, Tracer
from repro.microbench.common import bench_registry
from repro.profiling.trace_export import (category_summary, chrome_trace,
                                          critical_path, traced_app,
                                          traced_pingpong, write_chrome_trace)
from repro.runtime.cache import JSON_SLICE
from repro.runtime.spec import RunSpec


# ---------------------------------------------------------------------------
# Tracer unit behaviour
# ---------------------------------------------------------------------------

def test_disabled_tracer_records_nothing():
    tr = Tracer()
    tr.emit(1.0, "hw", "bus", "chunk", kind="X", dur_us=2.0)
    tr.instant(1.0, "mpi", "rank0", "send")
    assert len(tr) == 0
    assert not tr.wants("hw")


def test_span_kinds_and_sugar():
    tr = Tracer().enable()
    tr.begin(0.0, "mpi", "rank0", "bcast")
    tr.end(5.0, "mpi", "rank0", "bcast")
    tr.span(1.0, "hw", "bus", "dma", dur_us=3.0)
    tr.instant(2.0, "proto", "qp", "cqe")
    kinds = [r.kind for r in tr.records]
    assert kinds == ["B", "E", "X", "i"]
    assert tr.records[2].dur_us == 3.0
    assert "[" in tr.dump() and "]" in tr.dump() and "#" in tr.dump()


def test_category_filter_drops_at_emission():
    tr = Tracer().enable(categories={"mpi"})
    tr.emit(0.0, "hw", "bus", "chunk", kind="X", dur_us=1.0)
    tr.instant(0.0, "mpi", "rank0", "send")
    assert len(tr) == 1
    assert tr.records[0].category == "mpi"
    assert tr.wants("mpi") and not tr.wants("hw")


def test_disabled_guard_overhead_is_small():
    """The disabled path must be meaningfully cheaper than the enabled
    one — it is a single attribute check, not record construction."""
    tr = Tracer()
    n = 50_000

    def drive():
        t0 = time.perf_counter()
        for i in range(n):
            if tr.enabled:
                tr.emit(float(i), "hw", "bus", "chunk", kind="X", dur_us=1.0)
        return time.perf_counter() - t0

    drive()  # warm up
    t_disabled = min(drive() for _ in range(3))
    tr.enable()
    t_enabled = min(drive() for _ in range(2))
    tr.disable()
    assert t_disabled < t_enabled
    # generous absolute ceiling: 50k guarded no-ops in well under 100 ms
    assert t_disabled < 0.1


# ---------------------------------------------------------------------------
# End-to-end tracing through a simulated world
# ---------------------------------------------------------------------------

def test_traced_pingpong_covers_all_layers():
    _res, tr = traced_pingpong("infiniband", nbytes=4)
    cats = {r.category for r in tr.records}
    assert {"engine", "hw", "net", "mpi"} <= cats
    # layer checks: at least one hw span per pipeline stage family,
    # net spans carry submit/delivered, mpi spans carry peer/nbytes
    hw = [r for r in tr.records if r.category == "hw"]
    assert any(r.data["stage_name"] == "src_bus" for r in hw)
    net = [r for r in tr.records if r.category == "net"]
    assert all(r.kind == "X" and r.data["delivered"] >= r.data["submit"]
               for r in net)
    mpi_x = [r for r in tr.records if r.category == "mpi" and r.kind == "X"]
    assert mpi_x and all(r.dur_us >= 0.0 for r in mpi_x)


def test_world_category_filter(network):
    _res, tr = traced_pingpong(network, nbytes=64, categories=["mpi", "net"])
    cats = {r.category for r in tr.records}
    assert cats <= {"mpi", "net"}
    assert "mpi" in cats and "net" in cats


def test_untraced_world_stays_silent(network):
    from repro.mpi.world import mpi_run

    def fn(comm):
        buf = comm.alloc(64)
        if comm.rank == 0:
            yield from comm.send(buf, dest=1)
        else:
            yield from comm.recv(buf, source=0)

    res = mpi_run(fn, nprocs=2, network=network, record=False)
    assert len(res.world.sim.tracer) == 0
    # metrics are always on, even without tracing
    assert res.metrics.counter("net.bytes.payload") > 0


# ---------------------------------------------------------------------------
# Chrome / Perfetto export
# ---------------------------------------------------------------------------

def test_chrome_trace_structure(tmp_path):
    res, tr = traced_pingpong("infiniband", nbytes=4)
    doc = chrome_trace({"infiniband": tr}, recorder=res.recorder)
    assert set(doc) == {"traceEvents", "displayTimeUnit"}
    events = doc["traceEvents"]
    assert events
    # metadata names every process and thread row
    meta = [e for e in events if e["ph"] == "M"]
    assert any(e["name"] == "process_name" for e in meta)
    assert any(e["name"] == "thread_name" for e in meta)
    for ev in events:
        assert {"ph", "pid", "tid"} <= set(ev)
        if ev["ph"] == "X":
            assert ev["dur"] >= 0.0 and "ts" in ev
        if ev["ph"] == "i":
            assert ev["s"] == "t"
    cats = {e["cat"] for e in events if "cat" in e}
    assert {"engine", "hw", "net", "mpi"} <= cats
    # the whole document must survive a JSON round trip
    assert json.loads(json.dumps(doc)) == doc

    out = tmp_path / "trace.json"
    n = write_chrome_trace(str(out), tr)
    assert n == len(chrome_trace(tr)["traceEvents"])
    json.loads(out.read_text())


def test_trace_file_is_the_compact_json_of_the_document(tmp_path):
    """A traced IS.S run (with its transfer track) long enough that the
    event list is written in several slices.  Traced twice, the run
    writes the same bytes: no object address reaches the event data."""
    files = []
    for i in range(2):
        res, tr = traced_app("is", "S", "infiniband", nprocs=4)
        out = tmp_path / f"trace{i}.json"
        write_chrome_trace(str(out), {"is.S:infiniband": tr},
                           recorder=res.recorder)
        files.append(out.read_bytes())
    doc = chrome_trace({"is.S:infiniband": tr}, recorder=res.recorder)
    assert len(doc["traceEvents"]) > 2 * JSON_SLICE
    assert files[1] == json.dumps(doc, separators=(",", ":")).encode()
    assert files[0] == files[1]


def test_category_summary_lists_layers():
    _res, tr = traced_pingpong("myrinet", nbytes=4)
    text = category_summary(tr)
    for cat in ("engine", "hw", "net", "proto", "mpi"):
        assert cat in text
    assert category_summary(Tracer()) == "(no trace records)"


# ---------------------------------------------------------------------------
# Critical path
# ---------------------------------------------------------------------------

def test_critical_path_sums_to_total(network):
    cp = critical_path(network, nbytes=4)
    assert cp.total_us > 0
    assert cp.segments_sum == pytest.approx(cp.total_us, rel=0.01)
    names = [n for n, _ in cp.segments]
    assert names[0].startswith("src host")
    assert names[-1].startswith("dst host")
    assert all(us >= 0.0 for _n, us in cp.segments)
    assert f"{cp.nbytes} B over {network}" in cp.render()


def test_critical_path_infiniband_exact():
    """The 4-byte IB latency decomposition is exact by construction."""
    cp = critical_path("infiniband", nbytes=4)
    assert cp.segments_sum == pytest.approx(cp.total_us, rel=1e-9)
    # the pipeline stages of §2.1 all appear
    names = [n for n, _ in cp.segments]
    for stage in ("src_bus", "hca_proc_tx", "uplink", "dst_bus"):
        assert stage in names


# ---------------------------------------------------------------------------
# Metrics registry
# ---------------------------------------------------------------------------

def test_metrics_roundtrip_and_merge():
    m = MetricsRegistry()
    m.inc("mpi.msgs.eager", 3)
    m.set_gauge("engine.sim_time_us", 42.0)
    m.observe("mpi.msg_size", 100)
    m.observe("mpi.msg_size", 4096)
    m2 = MetricsRegistry.from_dict(m.to_dict())
    assert m2.to_dict() == m.to_dict()
    m2.merge(m)
    assert m2.counter("mpi.msgs.eager") == 6
    assert m2.gauges["engine.sim_time_us"] == 42.0
    h = m2.histograms["mpi.msg_size"]
    assert h["count"] == 4 and h["buckets"]["2^12"] == 2
    text = m2.summary(title="t")
    assert "mpi.msgs.eager" in text and "(gauge)" in text


def test_metrics_protocol_counters(network):
    res, _tr = traced_pingpong(network, nbytes=4, iters=4)
    m = res.metrics
    small_proto = "inline" if network == "quadrics" else "eager"
    assert m.counter(f"mpi.msgs.{small_proto}") >= 8  # 2 ranks x 4+ msgs
    assert m.counter("net.bytes.wire") > m.counter("net.bytes.payload") > 0
    assert m.counter("net.retransmits") == 0
    assert m.gauges["engine.sim_time_us"] > 0
    if network == "quadrics":
        assert m.counter("proto.nic_matches") > 0
        assert m.counter("tlb.hits") + m.counter("tlb.misses") > 0
    else:
        assert "reg.cache.hits" in m.counters


def test_metrics_ride_in_cached_payload():
    from repro.runtime import SweepExecutor
    from repro.runtime.cache import ResultCache

    spec = RunSpec.app("is", "S", "infiniband", 2)
    cache = ResultCache()
    ex = SweepExecutor(cache=cache)
    payload = ex.run_one(spec)
    assert payload["metrics"]["counters"]["net.bytes.payload"] > 0
    # cache hit returns the same metrics and aggregates them again
    ex2 = SweepExecutor(cache=cache)
    payload2 = ex2.run_one(spec)
    assert cache.stats.hits == 1
    assert payload2["metrics"] == payload["metrics"]
    assert (ex2.metrics.counter("net.bytes.payload")
            == payload["metrics"]["counters"]["net.bytes.payload"])
    # run_app surfaces them on the AppResult
    from repro.apps.runner import app_result_from_payload

    res = app_result_from_payload(payload)
    assert res.metrics["counters"]["net.pkts.ib.ring"] >= 1


def test_runtime_aggregates_metrics_across_sweeps():
    from repro import runtime

    runtime.reset()
    try:
        spec = RunSpec.app("is", "S", "myrinet", 2)
        runtime.run_specs([spec, spec])  # dedup: one simulation
        agg = runtime.metrics()
        assert agg.counter("net.bytes.payload") > 0
        assert agg.counter("proto.nic_matches") == 0  # not quadrics
    finally:
        runtime.reset()


def _smallest_spec(bench):
    """The bench's spec at its smallest size (or node count)."""
    params = inspect.signature(bench_registry()[bench]).parameters
    kwargs = {}
    if "sizes" in params:
        kwargs["sizes"] = (min(params["sizes"].default),)
    if "node_counts" in params:
        kwargs["node_counts"] = (min(params["node_counts"].default),)
    if "reuse_pct" in params:
        kwargs["reuse_pct"] = 100
    return RunSpec.microbench(bench, "infiniband", **kwargs)


@pytest.mark.parametrize("bench", sorted(bench_registry()))
def test_every_bench_reports_its_worlds(bench, tmp_path):
    """However a bench builds its worlds (``run_pair`` or its own
    ``MPIWorld``), they report to the spec's collector: the payload
    carries their metrics and the ledger's ``run_finished`` their
    event count."""
    from repro.obs.ledger import RunLedger, read_ledger
    from repro.runtime import SweepExecutor

    path = tmp_path / "runs.jsonl"
    with RunLedger(path) as ledger:
        payload = SweepExecutor(ledger=ledger).run_one(_smallest_spec(bench))
    events = payload["metrics"]["counters"]["engine.events_total"]
    assert events > 0
    (finished,) = [r for r in read_ledger(path)
                   if r["event"] == "run_finished"]
    assert finished["events"] == events


def test_cli_metrics_engine_line_for_directly_built_worlds(capsys):
    """Fig. 13 builds its worlds itself; ``--metrics`` still shows what
    its engines did, and the ``[cache]`` trailer (with its wall time)
    goes to stderr."""
    from repro import runtime
    from repro.__main__ import main

    try:
        assert main(["fig13", "--no-cache", "--metrics"]) == 0
    finally:
        runtime.reset()
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert any(line.startswith("engine:") for line in lines)
    assert not any(line.startswith("[cache]") for line in lines)
    assert captured.err.startswith("[cache]")


# ---------------------------------------------------------------------------
# Recorder transfer timestamps (regression: they were all 0.0)
# ---------------------------------------------------------------------------

def test_transfers_carry_simulation_time(network):
    res, _tr = traced_pingpong(network, nbytes=4, iters=4)
    times = [t.time for t in res.recorder.transfers]
    assert len(times) >= 8
    assert max(times) > 0.0
    assert times == sorted(times)  # appended in simulation order
    # and the stamp survives the cache round trip
    from repro.profiling.recorder import Recorder

    rt = Recorder.from_dict(res.recorder.to_dict())
    assert [t.time for t in rt.transfers] == times


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_trace_pingpong(tmp_path, capsys):
    from repro.__main__ import main

    out = tmp_path / "t.json"
    rc = main(["trace", "pingpong", "--network", "quadrics",
               "--size", "64", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["traceEvents"]
    captured = capsys.readouterr()
    assert "ui.perfetto.dev" in captured.out
    assert "critical path" in captured.out
    assert "[cache]" in captured.err


def test_cli_trace_fig_target_spans_four_layers(tmp_path, capsys):
    from repro.__main__ import main

    out = tmp_path / "fig1.json"
    rc = main(["trace", "fig1", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    cats = {e["cat"] for e in doc["traceEvents"] if "cat" in e}
    assert {"engine", "hw", "net", "proto", "mpi"} <= cats
    labels = {e["args"]["name"] for e in doc["traceEvents"]
              if e["ph"] == "M" and e["name"] == "process_name"}
    assert labels == {"infiniband", "myrinet", "quadrics"}


def test_cli_trace_category_flag(tmp_path, capsys):
    from repro.__main__ import main

    out = tmp_path / "t.json"
    rc = main(["trace", "pingpong", "--categories", "mpi",
               "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    cats = {e["cat"] for e in doc["traceEvents"] if "cat" in e}
    assert cats == {"mpi"}


def test_trace_categories_constant_is_complete():
    _res, tr = traced_pingpong("quadrics", nbytes=4)
    assert {r.category for r in tr.records} <= set(TRACE_CATEGORIES)
