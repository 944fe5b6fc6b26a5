"""Tests for the trace recorder and the paper's derived statistics."""

import hashlib
import json

import numpy as np
import pytest

from repro.apps import run_app
from repro.mpi import mpi_run
from repro.profiling import (
    CallRecord,
    Recorder,
    TransferRecord,
    buffer_reuse_rate,
    collective_stats,
    intranode_stats,
    message_size_histogram,
    nonblocking_stats,
    transfer_size_histogram,
)
from repro.profiling.report import profile_dict
from repro.runtime.cache import plain


def _mixed_traffic(comm):
    other = 1 - comm.rank
    small = comm.alloc(64)
    big = comm.alloc(64 * 1024)
    if comm.rank == 0:
        yield from comm.send(small, dest=1, tag=0)
        req = yield from comm.isend(big, dest=1, tag=1)
        yield from comm.waitall([req])
    else:
        yield from comm.recv(small, source=0, tag=0)
        req = yield from comm.irecv(big, source=0, tag=1)
        yield from comm.waitall([req])
    yield from comm.barrier()
    red = comm.alloc_array(4, dtype=np.float64)
    out = comm.alloc_array(4, dtype=np.float64)
    yield from comm.allreduce(red, out)


class TestRecorder:
    def test_calls_and_transfers_recorded(self, network):
        res = mpi_run(_mixed_traffic, nprocs=2, network=network)
        rec = res.recorder
        funcs = {c.func for c in rec.calls}
        assert {"send", "isend", "recv", "irecv", "barrier", "allreduce"} <= funcs
        assert rec.transfers, "wire transfers must be recorded"

    def test_collective_attribution(self, network):
        res = mpi_run(_mixed_traffic, nprocs=2, network=network)
        rec = res.recorder
        coll = [t for t in rec.transfers if t.in_collective]
        pt = [t for t in rec.transfers if not t.in_collective]
        assert coll and pt

    def test_record_flag_off(self):
        res = mpi_run(_mixed_traffic, nprocs=2, network="infiniband", record=False)
        assert res.recorder is None


class TestRecordCodec:
    """The cached row format of the records, pinned to the byte."""

    #: sha256 of the canonical JSON of IS.S at 4 ranks on InfiniBand,
    #: computed when the records were still frozen dataclasses
    IS_S_PAYLOAD_SHA256 = (
        "efd2d210940a75aea524f6caf21f2b87fab03de62b600409c13d550fe2c2459f")

    @pytest.fixture(scope="class")
    def payload(self):
        return plain(run_app("is", "S", "infiniband", 4).recorder.to_dict())

    def test_payload_bytes_pinned(self, payload):
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        assert hashlib.sha256(blob.encode()).hexdigest() == self.IS_S_PAYLOAD_SHA256

    def test_round_trip(self, payload):
        cached = json.loads(json.dumps(payload))
        assert cached == payload  # rows stay lists, never tuples
        assert plain(Recorder.from_dict(payload).to_dict()) == payload
        assert plain(Recorder.from_dict(cached).to_dict()) == payload

    @pytest.mark.parametrize("stream", ["calls", "transfers"])
    @pytest.mark.parametrize("short", [True, False])
    def test_wrong_row_length_raises(self, payload, stream, short):
        row = payload[stream][0]
        bad_row = row[:-1] if short else row + [0]
        bad = dict(payload, **{stream: [bad_row] + payload[stream][1:]})
        with pytest.raises(TypeError):
            Recorder.from_dict(bad)

    def test_rehydrates_exactly_like_make(self, payload):
        """The bulk rebuild gives ``_make``'s records, field by field and
        type by type."""
        cached = json.loads(json.dumps(payload))
        rec = Recorder.from_dict(cached)
        for got, cls, rows in ((rec.calls, CallRecord, cached["calls"]),
                               (rec.transfers, TransferRecord, cached["transfers"])):
            want = list(map(cls._make, rows))
            assert len(got) == len(want) > 0
            for g, w in zip(got, want):
                assert type(g) is cls
                assert g == w
                assert list(map(type, g)) == list(map(type, w))

    @pytest.mark.parametrize("stream", ["calls", "transfers"])
    @pytest.mark.parametrize("short", [True, False])
    def test_wrong_length_in_the_last_row_raises(self, payload, stream, short):
        row = payload[stream][-1]
        bad_row = row[:-1] if short else row + [0]
        bad = dict(payload, **{stream: payload[stream][:-1] + [bad_row]})
        with pytest.raises(TypeError):
            Recorder.from_dict(bad)

    def test_live_rows_are_the_payload_rows(self):
        """A live Recorder keeps its streams packed; its decoded records
        are ``_make`` of the decoded rows, type for type, and its payload
        holds the blocks themselves."""
        rec = mpi_run(_mixed_traffic, nprocs=2, network="infiniband").recorder
        assert len(rec.call_block) and len(rec.transfer_block)
        for block, view, cls in ((rec.call_block, rec.calls, CallRecord),
                                 (rec.transfer_block, rec.transfers,
                                  TransferRecord)):
            rows = block.json_rows()
            assert all(type(row) is list for row in rows)
            assert len(view) == len(rows) == len(block)
            for record, row in zip(view, rows):
                want = cls._make(row)
                assert type(record) is cls and record == want
                assert list(map(type, record)) == list(map(type, want))
        payload = rec.to_dict()
        assert payload["calls"] is rec.call_block
        assert payload["transfers"] is rec.transfer_block

    def test_run_specs_payload_holds_plain_lists(self):
        """Where a payload leaves the runtime its rows are plain lists of
        JSON scalars, with the records' types."""
        from repro import runtime
        from repro.runtime import RunSpec

        runtime.reset()
        spec = RunSpec.app("is", "S", "infiniband", 4, record=True)
        try:
            payload = runtime.run_specs([spec])[0]["recorder"]
        finally:
            runtime.reset()
        for key, cls in (("calls", CallRecord), ("transfers", TransferRecord)):
            rows = payload[key]
            assert type(rows) is list and rows
            for row in rows:
                assert type(row) is list
                assert list(map(type, cls._make(row))) == list(map(type, row))
        assert json.loads(json.dumps(payload)) == payload

    def test_views_follow_new_rows(self):
        rec = Recorder()
        rec.record_call(0, "send", 1, 8, 0, 0.0, 1.0, True, False, True)
        assert [c.nbytes for c in rec.calls] == [8]
        rec.record_call(0, "recv", 1, 16, 64, 1.0, 2.0, True, False, True)
        assert [c.nbytes for c in rec.calls] == [8, 16]
        assert rec.call_block.json_rows() == [
            [0, "send", 1, 8, 0, 0.0, 1.0, True, False, True],
            [0, "recv", 1, 16, 64, 1.0, 2.0, True, False, True]]
        rec.clear()
        assert rec.calls == [] and len(rec.call_block) == 0
        rec.record_transfer(0, 1, 32, False, time=3.0)
        assert rec.transfers == [TransferRecord(0, 1, 32, False, False, 3.0)]

    def test_records_immutable(self, payload):
        rec = Recorder.from_dict(payload)
        with pytest.raises(AttributeError):
            rec.calls[0].nbytes = 1
        with pytest.raises(AttributeError):
            rec.transfers[0].time = 1.0

    def test_field_order(self):
        assert CallRecord._fields == ("rank", "func", "peer", "nbytes", "buf_addr",
                                      "t_start", "t_end", "blocking", "collective",
                                      "intra")
        assert TransferRecord._fields == ("rank", "peer", "nbytes", "intra",
                                          "in_collective", "time")


#: profile_dict of small recorded InfiniBand runs, computed when the
#: records were still frozen dataclasses; floats compare exactly
PINNED_PROFILES = [
    (("is", "S", 4, 1, None), {
        "message_sizes": {"<2K": 4, "2K-16K": 4, "16K-1M": 4, ">1M": 0},
        "wire_transfers": {"<2K": 72, "2K-16K": 72, "16K-1M": 0, ">1M": 0},
        "nonblocking": {"isend": {"calls": 0, "avg_size": 0.0},
                        "irecv": {"calls": 0, "avg_size": 0.0}},
        "buffer_reuse": {"reuse_pct": 66.66666666666667,
                         "weighted_reuse_pct": 11.188204683434519, "calls": 48},
        "collectives": {"calls": 15, "pct_calls": 100.0, "pct_volume": 100.0,
                        "by_name": {"allreduce": 4, "alltoall": 4,
                                    "alltoallv": 4, "barrier": 3}},
        "intranode": {"calls": 0, "pct_calls": 0.0, "pct_volume": 0.0},
    }),
    (("cg", "S", 4, 1, None), {
        "message_sizes": {"<2K": 68, "2K-16K": 48, "16K-1M": 0, ">1M": 0},
        "wire_transfers": {"<2K": 296, "2K-16K": 192, "16K-1M": 0, ">1M": 0},
        "nonblocking": {"isend": {"calls": 0, "avg_size": 0.0},
                        "irecv": {"calls": 0, "avg_size": 0.0}},
        "buffer_reuse": {"reuse_pct": 100.0, "weighted_reuse_pct": 100.0,
                         "calls": 464},
        "collectives": {"calls": 3, "pct_calls": 2.5210084033613445,
                        "pct_volume": 0.0022275849266753297,
                        "by_name": {"barrier": 3}},
        "intranode": {"calls": 0, "pct_calls": 0.0, "pct_volume": 0.0},
    }),
    # two ranks per node and a sampled run: covers Isend/Irecv, the
    # intra-node split and the steady-state reuse window
    (("sp", "S", 4, 2, 2), {
        "message_sizes": {"<2K": 0, "2K-16K": 36, "16K-1M": 0, ">1M": 0},
        "wire_transfers": {"<2K": 72, "2K-16K": 144, "16K-1M": 0, ">1M": 0},
        "nonblocking": {"isend": {"calls": 36, "avg_size": 6448.0},
                        "irecv": {"calls": 36, "avg_size": 6448.0}},
        "buffer_reuse": {"reuse_pct": 100.0, "weighted_reuse_pct": 100.0,
                         "calls": 288},
        "collectives": {"calls": 9, "pct_calls": 11.11111111111111,
                        "pct_volume": 0.007753741180119408,
                        "by_name": {"barrier": 9}},
        "intranode": {"calls": 12, "pct_calls": 33.333333333333336,
                      "pct_volume": 33.333333333333336},
    }),
]


@pytest.mark.parametrize("run,expected", PINNED_PROFILES,
                         ids=[f"{r[0]}.{r[1]}-ppn{r[3]}" for r, _ in PINNED_PROFILES])
def test_profile_dict_pinned(run, expected):
    app, klass, nprocs, ppn, sample_iters = run
    res = run_app(app, klass, "infiniband", nprocs, ppn=ppn,
                  sample_iters=sample_iters)
    assert profile_dict(res.recorder) == expected


#: the five statistics of the profiling tables' per-run summary for two
#: sampled 8-rank InfiniBand runs, computed from record views before
#: the statistics read the payload rows; floats compare exactly
PINNED_SUMMARIES = [
    (("sweep3d", "50", 1), {
        "sizes": {"<2K": 18000, "2K-16K": 0, "16K-1M": 0, ">1M": 0},
        "nonblocking": {"isend": {"calls": 0, "avg_size": 0.0},
                        "irecv": {"calls": 0, "avg_size": 0.0}},
        "reuse": {"reuse_pct": 100.0, "weighted_reuse_pct": 100.0,
                  "calls": 288000},
        "collective": {"calls": 36, "pct_calls": 0.0999000999000999,
                       "pct_volume": 0.0009469607295385461,
                       "by_name": {"barrier": 36}},
        "intranode": {"calls": 0, "pct_calls": 0.0, "pct_volume": 0.0},
    }),
    (("lu", "B", 2), {
        "sizes": {"<2K": 64000, "2K-16K": 0, "16K-1M": 625, ">1M": 0},
        "nonblocking": {"isend": {"calls": 625, "avg_size": 165648.0},
                        "irecv": {"calls": 625, "avg_size": 165648.0}},
        "reuse": {"reuse_pct": 100.0, "weighted_reuse_pct": 100.0,
                  "calls": 1032000},
        "collective": {"calls": 625, "pct_calls": 0.4830917874396135,
                       "pct_volume": 0.0022336021906204403,
                       "by_name": {"allreduce": 250, "barrier": 375}},
        "intranode": {"calls": 25750, "pct_calls": 40.0,
                      "pct_volume": 24.63054187192118},
    }),
]


@pytest.mark.parametrize("run,expected", PINNED_SUMMARIES,
                         ids=[f"{r[0]}.{r[1]}-ppn{r[2]}"
                              for r, _ in PINNED_SUMMARIES])
def test_summary_pinned_and_reads_rows_only(run, expected, monkeypatch):
    """A run's table summary equals the record-view values, from the
    live packed payload and from its decoded JSON alike, and decodes no
    row: the statistics iterate the packed blocks."""
    from repro.apps.runner import simulate_app_spec
    from repro.experiments.tables import _profile_summary
    from repro.profiling.recorder import RecordBlock
    from repro.runtime import RunSpec

    app, klass, ppn = run
    spec = RunSpec.app(app, klass, "infiniband", 8, ppn=ppn, record=True,
                       sample_iters=2)
    live = simulate_app_spec(spec)
    payload = json.loads(json.dumps(plain(live)))
    built = []
    for name in ("json_rows", "records"):
        monkeypatch.setattr(RecordBlock, name,
                            lambda block, *a, name=name: built.append(name))
    assert _profile_summary(live) == expected
    assert _profile_summary(payload) == expected
    assert built == []


class TestStats:
    def test_message_size_histogram_buckets(self, network):
        res = mpi_run(_mixed_traffic, nprocs=2, network=network)
        hist = message_size_histogram(res.recorder, per_process=False)
        assert hist["<2K"] >= 1       # the 64 B sends
        assert hist["16K-1M"] >= 1    # the 64 KB isend
        assert hist[">1M"] == 0

    def test_transfer_histogram_counts_wire_messages(self, network):
        res = mpi_run(_mixed_traffic, nprocs=2, network=network)
        hist = transfer_size_histogram(res.recorder)
        assert sum(hist.values()) == len(res.recorder.transfers)

    def test_nonblocking_stats(self, network):
        res = mpi_run(_mixed_traffic, nprocs=2, network=network)
        nb = nonblocking_stats(res.recorder, per_process=False)
        assert nb["isend"]["calls"] == 1
        assert nb["irecv"]["calls"] == 1
        assert nb["isend"]["avg_size"] == 64 * 1024

    def test_buffer_reuse_rate(self):
        def fn(comm):
            other = 1 - comm.rank
            fixed = comm.alloc(128)
            for i in range(4):
                if comm.rank == 0:
                    yield from comm.send(fixed, dest=1, tag=i)
                else:
                    yield from comm.recv(fixed, source=0, tag=i)
            # one fresh-buffer message
            fresh = comm.alloc(128, recycle=False)
            if comm.rank == 0:
                yield from comm.send(fresh, dest=1, tag=9)
            else:
                yield from comm.recv(fresh, source=0, tag=9)

        res = mpi_run(fn, nprocs=2, network="infiniband")
        reuse = buffer_reuse_rate(res.recorder)
        # per rank: 5 calls on 2 distinct buffers -> 3/5 reuse
        assert reuse["reuse_pct"] == pytest.approx(60.0)

    def test_collective_stats_is_like(self):
        """IS is almost all collectives — like the paper's Table 5."""
        r = run_app("is", "S", "infiniband", 4, verify=False, sample_iters=4)
        cs = collective_stats(r.recorder)
        assert cs["pct_volume"] > 95.0
        assert cs["calls"] > 0

    def test_intranode_stats_block_mapping(self):
        r = run_app("lu", "S", "infiniband", 4, ppn=2, verify=False,
                    sample_iters=3)
        st = intranode_stats(r.recorder)
        assert 0.0 < st["pct_calls"] < 100.0

    def test_scale_multiplies_counts(self):
        rec = Recorder()
        rec.record_call(0, "send", 1, 100, 0x1000, 0, 1, True, False, False)
        rec.scale = 10.0
        hist = message_size_histogram(rec, per_process=False)
        assert hist["<2K"] == 10


def test_recorder_memory_budget():
    """A Recorder retains at most 80 B per call and 48 B per transfer
    (tracemalloc, 20,000 of each; the packed blocks take about 49 and
    29 B).  One Python list per row retained 192 B per call and 137 B
    per transfer on CPython 3.11: the row list, its boxed times and the
    stream list's pointer."""
    import tracemalloc

    n = 20_000
    addrs = [0x1000_0000 + 4096 * k for k in range(64)]
    funcs = ("send", "irecv", "isend", "allreduce")
    rec = Recorder()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        for i in range(n):
            rec.record_call(i % 8, funcs[i % 4], (i + 1) % 8, 2400,
                            addrs[i % 64], i * 0.5, i * 0.5 + 0.25,
                            i % 2 == 0, i % 4 == 3, None if i % 4 == 3
                            else i % 3 == 0)
        calls = tracemalloc.get_traced_memory()[0] - base
        for i in range(n):
            rec.record_transfer(i % 8, (i + 1) % 8, 2400, i % 3 == 0,
                                time=i * 0.75)
        transfers = tracemalloc.get_traced_memory()[0] - base - calls
    finally:
        tracemalloc.stop()
    assert rec.ncalls == n and len(rec.transfers) == n
    assert calls / n <= 80, f"{calls / n:.1f} B per call"
    assert transfers / n <= 48, f"{transfers / n:.1f} B per transfer"


class TestReadOnlyContract:
    """A table summary runs every statistic over one decoded Recorder,
    so no statistic may mutate it."""

    @pytest.fixture(scope="class", params=[("is", 1, None), ("sp", 2, 2)],
                    ids=["is", "sp-ppn2-sampled"])
    def recorder(self, request):
        app, ppn, sample_iters = request.param
        return run_app(app, "S", "infiniband", 4, ppn=ppn,
                       sample_iters=sample_iters).recorder

    @pytest.mark.parametrize("stat", [
        message_size_histogram, transfer_size_histogram, nonblocking_stats,
        buffer_reuse_rate, collective_stats, intranode_stats,
    ], ids=lambda f: f.__name__)
    def test_stats_leave_recorder_unchanged(self, recorder, stat):
        # to_dict shares its blocks with the Recorder, so compare with
        # a decoded copy taken before the statistic runs
        before = json.loads(json.dumps(plain(recorder.to_dict())))
        stat(recorder)
        assert plain(recorder.to_dict()) == before

    def test_summary_is_shared_and_equals_a_private_decode(self):
        from repro import runtime
        from repro.experiments.tables import _profile_summaries

        runtime.reset()
        specs = [("is", "S", 4), ("cg", "S", 4)]
        first = _profile_summaries(True, specs=specs)
        again = _profile_summaries(True, specs=specs)
        for a, b in zip(first, again):
            assert a is b  # one cache entry, read-only by contract
        assert run_app("is", "S", "infiniband", 4).recorder is not \
            run_app("is", "S", "infiniband", 4).recorder
        runtime.configure(enabled=False)
        try:
            for (app, klass, np_), summary in zip(specs, first):
                rec = run_app(app, klass, "infiniband", np_,
                              sample_iters=2).recorder
                assert summary == {
                    "sizes": message_size_histogram(rec),
                    "nonblocking": nonblocking_stats(rec),
                    "reuse": buffer_reuse_rate(rec),
                    "collective": collective_stats(rec),
                    "intranode": intranode_stats(rec)}
            assert _profile_summaries(True, specs=specs) == first
        finally:
            runtime.reset()


class TestPaperProfiles:
    """The profile shapes the paper reports for specific applications."""

    def test_is_message_profile(self):
        """Table 1: IS has ~11 huge (>1M) calls and small/mid control."""
        r = run_app("is", "B", "infiniband", 8)
        hist = message_size_histogram(r.recorder)
        assert 10 <= hist[">1M"] <= 13          # paper: 11
        assert hist["2K-16K"] >= 8              # paper: 11 (allreduce 8KB)

    def test_lu_message_profile(self):
        """Table 1: LU is dominated by ~100k tiny messages."""
        r = run_app("lu", "B", "infiniband", 8, sample_iters=4)
        hist = message_size_histogram(r.recorder)
        assert 60_000 <= hist["<2K"] <= 140_000   # paper: 100021
        assert 500 <= hist["16K-1M"] <= 2_000     # paper: 1008
        assert hist[">1M"] == 0

    def test_sweep3d150_message_profile(self):
        """Table 1: S3d-150 splits ~28.8k/28.8k between <2K and 2K-16K."""
        r = run_app("sweep3d", "150", "infiniband", 8, sample_iters=2)
        hist = message_size_histogram(r.recorder)
        assert 15_000 <= hist["<2K"] <= 35_000     # paper: 28836
        assert 20_000 <= hist["2K-16K"] <= 45_000  # paper: 28800

    def test_sp_nonblocking_profile(self):
        """Table 3: SP uses both isend and irecv with ~264 KB averages."""
        r = run_app("sp", "B", "infiniband", 4, sample_iters=4)
        nb = nonblocking_stats(r.recorder)
        assert nb["isend"]["calls"] > 0
        assert nb["irecv"]["calls"] > 0
        assert 150_000 < nb["isend"]["avg_size"] < 400_000  # paper: 263970

    def test_ft_never_uses_nonblocking(self):
        """Table 3: FT has no Isend/Irecv at the application level."""
        r = run_app("ft", "B", "infiniband", 4, sample_iters=2)
        nb = nonblocking_stats(r.recorder)
        assert nb["isend"]["calls"] == 0
        assert nb["irecv"]["calls"] == 0

    def test_apps_have_high_buffer_reuse_except_is(self):
        """Table 4: most apps reuse buffers ~99%+; IS is the outlier."""
        lu = buffer_reuse_rate(run_app("lu", "B", "infiniband", 8,
                                       sample_iters=3).recorder)
        assert lu["reuse_pct"] > 97.0
