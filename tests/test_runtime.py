"""Tests for the run-plan layer: RunSpec identity, cache, executor.

The properties locked down here are what the whole layer rests on:

- a spec's digest is a pure function of its *content* (stable across
  processes, independent of dict order and network aliases, changed by
  every field);
- the cache counts exactly one miss per simulation actually executed,
  and the disk tier round-trips across fresh caches but never across a
  code-version salt change;
- the parallel executor is an optimization only: its payloads are
  byte-identical to serial execution for mixed app/microbench sweeps.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import io
import json
import subprocess
import sys
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import runtime
from repro.core.metrics import MetricsRegistry
from repro.runtime import (ResultCache, RunSpec, SweepError, SweepExecutor,
                           code_salt, execute_spec, freeze_mapping,
                           is_error_payload, thaw_mapping)
from repro.runtime import cache as cache_module
from repro.runtime.cache import JSON_SLICE, DirBackend, derived_key, dump_json


@pytest.fixture(autouse=True)
def _fresh_runtime():
    runtime.reset()
    yield
    runtime.reset()


def tiny_app_spec(**kw):
    kw.setdefault("sample_iters", 2)
    kw.setdefault("record", False)
    return RunSpec.app("is", "S", "infiniband", 2, **kw)


def tiny_bench_spec(**kw):
    kw.setdefault("sizes", (4, 64))
    kw.setdefault("iters", 3)
    return RunSpec.microbench("latency", "infiniband", **kw)


# ----------------------------------------------------------------------
# RunSpec identity
# ----------------------------------------------------------------------
class TestSpecDigest:
    def test_equal_specs_equal_digests(self):
        assert tiny_app_spec().digest == tiny_app_spec().digest
        assert tiny_app_spec() == tiny_app_spec()
        assert hash(tiny_app_spec()) == hash(tiny_app_spec())

    def test_digest_stable_across_processes(self):
        """The digest is content-addressed, not id/hash-seed dependent."""
        spec = tiny_bench_spec(net_overrides={"mtu": 1024})
        prog = (
            "from repro.runtime import RunSpec; "
            "print(RunSpec.microbench('latency', 'infiniband', "
            "sizes=(4, 64), iters=3, net_overrides={'mtu': 1024}).digest)"
        )
        out = subprocess.run([sys.executable, "-c", prog], check=True,
                             capture_output=True, text=True)
        assert out.stdout.strip() == spec.digest

    def test_every_field_change_changes_digest(self):
        base = RunSpec.app("cg", "A", "infiniband", 4, ppn=1, record=True)
        changed = {
            "target": "mg", "network": "myrinet", "klass": "B",
            "nprocs": 8, "ppn": 2, "mapping": "cyclic", "bus_kind": "pci",
            "mpi_options": (("vbuf_total", 100),),
            "net_overrides": (("mtu", 2048),),
            "sizes": (4,), "iters": 10, "seed": 7, "record": False,
            "params": (("verify", True),),
        }
        digests = {base.digest}
        for field_name, value in changed.items():
            d = base.replace(**{field_name: value}).digest
            assert d not in digests, f"changing {field_name} did not change digest"
            digests.add(d)
        # every field produced a distinct digest
        assert len(digests) == len(changed) + 1

    def test_network_aliases_normalize(self):
        a = tiny_bench_spec()
        b = dataclasses.replace(a, network="iba")
        c = dataclasses.replace(a, network="InfiniBand")
        assert a.digest == b.digest == c.digest

    def test_mapping_order_does_not_matter(self):
        a = RunSpec.microbench("latency", "myrinet",
                               net_overrides={"mtu": 4096, "lanai_dma_mbps": 400.0})
        b = RunSpec.microbench("latency", "myrinet",
                               net_overrides={"lanai_dma_mbps": 400.0, "mtu": 4096})
        assert a.digest == b.digest

    def test_bus_kind_extracted_from_net_overrides(self):
        spec = tiny_app_spec(net_overrides={"bus_kind": "pci", "mtu": 1024})
        assert spec.bus_kind == "pci"
        assert dict(spec.net_overrides) == {"mtu": 1024}
        assert spec.merged_net_overrides() == {"mtu": 1024, "bus_kind": "pci"}

    def test_specs_reject_bad_values(self):
        with pytest.raises(ValueError):
            RunSpec(kind="nope", target="x")
        with pytest.raises(ValueError):
            RunSpec(kind="app", target="is", nprocs=0)
        with pytest.raises(ValueError):
            RunSpec(kind="app", target="is", mapping="diagonal")

    def test_freeze_thaw_roundtrip(self):
        d = {"b": 2, "a": {"y": [1, 2], "x": 1}}
        frozen = freeze_mapping(d)
        assert frozen == (("a", (("x", 1), ("y", (1, 2)))), ("b", 2))
        assert thaw_mapping(frozen)["b"] == 2

    def test_describe_is_short_and_informative(self):
        assert tiny_app_spec().describe() == "app:is.S@infiniband np=2x1"

    def test_any_mapping_freezes_like_a_dict(self):
        """The exact-type fast path and the ``Mapping`` / sequence
        fallbacks freeze the same content to the same pairs."""
        import collections
        import types

        nested = {"b": [1, (2.5, None)], "a": {"y": True, "x": "s"}}
        want = freeze_mapping(nested)
        assert want == (("a", (("x", "s"), ("y", True))),
                        ("b", (1, (2.5, None))))
        Pair = collections.namedtuple("Pair", "lo hi")
        alike = [
            types.MappingProxyType(nested),
            collections.OrderedDict(reversed(list(nested.items()))),
            {"b": Pair(1, Pair(2.5, None)),
             "a": types.MappingProxyType({"x": "s", "y": True})},
            tuple(nested.items()),
            list(nested.items()),
        ]
        for mapping in alike:
            assert freeze_mapping(mapping) == want
        with pytest.raises(TypeError, match="plain data"):
            freeze_mapping({"a": {1, 2}})

    def test_artifact_spec_digests_pinned(self, monkeypatch):
        """The specs that Tables 1/3/4/5 and Figs. 1-13 ask for in quick
        mode keep their digests, so no change to spec building re-keys
        a warm cache.  Captured without simulating: each sweep entry
        point records its specs and stops the artifact."""
        from repro.experiments import figures, run_figure, run_table, tables

        class _Stop(Exception):
            pass

        seen = []

        def record(specs, *_args):
            seen.extend(specs)
            raise _Stop

        for module, name in ((figures, "run_specs"), (tables, "run_specs"),
                             (tables, "derive")):
            monkeypatch.setattr(module, name, record)
        for art in ARTIFACTS:
            with pytest.raises(_Stop):
                (run_figure if art.startswith("fig") else run_table)(
                    art, quick=True)
        digests = sorted(spec.digest for spec in seen)
        assert (len(digests), len(set(digests))) == (90, 63)
        blob = "\n".join(digests).encode()
        assert hashlib.sha256(blob).hexdigest() == ARTIFACT_SPECS_SHA256


#: the artifacts a warm report re-renders (perfbench's ``report-warm``)
ARTIFACTS = (["table1", "table3", "table4", "table5"]
             + [f"fig{i}" for i in range(1, 14)])

#: sha256 of the sorted digests of every spec ``ARTIFACTS`` ask for
ARTIFACT_SPECS_SHA256 = (
    "822ed0ffcb38467cf455b8aa56f6ab4780088b060abe4f155d768b03dcf6e609")


# ----------------------------------------------------------------------
# ResultCache
# ----------------------------------------------------------------------
class TestResultCache:
    def test_hit_miss_accounting(self):
        cache = ResultCache()
        spec = tiny_bench_spec()
        assert cache.lookup(spec) is None
        cache.store(spec, {"v": 1})
        assert cache.lookup(spec) == {"v": 1}
        assert cache.lookup(spec) == {"v": 1}
        assert cache.stats.misses == 1
        assert cache.stats.hits == 2
        assert cache.stats.stores == 1
        assert cache.stats.lookups == 3
        assert spec in cache and len(cache) == 1

    def test_disk_tier_roundtrips_across_caches(self, tmp_path):
        spec = tiny_bench_spec()
        a = ResultCache(disk_dir=tmp_path)
        a.lookup(spec)
        a.store(spec, {"points": [[4, 5.0]]})
        # writes land in the 2-hex-prefix shard of the digest
        path = tmp_path / code_salt() / spec.digest[:2] / f"{spec.digest}.json"
        assert path.is_file()
        assert json.loads(path.read_text()) == {"points": [[4, 5.0]]}

        b = ResultCache(disk_dir=tmp_path)  # fresh memory, same disk
        assert b.lookup(spec) == {"points": [[4, 5.0]]}
        assert b.stats.disk_hits == 1
        assert b.lookup(spec) == {"points": [[4, 5.0]]}  # now from memory
        assert b.stats.disk_hits == 1 and b.stats.hits == 2

    def test_disk_file_is_the_compact_json_dump(self, tmp_path):
        """A stored file's bytes are exactly ``json.dumps`` with compact
        separators, non-finite floats included."""
        spec = tiny_bench_spec()
        payload = {"points": [[4, 5.0], [8, float("inf")]],
                   "nested": [[True, False, None], []], "nan": float("nan")}
        cache = ResultCache(disk_dir=tmp_path)
        cache.store(spec, payload)
        blob = cache.backend.path(spec.digest).read_bytes()
        assert blob == json.dumps(payload, separators=(",", ":")).encode()

    def test_salt_mismatch_is_a_miss(self, tmp_path):
        """A recalibration (new version salt) must never serve stale data."""
        spec = tiny_bench_spec()
        old = ResultCache(disk_dir=tmp_path, salt="repro-0.9.9-s1")
        old.store(spec, {"stale": True})
        new = ResultCache(disk_dir=tmp_path)
        assert new.lookup(spec) is None
        assert new.stats.misses == 1

    def test_corrupt_disk_entry_is_a_miss(self, tmp_path):
        spec = tiny_bench_spec()
        cache = ResultCache(disk_dir=tmp_path)
        path = tmp_path / cache.salt / f"{spec.digest}.json"
        path.parent.mkdir(parents=True)
        path.write_text("{not json")
        assert cache.lookup(spec) is None

    def test_clear_drops_memory_not_disk(self, tmp_path):
        spec = tiny_bench_spec()
        cache = ResultCache(disk_dir=tmp_path)
        cache.store(spec, {"v": 1})
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.hits == 0
        assert cache.lookup(spec) == {"v": 1}  # re-read from disk
        assert cache.stats.disk_hits == 1


_JSON_SCALARS = (st.none() | st.booleans() | st.integers()
                 | st.floats(allow_nan=True, allow_infinity=True) | st.text())
_JSON_KEYS = (st.text() | st.integers() | st.floats() | st.booleans()
              | st.none())
_JSON_TREES = st.recursive(
    _JSON_SCALARS,
    lambda kids: (st.lists(kids, max_size=9)
                  | st.lists(kids, max_size=9).map(tuple)
                  | st.dictionaries(_JSON_KEYS, kids, max_size=5)),
    max_leaves=40)


def _dumped(obj, slice_len=JSON_SLICE):
    buf = io.StringIO()
    with mock.patch.object(cache_module, "JSON_SLICE", slice_len):
        dump_json(obj, buf)
    return buf.getvalue()


class TestDumpJson:
    """The disk tier's writer puts out exactly the bytes of a compact
    ``json.dumps``, however its lists are cut into slices."""

    @settings(max_examples=300, deadline=None)
    @given(obj=_JSON_TREES, slice_len=st.integers(1, 4))
    def test_equals_json_dumps(self, obj, slice_len):
        want = json.dumps(obj, separators=(",", ":"))
        assert _dumped(obj, slice_len) == want
        streamed = io.StringIO()
        json.dump(obj, streamed, separators=(",", ":"))
        assert streamed.getvalue() == want

    @pytest.mark.parametrize("n", [0, JSON_SLICE - 1, JSON_SLICE,
                                   JSON_SLICE + 1, 2 * JSON_SLICE + 1])
    def test_list_lengths_around_the_slice(self, n):
        rows = [[i, "send", -i, i * 0.5, i % 2 == 0, None, "\u00e9"]
                for i in range(n)]
        obj = {"calls": rows, "rows": tuple(rows), "n": n,
               "nested": {"inner": rows, 1.5: float("nan"), None: [],
                          True: float("-inf"), 7: float("inf")}}
        assert _dumped(obj) == json.dumps(obj, separators=(",", ":"))

    def test_unencodable_key_raises_like_json(self):
        with pytest.raises(TypeError):
            json.dumps({(1, 2): 0})
        with pytest.raises(TypeError):
            _dumped({"ok": {(1, 2): 0}})

    def test_is_s_payload_file_pinned(self, tmp_path):
        """A cold disk tier writes the recorded IS.S payload (4 ranks,
        InfiniBand) to the byte as the streamed ``json.dump`` did."""
        runtime.reset(disk_dir=tmp_path)
        spec = RunSpec.app("is", "S", "infiniband", 4, record=True)
        runtime.run_spec(spec)
        blob = DirBackend(tmp_path, code_salt()).path(spec.digest).read_bytes()
        assert hashlib.sha256(blob).hexdigest() == (
            "2f727faab8b9e90e81fed6a773c8a4545e6c093ebd79c878a8e1f57ecd8016bc")

    def test_large_recorded_payload_file_pinned(self, tmp_path):
        """LU.B on 8 InfiniBand ranks (quick: 8,280 calls and 4,220
        transfers, both over 2 x JSON_SLICE) goes through a cold disk
        tier to the byte as when the Recorder kept one list per row; the
        file is the JSON of the payload ``run_specs`` returns, and the
        live packed path summarises the run as its decoded file does."""
        from repro.experiments.tables import _profile_summary

        spec = RunSpec.app("lu", "B", "infiniband", 8, record=True,
                           sample_iters=2)
        runtime.reset(disk_dir=tmp_path)
        (live_summary,) = runtime.derive([spec], _profile_summary)
        text = DirBackend(tmp_path, code_salt()).path(spec.digest).read_text()
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "d31fed47261fa82f13ca30da144e6418573061c6684ed6dcec1cbe2e0ec40f21")
        decoded = json.loads(text)
        for stream in ("calls", "transfers"):
            assert len(decoded["recorder"][stream]) > 2 * JSON_SLICE
        assert _profile_summary(decoded) == live_summary
        runtime.reset(disk_dir=tmp_path)
        (payload,) = runtime.run_specs([spec])
        assert runtime.cache_stats().disk_hits == 1
        assert text == json.dumps(payload, separators=(",", ":"))
        runtime.reset()
        (payload,) = runtime.run_specs([spec])  # simulated, then decoded
        assert runtime.cache_stats().misses == 1
        assert text == json.dumps(payload, separators=(",", ":"))


class TestPackedBlocks:
    """A Recorder's packed streams, as the run-plan layer carries them."""

    @staticmethod
    def _recorder(ncalls):
        from repro.profiling import Recorder

        rec = Recorder()
        for i in range(ncalls):
            rec.record_call(i % 4, ("send", "irecv", "alltoall")[i % 3],
                            -1 if i % 3 == 2 else (i + 1) % 4, i * 8,
                            0x1000_0000 + 4096 * i, i * 0.5, i * 0.5 + 0.25,
                            i % 2 == 0, i % 3 == 2,
                            (None, False, True)[i % 3])
            rec.record_transfer(i % 4, (i + 1) % 4, i * 8, i % 2 == 1,
                                time=i * 0.75)
        return rec

    @pytest.mark.parametrize("n", [0, 1, JSON_SLICE, JSON_SLICE + 1,
                                   2 * JSON_SLICE + 1])
    def test_dump_json_writes_the_decoded_rows(self, n):
        payload = self._recorder(n).to_dict()
        want = json.dumps(cache_module.plain(payload), separators=(",", ":"))
        assert _dumped(payload) == want
        assert _dumped(payload, slice_len=7) == want

    def test_pickles_as_bytes(self):
        import pickle

        rec = self._recorder(3000)
        for block in (rec.call_block, rec.transfer_block):
            blob = pickle.dumps(block)
            assert len(blob) < len(block.buf) + 512
            again = pickle.loads(blob)
            assert again == block and again.json_rows() == block.json_rows()

    def test_plain_copies_only_what_holds_a_block(self):
        rec = self._recorder(5)
        metrics = {"counters": {"a": 1.0}}
        payload = {"kind": "app", "recorder": rec.to_dict(),
                   "metrics": metrics}
        out = cache_module.plain(payload)
        assert out is not payload and out["metrics"] is metrics
        assert payload["recorder"]["calls"] is rec.call_block
        assert out["recorder"]["calls"] == rec.call_block.json_rows()
        assert cache_module.plain(out) is out

    @pytest.mark.parametrize("n", [0, 1, 4096, 4097, 9000])
    def test_take_empties_the_blocks(self, n):
        from repro.profiling.recorder import Recorder

        rec = self._recorder(n)
        want = cache_module.plain(rec.to_dict())
        got = cache_module.plain(rec.to_dict(), take=True)
        assert got == want
        assert len(rec.call_block) == len(rec.transfer_block) == 0
        assert rec.call_block == Recorder().call_block

    def test_memory_tier_keeps_blocks_and_lookup_returns_plain(self):
        rec = self._recorder(5)
        spec = tiny_app_spec()
        cache = ResultCache()
        cache.store(spec, {"kind": "app", "recorder": rec.to_dict()})
        got = cache.lookup(spec)
        assert got["recorder"]["transfers"] == rec.transfer_block.json_rows()
        assert cache._mem[spec.digest]["recorder"]["calls"] is rec.call_block


class TestDecodePausesCollector:
    """Bulk decodes of cached results run with the cyclic collector
    paused, and leave it as the caller had it (``caller_gc``)."""

    @pytest.fixture
    def loads_seen(self, monkeypatch):
        """The collector's state at every ``json.loads``."""
        seen = []
        real = json.loads

        def loads(*args, **kw):
            seen.append(gc.isenabled())
            return real(*args, **kw)

        monkeypatch.setattr(json, "loads", loads)
        return seen

    def test_hit(self, tmp_path, caller_gc, loads_seen):
        spec = tiny_bench_spec()
        cache = ResultCache(disk_dir=tmp_path)
        cache.store(spec, {"v": [1, True]})
        cache.clear()  # drop the memory tier so lookup decodes
        seen = []

        def derived(payload):
            seen.append(gc.isenabled())
            return payload["v"]

        assert SweepExecutor(cache=cache).derive([spec], derived) == \
            [[1, True]]
        assert loads_seen == [False] and seen == [False]
        assert gc.isenabled() is caller_gc

    def test_corrupt_file_quarantined(self, tmp_path, caller_gc, loads_seen):
        spec = tiny_bench_spec()
        cache = ResultCache(disk_dir=tmp_path)
        path = cache.backend.path(spec.digest)
        path.parent.mkdir(parents=True)
        path.write_text("{not json")
        assert cache.lookup(spec) is None
        assert cache.stats.corrupt == 1 and not path.exists()
        assert loads_seen == [False]
        assert gc.isenabled() is caller_gc

    def test_decode_that_raises(self, caller_gc):
        spec = tiny_bench_spec()
        cache = ResultCache()
        cache.store(spec, {"v": 1})
        seen = []

        def derived(payload):
            seen.append(gc.isenabled())
            raise ValueError("undecodable")

        with pytest.raises(ValueError, match="undecodable"):
            SweepExecutor(cache=cache).derive([spec], derived)
        assert seen == [False]
        assert gc.isenabled() is caller_gc
        # nothing was stored: the next derive computes
        assert cache.lookup(derived_key(spec, derived)) is None
        assert SweepExecutor(cache=cache).derive(
            [spec], lambda p: p) == [{"v": 1}]


class TestDiskHit:
    """``DirBackend.get`` opens the entry once: a hit stats nothing, no
    file (or a directory) is a miss, and bytes that do not decode to a
    dict are quarantined.  The caller's collector setting comes back on
    every path (``caller_gc``)."""

    @pytest.fixture
    def cache(self, tmp_path):
        return ResultCache(disk_dir=tmp_path)

    def test_hit_is_one_open_and_no_stat(self, cache, caller_gc,
                                         monkeypatch):
        import builtins
        import os

        spec = tiny_bench_spec()
        cache.store(spec, {"v": [1, 2.5]})
        cache.clear()
        opened, stats = [], []
        real_open, real_stat = builtins.open, os.stat

        def counting_open(path, *args, **kw):
            opened.append(str(path))
            return real_open(path, *args, **kw)

        def counting_stat(path, *args, **kw):
            stats.append(str(path))
            return real_stat(path, *args, **kw)

        monkeypatch.setattr(builtins, "open", counting_open)
        monkeypatch.setattr(os, "stat", counting_stat)
        assert cache.lookup(spec) == {"v": [1, 2.5]}
        monkeypatch.undo()
        assert opened == [str(cache.backend.path(spec.digest))]
        assert stats == []
        assert cache.stats.disk_hits == 1
        assert gc.isenabled() is caller_gc

    def test_missing_file_is_a_miss_and_creates_nothing(self, cache,
                                                        tmp_path, caller_gc):
        spec = tiny_bench_spec()
        assert cache.lookup(spec) is None
        assert (cache.stats.misses, cache.stats.corrupt) == (1, 0)
        assert list(tmp_path.rglob("*")) == []
        assert gc.isenabled() is caller_gc

    def test_directory_in_its_place_is_a_miss(self, cache, caller_gc):
        spec = tiny_bench_spec()
        path = cache.backend.path(spec.digest)
        path.mkdir(parents=True)
        assert cache.lookup(spec) is None
        assert (cache.stats.misses, cache.stats.corrupt) == (1, 0)
        assert path.is_dir()
        assert not path.with_name(path.name + ".corrupt").exists()
        assert gc.isenabled() is caller_gc

    @pytest.mark.parametrize("blob", [
        b"{not json", b"\xff\xfe{\x00}", b"[1, 2]", b"\xef\xbb\xbf{}", b"",
    ], ids=["bad-json", "not-utf8", "json-list", "utf8-bom", "empty"])
    def test_undecodable_bytes_quarantined(self, cache, caller_gc, blob):
        spec = tiny_bench_spec()
        path = cache.backend.path(spec.digest)
        path.parent.mkdir(parents=True)
        path.write_bytes(blob)
        assert cache.lookup(spec) is None
        assert (cache.stats.misses, cache.stats.corrupt) == (1, 1)
        assert not path.exists()
        assert path.with_name(path.name + ".corrupt").read_bytes() == blob
        assert gc.isenabled() is caller_gc
        # the next store and lookup serve the entry again
        cache.store(spec, {"v": 1})
        cache.clear(stats=False)
        assert cache.lookup(spec) == {"v": 1}


# ----------------------------------------------------------------------
# SweepExecutor
# ----------------------------------------------------------------------
class TestSweepExecutor:
    def test_duplicate_specs_simulated_once(self):
        cache = ResultCache()
        ex = SweepExecutor(jobs=1, cache=cache)
        spec = tiny_bench_spec()
        results = ex.run([spec, spec, spec])
        assert len(results) == 3
        assert results[0] is results[1] is results[2]
        assert cache.stats.misses == 1  # one simulation for three requests

    def test_rerun_is_fully_cached(self):
        cache = ResultCache()
        ex = SweepExecutor(jobs=1, cache=cache)
        specs = [tiny_bench_spec(), tiny_bench_spec(iters=5)]
        first = ex.run(specs)
        misses = cache.stats.misses
        second = ex.run(specs)
        assert second == first
        assert cache.stats.misses == misses  # zero new simulations

    def test_results_align_with_input_order(self):
        ex = SweepExecutor(jobs=1, cache=ResultCache())
        s1 = tiny_bench_spec(sizes=(4,))
        s2 = tiny_bench_spec(sizes=(64,))
        r = ex.run([s2, s1, s2])
        assert r[0]["points"][0][0] == 64.0
        assert r[1]["points"][0][0] == 4.0
        assert r[2] == r[0]

    def test_no_cache_still_works(self):
        ex = SweepExecutor(jobs=1, cache=None)
        payload = ex.run_one(tiny_bench_spec())
        assert payload["bench"] == "latency"
        assert len(payload["points"]) == 2

    @settings(max_examples=3, deadline=None)
    @given(sizes=st.lists(st.sampled_from([4, 16, 256, 4096]),
                          min_size=1, max_size=3, unique=True),
           iters=st.integers(min_value=2, max_value=4))
    def test_parallel_identical_to_serial(self, sizes, iters):
        """jobs=2 must be a pure optimization: same bytes as serial."""
        specs = [
            RunSpec.microbench("latency", "infiniband",
                               sizes=tuple(sorted(sizes)), iters=iters),
            RunSpec.microbench("bandwidth", "myrinet",
                               sizes=tuple(sorted(sizes)), window=4, rounds=3),
            tiny_app_spec(),
        ]
        serial = SweepExecutor(jobs=1, cache=None).run(specs)
        parallel = SweepExecutor(jobs=2, cache=None).run(specs)
        assert json.dumps(serial, sort_keys=True) == \
            json.dumps(parallel, sort_keys=True)

    def test_pool_persists_across_runs(self):
        specs = [RunSpec.microbench("latency", net, sizes=(4, 64), iters=3)
                 for net in ("infiniband", "myrinet", "quadrics")]
        serial = SweepExecutor(jobs=1).run(specs)
        with SweepExecutor(jobs=2) as executor:
            first = executor.run(specs)
            pool = executor._pool
            second = executor.run(specs)
            assert executor._pool is pool and pool is not None
        assert executor._pool is None  # context exit released it
        assert json.dumps(serial, sort_keys=True) == \
            json.dumps(first, sort_keys=True) == \
            json.dumps(second, sort_keys=True)

    def test_unknown_bench_raises(self):
        with pytest.raises(KeyError, match="unknown microbench"):
            execute_spec(RunSpec(kind="microbench", target="warp_speed"))


# ----------------------------------------------------------------------
# process-wide runtime + driver integration
# ----------------------------------------------------------------------
class TestRuntimeIntegration:
    def test_figure_rerun_performs_zero_new_simulations(self):
        from repro.experiments.figures import run_figure

        run_figure("fig13", quick=True)
        stats = runtime.cache_stats()
        misses = stats.misses
        assert misses > 0
        second = run_figure("fig13", quick=True)
        assert runtime.cache_stats().misses == misses
        assert second.render()  # still renders from cached payloads

    def test_run_app_roundtrips_recorder_through_cache(self):
        from repro.apps import run_app

        first = run_app("is", "S", "infiniband", 2, sample_iters=2)
        again = run_app("is", "S", "infiniband", 2, sample_iters=2)
        assert runtime.cache_stats().hits >= 1
        assert again.elapsed_s == first.elapsed_s
        assert again.recorder is not first.recorder  # fresh rehydration
        assert again.recorder.ncalls == first.recorder.ncalls
        assert again.recorder.total_volume == first.recorder.total_volume

    @pytest.mark.parametrize("disk", [False, True], ids=["memory", "disk"])
    def test_run_app_shares_the_blocks_it_can(self, disk, tmp_path):
        """``run_app`` hands a run it simulated to its Recorder with the
        payload's packed blocks; a cache hit (memory or disk) is packed
        from its rows.  Every way gives the rows of the decoded
        payload."""
        from repro.apps import run_app

        spec = RunSpec.app("is", "S", "infiniband", 4, sample_iters=2)
        runtime.reset(disk_dir=tmp_path if disk else None)
        simulated = run_app("is", "S", "infiniband", 4, sample_iters=2)
        decoded = runtime.run_spec(spec)["recorder"]
        stored = runtime.get_cache()._mem[spec.digest]["recorder"]
        assert simulated.recorder.call_block is stored["calls"]
        assert simulated.recorder.transfer_block is stored["transfers"]
        from_memory = run_app("is", "S", "infiniband", 4, sample_iters=2)
        assert runtime.cache_stats().mem_hits == 2  # decoded, from_memory
        assert from_memory.recorder.call_block is not stored["calls"]
        runtime.reset(disk_dir=tmp_path if disk else None)
        if disk:
            from_disk = run_app("is", "S", "infiniband", 4, sample_iters=2)
            assert runtime.cache_stats().disk_hits == 1
            assert from_disk.recorder.call_block is not stored["calls"]
            revived = [from_disk]
        else:
            revived = []
        for res in [simulated, from_memory] + revived:
            rec = res.recorder
            assert rec.call_block.json_rows() == decoded["calls"]
            assert rec.transfer_block.json_rows() == decoded["transfers"]
            assert (rec.scale, rec.sample_iters) == (
                decoded["scale"], decoded["sample_iters"])

    def test_configure_no_cache_resimulates(self):
        runtime.configure(enabled=False)
        assert runtime.get_cache() is None
        series = runtime.run_spec(tiny_bench_spec())
        assert series["bench"] == "latency"
        assert runtime.cache_stats().lookups == 0


# ----------------------------------------------------------------------
# Derived results
# ----------------------------------------------------------------------
#: calls of _points, with the collector's state at each
POINTS_CALLS = []


def _points(payload):
    POINTS_CALLS.append(gc.isenabled())
    return payload["points"]


class TestDerive:
    """``derive`` serves ``fn(payload)`` from its own cache entry."""

    @pytest.fixture(autouse=True)
    def _no_calls(self):
        POINTS_CALLS.clear()

    @staticmethod
    def _entry_file(cache, key):
        return cache.backend.path(key.digest)

    def test_warm_hit_reads_no_base_payload(self, tmp_path, monkeypatch):
        spec = tiny_bench_spec()
        cold = SweepExecutor(cache=ResultCache(disk_dir=tmp_path))
        points = cold.derive([spec, spec], _points)
        assert points[0] is points[1] and len(POINTS_CALLS) == 1
        entry = json.loads(self._entry_file(
            cold.cache, derived_key(spec, _points)).read_text())
        assert entry["kind"] == "derived" and entry["value"] == points[0]

        reads = []
        get = DirBackend.get
        monkeypatch.setattr(DirBackend, "get", lambda backend, digest: (
            reads.append(digest), get(backend, digest))[1])
        warm = SweepExecutor(cache=ResultCache(disk_dir=tmp_path))
        assert warm.derive([spec, spec], _points) == points
        assert reads == [derived_key(spec, _points).digest]
        assert len(POINTS_CALLS) == 1
        assert (warm.cache.stats.hits, warm.cache.stats.misses) == (1, 0)
        assert (warm.sweep.specs, warm.sweep.unique, warm.sweep.cached) == \
            (2, 1, 1)

    def test_changed_source_fingerprint_misses(self, tmp_path, monkeypatch):
        import repro.runtime.cache as cache_mod

        spec = tiny_bench_spec()
        SweepExecutor(cache=ResultCache(disk_dir=tmp_path)).derive(
            [spec], _points)
        before = derived_key(spec, _points)
        monkeypatch.setattr(cache_mod, "source_fingerprint",
                            lambda module: "an edited statistic")
        assert derived_key(spec, _points).digest != before.digest
        cache = ResultCache(disk_dir=tmp_path)
        SweepExecutor(cache=cache).derive([spec], _points)
        assert len(POINTS_CALLS) == 2
        assert cache.stats.hits == 1  # the base payload, not the summary
        assert cache.stats.misses == 0  # nothing simulated
        assert cache.stats.stores == 1

    def test_error_payload_propagates_and_stores_nothing(self, tmp_path):
        bad = RunSpec(kind="microbench", target="warp_speed")
        cache = ResultCache(disk_dir=tmp_path)
        out = SweepExecutor(cache=cache).derive([bad], _points)
        assert is_error_payload(out[0]) and POINTS_CALLS == []
        assert cache.stats.stores == 0
        assert not self._entry_file(cache, derived_key(bad, _points)).exists()
        with pytest.raises(SweepError, match="warp_speed"):
            SweepExecutor(cache=cache, strict=True).derive([bad], _points)
        assert cache.stats.stores == 0 and POINTS_CALLS == []

    def test_disabled_cache_computes_without_storing(self):
        runtime.configure(enabled=False)
        spec = tiny_bench_spec()
        first = runtime.derive([spec], _points)
        assert runtime.derive([spec], _points) == first
        assert POINTS_CALLS == [False, False]
        assert runtime.get_cache() is None

    def test_metrics_equal_cold_and_warm(self, tmp_path):
        spec = tiny_app_spec()
        # seed the payload, so the cold derive computes from a hit
        # rather than a simulation (wall-clock counters differ)
        SweepExecutor(cache=ResultCache(disk_dir=tmp_path)).run([spec])
        seen = []
        for _side in ("cold", "warm"):
            ex = SweepExecutor(cache=ResultCache(disk_dir=tmp_path),
                               metrics=MetricsRegistry())
            ex.derive([spec], lambda p: p["elapsed_s"])
            ex.derive([spec], lambda p: p["elapsed_s"])
            seen.append((ex.metrics.to_dict(), ex.cache.stats.disk_hits))
        (cold, cold_disk), (warm, warm_disk) = seen
        assert cold == warm and cold["counters"]
        assert (cold_disk, warm_disk) == (1, 1)  # base, then derived


    def test_disk_tier_keeps_summaries_not_payloads(self, tmp_path):
        specs = [tiny_bench_spec(), tiny_bench_spec(sizes=(4,))]
        cache = ResultCache(disk_dir=tmp_path)
        ex = SweepExecutor(cache=cache)
        points = ex.derive(specs, _points)
        assert all(derived_key(s, _points) in cache for s in specs)
        assert not any(s in cache for s in specs)
        misses, disk_hits = cache.stats.misses, cache.stats.disk_hits
        payloads = ex.run(specs)
        assert [p["points"] for p in payloads] == points
        assert cache.stats.misses == misses == 2
        assert cache.stats.disk_hits == disk_hits + 2

    def test_memory_only_cache_keeps_payloads(self):
        specs = [tiny_bench_spec(), tiny_bench_spec(sizes=(4,))]
        cache = ResultCache()
        ex = SweepExecutor(cache=cache)
        points = ex.derive(specs, _points)
        assert all(derived_key(s, _points) in cache for s in specs)
        assert all(s in cache for s in specs)
        hits = cache.stats.hits
        assert [p["points"] for p in ex.run(specs)] == points
        assert (cache.stats.hits, cache.stats.misses) == (hits + 2, 2)

    def test_summarises_each_run_as_it_finishes(self, monkeypatch):
        from repro.runtime import executor as executor_module

        events = []
        execute = executor_module._safe_execute

        def logged(spec, **kw):
            events.append("run")
            return execute(spec, **kw)

        def summary(payload):
            events.append("derive")
            return payload["points"]

        monkeypatch.setattr(executor_module, "_safe_execute", logged)
        specs = [tiny_bench_spec(), tiny_bench_spec(sizes=(4,))]
        SweepExecutor(cache=ResultCache()).derive(specs, summary)
        assert events == ["run", "derive", "run", "derive"]

    def test_parallel_equals_serial(self):
        specs = [tiny_bench_spec(), tiny_app_spec(),
                 tiny_bench_spec(sizes=(4,)), tiny_bench_spec()]
        serial = SweepExecutor(cache=ResultCache()).derive(specs, _points_or_time)
        with SweepExecutor(jobs=2, cache=ResultCache()) as ex:
            parallel = ex.derive(specs, _points_or_time)
            assert ex.cache.stats.misses == 3
        assert parallel == serial


def _points_or_time(payload):
    return payload.get("points", payload.get("elapsed_s"))


# ----------------------------------------------------------------------
# Deferred metrics merge
# ----------------------------------------------------------------------
_NAMES = st.sampled_from(["a", "b", "c"])
_VALUES = st.floats(min_value=-1e9, max_value=1e9, allow_nan=False)
_SIZES = st.floats(min_value=0.0, max_value=1e7, allow_nan=False)


@st.composite
def _run_metrics(draw):
    """A run's ``metrics`` dict, as a world's registry would write it."""
    reg = MetricsRegistry()
    for kind, name, value in draw(st.lists(st.tuples(
            st.sampled_from("cgh"), _NAMES, _SIZES), max_size=6)):
        if kind == "c":
            reg.inc(name, value)
        elif kind == "g":
            reg.set_gauge(name, value)
        else:
            reg.observe(name, value)
    return reg.to_dict()


_FOLD_OPS = st.lists(st.one_of(
    st.tuples(st.just("hit"), _run_metrics(), st.booleans()),
    st.tuples(st.just("inc"), _NAMES, _VALUES),
    st.tuples(st.just("observe"), _NAMES, _SIZES),
    st.tuples(st.just("configure")),
    st.tuples(st.just("read")),
), max_size=25)


def _derived_summary(payload):
    return payload["points"]


class TestMetricsFold:
    @settings(max_examples=60, deadline=None)
    @given(ops=_FOLD_OPS)
    def test_equals_eager_merge_at_every_read(self, ops):
        """Hits served by ``run_specs`` and by ``derive`` queue their
        metrics; every read of the runtime registry (and every direct
        update, which reads it first) sees exactly what merging each
        hit as it came gives, float for float."""
        runtime.reset()
        cache = runtime.get_cache()
        eager = MetricsRegistry()
        for i, op in enumerate(ops + [("read",)]):
            if op[0] == "hit":
                _, m, derived = op
                spec = tiny_bench_spec(sizes=(i + 1,))
                if derived:
                    cache.store(derived_key(spec, _derived_summary),
                                {"kind": "derived", "value": i, "metrics": m})
                    assert runtime.derive([spec, spec], _derived_summary) \
                        == [i, i]
                else:
                    cache.store(spec, {"kind": "microbench", "points": [],
                                       "metrics": m})
                    runtime.run_specs([spec, spec])
                eager.merge(m)
            elif op[0] == "inc":
                runtime.metrics().inc(op[1], op[2])
                eager.inc(op[1], op[2])
            elif op[0] == "observe":
                runtime.metrics().observe(op[1], op[2])
                eager.observe(op[1], op[2])
            elif op[0] == "configure":  # a new executor keeps the queue
                runtime.configure(jobs=1)
            else:
                assert runtime.metrics().to_dict() == eager.to_dict()
                assert runtime.get_executor().metrics.to_dict() == \
                    eager.to_dict()
        assert runtime.cache_stats().misses == 0

    def test_reset_drops_the_queue(self):
        spec = tiny_bench_spec()
        runtime.get_cache().store(spec, {
            "kind": "microbench", "points": [],
            "metrics": {"counters": {"a": 1.0}}})
        runtime.run_specs([spec])
        runtime.reset()
        assert not runtime.metrics()
        assert not runtime.get_executor().metrics

    def test_warm_cli_metrics_repeat(self, tmp_path):
        """Two warm ``repro fig7 --metrics`` runs over one cache print
        the same registry, and it holds the cold run's counters."""
        def cli(*extra):
            out = subprocess.run(
                [sys.executable, "-m", "repro", "fig7", "--cache-dir",
                 str(tmp_path), "--metrics", *extra],
                capture_output=True, text=True, timeout=300, check=True)
            return out.stdout.split("run metrics\n", 1)[1]

        cold = cli()
        warm = cli()
        assert cli() == warm
        # simulation time differs: the cold registry counts wall time
        def counters(text):
            return [ln for ln in text.splitlines()
                    if ln.startswith("  ") and "engine.wall_s" not in ln
                    and "engine.events_executed" not in ln]
        assert counters(warm) == counters(cold)
        assert "net.bytes.payload" in warm


# ----------------------------------------------------------------------
# Profiling tables served from per-run summaries
# ----------------------------------------------------------------------
#: sha256 of each quick table's rendered text, taken before the tables
#: read per-run summaries
PROFILING_TABLE_SHA256 = {
    "table1": "1696af8294132bb318feec48438f6018c05de2d1ff7ea8b757ea0d8441fbcde2",
    "table3": "c06331e8a6efc98fc16284f7ef66e74b647fef3de5ba5c0f8623c1fcfb0a0900",
    "table4": "7aadab7d6038d23377f4814d5549dd4c681c662c7016d5e7088252c4c794e62e",
    "table5": "086d0705c4440c8e404676102d0396407658fa40d8938fbb547924a95cd247bc",
}


class _CountDecodes:
    """Count ``Recorder.from_dict`` calls inside the ``with`` block."""

    def __enter__(self):
        from repro.profiling.recorder import Recorder

        self.count = 0
        self._from_dict = from_dict = Recorder.__dict__["from_dict"]

        def counting(cls, data):
            self.count += 1
            return from_dict.__func__(cls, data)

        Recorder.from_dict = classmethod(counting)
        return self

    def __exit__(self, *exc):
        from repro.profiling.recorder import Recorder

        Recorder.from_dict = self._from_dict


class TestDerivedTables:
    """Tables 1/3/4/5 read one summary per profiled run."""

    @pytest.fixture(scope="class")
    def seeded(self, tmp_path_factory):
        disk = tmp_path_factory.mktemp("profiling-tables")
        runtime.reset(disk_dir=disk)
        with _CountDecodes() as decodes:
            rendered = self._render()
        misses = runtime.cache_stats().misses
        runtime.reset()
        return disk, rendered, decodes.count, misses

    @staticmethod
    def _render():
        from repro.experiments import run_table

        return {t: hashlib.sha256(run_table(t, quick=True).render().encode())
                .hexdigest() for t in PROFILING_TABLE_SHA256}

    def test_cold_render_decodes_each_payload_once(self, seeded):
        from repro.experiments.tables import APP_SPECS

        _disk, rendered, decodes, misses = seeded
        assert rendered == PROFILING_TABLE_SHA256
        assert decodes == misses == len(APP_SPECS) == 9

    def test_warm_render_reads_only_summaries(self, seeded, tmp_path):
        import shutil

        disk = tmp_path / "cache"
        shutil.copytree(seeded[0], disk)
        app_payloads = [path for path in disk.rglob("*.json")
                        if json.loads(path.read_text())["kind"] == "app"]
        assert len(app_payloads) == 9
        for path in app_payloads:
            path.unlink()
        for _process in range(2):
            runtime.reset(disk_dir=disk)
            with _CountDecodes() as decodes:
                assert self._render() == PROFILING_TABLE_SHA256
            assert decodes.count == 0
            stats = runtime.cache_stats()
            assert (stats.hits, stats.disk_hits, stats.misses) == (36, 9, 0)
