"""Tests for deterministic fault injection and the robustness stack.

Four properties are load-bearing:

- **identity** — fault-free specs digest exactly as they did before the
  fault layer existed (pinned sha256 values), so no cached result is
  ever invalidated by a feature its run never used;
- **determinism** — the same (spec, seed) produces bit-identical
  payloads whether the sweep runs serially or over worker processes;
- **monotone degradation** — lowering the drop rate never increases
  latency, because the drop decision is a pure hash of packet identity
  (drops at rate r1 < r2 are a subset of drops at r2);
- **isolation** — one failing spec resolves to a structured error
  payload instead of sinking the whole sweep.
"""

from __future__ import annotations

import json

import pytest

from repro import runtime
from repro.core.engine import SimulationError
from repro.core.metrics import MetricsRegistry
from repro.faults import (FaultPlane, FaultSpec, LinkFailure, _SALT_DROP,
                          _roll)
from repro.microbench.latency import measure_latency, pingpong_fn
from repro.mpi.world import MPIWorld
from repro.obs.collector import collect
from repro.runtime import (RunSpec, SpecExecutionError, SweepError,
                           SweepExecutor, is_error_payload)
from repro.runtime.cache import ResultCache


@pytest.fixture(autouse=True)
def _fresh_runtime():
    runtime.reset()
    yield
    runtime.reset()


def counters(reg: MetricsRegistry) -> dict:
    return reg.to_dict().get("counters", {})


def lossy_lat(network: str, rate: float, seed: int = 7, iters: int = 40):
    """(latency at 4B, counters) for one lossy pingpong run."""
    faults = {"drop_rate": rate, "seed": seed} if rate else None
    with collect() as col:
        series = measure_latency(network, sizes=(4,), iters=iters,
                                 faults=faults)
    return series.at(4), counters(col.metrics)


# ----------------------------------------------------------------------
# FaultSpec: validation and canonical form
# ----------------------------------------------------------------------
class TestFaultSpec:
    def test_rates_must_be_probabilities(self):
        with pytest.raises(ValueError):
            FaultSpec(drop_rate=1.0)
        with pytest.raises(ValueError):
            FaultSpec(corrupt_rate=-0.1)

    def test_windows_must_nest(self):
        with pytest.raises(ValueError):
            FaultSpec(flap_period_us=10.0, flap_duration_us=10.0)
        with pytest.raises(ValueError):
            FaultSpec(stall_period_us=5.0, stall_duration_us=7.0)
        with pytest.raises(ValueError):
            FaultSpec(stall_period_us=-1.0)

    def test_from_mapping_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="drop_rte"):
            FaultSpec.from_mapping({"drop_rte": 0.01})

    def test_to_mapping_keeps_non_defaults_only(self):
        spec = FaultSpec(drop_rate=0.05, seed=3)
        assert spec.to_mapping() == {"drop_rate": 0.05, "seed": 3}
        assert FaultSpec.from_mapping(spec.to_mapping()) == spec
        assert FaultSpec().to_mapping() == {}

    def test_active(self):
        assert not FaultSpec().active
        assert not FaultSpec(seed=42).active  # a seed alone faults nothing
        assert FaultSpec(dup_rate=0.1).active
        assert FaultSpec(flap_period_us=50.0, flap_duration_us=2.0).active

    def test_unknown_reliability_protocol_rejected(self):
        with pytest.raises(ValueError, match="tcp"):
            FaultPlane(None, None, FaultSpec(), reliability="tcp")


# ----------------------------------------------------------------------
# The roll stream: pure, uniform-ish, and monotone by construction
# ----------------------------------------------------------------------
class TestRolls:
    def test_roll_is_pure_and_bounded(self):
        a = _roll(7, 123, 2, _SALT_DROP)
        assert a == _roll(7, 123, 2, _SALT_DROP)
        assert 0.0 <= a < 1.0

    def test_roll_distinguishes_every_input(self):
        base = _roll(7, 123, 2, 1)
        assert base != _roll(8, 123, 2, 1)
        assert base != _roll(7, 124, 2, 1)
        assert base != _roll(7, 123, 3, 1)
        assert base != _roll(7, 123, 2, 2)

    def test_roll_roughly_uniform_over_consecutive_fids(self):
        """Consecutive fault-ids are the realistic workload — a run's
        packets get ids 1..N — so bias there is what actually skews
        injected rates (a single-round mix showed exactly that)."""
        for seed in (1, 3, 7):
            for salt in (1, 2, 3):
                hits = sum(1 for fid in range(1, 1001)
                           if _roll(seed, fid, 0, salt) < 0.1)
                assert 60 <= hits <= 140, (seed, salt, hits)

    def test_drop_sets_nest_across_rates(self):
        """The packets dropped at 1% are a subset of those at 5%: same
        roll, different threshold.  This is what makes degradation
        curves monotone by construction."""
        low = {f for f in range(1, 2000) if _roll(7, f, 0, _SALT_DROP) < 0.01}
        high = {f for f in range(1, 2000) if _roll(7, f, 0, _SALT_DROP) < 0.05}
        assert low < high


# ----------------------------------------------------------------------
# Identity: fault-free digests are pinned; faults key the cache
# ----------------------------------------------------------------------
class TestIdentity:
    def test_fault_free_digests_unchanged_by_fault_layer(self):
        """Pinned pre-fault-layer sha256 values: adding the faults field
        must not re-key any existing cached result."""
        bench = RunSpec.microbench("latency", "infiniband",
                                   sizes=(4, 64), iters=3)
        app = RunSpec.app("is", "S", "myrinet", 4)
        assert bench.digest == ("aa1685d84b715d03de709d51c54f6155"
                                "9be2ca95966f04521ed4537293cc49af")
        assert app.digest == ("d02ae9b68e8c2b7fc3c09deedd5f9668"
                              "f90da818490c9643d2376aabd84a13fa")

    def test_faults_change_the_digest(self):
        plain = RunSpec.microbench("latency", "myrinet", sizes=(4,), iters=5)
        lossy = RunSpec.microbench("latency", "myrinet", sizes=(4,), iters=5,
                                   faults={"drop_rate": 0.01})
        seeded = RunSpec.microbench("latency", "myrinet", sizes=(4,), iters=5,
                                    faults={"drop_rate": 0.01, "seed": 1})
        assert len({plain.digest, lossy.digest, seeded.digest}) == 3

    def test_fault_mapping_order_does_not_matter(self):
        a = RunSpec.microbench("latency", "myrinet",
                               faults={"drop_rate": 0.01, "seed": 3})
        b = RunSpec.microbench("latency", "myrinet",
                               faults={"seed": 3, "drop_rate": 0.01})
        assert a.digest == b.digest

    def test_inactive_faults_install_no_plane(self):
        world = MPIWorld(2, network="quadrics", record=False,
                         faults={"drop_rate": 0.0, "seed": 9})
        assert world.fabric.fault_plane is None


# ----------------------------------------------------------------------
# Reliability protocols: retransmit, degrade monotonically, then die
# ----------------------------------------------------------------------
class TestReliability:
    @pytest.mark.parametrize("network", ["infiniband", "myrinet", "quadrics"])
    def test_lossy_pingpong_completes_with_retransmits(self, network):
        clean, _ = lossy_lat(network, 0.0)
        lat, c = lossy_lat(network, 0.05)
        assert c["net.retransmits"] > 0
        assert c["net.retx.drops"] == c["net.retransmits"]
        assert lat > clean

    @pytest.mark.parametrize("network", ["infiniband", "myrinet", "quadrics"])
    def test_latency_monotone_in_drop_rate(self, network):
        lats = [lossy_lat(network, rate)[0]
                for rate in (0.15, 0.08, 0.03, 0.0)]
        assert all(a >= b for a, b in zip(lats, lats[1:])), lats

    def test_corrupt_dup_stall_ack_mechanisms(self):
        """One Myrinet run exercising every non-drop mechanism at once;
        GM's host-level acks are counted for each delivered packet."""
        with collect() as col:
            measure_latency("myrinet", sizes=(64,), iters=30,
                            faults={"corrupt_rate": 0.05, "dup_rate": 0.1,
                                    "stall_period_us": 40.0,
                                    "stall_duration_us": 4.0, "seed": 1})
        c = counters(col.metrics)
        assert c["net.retx.corrupts"] > 0
        assert c["net.retx.dups"] > 0
        assert c["net.retx.stalls"] > 0
        assert c["net.retx.stall_us"] > 0
        assert c["net.retx.acks"] > 0
        assert c["net.bytes.ack"] == 16 * c["net.retx.acks"]

    def test_link_flap_drops_inflight_packets(self):
        with collect() as col:
            measure_latency("quadrics", sizes=(4,), iters=50,
                            faults={"flap_period_us": 37.0,
                                    "flap_duration_us": 5.0, "seed": 1})
        c = counters(col.metrics)
        assert c["net.retx.flap_drops"] > 0
        assert c["net.retransmits"] == c["net.retx.flap_drops"]

    def test_retry_exhaustion_is_structured_and_errs_the_qp(self):
        world = MPIWorld(2, network="infiniband", record=False,
                         faults={"drop_rate": 0.9, "seed": 7})
        with pytest.raises(LinkFailure) as ei:
            world.run(pingpong_fn, args=(4, 10, 2))
        failure = ei.value
        assert isinstance(failure, SimulationError)
        # MVAPICH declares RC with a 7-retry budget: 8 losses kill it
        assert failure.attempts == 8
        assert failure.cause == "drop"
        assert failure.fabric == "infiniband"
        qp = world.fabric.devices[failure.src_rank].qps[failure.dst_rank]
        assert qp.state == "ERR"

    def test_rc_backoff_is_exponential_and_hw_retry_is_flat(self):
        spec = FaultSpec(drop_rate=0.01)
        rc = FaultPlane(None, None, spec, reliability="rc", rto_us=12.0)
        hw = FaultPlane(None, None, spec, reliability="hw_retry", rto_us=1.8)
        assert [rc._backoff(a) for a in (1, 2, 3)] == [12.0, 24.0, 48.0]
        assert [hw._backoff(a) for a in (1, 2, 3)] == [1.8, 1.8, 1.8]


# ----------------------------------------------------------------------
# Sweep executor: crash isolation, determinism, wall-clock budget
# ----------------------------------------------------------------------
def lossy_specs():
    return [RunSpec.microbench("latency", net, sizes=(4,), iters=20,
                               faults={"drop_rate": 0.05, "seed": 7})
            for net in ("infiniband", "myrinet", "quadrics")]


class TestSweepIsolation:
    def test_one_failing_spec_does_not_sink_the_sweep(self):
        good = RunSpec.microbench("latency", "quadrics", sizes=(4,), iters=3)
        bad = RunSpec.microbench("no_such_bench", "quadrics")
        ex = SweepExecutor(jobs=1, cache=ResultCache())
        payloads = ex.run([good, bad, good])
        assert payloads[0]["points"] and payloads[2] is payloads[0]
        assert is_error_payload(payloads[1])
        err = payloads[1]["error"]
        assert err["type"] == "KeyError"
        assert "no_such_bench" in err["message"]
        assert err["digest"] == bad.digest
        assert "traceback" in err

    def test_error_payloads_are_never_cached(self):
        bad = RunSpec.microbench("no_such_bench", "quadrics")
        cache = ResultCache()
        SweepExecutor(jobs=1, cache=cache).run([bad])
        assert bad not in cache
        assert cache.stats.stores == 0

    def test_strict_mode_raises_after_survivors_finish(self):
        good = RunSpec.microbench("latency", "quadrics", sizes=(4,), iters=3)
        bad = RunSpec.microbench("no_such_bench", "quadrics")
        cache = ResultCache()
        ex = SweepExecutor(jobs=1, cache=cache, strict=True)
        with pytest.raises(SweepError) as ei:
            ex.run([good, bad])
        assert len(ei.value.errors) == 1
        assert good in cache  # the survivor's result was still stored

    def test_run_one_reraises_the_original_in_process(self):
        bad = RunSpec.microbench("no_such_bench", "quadrics")
        with pytest.raises(KeyError, match="no_such_bench"):
            SweepExecutor(jobs=1).run_one(bad)

    def test_parallel_failure_is_a_structured_payload(self):
        bad = RunSpec.microbench("no_such_bench", "quadrics")
        payloads = SweepExecutor(jobs=2).run(
            [bad, RunSpec.microbench("latency", "quadrics",
                                     sizes=(4,), iters=3)])
        assert is_error_payload(payloads[0])
        assert "_exc" not in payloads[0]  # live objects never cross processes
        # without a live exception, callers get the wrapper carrying the
        # worker traceback (run_one on a single spec always runs
        # in-process, so build the wrapper from the parallel payload)
        exc = SpecExecutionError(payloads[0])
        assert "no_such_bench" in str(exc)
        assert "worker traceback" in str(exc)
        assert exc.payload is payloads[0]

    def test_parallel_lossy_sweep_identical_to_serial(self):
        """The whole point of hash-based rolls: worker fan-out cannot
        change a single fault decision."""
        serial = SweepExecutor(jobs=1, cache=ResultCache()).run(lossy_specs())
        parallel = SweepExecutor(jobs=2, cache=ResultCache()).run(lossy_specs())
        assert json.dumps(serial, sort_keys=True) == \
            json.dumps(parallel, sort_keys=True)
        for payload in serial:
            retx = payload["metrics"]["counters"]["net.retransmits"]
            assert retx > 0

    def test_wall_timeout_turns_runaway_specs_into_errors(self):
        spec = RunSpec.microbench("latency", "myrinet", sizes=(4,), iters=25)
        # a deadline already in the past when the first watchdog check
        # runs: the spec must fail structured, not hang or crash the sweep
        ex = SweepExecutor(jobs=1, cache=ResultCache(), timeout_s=1e-9)
        payload = ex.run([spec])[0]
        assert is_error_payload(payload)
        assert payload["error"]["type"] == "SimulationError"
        assert "wall-clock" in payload["error"]["message"]

    def test_wall_timeout_disarms_after_the_sweep(self):
        from repro.core import engine

        spec = RunSpec.microbench("latency", "myrinet", sizes=(4,), iters=3)
        SweepExecutor(jobs=1, timeout_s=1e-9).run([spec])
        assert engine.get_wall_timeout() is None
        # and an unbudgeted executor runs the same spec fine afterwards
        assert SweepExecutor(jobs=1).run([spec])[0]["points"]


# ----------------------------------------------------------------------
# Cache quarantine: corrupt disk entries re-simulate instead of crashing
# ----------------------------------------------------------------------
class TestCacheQuarantine:
    def test_corrupt_disk_entry_is_quarantined(self, tmp_path):
        spec = RunSpec.microbench("latency", "quadrics", sizes=(4,), iters=3)
        cache = ResultCache(disk_dir=tmp_path)
        payload = SweepExecutor(jobs=1, cache=cache).run([spec])[0]

        path = cache.backend.path(spec.digest)
        path.write_text("{truncated-by-a-crash")
        fresh = ResultCache(disk_dir=tmp_path)
        assert fresh.lookup(spec) is None  # miss, not an exception
        assert fresh.stats.misses == 1
        assert fresh.stats.corrupt == 1
        assert not path.exists()
        quarantined = path.with_name(path.name + ".corrupt")
        assert quarantined.read_text() == "{truncated-by-a-crash"

        # re-simulating repopulates the slot and the next lookup hits disk
        again = SweepExecutor(jobs=1, cache=fresh).run([spec])[0]
        assert json.dumps(again, sort_keys=True) == \
            json.dumps(payload, sort_keys=True)
        assert ResultCache(disk_dir=tmp_path).lookup(spec) is not None

    def test_non_dict_disk_entry_is_quarantined(self, tmp_path):
        spec = RunSpec.microbench("latency", "quadrics", sizes=(4,), iters=3)
        cache = ResultCache(disk_dir=tmp_path)
        path = cache.backend.path(spec.digest)
        path.parent.mkdir(parents=True)
        path.write_text("[1, 2, 3]")  # valid JSON, wrong shape
        assert cache.lookup(spec) is None
        assert cache.stats.corrupt == 1

    def test_stats_string_mentions_quarantine_only_when_nonzero(self):
        cache = ResultCache()
        assert "corrupt" not in str(cache.stats)
        cache.stats.corrupt = 2
        assert "2 corrupt quarantined" in str(cache.stats)


# ----------------------------------------------------------------------
# CLI plumbing
# ----------------------------------------------------------------------
class TestCLI:
    def test_parse_faults_builds_and_validates(self):
        import argparse

        from repro.__main__ import parse_faults

        ns = argparse.Namespace(fault=["drop_rate=0.01", "dup_rate=0.1"],
                                fault_seed=5)
        assert parse_faults(ns) == {"drop_rate": 0.01, "dup_rate": 0.1,
                                    "seed": 5}
        assert parse_faults(argparse.Namespace(fault=None,
                                               fault_seed=None)) == {}
        with pytest.raises(SystemExit, match="bad --fault"):
            parse_faults(argparse.Namespace(fault=["drop_rate=1.5"],
                                            fault_seed=None))
        with pytest.raises(SystemExit, match="bad --fault"):
            parse_faults(argparse.Namespace(fault=["drop_rte=0.1"],
                                            fault_seed=None))
        with pytest.raises(SystemExit, match="key=val"):
            parse_faults(argparse.Namespace(fault=["drop_rate"],
                                            fault_seed=None))

    def test_configure_timeout_threads_through_to_executor(self):
        runtime.configure(timeout_s=30.0)
        assert runtime.get_executor().timeout_s == 30.0
        runtime.configure(timeout_s=0)  # <= 0 disables
        assert runtime.get_executor().timeout_s is None
