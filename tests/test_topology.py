"""Topology layer: routing, contention, and flat-crossbar preservation.

Three properties are load-bearing:

- the default (``topology=None``) fabric is *bit-identical* to the
  pre-topology flat crossbar — golden timings and RunSpec digests pinned
  against the seed tree;
- d-mod-k routing over the multi-stage topologies is deterministic and
  conflict-free for the patterns a full-bisection folded Clos must
  route cleanly (neighbor, half-shift), counted link by link over
  :meth:`Topology.route`;
- two flows routed onto one up-link serialize at link rate — contention
  is modelled per hop, not per switch.
"""

from __future__ import annotations

import gc
import json
import tracemalloc
from collections import Counter

import pytest

from repro.core.engine import Simulator
from repro.hardware.path import Stage, _flatten
from repro.hardware.switch import CrossbarSwitch
from repro.hardware.topology import SingleCrossbar, make_topology
from repro.microbench import measure_latency
from repro.microbench.memusage import analytic_memory_mb, measure_memory_usage
from repro.mpi.devices import device_class_for
from repro.mpi.world import MPIWorld
from repro.runtime import RunSpec, SweepExecutor

#: spec digests computed on the pre-topology seed tree (abb2384).  The
#: topology field must not perturb any existing cache key.
SEED_DIGESTS = {
    "lat-ib": "2a346128d557cff2a9a1db6f650eaaf0458b63f272fc7e6a2c3279c49f1cfcf9",
    "mem-my": "96f5d433b56ec468009c9d69a50d72b69382ee7fecf28de3d4aee2360540bbda",
    "app-qsn": "719919c3f7521ad2d8190ffffab05594beb7148554751ccf2d85b928d7f85b5a",
}


def fat_tree(nnodes=64, radix=8):
    return make_topology("fat_tree", Simulator(), nnodes, 1000.0, 0.2, 0.15,
                         radix=radix)


def max_link_load(topo, pairs):
    """Most flows routed over any one link; 1 means conflict-free."""
    loads = Counter(key for src, dst in pairs if src != dst
                    for key in topo.route(src, dst))
    return max(loads.values())


def permutation(topo, pattern):
    """(src, dst) pairs of a named permutation over every node.

    ``neighbor`` is a ring shift, ``shift`` sends every flow across the
    half/half cut, and ``transpose`` pairs each node with its base-``down``
    digit reversal, the matrix-transpose pattern.
    """
    n = topo.nnodes
    if pattern == "neighbor":
        return [(s, (s + 1) % n) for s in range(n)]
    if pattern == "shift":
        return [(s, (s + n // 2) % n) for s in range(n)]
    pairs = []
    for s in range(n):
        rev, x = 0, s
        for _ in range(topo.levels):
            rev = rev * topo.down + x % topo.down
            x //= topo.down
        pairs.append((s, rev % n))
    return pairs


class TestRouting:
    def test_route_is_deterministic(self):
        t = fat_tree()
        for src, dst in ((0, 63), (5, 6), (17, 40), (63, 0)):
            assert t.route(src, dst) == t.route(src, dst)

    def test_hop_counts(self):
        t = fat_tree()  # 64 nodes, radix 8 -> 3 levels of 4-down/4-up
        assert t.levels == 3
        # same leaf: one traversal of the shared crossbar, like the
        # flat testbed switch (this is what keeps 2-node goldens exact)
        assert t.nhops(0, 1) == 1
        # adjacent leaves: one up, then down through two crossbars
        assert t.nhops(0, 4) == 3
        # maximal divergence: climb to the top crossbar (one traversal)
        # and descend — 2*levels - 1 hops
        assert t.nhops(0, 63) == 2 * t.levels - 1

    def test_down_paths_converge_on_destination(self):
        """The final hop is always the destination's leaf down-link."""
        t = fat_tree()
        for src in (0, 9, 31, 62):
            assert t.route(src, 63)[-1] == ("d", 0, 63)

    def test_single_crossbar_routes_one_hop(self):
        t = make_topology("single", Simulator(), 8, 1000.0, 0.2, 0.15)
        assert isinstance(t, SingleCrossbar)
        assert t.route(0, 7) == (("out", 7),)
        assert t.nhops(3, 4) == 1

    def test_make_topology_rejects_unknown_kind_and_radix_on_single(self):
        with pytest.raises(ValueError):
            make_topology("torus", Simulator(), 8, 1000.0, 0.2, 0.15)
        with pytest.raises(ValueError):
            make_topology("single", Simulator(), 8, 1000.0, 0.2, 0.15, radix=8)


class TestContention:
    @pytest.mark.parametrize("nnodes", [16, 64, 256])
    def test_full_bisection_patterns_are_conflict_free(self, nnodes):
        t = fat_tree(nnodes)
        assert max_link_load(t, permutation(t, "neighbor")) == 1
        assert max_link_load(t, permutation(t, "shift")) == 1

    def test_transpose_contention_grows_with_scale(self):
        small, large = fat_tree(64), fat_tree(1024)
        assert max_link_load(small, permutation(small, "transpose")) <= \
            max_link_load(large, permutation(large, "transpose"))

    def test_shared_uplink_serializes_at_link_rate(self):
        """Two flows on one up-link: second finishes after 2x service."""
        t = fat_tree()
        r1, r2 = t.route(0, 16), t.route(1, 32)
        assert r1[0] == r2[0]          # same leaf, same d-mod-k up-link
        link = t.link(r1[0])
        nbytes = 4000
        link.transfer(nbytes)
        link.transfer(nbytes)
        assert link.next_free == pytest.approx(
            2 * link.occupancy_us(nbytes))

    def test_distinct_uplinks_for_distinct_dmodk_digits(self):
        t = fat_tree()
        # destinations 16 and 33 differ in their mod-4 digit, so the
        # leaf spreads the two flows over different up-links
        assert t.route(0, 16)[0] != t.route(1, 33)[0]

    def test_link_servers_are_lazy_and_reused(self):
        t = fat_tree()
        key = t.route(0, 63)[0]
        assert len(list(t.iter_links())) == 0
        assert t.link(key) is t.link(key)
        assert len(list(t.iter_links())) == 1


#: the routed fabrics at 64 nodes, with their path variants
ROUTED = [("infiniband", "fat_tree", (None,)),
          ("myrinet", "clos", (None, "sf")),
          ("quadrics", "federated_elite", (None, "pio"))]

#: each path variant's split, its last source-side stage (the uplink)
SPLITS = {("infiniband", None): 3, ("myrinet", None): 4, ("myrinet", "sf"): 5,
          ("quadrics", None): 3, ("quadrics", "pio"): 2}

#: tracemalloc bytes per path for all 4,032 default paths of a 64-node
#: fabric when every path kept its own copy of each hop's Stage, flat
#: tuple and name, plus a span dict (measured on CPython 3.11)
PER_PAIR_COPY_BYTES = {"fat_tree": 2260, "clos": 1724, "federated_elite": 1723}


def routed_fabric(network, topology, nnodes=64):
    return MPIWorld(nnodes, network=network, record=False,
                    net_overrides={"topology": topology}).fabric


def per_pair_stages(fab, src, dst, variant):
    """A pair's stages built afresh, sharing no Stage with other pairs."""
    _, src_args, dst_args = fab.path_variants[variant]
    topo = fab.topology
    route = topo.route(src, dst)
    hops = [Stage(topo.link(key),
                  latency_us=topo.hop_latency_us + topo.wire_latency_us,
                  name="downlink" if i == len(route) - 1
                  else topo._hop_name(key))
            for i, key in enumerate(route)]
    return [*fab._src_stages(src, *src_args), *hops,
            *fab._dst_stages(dst, *dst_args)]


class TestSharedPathPieces:
    """Routed paths are built from per-node and per-link segments."""

    def test_pairs_over_one_link_share_its_hop(self):
        fab = routed_fabric("infiniband", "fat_tree")
        route_a, route_b = fab.topology.route(0, 16), fab.topology.route(1, 32)
        assert route_a[0] == route_b[0]    # one leaf up-link (d-mod-k)
        a, b = fab.path(0, 16), fab.path(1, 32)
        up = SPLITS["infiniband", None] + 1   # first stage past the source
        assert a.parts[1] is b.parts[1]
        assert a.stages[up] is b.stages[up]
        assert a.flat[up] is b.flat[up]
        # every pair into node 63 shares its down-link and its node segment
        c, d = fab.path(0, 63), fab.path(5, 63)
        assert c.parts[-2:] == d.parts[-2:]
        assert c.stages[-4] is d.stages[-4]
        assert c.stages[-4].name == "downlink"
        assert c.flat[-4] is d.flat[-4]

    @pytest.mark.parametrize("network,topology,variants", ROUTED)
    def test_paths_flatten_like_a_per_pair_build(self, network, topology,
                                                 variants):
        """Every pair and variant: the same walk constants (server,
        overhead, extra, latency, cut, trailing, 1/bw), stage names and
        split as stages built for that pair alone."""
        fab = routed_fabric(network, topology)
        for variant in variants:
            for src in range(64):
                for dst in range(64):
                    if src == dst:
                        continue
                    path = fab.path(src, dst, variant)
                    ref = per_pair_stages(fab, src, dst, variant)
                    assert path.flat == tuple(_flatten(s) for s in ref)
                    assert [s.name for s in path.stages] == \
                        [s.name for s in ref]
                    assert path.split_stage == SPLITS[network, variant]

    @pytest.mark.parametrize("network,topology",
                             [(net, topo) for net, topo, _ in ROUTED])
    def test_path_bytes_at_most_half_a_per_pair_copy(self, network, topology):
        """Building all 4,032 paths traces at most half the bytes per
        path that per-pair copies of every hop took."""
        fab = routed_fabric(network, topology)
        gc.collect()
        was_tracing = tracemalloc.is_tracing()
        if not was_tracing:
            tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for src in range(64):
                for dst in range(64):
                    if src != dst:
                        fab.path(src, dst)
            traced = tracemalloc.get_traced_memory()[0] - before
        finally:
            if not was_tracing:
                tracemalloc.stop()
        assert traced / 4032 <= PER_PAIR_COPY_BYTES[topology] / 2


class TestFlatCrossbarPreservation:
    def test_seed_digests_unchanged(self):
        assert RunSpec.microbench("latency", "infiniband", sizes=(4,),
                                  iters=25).digest == SEED_DIGESTS["lat-ib"]
        assert RunSpec.microbench("memory_usage", "myrinet").digest \
            == SEED_DIGESTS["mem-my"]
        assert RunSpec.app("is", "B", "quadrics", nprocs=8).digest \
            == SEED_DIGESTS["app-qsn"]

    def test_topology_field_changes_the_cache_key(self):
        base = RunSpec.microbench("latency", "infiniband", sizes=(4,))
        assert base.replace(topology="fat_tree").digest != base.digest
        assert base.replace(topology="single").digest != base.digest

    def test_topology_rides_in_net_overrides(self):
        spec = RunSpec.microbench(
            "latency", "infiniband", sizes=(4,),
            net_overrides={"topology": "fat_tree", "wire_bw_mbps": 900.0})
        assert spec.topology == "fat_tree"
        assert dict(spec.net_overrides) == {"wire_bw_mbps": 900.0}
        assert spec.merged_net_overrides()["topology"] == "fat_tree"

    def test_default_and_explicit_single_time_identically(self):
        golden = measure_latency("infiniband", sizes=(4,), iters=25).at(4)
        explicit = measure_latency("infiniband", sizes=(4,), iters=25,
                                   net_overrides={"topology": "single"}).at(4)
        assert explicit == golden

    def test_two_node_fat_tree_times_identically(self):
        """Both endpoints on one leaf: one switch hop, same cost shape."""
        golden = measure_latency("quadrics", sizes=(4,), iters=25).at(4)
        routed = measure_latency("quadrics", sizes=(4,), iters=25,
                                 net_overrides={"topology":
                                                "federated_elite"}).at(4)
        assert routed == golden

    def test_mpi_implementation_aliases(self):
        assert RunSpec.microbench("latency", "mvapich").network == "infiniband"
        assert RunSpec.microbench("latency", "mpich-gm").network == "myrinet"
        assert RunSpec.microbench("latency",
                                  "mpich-quadrics").network == "quadrics"


class TestCrossbarValidation:
    def test_out_port_range_check(self):
        sw = CrossbarSwitch(Simulator(), 8, 1000.0, 0.2)
        with pytest.raises(ValueError):
            sw.out_port(8)
        with pytest.raises(ValueError):
            sw.out_port(-1)

    def test_free_standing_switch_serves_any_port(self):
        """No attached endpoints: the historical range-only behavior."""
        sw = CrossbarSwitch(Simulator(), 8, 1000.0, 0.2)
        assert sw.out_port(7) is sw.out_port(7)

    def test_attached_switch_rejects_unattached_ports(self):
        sw = CrossbarSwitch(Simulator(), 8, 1000.0, 0.2)
        sw.attach_endpoint(0)
        sw.attach_endpoint(1)
        assert sw.out_port(1).name.endswith(".out1")
        with pytest.raises(ValueError, match="no attached endpoint"):
            sw.out_port(5)
        with pytest.raises(ValueError):
            sw.attach_endpoint(9)


class TestMemoryModel:
    @pytest.mark.parametrize("network", ["infiniband", "myrinet", "quadrics"])
    def test_analytic_matches_simulated_static(self, network):
        sim = measure_memory_usage(network, node_counts=(8,))
        assert sim.at(8) == analytic_memory_mb(
            device_class_for(network), 8)

    def test_custom_node_counts_parameter(self):
        series = measure_memory_usage("myrinet", node_counts=(2, 4))
        assert [x for x, _ in series.points] == [2, 4]


class TestExecutorParity:
    def test_serial_vs_jobs_identical_at_256_ranks(self):
        """Parallel execution of 256-rank routed sweeps is bytes-equal."""
        specs = [
            RunSpec.microbench("memory_usage", "myrinet",
                               node_counts=(256,), topology="clos"),
            RunSpec.microbench("memory_usage", "quadrics",
                               node_counts=(256,),
                               topology="federated_elite"),
        ]
        serial = SweepExecutor(jobs=1, cache=None).run(specs)
        parallel = SweepExecutor(jobs=2, cache=None).run(specs)
        assert json.dumps(serial, sort_keys=True) == \
            json.dumps(parallel, sort_keys=True)
        # and the routed 256-rank readout matches the closed form
        assert serial[0]["points"][0][1] == analytic_memory_mb(
            device_class_for("myrinet"), 256)


class TestDiffRefs:
    def test_topology_ref_becomes_spec_field(self):
        from repro.obs.diff import build_spec, parse_run_ref

        ref = parse_run_ref("latency@infiniband:topology=fat_tree")
        spec = build_spec(ref, size=4096, iters=10, nprocs=2,
                          interval_us=50.0)
        assert spec.topology == "fat_tree"
        assert "topology" not in dict(spec.mpi_options)
