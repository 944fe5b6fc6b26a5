#!/usr/bin/env python
"""Model analysis: LogGP parameters and design ablations.

Two tools beyond the paper's own figures:

1. **LogGP extraction** — the characterization methodology of the
   related work the paper cites ([Culler 93], [Bell IPDPS'03]): L, o_s,
   o_r, g, G per network, measured from the simulated MPI layers.
2. **Ablations** — what the design choices the paper discusses are
   worth: the pin-down cache (§3.5), MVAPICH's 2 KB eager threshold
   (§3.1), the shared-memory intra-node device (§3.6), RDMA-optimized
   collectives (§3.7 future work) and on-demand connections (§3.8).

Run:  python examples/model_analysis.py
"""

from repro.analysis import loggp_report
from repro.experiments.ascii_plot import table
from repro.microbench.collectives import _allreduce_loop
from repro.microbench.latency import pingpong_fn
from repro.mpi.world import MPIWorld


def _lat(net, nbytes, opts=None, ppn=1):
    w = MPIWorld(2, network=net, ppn=ppn, record=False, mpi_options=opts or {})
    return w.run(pingpong_fn, args=(nbytes, 15, 3)).returns[0]


def main():
    print(loggp_report())
    print()

    rows = [
        ["pin-down cache off (64K lat)", _lat("infiniband", 65536),
         _lat("infiniband", 65536, {"pin_down_cache": False})],
        ["eager limit 2K -> 32K (8K lat)", _lat("infiniband", 8192),
         _lat("infiniband", 8192, {"eager_limit": 32768})],
        ["shmem off (intra 64B lat)", _lat("infiniband", 64, ppn=2),
         _lat("infiniband", 64, {"use_shmem": False}, ppn=2)],
    ]
    print(table(["ablation", "baseline us", "ablated us"], rows,
                title="Point-to-point ablations (InfiniBand)"))
    print()

    ar = {}
    for label, opts in (("pt2pt", {}), ("rdma", {"rdma_collectives": True})):
        w = MPIWorld(8, network="infiniband", record=False, mpi_options=opts)
        ar[label] = w.run(_allreduce_loop, args=(8, 10, 2)).returns[0]
    mem = {}
    for label, opts in (("static", {}), ("on-demand",
                                         {"on_demand_connections": True})):
        def bar(comm):
            yield from comm.barrier()
        w = MPIWorld(8, network="infiniband", record=False, mpi_options=opts)
        w.run(bar)
        mem[label] = w.memory_usage_mb(0)
    print(table(["future-work feature", "before", "after"],
                [["RDMA allreduce (us, 8 nodes)", round(ar["pt2pt"], 1),
                  round(ar["rdma"], 1)],
                 ["on-demand connections (MB/proc)", round(mem["static"], 1),
                  round(mem["on-demand"], 1)]],
                title="The paper's future-work directions, implemented"))
    print("\n(cf. [Kini et al. 03] for RDMA collectives, [Wu et al. 02] for\n"
          " on-demand connections — both cited as remedies in the paper)")


if __name__ == "__main__":
    main()
