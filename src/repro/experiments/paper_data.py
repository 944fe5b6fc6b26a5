"""The paper's published numbers, machine-readable.

Everything Liu et al. (SC'03) report numerically, transcribed from the
text and tables (figures are read off plots only where the text quotes
the value).  This is the single source of truth the validation module
and the benchmark harness compare against.

Units: µs for times, MB/s with MB = 2^20 for bandwidth, MB for memory,
seconds for application runtimes, bytes for sizes.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.core.netnames import NETWORKS

__all__ = [
    "MICRO", "TABLE2", "TABLE1", "TABLE3", "TABLE4", "TABLE5", "TABLE6",
    "NETWORK_ORDER",
]

NETWORK_ORDER = tuple(NETWORKS)  # IBA, Myri, QSN

#: §3 micro-benchmark headline values per network (IBA, Myri, QSN)
MICRO: Dict[str, Tuple[float, float, float]] = {
    # Fig. 1 / §3.1: smallest ping-pong latency
    "latency_small_us": (6.8, 6.7, 4.6),
    # Fig. 2 / §3.1: peak uni-directional bandwidth, window 16
    "bandwidth_peak_mbps": (841.0, 235.0, 308.0),
    # Fig. 3 / §3.2: host overhead (sender + receiver), small messages
    "host_overhead_us": (1.7, 0.8, 3.3),
    # Fig. 4 / §3.3: bi-directional latency, small messages
    "bidir_latency_us": (7.0, 10.1, 7.4),
    # Fig. 5 / §3.3: bi-directional bandwidth peaks (IBA bus-capped,
    # Myri before its >256K drop, QSN bus-capped)
    "bidir_bandwidth_mbps": (900.0, 473.0, 375.0),
    # §3.3: Myrinet bi-directional bandwidth after the 256 KB drop
    "myri_bidir_large_mbps": (float("nan"), 340.0, float("nan")),
    # Fig. 11 / §3.7: MPI_Alltoall, 8 nodes, small messages
    "alltoall_small_us": (31.0, 36.0, 67.0),
    # Fig. 12 / §3.7: MPI_Allreduce, 8 nodes, small messages
    "allreduce_small_us": (46.0, 35.0, 28.0),
    # Fig. 9 / §3.6: intra-node small-message latency (QSN: the paper
    # only states it exceeds the inter-node 4.6 µs)
    "intranode_latency_us": (1.6, 1.3, float("nan")),
    # §3.6: MVAPICH intra-node large-message bandwidth
    "intranode_large_mbps": (450.0, float("nan"), float("nan")),
    # Figs. 26-27 / §4.7: InfiniBand over PCI
    "ib_pci_bandwidth_mbps": (378.0, float("nan"), float("nan")),
    "ib_pci_latency_delta_us": (0.6, float("nan"), float("nan")),
}

#: Table 2 — execution seconds: app -> network -> {nprocs: seconds}
TABLE2: Dict[str, Dict[str, Dict[int, float]]] = {
    "is": {"infiniband": {2: 6.73, 4: 3.30, 8: 1.78},
           "myrinet": {2: 7.86, 4: 4.99, 8: 2.89},
           "quadrics": {2: 7.04, 4: 4.71, 8: 2.47}},
    "cg": {"infiniband": {2: 132.26, 4: 81.64, 8: 28.68},
           "myrinet": {2: 135.76, 4: 74.36, 8: 29.65},
           "quadrics": {2: 135.05, 4: 73.10, 8: 30.12}},
    "mg": {"infiniband": {2: 23.60, 4: 13.41, 8: 5.81},
           "myrinet": {2: 25.77, 4: 14.87, 8: 6.29},
           "quadrics": {2: 24.07, 4: 13.75, 8: 6.04}},
    "lu": {"infiniband": {2: 648.53, 4: 319.57, 8: 165.53},
           "myrinet": {2: 708.43, 4: 338.70, 8: 170.70},
           "quadrics": {2: 667.30, 4: 314.55, 8: 168.18}},
    "ft": {"infiniband": {4: 75.50, 8: 37.92},
           "myrinet": {4: 82.74, 8: 41.40},
           "quadrics": {4: 81.89, 8: 43.23}},
    "sweep3d.50": {"infiniband": {2: 13.58, 4: 7.18, 8: 3.59},
                   "myrinet": {2: 13.33, 4: 6.96, 8: 3.57},
                   "quadrics": {2: 14.94, 4: 7.37, 8: 4.38}},
    "sweep3d.150": {"infiniband": {2: 346.43, 4: 179.35, 8: 91.43},
                    "myrinet": {2: 339.22, 4: 176.94, 8: 89.66},
                    "quadrics": {2: 343.60, 4: 177.66, 8: 95.99}},
}

#: Table 1 — per-process message counts (<2K, 2K-16K, 16K-1M, >1M)
TABLE1: Dict[str, Tuple[int, int, int, int]] = {
    "IS": (14, 11, 0, 11),
    "CG": (16113, 0, 11856, 0),
    "MG": (1607, 630, 3702, 0),
    "LU": (100021, 0, 1008, 0),
    "FT": (24, 0, 0, 22),
    "SP": (9, 0, 9636, 0),
    "BT": (9, 0, 4836, 0),
    "S3d-50": (19236, 0, 0, 0),
    "S3d-150": (28836, 28800, 0, 0),
}

#: Table 3 — per-process non-blocking calls: (isend #, isend avg B,
#: irecv #, irecv avg B)
TABLE3: Dict[str, Tuple[int, int, int, int]] = {
    "IS": (0, 0, 0, 0),
    "CG": (0, 0, 13984, 63591),
    "MG": (0, 0, 2922, 270400),
    "LU": (0, 0, 508, 311692),
    "FT": (0, 0, 0, 0),
    "SP": (4818, 263970, 4818, 263970),
    "BT": (2418, 293108, 2418, 293108),
    "S3d-50": (0, 0, 0, 0),
    "S3d-150": (0, 0, 0, 0),
}

#: Table 4 — buffer reuse (% reuse, weighted % reuse)
TABLE4: Dict[str, Tuple[float, float]] = {
    "IS": (81.08, 27.40),
    "CG": (99.99, 99.98),
    "MG": (99.80, 99.83),
    "LU": (99.99, 99.80),
    "FT": (86.00, 91.30),
    "SP": (99.92, 99.89),
    "BT": (99.87, 99.83),
    "S3d-50": (99.96, 99.99),
    "S3d-150": (99.99, 99.99),
}

#: Table 5 — collective calls (# calls, % calls, % volume)
TABLE5: Dict[str, Tuple[int, float, float]] = {
    "IS": (35, 97.22, 100.00),
    "CG": (2, 0.01, 0.00),
    "MG": (101, 1.70, 0.03),
    "LU": (18, 0.02, 0.00),
    "FT": (47, 100.00, 100.00),
    "SP": (11, 0.09, 0.02),
    "BT": (11, 0.22, 0.01),
    "S3d-50": (39, 0.20, 0.00),
    "S3d-150": (39, 0.07, 0.00),
}

#: Table 6 — intra-node pt2pt, 16 procs on 8 nodes (# calls, % calls,
#: % volume)
TABLE6: Dict[str, Tuple[int, float, float]] = {
    "IS": (16, 100.00, 100.00),
    "CG": (192128, 42.93, 33.41),
    "MG": (14912, 16.25, 1.43),
    "LU": (804044, 33.16, 21.89),
    "FT": (0, 0.00, 0.00),
    "SP": (70608, 16.41, 16.26),
    "BT": (25760, 16.31, 16.21),
    "S3d-50": (153600, 33.29, 33.11),
    "S3d-150": (460800, 33.32, 33.47),
}
