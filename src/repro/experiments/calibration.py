"""Calibration provenance: every tuned constant, and what anchors it.

The simulator has two kinds of parameters:

- **structural** (protocol thresholds, queue depths, algorithms): taken
  from the paper's text or the real software's documentation;
- **timing** (engine rates, per-packet costs, host call costs): fitted
  against the paper's *micro-benchmark* figures only.

Applications and collectives are never calibrated against their own
results — Figures 11-25 and Tables 1-6 are *predictions* from the
micro-calibrated models plus the real communication schedules.  The
single exception is each application's compute-work constant
(``base_work_s_2ranks``), fitted once against Table 2's 2-node
InfiniBand column (FT: 4-node), as documented in
:mod:`repro.apps.classes`.

``calibration_report()`` prints the full parameter inventory.
"""

from __future__ import annotations

from dataclasses import fields
from typing import List, Tuple

from repro.networks.infiniband.params import InfiniBandParams
from repro.networks.myrinet.params import MyrinetParams
from repro.networks.quadrics.params import QuadricsParams

__all__ = ["ANCHORS", "calibration_report"]

#: (parameter group, anchor in the paper, constants involved)
ANCHORS: List[Tuple[str, str, str]] = [
    ("IB wire rate 845 MB/s eff.", "Fig. 2: 841 MB/s uni-directional peak",
     "InfiniBandParams.wire_bw_mbps"),
    ("IB HCA per-packet 1.72 us/side", "Figs. 1,3: 6.8 us latency at 1.7 us host overhead",
     "InfiniBandParams.tx_proc_us/rx_proc_us"),
    ("PCI-X bus 915 MB/s shared", "Fig. 5: bi-directional plateau ~900 MB/s",
     "hardware.bus.make_pcix_bus"),
    ("PCI bus 400 MB/s shared", "Figs. 26-27: +0.6 us, 378 MB/s on PCI; Fig. 5 QSN 375",
     "hardware.bus.make_pci_bus"),
    ("MVAPICH eager limit 2 KB", "Fig. 2: bandwidth dip at exactly 2 KB",
     "MvapichChannel.EAGER_LIMIT"),
    ("MVAPICH shmem <16 KB + loopback", "§3.6: intra-node >450 MB/s large (half of PCI-X)",
     "MvapichChannel.CAPS.shmem_limit"),
    ("VAPI registration 22 + 5.5/page us", "Fig. 7: IBA latency rise >1K at 0% reuse",
     "InfiniBandParams.reg_*"),
    ("RC connection 5.7 MB + 15 MB base", "Fig. 13: ~20 MB at 2 nodes -> ~55 MB at 8",
     "MvapichDevice.MEM_*"),
    ("Myrinet wire 236.5 MB/s eff.", "Fig. 2: 235 MB/s peak (2 Gbps link)",
     "MyrinetParams.wire_bw_mbps"),
    ("LANai firmware 2.1 us/side + 1.2 retire", "Figs. 1,3,4: 6.7 us latency, 0.8 us overhead, "
     "bi-directional degradation", "MyrinetParams.tx_proc_us/send_done_proc_us"),
    ("LANai SRAM port 680 MB/s, S&F >256 KB", "Fig. 5: 473 MB/s dropping below 340 past 256 KB",
     "MyrinetParams.sram_*"),
    ("MPICH-GM eager limit 16 KB", "Figs. 7-8: Myrinet reuse-insensitive below 16 KB",
     "GmChannel.EAGER_LIMIT"),
    ("Elan engine 312 MB/s eff.", "Fig. 2: 308 MB/s uni-directional peak",
     "QuadricsParams.engine_bw_mbps"),
    ("Tports host calls 1.45/1.35 us", "Figs. 1,3: 4.6 us latency at 3.3 us host overhead",
     "TportsChannel.O_SEND/O_RECV_POST"),
    ("Elan inline limit 288 B", "Fig. 3: QSN overhead dips past 256 B",
     "QuadricsParams.inline_bytes"),
    ("Tports tx queue depth 16", "Fig. 2: QSN bandwidth drops when window > 16",
     "QuadricsParams.tx_queue_depth"),
    ("Elan MMU fault 10 + 13/page us (bulk 0.5)", "Figs. 7-8: steep QSN degradation at 0% reuse "
     "at every size", "QuadricsParams.tlb_*"),
    ("Tports NIC match 0.12 + 1.10/posted us", "Fig. 11: QSN Alltoall 67 us despite 4.6 us latency",
     "QuadricsParams.match_*"),
    ("memcpy bands 3000/1400/950 B/us", "Fig. 3: overhead growth with size (eager copies)",
     "hardware.cpu.MemcpyModel"),
    ("shmem stream 760 -> 210 B/us thrash", "Fig. 10: Myri/QSN intra-node collapse past the L2",
     "MemcpyModel.shmem_*"),
    ("allreduce = reduce+bcast / rdbl (GM)", "Fig. 12: QSN 28 < Myri 35 < IBA 46 us",
     "ChannelCaps.allreduce_algo"),
]


def calibration_report() -> str:
    """Render the parameter inventory with current values."""
    lines = ["Calibration anchors (see DESIGN.md / EXPERIMENTS.md):", ""]
    for what, anchor, where in ANCHORS:
        lines.append(f"- {what}")
        lines.append(f"    anchor: {anchor}")
        lines.append(f"    code:   {where}")
    lines.append("")
    for name, cls in (("InfiniBandParams", InfiniBandParams),
                      ("MyrinetParams", MyrinetParams),
                      ("QuadricsParams", QuadricsParams)):
        inst = cls()
        lines.append(f"{name}:")
        for f in fields(cls):
            lines.append(f"    {f.name} = {getattr(inst, f.name)}")
        lines.append("")
    return "\n".join(lines)


if __name__ == "__main__":  # pragma: no cover
    print(calibration_report())
