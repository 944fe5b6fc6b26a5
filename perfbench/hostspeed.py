"""Host-speed normalization of wall-clock timings.

A shared sandbox host does not run at one speed: a fixed pure-Python
loop takes anywhere from about 8 to 18 ms on one shared 2-vCPU Xeon VM
within one minute, and whole passes of a workload swing by as much.
Raw wall times therefore spread by 10-27% (interquartile range over
ten runs), more than any useful regression bound.

:func:`timed` runs a short probe loop just before and just after the
timed call, and scales the call's wall time by ``REF_PROBE_S`` over the
probe's mean time.  The probe mixes the operations the simulator spends
its time on: object allocation, a binary heap and dict updates.  The
probe code is fixed here, so no change to the program can move it; the
result reads as seconds on a reference host that runs the probe in
``REF_PROBE_S``.  With it the same spread falls to a few percent.
"""

import gc
import heapq
import time

#: probe time on the reference host (that VM at its typical speed)
REF_PROBE_S = 0.010


class _Node:
    __slots__ = ("key", "val")

    def __init__(self, key, val):
        self.key = key
        self.val = val


def probe():
    """Wall seconds of one fixed probe loop.

    The cyclic collector is off during the loop (it makes no cycles):
    otherwise a full collection of the program's heap could land in it,
    and the probe would time the heap, not the host.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        heap, counts = [], {}
        for i in range(6000):
            node = _Node((i * 7919) % 10007, i)
            heapq.heappush(heap, (node.key, i, node))
            counts[node.key % 257] = counts.get(node.key % 257, 0) + node.val
        while heap:
            heapq.heappop(heap)
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def timed(fn, *args, **kwargs):
    """Call ``fn``; return ``(result, wall seconds, reference seconds)``."""
    before = probe()
    t0 = time.perf_counter()
    result = fn(*args, **kwargs)
    wall = time.perf_counter() - t0
    after = probe()
    return result, wall, wall * REF_PROBE_S * 2.0 / (before + after)
