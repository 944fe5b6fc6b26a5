"""Derived statistics: the paper's Tables 1 and 3-6 from trace records.

All functions take a :class:`~repro.profiling.recorder.Recorder` and
return plain dicts ready for rendering by :mod:`repro.profiling.report`.
Counts honour ``recorder.scale`` so sampled application runs can be
extrapolated to full-length executions.  They iterate the Recorder's
packed blocks (``call_block`` / ``transfer_block``) as stored tuples,
unpacked in the field order of
:class:`~repro.profiling.recorder.CallRecord` and
:class:`~repro.profiling.recorder.TransferRecord` with a call's
``func`` and ``intra`` left as their codes, so summarising a run builds
no row and no record.

Every function here only *reads* the Recorder: the profiling tables
run all of them over one decoded Recorder per run (the per-run summary
that :func:`repro.runtime.derive` caches), so a statistic that mutated
it would change every statistic computed after it.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import Any, Dict, Sequence, Set, Tuple

from repro.core.units import KB, MB
from repro.profiling.recorder import Recorder

__all__ = [
    "SIZE_BUCKETS",
    "message_size_histogram",
    "transfer_size_histogram",
    "nonblocking_stats",
    "buffer_reuse_rate",
    "collective_stats",
    "intranode_stats",
]

#: Table 1's buckets: <2K, 2K-16K, 16K-1M, >1M
SIZE_BUCKETS: Sequence[Tuple[str, int, float]] = (
    ("<2K", 0, 2 * KB),
    ("2K-16K", 2 * KB, 16 * KB),
    ("16K-1M", 16 * KB, 1 * MB),
    (">1M", 1 * MB, float("inf")),
)


#: send-side call names counted by the paper's message-size profile
_SEND_CALLS = frozenset({
    "send", "isend", "sendrecv",
    "bcast", "reduce", "allreduce", "alltoall", "alltoallv",
    "allgather", "gather", "scatter",
})


def message_size_histogram(rec: Recorder, per_process: bool = True,
                           nprocs: int = 0) -> Dict[str, int]:
    """Table 1: message-size distribution of send-side MPI calls.

    The paper's profile counts each process's outgoing MPI calls with
    their user buffer sizes (an Alltoallv of a 16 MB buffer is one >1M
    entry — that is how IS shows ~11 such messages).  With
    ``per_process`` the counts are averaged over ranks like the paper's
    single-process tables; pass ``nprocs`` to override the rank count
    inferred from the records.
    """
    counts = {name: 0 for name, _lo, _hi in SIZE_BUCKETS}
    ranks = set()
    sends = {code for func, code in rec.call_block.codes.items()
             if func in _SEND_CALLS}
    for rank, func, _peer, nbytes, _addr, _t0, _t1, _blk, _coll, _intra \
            in rec.call_block.unpacked():
        if func not in sends or nbytes <= 0:
            continue
        ranks.add(rank)
        for name, lo, hi in SIZE_BUCKETS:
            if lo <= nbytes < hi:
                counts[name] += 1
                break
    div = (nprocs or len(ranks) or 1) if per_process else 1
    return {name: int(round(n * rec.scale / div)) for name, n in counts.items()}


def transfer_size_histogram(rec: Recorder) -> Dict[str, int]:
    """Wire-message counts per size bucket (collective internals included)."""
    counts = {name: 0 for name, _lo, _hi in SIZE_BUCKETS}
    for _rank, _peer, nbytes, _intra, _coll, _time \
            in rec.transfer_block.unpacked():
        for name, lo, hi in SIZE_BUCKETS:
            if lo <= nbytes < hi:
                counts[name] += 1
                break
    return {name: int(round(n * rec.scale)) for name, n in counts.items()}


def _nranks(rec: Recorder) -> int:
    return len({row[0] for row in rec.call_block.unpacked()}) or 1


def nonblocking_stats(rec: Recorder, per_process: bool = True) -> Dict[str, Dict[str, float]]:
    """Table 3: per-process Isend/Irecv call counts and average sizes."""
    out = {}
    div = _nranks(rec) if per_process else 1
    for func in ("isend", "irecv"):
        code = rec.call_block.codes.get(func)
        n = total = 0
        for _rank, f, _peer, nbytes, _addr, _t0, _t1, _blk, _coll, _intra \
                in rec.call_block.unpacked():
            if f == code:
                n += 1
                total += nbytes
        avg = total / n if n else 0.0
        out[func] = {"calls": int(round(n * rec.scale / div)), "avg_size": avg}
    return out


def buffer_reuse_rate(rec: Recorder) -> Dict[str, float]:
    """Table 4: % of calls touching previously-used buffers.

    A call "reuses" a buffer when its buffer address has appeared in an
    earlier communication call of the same rank — exactly the notion the
    paper extracts from its modified MPICH logger.  The weighted variant
    weighs each call by its byte count.

    For sampled runs the *steady-state* rate is what extrapolates to the
    full run, so earlier iterations (where every persistent buffer pays
    its one-time first touch) only warm the seen set; rates are measured
    over the last simulated iteration's worth of records.
    """
    calls = rec.call_block
    # two passes over the stream, holding one seen set per rank: the
    # first counts each rank's buffer calls to place its warm-up window
    per_rank = Counter(rank for rank, _func, _peer, _nbytes, addr, _t0, _t1,
                       _blk, _coll, _intra in calls.unpacked() if addr >= 0)
    nsim = max(rec.sample_iters, 1)
    warm = {rank: n - n // nsim if nsim > 1 else 0
            for rank, n in per_rank.items()}
    seen: Dict[int, Set[int]] = defaultdict(set)
    done: Dict[int, int] = defaultdict(int)
    reuse_calls = total_calls = 0
    reuse_bytes = total_bytes = 0
    for rank, _func, _peer, nbytes, addr, _t0, _t1, _blk, _coll, _intra \
            in calls.unpacked():
        if addr < 0:
            continue
        rank_seen = seen[rank]
        hit = addr in rank_seen
        rank_seen.add(addr)
        i = done[rank]
        done[rank] = i + 1
        if i < warm[rank]:
            continue
        total_calls += 1
        total_bytes += nbytes
        if hit:
            reuse_calls += 1
            reuse_bytes += nbytes
    grand_total = sum(per_rank.values())
    pct = 100.0 * reuse_calls / total_calls if total_calls else 0.0
    wpct = 100.0 * reuse_bytes / total_bytes if total_bytes else 0.0
    return {"reuse_pct": pct, "weighted_reuse_pct": wpct,
            "calls": int(round(grand_total * rec.scale))}


def collective_stats(rec: Recorder) -> Dict[str, Any]:
    """Table 5: collective call count, % of calls, % of volume."""
    names = rec.call_block.names
    by_code = Counter(func for _rank, func, _peer, _nbytes, _addr, _t0, _t1,
                      _blk, coll, _intra in rec.call_block.unpacked() if coll)
    by_name = {names[code]: n for code, n in by_code.items()}
    ncoll = sum(by_name.values())
    ncalls = len(rec.call_block)
    coll_vol = total_vol = 0
    for _rank, _peer, nbytes, _intra, coll, _time \
            in rec.transfer_block.unpacked():
        total_vol += nbytes
        if coll:
            coll_vol += nbytes
    div = _nranks(rec)
    return {
        "calls": int(round(ncoll * rec.scale / div)),
        "pct_calls": 100.0 * ncoll / ncalls if ncalls else 0.0,
        "pct_volume": 100.0 * coll_vol / total_vol if total_vol else 0.0,
        "by_name": {k: int(round(v * rec.scale / div)) for k, v in sorted(by_name.items())},
    }


def intranode_stats(rec: Recorder) -> Dict[str, float]:
    """Table 6: intra-node share of point-to-point communication."""
    npt = nintra = vol_intra = vol_total = 0
    for _rank, _peer, nbytes, intra, coll, _time \
            in rec.transfer_block.unpacked():
        if coll:
            continue
        npt += 1
        vol_total += nbytes
        if intra:
            nintra += 1
            vol_intra += nbytes
    div = _nranks(rec)
    return {
        "calls": int(round(nintra * rec.scale / div)),
        "pct_calls": 100.0 * nintra / npt if npt else 0.0,
        "pct_volume": 100.0 * vol_intra / vol_total if vol_total else 0.0,
    }
