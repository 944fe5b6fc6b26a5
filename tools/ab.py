#!/usr/bin/env python3
"""A/B driver for perfbench: compare two revisions on one workload.

Run from anywhere inside a git checkout::

    python3 tools/ab.py BASE CHANGE --workload apps [--pairs 10] \\
        [--seconds S] [--trace 0|1]

Both revisions are exported with ``git archive`` into a scratch
directory, and this checkout's ``perfbench/run.py`` runs inside each
copy, so the two sides share one benchmark and differ only in ``src/``.
Pair *i* runs on seed *i*; odd pairs run BASE first and even pairs
CHANGE first, so a drift in host speed over the session falls on both
sides alike.  Per end-to-end metric of ``BENCHMARK.json`` the driver
prints each side's median and quartiles, the ratio of the medians, the
pairs the change won (ties count for neither side) and a verdict:

- ``gain``: at least 10 pairs, the change wins at least 9 in 10 of
  them, and its median beats BASE's by more than BASE's interquartile
  range;
- ``worse``: the change's median is worse than BASE's by more than the
  metric's bound in ``BENCHMARK.json``;
- ``no gain``: anything else.

With ``--trace 1`` each side also makes one traced run per pair, and
the driver ranks the layers by how far the median of their ``self_s``
moved.  The method follows Hunold and Carpen-Amarie, *MPI Benchmarking
Revisited*: alternate the order, report the spread, decide on medians.
The exit status is 1 when any operation failed on either side.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from typing import Dict, List, NamedTuple, Optional, Sequence

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_PY = os.path.join(ROOT, "perfbench", "run.py")
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")
#: a gain needs at least this many pairs ...
MIN_PAIRS = 10
#: ... and the change winning at least this share of them
WIN_SHARE = 0.9
SIDES = ("base", "change")


class Quartiles(NamedTuple):
    q1: float
    median: float
    q3: float

    @property
    def iqr(self) -> float:
        return self.q3 - self.q1


def quartiles(samples: Sequence[float]) -> Quartiles:
    if len(samples) == 1:
        return Quartiles(samples[0], samples[0], samples[0])
    q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return Quartiles(q1, median, q3)


class Decision(NamedTuple):
    base: Quartiles
    change: Quartiles
    ratio: float    # change median / base median
    wins: int       # pairs the change won; ties count for neither side
    losses: int     # pairs BASE won
    verdict: str    # "gain", "worse" or "no gain"


def decide(base: Sequence[float], change: Sequence[float],
           higher_is_better: bool = False,
           bound: Optional[float] = None) -> Decision:
    """Judge paired samples: ``base[i]`` and ``change[i]`` share pair *i*.

    ``bound`` is the relative worsening of the median that still counts
    as no change (``None``: never judge ``worse``).
    """
    if not base or len(base) != len(change):
        raise ValueError("need one base and one change sample per pair")
    sign = 1.0 if higher_is_better else -1.0
    wins = sum(sign * (c - b) > 0 for b, c in zip(base, change))
    losses = sum(sign * (c - b) < 0 for b, c in zip(base, change))
    qb, qc = quartiles(base), quartiles(change)
    gain = sign * (qc.median - qb.median)   # > 0: the change is better
    if (len(base) >= MIN_PAIRS and wins >= WIN_SHARE * len(base)
            and gain > qb.iqr):
        verdict = "gain"
    elif bound is not None and -gain > bound * abs(qb.median):
        verdict = "worse"
    else:
        verdict = "no gain"
    ratio = qc.median / qb.median if qb.median else float("nan")
    return Decision(qb, qc, ratio, wins, losses, verdict)


class Run(NamedTuple):
    failed: int
    drift: int
    metrics: Dict[str, float]


def git(*args: str) -> bytes:
    return subprocess.run(["git", "-C", ROOT, *args], check=True,
                          stdout=subprocess.PIPE).stdout


def export(rev: str, dest: str) -> None:
    """Unpack ``rev``'s committed tree into ``dest``."""
    os.makedirs(dest)
    subprocess.run(["tar", "-x", "-C", dest], input=git("archive", rev),
                   check=True)


def run_bench(copy: str, workload: str, seed: int, seconds: float,
              trace: int) -> Run:
    cmd = [sys.executable, RUN_PY, "--workload", workload, "--seed",
           str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=copy, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode or not lines:
        sys.exit(f"error: perfbench exited {proc.returncode} in {copy}:\n"
                 f"{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    drift = next(int(ln.split()[1]) for ln in lines
                 if ln.split()[:1] == ["result_drift"])
    return Run(result["failed"], drift,
               {name: m["value"] for name, m in result["metrics"].items()})


def fmt_quartiles(q: Quartiles) -> str:
    return f"{q.median:.4g} [{q.q1:.4g} .. {q.q3:.4g}]"


def report(runs: Dict[str, List[Run]], end_to_end: List[dict]) -> List[str]:
    """One row per end-to-end metric that every run reported."""
    lines = [f"{'metric':<23} {'base median [q1 .. q3]':<36} "
             f"{'change median [q1 .. q3]':<36} {'ratio':>7} {'wins':>6}  "
             f"verdict"]
    npairs = len(runs["base"])
    for spec in end_to_end:
        name = spec["name"]
        if not all(name in r.metrics for side in SIDES for r in runs[side]):
            continue
        d = decide([r.metrics[name] for r in runs["base"]],
                   [r.metrics[name] for r in runs["change"]],
                   higher_is_better=spec["better"] == "higher",
                   bound=spec["bound"])
        lines.append(f"{name + ' (' + spec['unit'] + ')':<23} "
                     f"{fmt_quartiles(d.base):<36} "
                     f"{fmt_quartiles(d.change):<36} {d.ratio:>6.3f}x "
                     f"{d.wins:>3}/{npairs:<2}  {d.verdict}")
    return lines


def layer_moves(traces: Dict[str, List[Run]]) -> List[str]:
    """Per-layer ``self_s`` medians, the layer that moved most first."""
    names = [n for n in traces["base"][0].metrics if n.endswith(".self_s")]
    rows = []
    for name in names:
        b, c = (statistics.median(r.metrics.get(name, 0.0)
                                  for r in traces[side]) for side in SIDES)
        rows.append((abs(c - b), name[:-len(".self_s")], b, c))
    rows.sort(reverse=True)
    lines = ["layer self_s (traced runs, raw host s), largest move first:"]
    for _, layer, b, c in rows:
        lines.append(f"  {layer:<12} base {b:>8.4f}  change {c:>8.4f}  "
                     f"delta {c - b:>+8.4f}")
    return lines


def main(argv=None) -> int:
    with open(BENCHMARK_JSON) as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base", help="parent revision")
    ap.add_argument("change", help="revision under test")
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--pairs", type=int, default=MIN_PAIRS,
                    help="pairs of runs, seeds 1..N (default: %(default)s)")
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"],
                    help="timed seconds per run (default: %(default)s, "
                         "from BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: also one traced run per side and pair")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    revs = {side: git("rev-parse", "--short", f"{rev}^{{commit}}")
            .decode().strip()
            for side, rev in zip(SIDES, (args.base, args.change))}

    runs: Dict[str, List[Run]] = {side: [] for side in SIDES}
    traces: Dict[str, List[Run]] = {side: [] for side in SIDES}
    scratch = tempfile.mkdtemp(prefix="ab-")
    try:
        copies = {side: os.path.join(scratch, side) for side in SIDES}
        for side in SIDES:
            export(revs[side], copies[side])
        for seed in range(1, args.pairs + 1):
            order = SIDES if seed % 2 else SIDES[::-1]
            for side in order:
                runs[side].append(run_bench(copies[side], args.workload,
                                            seed, args.seconds, 0))
                if args.trace:
                    traces[side].append(run_bench(
                        copies[side], args.workload, seed, args.seconds, 1))
            walls = "  ".join(f"{side} {runs[side][-1].metrics['wall_s']:.4g}"
                              for side in order)
            print(f"pair {seed}/{args.pairs} ({order[0]} first): wall_s "
                  f"{walls}", file=sys.stderr, flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    print(f"{args.workload}: base {revs['base']} vs change {revs['change']}, "
          f"{args.pairs} pairs on seeds 1..{args.pairs}, alternating order, "
          f"{args.seconds:g} s per run")
    print("\n".join(report(runs, bench["end_to_end"])))
    if args.trace:
        print("\n".join(layer_moves(traces)))
    failed = {side: sum(r.failed for r in runs[side] + traces[side])
              for side in SIDES}
    drift = {side: max(r.drift for r in runs[side]) for side in SIDES}
    print(f"failed ops: base {failed['base']}, change {failed['change']} | "
          f"result_drift: base {drift['base']}, change {drift['change']}")
    return 1 if any(failed.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
