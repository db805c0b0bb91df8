#!/usr/bin/env python3
"""Benchmark the working tree against a parent revision, in alternating pairs.

    python3 tools/ab_bench.py --workload certify --pairs 10
    python3 tools/ab_bench.py --workload clt --workload recover --parent HEAD~1 --first-seed 11

Run from the root of a steinkit checkout.  The parent revision (default
HEAD, the commit an uncommitted change sits on; HEAD~1 once it is
committed) is checked out with `git worktree add` into a temporary
directory.  For each seed, `python3 perfbench/run.py --workload W --seed N
--seconds S --trace 0`, S the `run_seconds` of BENCHMARK.json, runs once in
the parent checkout and once in this one, the parent first on odd pairs and
the change first on even ones.  For every end-to-end metric of
BENCHMARK.json the script prints both sides' median and quartiles, the
ratio of the medians, and the pairs the change won in the metric's better
direction (ties count for neither side); then the failed share and
correctness of every run, and whether the gain rule holds: the change wins
at least nine tenths of the pairs and the medians differ by more than the
parent's interquartile range.  The worktree is removed at the end.
Standard library only.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path


@contextlib.contextmanager
def parent_worktree(root: Path, rev: str):
    """Check the git revision `rev` of the repository at `root` out with
    `git worktree add` into a temporary directory, yield that checkout's
    path, and remove the worktree on exit.  Meanwhile SIGTERM raises
    SystemExit, so that a terminated run removes the worktree too."""
    tmp = Path(tempfile.mkdtemp(prefix="parent-tree-"))
    parent = tmp / "parent"
    previous = signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        subprocess.run(["git", "-C", str(root), "worktree", "add", "--detach", str(parent), rev],
                       check=True, capture_output=True, text=True)
        short = subprocess.run(["git", "-C", str(parent), "rev-parse", "--short", "HEAD"],
                               check=True, capture_output=True, text=True).stdout.strip()
        print(f"parent {rev} = {short} in a worktree; change = {root}", flush=True)
        yield parent
    finally:
        subprocess.run(["git", "-C", str(root), "worktree", "remove", "--force", str(parent)],
                       capture_output=True)
        shutil.rmtree(tmp, ignore_errors=True)
        subprocess.run(["git", "-C", str(root), "worktree", "prune"], capture_output=True)
        signal.signal(signal.SIGTERM, previous)


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """The summary line of one benchmark run in the checkout `tree`."""
    cp = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, stdin=subprocess.DEVNULL)
    if cp.returncode != 0:
        raise RuntimeError(f"perfbench/run.py failed in {tree} (exit {cp.returncode}):\n"
                           f"{cp.stderr[-2000:]}")
    return json.loads(cp.stdout.strip().splitlines()[-1])


def quartiles(values: list) -> tuple:
    """(q1, median, q3); a single value is all three."""
    if len(values) < 2:
        return (values[0],) * 3
    return tuple(statistics.quantiles(values, n=4))


def report(workload: str, seeds: list, runs: dict, metrics: list) -> None:
    """Print the per-metric table and the run outcomes of one workload."""
    print(f"\n{workload}: {len(seeds)} pairs, seeds {seeds[0]}-{seeds[-1]}")
    print(f"  {'metric':16s} {'parent median [q1, q3]':>32s} {'change median [q1, q3]':>32s}"
          f" {'ratio':>6s} {'won':>6s}  gain rule")
    for m in metrics:
        name, higher = m["name"], m["better"] == "higher"
        old = [r["metrics"][name]["value"] for r in runs["parent"]]
        new = [r["metrics"][name]["value"] for r in runs["change"]]
        (p1, pm, p3), (c1, cm, c3) = quartiles(old), quartiles(new)
        won = sum((b > a) if higher else (b < a) for a, b in zip(old, new))
        better = (cm > pm) if higher else (cm < pm)
        holds = won >= 0.9 * len(seeds) and better and abs(cm - pm) > p3 - p1
        print(f"  {name:16s} {f'{pm:.4g} [{p1:.4g}, {p3:.4g}]':>32s}"
              f" {f'{cm:.4g} [{c1:.4g}, {c3:.4g}]':>32s} {cm / pm if pm else math.nan:6.3f}"
              f" {f'{won}/{len(seeds)}':>6s}  {'holds' if holds else 'not met'}")
    for side in ("parent", "change"):
        rs = runs[side]
        print(f"  {side}: failed {sum(r['failed'] for r in rs)}/{sum(r['attempted'] for r in rs)}"
              f" ops, correct on {sum(bool(r['correct']) for r in rs)}/{len(rs)} runs")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append", required=True,
                    help="a workload of BENCHMARK.json; repeat for several")
    ap.add_argument("--pairs", type=int, default=10, help="parent/change pairs per workload")
    ap.add_argument("--first-seed", type=int, default=1, help="seed of the first pair")
    ap.add_argument("--parent", default="HEAD", help="git revision to compare against")
    args = ap.parse_args(argv)

    root = Path.cwd().resolve()
    bench = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    known = {w["name"] for w in bench["workloads"]}
    unknown = [w for w in args.workload if w not in known]
    if unknown:
        ap.error(f"unknown workload(s) {unknown}; BENCHMARK.json has {sorted(known)}")
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")

    with parent_worktree(root, args.parent) as parent:
        for workload in args.workload:
            seeds = list(range(args.first_seed, args.first_seed + args.pairs))
            runs = {"parent": [], "change": []}
            for i, seed in enumerate(seeds):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                for side in order:
                    summary = run_once(parent if side == "parent" else root, workload, seed,
                                       bench["run_seconds"])
                    runs[side].append(summary)
                    ops = summary["metrics"]["ops_per_s"]["value"]
                    print(f"  {workload} seed {seed} {side}: ops_per_s {ops:.4g}",
                          file=sys.stderr, flush=True)
            report(workload, seeds, runs, bench["end_to_end"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
