#!/usr/bin/env python3
"""Time each operation class of one benchmark round, in process.

    python3 tools/class_times.py --workload certify --rounds 5
    python3 tools/class_times.py --workload certify --rounds 10 --parent HEAD

Run from the root of a steinkit checkout.  A child process imports the
checkout's `src/steinkit` and the round builder and workloads of its
`perfbench/`, builds the workload's round for --seed, and runs it --rounds
times, timing each operation's `run` (its checks are not run, and an
operation that raises ends there and is counted).  The script prints, per
operation class, the best of the rounds of the class's summed time in ms,
the same for the whole round, and the operations that raised in a round.  With --parent REV, the revision is checked out with
`ab_bench.parent_worktree` and timed the same way in a second child; the
two children take the rounds in turn, the parent first on odd rounds, and a
last column reads the ratio change / parent.  Standard library only.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import subprocess
import sys
from pathlib import Path

from ab_bench import parent_worktree

# argv: workload, seed.  Each line on stdin runs one round and answers with
# a JSON line [{class: seconds}, operations that raised], the classes in the
# order of the workload's mix.
CHILD = """
import json, os, sys, time, warnings
for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[var] = "1"
sys.path[:0] = [os.path.abspath("src"), os.path.abspath("perfbench")]
import steinkit, steinkit.cli
import rounds, workloads
name, seed = sys.argv[1], int(sys.argv[2])
workload, ops = workloads.WORKLOADS[name](), rounds.build(name, seed)
classes = list(dict.fromkeys(cls for cls, *_ in rounds.MIXES[name]))
for _ in sys.stdin:
    times, failed = dict.fromkeys(classes, 0.0), 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for op in ops:
            start = time.perf_counter()
            try:
                workload.run(steinkit, op)
            except Exception:  # a known fault's operation; counted, not timed apart
                failed += 1
            times[op.cls] += time.perf_counter() - start
    print(json.dumps([times, failed]), flush=True)
"""


def time_rounds(trees: dict, workload: str, seed: int, count: int) -> tuple:
    """({side: {class: best seconds}}, {side: operations that raised in a
    round}) over `count` rounds of each tree in `trees` ({side: checkout}),
    one child per tree, the trees in turn."""
    children = {side: subprocess.Popen([sys.executable, "-c", CHILD, workload, str(seed)],
                                       cwd=tree, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                       text=True)
                for side, tree in trees.items()}
    best, failed = {side: {} for side in trees}, {}
    try:
        for i in range(count):
            for side in (list(trees) if i % 2 == 0 else list(trees)[::-1]):
                child = children[side]
                child.stdin.write("round\n")
                child.stdin.flush()
                line = child.stdout.readline()
                if not line:
                    raise RuntimeError(f"the {side} child ended (exit {child.wait()})")
                times, failed[side] = json.loads(line)
                times["round"] = sum(times.values())
                for cls, t in times.items():
                    best[side][cls] = min(best[side].get(cls, math.inf), t)
    finally:
        for child in children.values():
            child.stdin.close()
            try:
                child.wait(timeout=30)
            except subprocess.TimeoutExpired:
                child.kill()
            child.stdout.close()
    return best, failed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="certify", help="a workload of perfbench/rounds.py")
    ap.add_argument("--seed", type=int, default=1, help="seed of the round")
    ap.add_argument("--rounds", type=int, default=5, help="rounds per checkout; the best counts")
    ap.add_argument("--parent", help="git revision to time beside this checkout")
    args = ap.parse_args(argv)
    if args.rounds < 1:
        ap.error("--rounds must be at least 1")

    root = Path.cwd().resolve()
    with (parent_worktree(root, args.parent) if args.parent
          else contextlib.nullcontext()) as parent:
        trees = {"parent": parent, "change": root} if parent else {"change": root}
        best, failed = time_rounds(trees, args.workload, args.seed, args.rounds)

    print(f"{args.workload} seed {args.seed}: best of {args.rounds} rounds, ms")
    print(f"  {'class':16s}" + "".join(f"{side:>11s}" for side in trees)
          + (f"{'ratio':>8s}" if parent else ""))
    for cls in best["change"]:
        row = "".join(f"{1e3 * best[side][cls]:11.2f}" for side in trees)
        if parent:
            old = best["parent"].get(cls, math.nan)
            row += f"{best['change'][cls] / old if old else math.nan:8.3f}"
        print(f"  {cls:16s}{row}")
    print("  operations that raised, per round: "
          + ", ".join(f"{side} {failed[side]}" for side in trees))
    return 0


if __name__ == "__main__":
    sys.exit(main())
