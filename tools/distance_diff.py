#!/usr/bin/env python3
"""Compare the distances and discrepancy bounds of the working tree with a
parent revision's, case by case.

    python3 tools/distance_diff.py --seeds 1-10
    python3 tools/distance_diff.py --parent HEAD~1 --seeds 3

Run from the root of a steinkit checkout.  The parent revision (default
HEAD, the commit an uncommitted change sits on; HEAD~1 once it is
committed) is checked out with `ab_bench.parent_worktree`.  The cases are
the operations of the certify round of each seed (`perfbench/rounds.py`,
its known faults included) and the specs of `corpus.KERNEL_SPECS`.  One
child process per checkout imports that checkout's `src/steinkit` and
`perfbench/`, and runs `stein_kernel`, `kernel_stats` and then
`discrepancy_bounds` on every case, recording tv, bound_l1 and bound_sd,
the exception raised, if any, and the warnings issued.  The script prints
how many cases are bitwise identical, the largest absolute tv difference
and the largest relative bound_l1 and bound_sd differences with their
case, and every case whose exception or warning count differs.  The
worktree is removed at the end.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from ab_bench import parent_worktree

FIELDS = ("tv", "bound_l1", "bound_sd")

# argv: the seeds; prints one JSON list of [case, values or None, exception
# or None, warning count]
CHILD = """
import json, os, sys, warnings
sys.path[:0] = [os.path.abspath("src"), os.path.abspath("perfbench")]
import rounds
from steinkit import discrepancy_bounds, kernel_stats, parse_spec, spec_to_dict, stein_kernel
from steinkit.corpus import KERNEL_SPECS
cases = [(f"certify seed {seed} op {i} ({op.cls})", op.text)
         for seed in map(int, sys.argv[1:]) for i, op in enumerate(rounds.build("certify", seed))]
cases += [(f"corpus {name}", json.dumps(spec_to_dict(spec))) for name, spec in KERNEL_SPECS.items()]
out = []
for case, text in cases:
    values = error = None
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        try:
            spec = parse_spec(text)
            kernel = stein_kernel(spec)
            kernel_stats(spec, kernel)
            values = discrepancy_bounds(spec, kernel).to_dict()
        except Exception as exc:
            error = f"{type(exc).__name__}: {exc}"
    out.append([case, values, error, len(seen)])
print(json.dumps(out))
"""


def seed_range(text: str) -> list:
    """The seeds of "A-B" (inclusive) or of a single "A"."""
    first, _, last = text.partition("-")
    seeds = list(range(int(first), int(last or first) + 1))
    if not seeds:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return seeds


def run_cases(tree: Path, seeds: list) -> list:
    """The child's records for the checkout `tree`."""
    cp = subprocess.run([sys.executable, "-c", CHILD, *map(str, seeds)], cwd=tree,
                        capture_output=True, text=True, stdin=subprocess.DEVNULL)
    if cp.returncode != 0:
        raise RuntimeError(f"the child in {tree} failed (exit {cp.returncode}):\n"
                           f"{cp.stderr[-2000:]}")
    return json.loads(cp.stdout)


def compare(old: list, new: list) -> list:
    """The report's lines for the records of the parent and the change."""
    same, worst, lines = 0, {f: (0.0, None) for f in FIELDS}, []
    for (case, a, ea, wa), (case_b, b, eb, wb) in zip(old, new):
        if case != case_b:
            raise RuntimeError(f"the cases differ: {case!r} against {case_b!r}")
        if (ea, wa) != (eb, wb):
            lines.append(f"  {case}: exception {ea} -> {eb}, warnings {wa} -> {wb}")
        if a == b and ea == eb:
            same += 1
            continue
        if a is None or b is None:
            continue
        for f in FIELDS:
            d = abs(a[f] - b[f])
            if f != "tv":
                d = d / max(abs(a[f]), abs(b[f])) if d else 0.0
            if d != d or d > worst[f][0]:
                worst[f] = (d, case)
    head = [f"{same} of {len(old)} cases bitwise identical"]
    for f in FIELDS:
        d, case = worst[f]
        kind = "absolute" if f == "tv" else "relative"
        head.append(f"  largest {f} difference ({kind}): {d:.3g}" + (f" ({case})" if case else ""))
    return head + lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", default="HEAD", help="git revision to compare against")
    ap.add_argument("--seeds", type=seed_range, default=seed_range("1-10"),
                    help="certify seeds, A-B or A (default 1-10)")
    args = ap.parse_args(argv)

    root = Path.cwd().resolve()
    with parent_worktree(root, args.parent) as parent:
        old = run_cases(parent, args.seeds)
    new = run_cases(root, args.seeds)
    print("\n".join(compare(old, new)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
