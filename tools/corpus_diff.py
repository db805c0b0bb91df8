#!/usr/bin/env python3
"""Compare the CLI outputs of the working tree with a parent revision's on
the golden corpus.

    python3 tools/corpus_diff.py
    python3 tools/corpus_diff.py --parent HEAD~1

Run from the root of a steinkit checkout.  The parent revision (default
HEAD, the commit an uncommitted change sits on; HEAD~1 once it is
committed) is checked out with `ab_bench.parent_worktree`.  The 18 corpus
specs (`corpus.KERNEL_SPECS` and `corpus.NO_KERNEL_SPECS`, written as spec
documents by the parent's `spec_to_dict`) go through `python -m steinkit
VERB SPEC --grid G` for the verbs check, kernel, bound, clt (with `--n
1,4,16,64,256`) and recover, at grids 1024 and 4096, and `python -m
steinkit corpus`, whose certification table prints |E tau - sigma^2| and
the largest Stein residual of every corpus spec, runs once (it reads no
grid): 181 outputs, in both checkouts, up to four CLI processes
at a time (fewer on a machine with fewer CPUs).  The script prints how
many outputs (exit code, stdout and stderr, each checkout's path in stderr
written as <tree>) are byte-identical, and for every output that differs,
the exit codes, or, per stream that differs, the largest relative and
absolute difference of its numbers or why they cannot be paired.  The
worktree is removed at the end.  Standard library only.
"""

from __future__ import annotations

import argparse
import functools
import os
import re
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from ab_bench import parent_worktree

VERBS = ("check", "kernel", "bound", "clt", "recover")
GRIDS = (1024, 4096)
CLT_NS = "1,4,16,64,256"
# each CLI process holds ~85 MB, so a few at a time keep the peak small
JOBS = min(4, os.cpu_count() or 1)
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?(?:inf|nan)\b")

WRITE_CORPUS = """
import json, sys
from pathlib import Path
from steinkit.corpus import KERNEL_SPECS, NO_KERNEL_SPECS
from steinkit.distributions import spec_to_dict
specs = {**KERNEL_SPECS, **{k: v[0] for k, v in NO_KERNEL_SPECS.items()}}
for name, spec in specs.items():
    Path(sys.argv[1], name + ".json").write_text(json.dumps(spec_to_dict(spec)))
"""


def env_for(tree: Path) -> dict:
    """The environment that makes `python -m steinkit` import `tree`'s source."""
    return {**os.environ, "PYTHONPATH": str(tree / "src")}


def cli_cases(specs) -> list:
    """(label, CLI arguments) of every call: each spec through each verb at
    each grid, then the corpus battery once."""
    cases = [(f"{spec.stem} {verb} --grid {grid}",
              [verb, str(spec), "--grid", str(grid), *(["--n", CLT_NS] if verb == "clt" else [])])
             for spec in specs for grid in GRIDS for verb in VERBS]
    return cases + [("corpus", ["corpus"])]


def run_verb(tree: Path, args: list) -> tuple:
    """(exit code, stdout, stderr) of one CLI call in the checkout `tree`,
    the checkout's path in stderr (a warning's source file) as <tree>."""
    cp = subprocess.run([sys.executable, "-m", "steinkit", *args], cwd=tree, env=env_for(tree),
                        capture_output=True, text=True, stdin=subprocess.DEVNULL)
    return cp.returncode, cp.stdout, cp.stderr.replace(str(tree), "<tree>")


def numeric_diff(old: str, new: str):
    """(max relative, max absolute) difference of the numbers of two outputs
    whose text outside the numbers agrees, or a reason why they do not pair."""
    if NUMBER.sub("#", old) != NUMBER.sub("#", new):
        return "text outside the numbers differs"
    rel = ab = 0.0
    for a, b in zip(NUMBER.findall(old), NUMBER.findall(new)):
        x, y = float(a), float(b)
        if x == y or (x != x and y != y):
            continue
        d = abs(x - y)
        if d != d:
            return f"{a} against {b}"
        ab = max(ab, d)
        rel = max(rel, d / max(abs(x), abs(y)))
    return rel, ab


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", default="HEAD", help="git revision to compare against")
    args = ap.parse_args(argv)

    root = Path.cwd().resolve()
    with parent_worktree(root, args.parent) as parent, \
            tempfile.TemporaryDirectory(prefix="corpus-diff-") as tmp:
        specs = Path(tmp)
        subprocess.run([sys.executable, "-c", WRITE_CORPUS, str(specs)], env=env_for(parent),
                       check=True)
        names = sorted(specs.glob("*.json"))
        cases = cli_cases(names)
        with ThreadPoolExecutor(JOBS) as pool:
            outs = {side: list(pool.map(functools.partial(run_verb, tree),
                                        [args for _, args in cases]))
                    for side, tree in (("parent", parent), ("change", root))}
        same = 0
        for (what, _), old, new in zip(cases, outs["parent"], outs["change"]):
            if old == new:
                same += 1
                continue
            if old[0] != new[0]:
                print(f"  {what}: exit {old[0]} -> {new[0]}")
                continue
            notes = []
            for stream, a, b in (("stdout", old[1], new[1]), ("stderr", old[2], new[2])):
                if a != b:
                    diff = numeric_diff(a, b)
                    notes.append(f"{stream} {diff}" if isinstance(diff, str) else
                                 f"{stream} max relative {diff[0]:.3g}, max absolute {diff[1]:.3g}")
            print(f"  {what}: {'; '.join(notes)}")
        print(f"{same} of {len(cases)} outputs byte-identical ({len(names)} specs, grids"
              f" {', '.join(map(str, GRIDS))}, verbs {', '.join(VERBS)}; corpus once)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
