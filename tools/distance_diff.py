#!/usr/bin/env python3
"""Compare the distances, discrepancy bounds or recovered densities of the
working tree with a parent revision's, case by case.

    python3 tools/distance_diff.py --seeds 1-10
    python3 tools/distance_diff.py --parent HEAD~1 --seeds 3
    python3 tools/distance_diff.py --workload recover --seeds 1-10
    python3 tools/distance_diff.py --workload clt --seeds 1-10

Run from the root of a steinkit checkout.  The parent revision (default
HEAD, the commit an uncommitted change sits on; HEAD~1 once it is
committed) is checked out with `ab_bench.parent_worktree`.  One child
process per checkout imports that checkout's `src/steinkit` and
`perfbench/` and runs every case, recording its result, the exception
raised, if any, and the warnings issued.

With --workload certify (the default) the cases are the operations of the
certify round of each seed (`perfbench/rounds.py`, its known faults
included) and the specs of `corpus.KERNEL_SPECS`; each runs `stein_kernel`,
`kernel_stats` and then `discrepancy_bounds`, recording E tau and Var tau,
tv, bound_l1 and bound_sd.  With --workload recover the cases are the operations of the
recover round of each seed, at their grids, and the `corpus.KERNEL_SPECS`
with no Cantor part and no atom inside the support, at grids 16, 512 and
4096; each runs `stein_kernel` and then `recover_density` at its grid,
recording the density's grid and values.  With --workload clt the cases
are the operations of the clt round of each seed, at their ns and grids,
and the purely absolutely continuous `corpus.KERNEL_SPECS` at grids 1024
and 4096 with ns (1, 2, 3, 4, 8, 16, 64, 256, 1024); each runs `clt_curve`,
recording its empirical distances, and `convolution_tv_result` per n,
recording its route, error estimate and mass defect.

The script prints how many cases are bitwise identical, the largest
difference of each recorded quantity with its case (tv absolute, the
bounds relative and absolute, E tau and Var tau relative; a density's values relative, the two end points apart
from the points inside; the empirical distances absolute and relative,
the error estimates and mass defects absolute),
every case whose density grids or routes differ, and every case whose
exception or warning count differs.  The worktree is removed at
the end.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from ab_bench import parent_worktree

# argv: the seeds; each child prints one JSON list of [case, result or None,
# exception or None, warning count]
CERTIFY_CHILD = """
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
            mean_tau, var_tau = kernel_stats(spec, kernel)
            values = {**discrepancy_bounds(spec, kernel).to_dict(),
                      "E tau": mean_tau, "Var tau": var_tau}
        except Exception as exc:
            error = f"{type(exc).__name__}: {exc}"
    out.append([case, values, error, len(seen)])
print(json.dumps(out))
"""

RECOVER_CHILD = """
import json, os, sys, warnings
sys.path[:0] = [os.path.abspath("src"), os.path.abspath("perfbench")]
import rounds
from steinkit import moments, parse_spec, recover_density, spec_to_dict, stein_kernel, support
from steinkit.corpus import KERNEL_SPECS
cases = [(f"recover seed {seed} op {i} ({op.cls})", op.text, op.args["grid"])
         for seed in map(int, sys.argv[1:]) for i, op in enumerate(rounds.build("recover", seed))]
cases += [(f"corpus {name} grid {grid}", json.dumps(spec_to_dict(spec)), grid)
          for name, spec in KERNEL_SPECS.items() if not spec.cantor_parts
          and all(a.location in (support(spec).lo, support(spec).hi) for a in spec.atoms)
          for grid in (16, 512, 4096)]
out = []
for case, text, grid in cases:
    values = error = None
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        try:
            spec = parse_spec(text)
            density = recover_density(stein_kernel(spec, grid), moments(spec).mean, grid)
            values = [density.grid.tolist(), density.values.tolist()]
        except Exception as exc:
            error = f"{type(exc).__name__}: {exc}"
    out.append([case, values, error, len(seen)])
print(json.dumps(out))
"""

CLT_CHILD = """
import json, os, sys, warnings
sys.path[:0] = [os.path.abspath("src"), os.path.abspath("perfbench")]
import rounds
from steinkit import clt_curve, convolution_tv_result, parse_spec, spec_to_dict
from steinkit.corpus import KERNEL_SPECS
cases = [(f"clt seed {seed} op {i} ({op.cls})", op.text, op.args["ns"], op.args["grid"])
         for seed in map(int, sys.argv[1:]) for i, op in enumerate(rounds.build("clt", seed))]
cases += [(f"corpus {name} grid {grid}", json.dumps(spec_to_dict(spec)),
           (1, 2, 3, 4, 8, 16, 64, 256, 1024), grid)
          for name, spec in KERNEL_SPECS.items() if not spec.atoms and not spec.cantor_parts
          for grid in (1024, 4096)]
out = []
for case, text, ns, grid in cases:
    values = error = None
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        try:
            spec = parse_spec(text)
            empirical = list(clt_curve(spec, ns, grid).empirical)
            results = [convolution_tv_result(spec, n, grid) for n in ns]
            values = [empirical, [[r.route, r.error_estimate, r.mass_defect] for r in results]]
        except Exception as exc:
            error = f"{type(exc).__name__}: {exc}"
    out.append([case, values, error, len(seen)])
print(json.dumps(out))
"""


def _relative(x: float, y: float) -> float:
    return abs(x - y) / max(abs(x), abs(y)) if x != y else 0.0


def certify_diffs(a: dict, b: dict) -> dict:
    """The differences of one certify case's two reports; each bound's
    absolute difference too, which reads sensibly where it is 0 or ~1e-16."""
    out = {"tv": abs(a["tv"] - b["tv"])}
    for f in ("bound_l1", "bound_sd"):
        out[f], out[f"absolute {f}"] = _relative(a[f], b[f]), abs(a[f] - b[f])
    return {**out, "E tau": _relative(a["E tau"], b["E tau"]),
            "Var tau": _relative(a["Var tau"], b["Var tau"])}


def recover_diffs(a: list, b: list):
    """The differences of one recover case's two densities, or why they
    cannot be paired."""
    (grid_a, va), (grid_b, vb) = a, b
    if grid_a != grid_b:
        return f"grids differ ({len(grid_a)} -> {len(grid_b)} points)"
    rel = [_relative(x, y) for x, y in zip(va, vb)]
    return {"end point value": max(rel[0], rel[-1]), "inside value": max(rel[1:-1], default=0.0)}


def clt_diffs(a: list, b: list):
    """The differences of one clt case's two curves, or why they cannot be
    paired."""
    (ea, na), (eb, nb) = a, b
    (routes_a, est_a, defect_a), (routes_b, est_b, defect_b) = zip(*na), zip(*nb)
    if routes_a != routes_b:
        return f"routes differ ({','.join(routes_a)} -> {','.join(routes_b)})"
    # the FFT route gives no estimate below grid 2048, on both sides alike
    return {"empirical": max(abs(x - y) for x, y in zip(ea, eb)),
            "relative empirical": max(_relative(x, y) for x, y in zip(ea, eb)),
            "error estimate": max((abs(x - y) for x, y in zip(est_a, est_b)
                                   if x is not None and y is not None), default=0.0),
            "mass defect": max(abs(x - y) for x, y in zip(defect_a, defect_b))}


# per workload: the child, the differences of a case and their kinds
WORKLOADS = {
    "certify": (CERTIFY_CHILD, certify_diffs,
                {"tv": "absolute", "bound_l1": "relative", "absolute bound_l1": "absolute",
                 "bound_sd": "relative", "absolute bound_sd": "absolute",
                 "E tau": "relative", "Var tau": "relative"}),
    "recover": (RECOVER_CHILD, recover_diffs,
                {"end point value": "relative", "inside value": "relative"}),
    "clt": (CLT_CHILD, clt_diffs, {"empirical": "absolute", "relative empirical": "relative",
                                   "error estimate": "absolute", "mass defect": "absolute"}),
}


def seed_range(text: str) -> list:
    """The seeds of "A-B" (inclusive) or of a single "A"."""
    first, _, last = text.partition("-")
    seeds = list(range(int(first), int(last or first) + 1))
    if not seeds:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return seeds


def run_cases(tree: Path, child: str, seeds: list) -> list:
    """The child's records for the checkout `tree`."""
    cp = subprocess.run([sys.executable, "-c", child, *map(str, seeds)], cwd=tree,
                        capture_output=True, text=True, stdin=subprocess.DEVNULL)
    if cp.returncode != 0:
        raise RuntimeError(f"the child in {tree} failed (exit {cp.returncode}):\n"
                           f"{cp.stderr[-2000:]}")
    return json.loads(cp.stdout)


def compare(old: list, new: list, diffs, kinds: dict) -> list:
    """The report's lines for the records of the parent and the change."""
    same, worst, lines = 0, {f: (0.0, None) for f in kinds}, []
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
        found = diffs(a, b)
        if isinstance(found, str):
            lines.append(f"  {case}: {found}")
            continue
        for f, d in found.items():
            if d != d or d > worst[f][0]:
                worst[f] = (d, case)
    head = [f"{same} of {len(old)} cases bitwise identical"]
    for f, kind in kinds.items():
        d, case = worst[f]
        head.append(f"  largest {f} difference ({kind}): {d:.3g}" + (f" ({case})" if case else ""))
    return head + lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", default="HEAD", help="git revision to compare against")
    ap.add_argument("--workload", choices=sorted(WORKLOADS), default="certify",
                    help="the round whose cases are compared (default certify)")
    ap.add_argument("--seeds", type=seed_range, default=seed_range("1-10"),
                    help="round seeds, A-B or A (default 1-10)")
    args = ap.parse_args(argv)

    child, diffs, kinds = WORKLOADS[args.workload]
    root = Path.cwd().resolve()
    with parent_worktree(root, args.parent) as parent:
        old = run_cases(parent, child, args.seeds)
    new = run_cases(root, child, args.seeds)
    print("\n".join(compare(old, new, diffs, kinds)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
