"""Steadiness check: repeat the benchmark over seeds and report the spread.

    python3 perfbench/steady.py                      # every workload, seeds 1..10
    python3 perfbench/steady.py --workloads clt --seeds 5 --first-seed 101
    python3 perfbench/steady.py --seeds 1            # one run of each workload

Run from the root of the checkout.  Each run is one
`perfbench/run.py --workload W --seed S --seconds N --trace T` in a fresh
process, one at a time, with N the `run_seconds` of BENCHMARK.json.  For every metric of every workload this prints the
median, the quartiles (`statistics.quantiles(values, n=4)`), the spread
(q3 - q1) / median and, for end-to-end metrics, that spread as a share of
the metric's bound in BENCHMARK.json.  It also prints the failed share of
every run, which must be the same in all of them.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
RUN = Path(__file__).resolve().parent / "run.py"


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.stderr.strip():
        sys.stderr.write(proc.stderr)
    return result, wall


def summarise(values):
    if len(values) < 2:
        return values[0], values[0], values[0], 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main(argv=None):
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in config["workloads"]))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    report = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            result, wall = run_once(workload, seed, config["run_seconds"], args.trace)
            runs.append(result)
            print(f"{workload:8s} seed {seed:4d}  {wall:5.1f} s  correct {result['correct']}  "
                  f"attempted {result['attempted']:4d}  failed {result['failed']}  "
                  f"failed share {result['failed'] / result['attempted']:.6f}", flush=True)
        shares = {r["failed"] / r["attempted"] for r in runs}
        print(f"{workload}: {'one failed share' if len(shares) == 1 else 'FAILED SHARES DIFFER'}"
              f"; {'all correct' if all(r['correct'] for r in runs) else 'SOME INCORRECT'}")
        print(f"  {'metric':36s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} "
              f"{'bound':>6s} {'spread/bound':>12s}")
        report[workload] = {}
        for name, first in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            med, q1, q3, spread = summarise(values)
            bound = bounds.get(name)
            share = f"{spread / bound:12.2f}" if bound else f"{'':12s}"
            print(f"  {name:36s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} "
                  f"{bound if bound else '':>6} {share}  {first['unit']}")
            report[workload][name] = {"values": values, "median": med, "q1": q1, "q3": q3,
                                      "spread": spread, "bound": bound}
    out = ROOT / ".perfbench"
    out.mkdir(exist_ok=True)
    (out / f"steady-trace{args.trace}-seed{args.first_seed}.json").write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
