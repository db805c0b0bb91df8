"""Benchmark for steinkit: one workload, one seed, one run.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 14 --trace 0

Run from the root of a source checkout; the program is imported from
./src.  Each workload is a closed loop with a single caller: the next
operation starts when the previous one has returned and been checked.
The run repeats whole rounds of the workload's operations (`rounds.py`)
until `--seconds` have passed, after a warm-up pass over one operation of
each class.  The last line of stdout is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics of a traced run with `--trace 1`.
Result and trace files go to .perfbench/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

# The machine has two cores and the loop has one caller: pin every native
# thread pool to one thread before numpy is imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

from scipy.integrate import IntegrationWarning  # noqa: E402  (after the pinning)

import rounds  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, Failed, Incorrect  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd().resolve()
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

# Fresh interpreters timed for setup_s (and cli.start_ms): one discarded
# start, then two before and two after the timed loop, so that the median
# spans the run rather than one moment of it.
STARTS_BEFORE, STARTS_AFTER = 2, 2
TAIL_BEYOND = 10   # samples per round that lie beyond the tail percentile


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def import_program():
    """Import steinkit from the checkout, never from an installed copy."""
    if not (SRC / "steinkit" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'steinkit'} not found; run from the root of a steinkit checkout")
    sys.path.insert(0, str(SRC))
    import steinkit
    import steinkit.cli  # noqa: F401  (the cli workload dispatches through it)
    if Path(steinkit.__file__).resolve().parent != (SRC / "steinkit").resolve():
        sys.exit(f"error: imported steinkit from {steinkit.__file__}, not from {SRC}")
    return steinkit


def fresh_starts(argv, count):
    """Wall times of `count` fresh interpreters running argv, one at a time."""
    times = []
    for _ in range(count):
        start = time.perf_counter()
        subprocess.run([sys.executable, *argv], env=child_env(), check=True,
                       stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return times


def tail(ordered, rounds_run):
    """(value, rank) of the sample with TAIL_BEYOND samples per round above
    it, never below the median; rank is 1-based.  Counting per round keeps
    the percentile the same however many rounds fit in the run."""
    n = len(ordered)
    k = max(n - TAIL_BEYOND * rounds_run, (n + 1) // 2)
    return ordered[k - 1], k


def run_op(workload, sk, op):
    """Run one operation; returns (seconds, result, error, warnings caught)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", IntegrationWarning)
        start = time.perf_counter()
        try:
            result, error = workload.run(sk, op), None
        except Exception as exc:  # the program failed on this input
            result, error = None, exc
        elapsed = time.perf_counter() - start
    return elapsed, result, error, sum(issubclass(w.category, IntegrationWarning) for w in caught)


def outcome(workload, op, result, error, problems):
    """'ok' or 'failed'; incorrect results are appended to problems.  An
    operation on a known fault's fixed spec that raises or is wrong counts
    as failed; once the fault is mended it passes its checks."""
    if error is not None:
        if not op.fault:
            print(f"unexpected failure on {op.cls}: {error!r} spec={op.text}", file=sys.stderr)
        return "failed"
    try:
        workload.check(op, result)
    except Failed as exc:
        if not op.fault:
            print(f"unexpected failure on {op.cls}: {exc} spec={op.text}", file=sys.stderr)
        return "failed"
    except Incorrect as exc:
        if op.fault:
            return "failed"
        problems.append(f"{op.cls}: {exc} spec={op.text}")
    return "ok"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=14.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sk = import_program()

    if args.workload not in WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]()
    ops = rounds.build(args.workload, args.seed)

    if args.trace:
        probe = ["-c", "import steinkit.cli"]
    else:
        probe = [str(HERE / "setup_probe.py"), args.workload, str(args.seed)]
    starts = fresh_starts(probe, 1 + STARTS_BEFORE)[1:]

    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=OUT)
    tracer = None
    try:
        if hasattr(workload, "prepare"):
            workload.prepare(ops, workdir, child_env())
        if args.trace:
            tracer = spans.Tracer()
            tracer.install()
            if hasattr(workload, "in_process"):
                workload.in_process = True

        problems = []
        seen = set()
        for op in ops:  # warm-up: one operation of each class, untimed
            if op.cls not in seen and len(seen) < getattr(workload, "WARMUP_CLASSES", len(ops)):
                seen.add(op.cls)
                _, result, error, _ = run_op(workload, sk, op)
                outcome(workload, op, result, error, problems)
        if tracer:
            tracer.reset()
        if hasattr(workload, "child_rss_mb"):
            workload.child_rss_mb.clear()

        latencies, failed, caught, rounds_run = [], 0, 0, 0
        begin = time.perf_counter()
        while True:
            for op in ops:
                if tracer:
                    tracer.op = len(latencies)
                elapsed, result, error, n_warn = run_op(workload, sk, op)
                latencies.append(elapsed)
                caught += n_warn
                failed += outcome(workload, op, result, error, problems) == "failed"
            rounds_run += 1
            if time.perf_counter() - begin >= args.seconds:
                break
        wall = time.perf_counter() - begin
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)
    starts += fresh_starts(probe, STARTS_AFTER)

    attempted = len(latencies)
    ordered = sorted(latencies)
    tail_value, tail_rank = tail(ordered, rounds_run)

    for p in problems:
        print(f"INCORRECT {p}", file=sys.stderr)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  rounds {rounds_run}  "
          f"wall {wall:.1f} s  attempted {attempted}  failed {failed}  incorrect {len(problems)}")
    print(f"  tail = sample {tail_rank} of {attempted} "
          f"(p{100.0 * tail_rank / attempted:.1f}, {attempted - tail_rank} beyond); "
          f"mean op {1000.0 * sum(latencies) / attempted:.2f} ms")

    if args.trace:
        metrics = tracer.metrics(attempted, caught, 1000.0 * statistics.median(starts))
        tracer.dump(OUT / f"trace-{args.workload}-seed{args.seed}.json")
    else:
        if hasattr(workload, "child_rss_mb"):
            peak_mb = max(workload.child_rss_mb)
        else:
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "setup_s": {"value": statistics.median(starts), "unit": "s"},
            "ops_per_s": {"value": (attempted - failed) / sum(latencies), "unit": "1/s"},
            "latency_p50_ms": {"value": 1000.0 * statistics.median(ordered), "unit": "ms"},
            "latency_tail_ms": {"value": 1000.0 * tail_value, "unit": "ms"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
        }
    for name, m in metrics.items():
        print(f"  {name:38s} {m['value']:14.6g} {m['unit']}")

    summary = {"correct": not problems, "attempted": attempted, "failed": failed,
               "metrics": metrics}
    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json",
              "w", encoding="utf-8") as fh:
        json.dump({**summary, "rounds": rounds_run, "wall_s": wall, "tail_rank": tail_rank,
                   "latencies_s": latencies,
                   "classes": [op.cls for op in ops] * rounds_run}, fh)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
