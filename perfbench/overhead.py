"""Tracing overhead of a workload, measured operation by operation.

    python3 perfbench/overhead.py --workload certify --seed 1

Runs every operation of one round twice, once with the tracer installed and
once without, alternating which goes first, and compares the summed
latencies.  Pairing each operation with itself cancels the drift of the
machine's speed, which between two whole runs is larger than the overhead.
The `cli` workload is measured in process, as its traced run dispatches.
"""

from __future__ import annotations

import argparse
import shutil
import sys
import tempfile

import rounds
import run
import spans
from workloads import WORKLOADS


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)

    sk = run.import_program()
    workload = WORKLOADS[args.workload]()
    ops = rounds.build(args.workload, args.seed)
    tracer = spans.Tracer()
    run.OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="overhead-", dir=run.OUT)
    totals = {False: 0.0, True: 0.0}
    try:
        if hasattr(workload, "prepare"):
            workload.prepare(ops, workdir, run.child_env())
            workload.in_process = True
        for i, op in enumerate(ops):
            for traced in ((False, True) if i % 2 else (True, False)):
                if traced:
                    tracer.install()
                try:
                    totals[traced] += run.run_op(workload, sk, op)[0]
                finally:
                    tracer.uninstall()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    overhead = totals[True] / totals[False] - 1.0
    print(f"{args.workload} seed {args.seed}: {len(ops)} operations, untraced "
          f"{totals[False]:.3f} s, traced {totals[True]:.3f} s, overhead {100 * overhead:+.1f}%")
    return 0


if __name__ == "__main__":
    sys.exit(main())
