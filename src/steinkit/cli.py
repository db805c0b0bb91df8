"""Command-line front end.

Verbs mirror the library pipeline: `check` the existence gate, `kernel`
construction and export, `bound` the discrepancy report, `clt` the bound
and exact-convolution curve, `recover` the density from the kernel, and
`corpus` the golden-corpus battery.  All outputs are deterministic: floats
are rendered with 17 significant digits and identical invocations produce
byte-identical files and streams.

Exit codes: 0 success (and kernel exists for `check`), 1 parse or usage
errors, 2 numerical failures, 3 no kernel exists, 4 degenerate spec.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import corpus as corpus_mod
from .clt import clt_curve, curve_to_csv
from .discrepancy import discrepancy_bounds
from .distributions import QuadratureConfig, load_spec, moments
from .errors import (
    DegenerateError,
    ExistenceError,
    NumericsError,
    SpecError,
    SteinKitError,
)
from .kernels import Verdict, existence_check, kernel_to_csv, stein_kernel
from .recovery import density_to_csv, recover_density

SCHEMA = "steinkit/1"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERIC = 2
EXIT_NOT_EXISTS = 3
EXIT_DEGENERATE = 4


def _fmt_json(obj) -> str:
    """Compact JSON with floats at 17 significant digits; key order is the
    construction order, so output bytes are stable across runs."""
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise NumericsError(f"non-finite value {obj} in JSON output")
        return format(obj, ".17g")
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_fmt_json(v) for v in obj) + "]"
    if isinstance(obj, dict):
        return "{" + ",".join(f"{json.dumps(k)}:{_fmt_json(v)}" for k, v in obj.items()) + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _write(path, text, stdout):
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        stdout.write(text)


def _config(args) -> QuadratureConfig:
    kwargs = {}
    if args.tol is not None:
        kwargs["abs_tol"] = args.tol
        kwargs["rel_tol"] = args.tol
    if args.tail is not None:
        kwargs["tail_quantile"] = args.tail
    return QuadratureConfig(**kwargs)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="steinkit",
        description="Stein kernels for mixed univariate distributions: "
                    "existence, construction, certification, and "
                    "normal-approximation bounds.")
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_common(p, spec=True):
        if spec:
            p.add_argument("spec", help="path to a JSON spec document")
        p.add_argument("--grid", type=int, default=4096,
                       help="grid size (default 4096)")
        p.add_argument("--tol", type=float, default=None,
                       help="quadrature tolerance override")
        p.add_argument("--tail", type=float, default=None,
                       help="tail quantile for truncating unbounded supports")
        p.add_argument("--out", default=None, help="output file path")

    add_common(sub.add_parser("check", help="decide whether a Stein kernel exists"))
    add_common(sub.add_parser("kernel", help="construct and export the Stein kernel"))
    add_common(sub.add_parser("bound", help="total-variation distance and "
                                            "Stein discrepancy bounds"))
    p_clt = sub.add_parser("clt", help="CLT bound vs exact convolution distance")
    add_common(p_clt)
    p_clt.add_argument("--n", required=True,
                       help="comma-separated list of sample sizes")
    add_common(sub.add_parser("recover", help="recover the density from the kernel"))
    add_common(sub.add_parser("corpus", help="run the golden corpus battery"),
               spec=False)
    return parser


def _cmd_check(args, stdout) -> int:
    spec = load_spec(args.spec)
    report = existence_check(spec, _config(args))
    doc = {"schema": SCHEMA, **report.to_dict()}
    stdout.write(_fmt_json(doc) + "\n")
    if report.verdict is Verdict.EXISTS:
        return EXIT_OK
    if report.verdict is Verdict.DEGENERATE:
        return EXIT_DEGENERATE
    return EXIT_NOT_EXISTS


def _cmd_kernel(args, stdout) -> int:
    spec = load_spec(args.spec)
    kernel = stein_kernel(spec, args.grid, _config(args))
    _write(args.out, kernel_to_csv(kernel), stdout)
    descriptor = kernel.descriptor()
    if descriptor is not None:
        doc = _fmt_json({"schema": SCHEMA, **descriptor}) + "\n"
        if args.out:
            with open(args.out + ".json", "w", encoding="utf-8") as fh:
                fh.write(doc)
        else:
            stdout.write(doc)
    return EXIT_OK


def _cmd_bound(args, stdout) -> int:
    spec = load_spec(args.spec)
    config = _config(args)
    kernel = stein_kernel(spec, args.grid, config)
    report = discrepancy_bounds(spec, kernel, config)
    doc = {"schema": SCHEMA, **report.to_dict()}
    text = _fmt_json(doc) + "\n"
    if args.out:
        _write(args.out, text, stdout)
    stdout.write(text)
    return EXIT_OK


def _cmd_clt(args, stdout) -> int:
    spec = load_spec(args.spec)
    try:
        ns = [int(part) for part in args.n.split(",") if part]
    except ValueError as exc:
        raise SpecError(f"--n must be a comma-separated integer list: {exc}")
    config = _config(args)
    curve = clt_curve(spec, ns, grid_size=args.grid, config=config)
    if args.out:
        _write(args.out, curve_to_csv(curve), stdout)
    doc = {"schema": SCHEMA, **curve.to_dict()}
    stdout.write(_fmt_json(doc) + "\n")
    return EXIT_OK


def _cmd_recover(args, stdout) -> int:
    spec = load_spec(args.spec)
    config = _config(args)
    kernel = stein_kernel(spec, args.grid, config)
    density = recover_density(kernel, moments(spec).mean, args.grid, config)
    _write(args.out, density_to_csv(density), stdout)
    return EXIT_OK


def _cmd_corpus(args, stdout) -> int:
    rows = corpus_mod.run_corpus(grid_size=min(args.grid, 1024))
    width = max(len(r.spec_name) for r in rows)
    cwidth = max(len(r.check) for r in rows)
    failures = 0
    for r in rows:
        status = "PASS" if r.passed else "FAIL"
        failures += not r.passed
        stdout.write(f"{r.spec_name:<{width}}  {r.check:<{cwidth}}  {status}  {r.detail}\n")
    stdout.write(f"{len(rows) - failures}/{len(rows)} checks passed\n")
    return EXIT_OK if failures == 0 else EXIT_NUMERIC


_COMMANDS = {
    "check": _cmd_check,
    "kernel": _cmd_kernel,
    "bound": _cmd_bound,
    "clt": _cmd_clt,
    "recover": _cmd_recover,
    "corpus": _cmd_corpus,
}


def dispatch(argv, stdout=None, stderr=None) -> int:
    """Parse argv, run one verb, and return the process exit code."""
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; the contract wants 1
        return EXIT_OK if exc.code == 0 else EXIT_USAGE
    try:
        return _COMMANDS[args.verb](args, stdout)
    except (OSError, SpecError) as exc:
        stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except ExistenceError as exc:
        report = exc.report
        if report is not None:
            stdout.write(_fmt_json({"schema": SCHEMA, **report.to_dict()}) + "\n")
        stderr.write(f"error: {exc}\n")
        return EXIT_NOT_EXISTS
    except DegenerateError as exc:
        stderr.write(f"error: {exc}\n")
        return EXIT_DEGENERATE
    except (SteinKitError, ArithmeticError) as exc:
        stderr.write(f"error: {exc}\n")
        return EXIT_NUMERIC


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
