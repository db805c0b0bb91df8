"""Spans and work counts recorded around the program's public functions.

`Tracer.install` replaces each traced function, wherever a steinkit module
holds a reference to it, with a wrapper that records one span per call.
Calls the program makes internally (`clt_curve` calling `kernel_stats`, the
CLI calling `discrepancy_bounds`) are therefore traced too, without any
change to the program.  Work is counted at the boundary with scipy and
numpy: a wrapper on `scipy.integrate.quad` counts calls and integrand
evaluations, and a wrapper on `numpy.trapezoid` counts the composite
points summed by the Cantor certification path.  FFT points are computed
from n and the grid.

Spans stay in memory; `dump` writes them out when the run ends.
"""

from __future__ import annotations

import json
import sys
import time

import numpy as np
import scipy.integrate

# Per-layer metrics in report order.  `*_ms` are self time per operation
# (span time minus the time of the spans it caused), counts are per
# operation, `integration_warnings` is per run, `cli.start_ms` per start.
METRICS = (
    "cli.start_ms", "cli.check_ms", "cli.kernel_ms", "cli.bound_ms", "cli.clt_ms",
    "cli.recover_ms",
    "distributions.parse_ms", "distributions.quad_calls", "distributions.quad_evals",
    "distributions.integration_warnings",
    "kernels.existence_ms", "kernels.stein_kernel_closed_ms", "kernels.stein_kernel_grid_ms",
    "kernels.kernel_stats_ms", "kernels.stein_residual_ms", "kernels.cantor_ms",
    "kernels.composite_points",
    "discrepancy.tv_to_normal_ms", "discrepancy.bound_l1_ms",
    "recovery.recover_closed_ms", "recovery.recover_grid_ms",
    "clt.convolve_small_n_ms", "clt.convolve_large_n_ms", "clt.fft_points",
)
UNITS = {name: ("ms" if name.endswith("_ms") else "count") for name in METRICS}
LARGE_N = 64


def _has_cantor(spec):
    return bool(spec.cantor_parts)


def _fft_len(n, grid):
    return 1 << (n * (grid - 1)).bit_length()


class Tracer:
    def __init__(self):
        self.patched = []
        self.reset()
        self.labels = {
            "parse_spec": lambda a, k, r: "distributions.parse",
            "existence_check": lambda a, k, r: "kernels.existence",
            "stein_kernel": lambda a, k, r: (
                "kernels.stein_kernel_grid" if r is None or r.form == "grid"
                else "kernels.stein_kernel_closed"),
            "kernel_stats": lambda a, k, r: (
                "kernels.cantor" if _has_cantor(a[0]) else "kernels.kernel_stats"),
            "stein_residual": lambda a, k, r: (
                "kernels.cantor" if _has_cantor(a[0]) else "kernels.stein_residual"),
            "discrepancy_bounds": lambda a, k, r: "discrepancy.bound_l1",
            "tv_to_normal": lambda a, k, r: "discrepancy.tv_to_normal",
            "recover_density": lambda a, k, r: (
                "recovery.recover_grid" if a[0].form == "grid"
                else "recovery.recover_closed"),
            "clt_curve": lambda a, k, r: "clt.curve",
            "convolution_tv": self._convolution_label,
            "dispatch": lambda a, k, r: f"cli.{a[0][0]}",
        }

    def reset(self):
        self.spans = []
        self.stack = []
        self.op = -1
        self.counts = {"distributions.quad_calls": 0, "distributions.quad_evals": 0,
                       "kernels.composite_points": 0, "clt.fft_points": 0}

    def _convolution_label(self, a, k, r):
        n = a[1]
        grid = a[2] if len(a) > 2 else k.get("grid_size", 4096)
        self.counts["clt.fft_points"] += _fft_len(n, grid)
        return "clt.convolve_large_n" if n >= LARGE_N else "clt.convolve_small_n"

    def _wrap(self, fn, label):
        def traced(*args, **kwargs):
            frame = {"fn": fn.__name__, "child": 0.0, "cantor": False}
            if args and hasattr(args[0], "cantor_parts"):
                frame["cantor"] = _has_cantor(args[0])
            elif self.stack:
                frame["cantor"] = self.stack[-1]["cantor"]
            parent = self.stack[-1]["fn"] if self.stack else None
            self.stack.append(frame)
            start = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                self.stack.pop()
                if self.stack:
                    self.stack[-1]["child"] += end - start
                self.spans.append({
                    "op": self.op, "name": label(args, kwargs, result), "parent": parent,
                    "start": start, "end": end, "self": end - start - frame["child"]})
        return traced

    def _patch(self, owner, name, replacement):
        self.patched.append((owner, name, getattr(owner, name)))
        setattr(owner, name, replacement)

    def install(self):
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "steinkit" or key.startswith("steinkit."))]
        for name, label in self.labels.items():
            original = None
            for module in modules:
                if callable(getattr(module, name, None)):
                    original = getattr(module, name)
                    break
            wrapper = self._wrap(original, label)
            for module in modules:
                if getattr(module, name, None) is original:
                    self._patch(module, name, wrapper)
        self._patch(scipy.integrate, "quad", self._counting_quad(scipy.integrate.quad))
        self._patch(np, "trapezoid", self._counting_trapezoid(np.trapezoid))

    def uninstall(self):
        for owner, name, original in reversed(self.patched):
            setattr(owner, name, original)
        self.patched = []

    def _counting_quad(self, quad):
        def traced_quad(func, a, b, args=(), **kwargs):
            self.counts["distributions.quad_calls"] += 1

            def counted(x, *fargs):
                self.counts["distributions.quad_evals"] += 1
                return func(x, *fargs)
            return quad(counted, a, b, args, **kwargs)
        return traced_quad

    def _counting_trapezoid(self, trapezoid):
        def traced_trapezoid(y, x=None, *args, **kwargs):
            if self.stack and self.stack[-1]["cantor"]:
                self.counts["kernels.composite_points"] += int(np.size(y))
            return trapezoid(y, x, *args, **kwargs)
        return traced_trapezoid

    def metrics(self, ops, warnings_caught, start_ms):
        values = dict.fromkeys(METRICS, 0.0)
        for span in self.spans:
            key = span["name"] + "_ms"
            if key in values:
                values[key] += 1000.0 * span["self"]
        for key in values:
            if key.endswith("_ms"):
                values[key] /= ops
        for key, count in self.counts.items():
            values[key] = count / ops
        values["distributions.integration_warnings"] = warnings_caught
        values["cli.start_ms"] = start_ms
        return {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": self.counts}, fh)
