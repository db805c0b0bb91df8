"""Golden corpus of distribution specs exercising every component type and
every existence verdict, shared by the test suite and the `corpus` CLI verb.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distributions import (
    Atom,
    CantorPart,
    DistributionSpec,
    Exponential,
    Normal,
    Tabulated,
    Uniform,
    moments,
    truncated_support,
)
from .kernels import (
    Verdict,
    existence_check,
    kernel_stats,
    standard_test_functions,
    stein_kernel,
    stein_residual,
)


def _rational_interval_spec() -> DistributionSpec:
    """Equal-density cover of intervals [r_k - 2^-k, r_k + 2^-k] around the
    first eight terms of a fixed enumeration of rationals.

    The limit object is supported on all of the reals yet not almost
    everywhere positive; any finite truncation already has interior gaps,
    so no kernel exists.
    """
    rationals = [0.0, 1.0, -1.0, 0.5, -0.5, 2.0, -2.0, 1.0 / 3.0]
    lengths = [2.0 ** -(k - 1) for k in range(1, len(rationals) + 1)]
    total = sum(lengths)
    pieces = tuple(
        Uniform(r - 2.0 ** -k, r + 2.0 ** -k, lengths[k - 1] / total)
        for k, r in enumerate(rationals, start=1))
    return DistributionSpec(pieces)


# Specs that pass the existence gate; >= 10 of them, covering closed-form
# pieces, mixtures, atoms at and inside the support, tabulated densities,
# and a singular-continuous component.
KERNEL_SPECS = {
    "uniform01": DistributionSpec((Uniform(0.0, 1.0, 1.0),)),
    "uniform_sym": DistributionSpec((Uniform(-1.0, 1.0, 1.0),)),
    "normal_std": DistributionSpec((Normal(0.0, 1.0, 1.0),)),
    "normal_shifted": DistributionSpec((Normal(2.0, 0.5, 1.0),)),
    "exponential1": DistributionSpec((Exponential(1.0, 1.0),)),
    "exponential2": DistributionSpec((Exponential(2.0, 1.0),)),
    "mixed_atoms_uniform": DistributionSpec(
        (Atom(1.0, 0.25), Atom(-1.0, 0.25), Uniform(-1.0, 1.0, 0.5))),
    "overlap_uniforms": DistributionSpec(
        (Uniform(0.0, 2.0, 0.5), Uniform(1.0, 3.0, 0.5))),
    "normal_uniform_mix": DistributionSpec(
        (Normal(0.0, 1.0, 0.5), Uniform(-1.0, 1.0, 0.5))),
    "atom_at_edge_exponential": DistributionSpec(
        (Atom(0.0, 0.3), Exponential(1.0, 0.7))),
    "atom_inside_uniform": DistributionSpec(
        (Uniform(0.0, 1.0, 0.5), Atom(0.5, 0.5))),
    "tabulated_triangle": DistributionSpec(
        (Tabulated(np.array([0.0, 0.5, 1.0]), np.array([0.0, 2.0, 0.0]), 1.0),)),
    "uniform_cantor": DistributionSpec(
        (Uniform(0.0, 1.0, 0.5), CantorPart(0.0, 1.0, 0.5))),
}

# Specs failing the gate, with their expected verdicts.
NO_KERNEL_SPECS = {
    "rademacher": (DistributionSpec((Atom(1.0, 0.5), Atom(-1.0, 0.5))),
                   Verdict.NOT_EXISTS),
    "two_bump": (DistributionSpec((Uniform(-2.0, -1.0, 0.5), Uniform(1.0, 2.0, 0.5))),
                 Verdict.NOT_EXISTS),
    "cantor_only": (DistributionSpec((CantorPart(0.0, 1.0, 1.0),)),
                    Verdict.NOT_EXISTS),
    "dirac": (DistributionSpec((Atom(0.7, 1.0),)), Verdict.DEGENERATE),
    "rational_intervals": (_rational_interval_spec(), Verdict.NOT_EXISTS),
}

CERTIFICATION_TOL = 1e-6
MOMENT_TOL = 1e-7


@dataclass(frozen=True)
class CorpusCheck:
    spec_name: str
    check: str
    passed: bool
    detail: str


def run_corpus() -> list:
    """Run the full golden-corpus battery and return one row per check."""
    rows = []
    for name, spec in KERNEL_SPECS.items():
        report = existence_check(spec)
        rows.append(CorpusCheck(name, "existence=exists", report.exists,
                                report.verdict.value))
        if not report.exists:
            continue
        kernel = stein_kernel(spec)
        mom = moments(spec)
        mean_tau, _ = kernel_stats(spec, kernel)
        gap = abs(mean_tau - mom.variance)
        rows.append(CorpusCheck(name, "mean_tau=variance", gap < MOMENT_TOL,
                                f"|E[tau]-sigma^2|={gap:.2e}"))
        lo, hi = truncated_support(spec, 1e-9)
        worst = max(abs(stein_residual(spec, kernel, tf))
                    for tf in standard_test_functions(lo, hi))
        rows.append(CorpusCheck(name, "stein_identity", worst < CERTIFICATION_TOL,
                                f"max|residual|={worst:.2e}"))
    for name, (spec, verdict) in NO_KERNEL_SPECS.items():
        report = existence_check(spec)
        rows.append(CorpusCheck(name, f"existence={verdict.value}",
                                report.verdict is verdict, report.verdict.value))
    return rows
