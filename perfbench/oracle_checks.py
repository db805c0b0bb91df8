"""Quick tests of the benchmark's oracles against values known in closed
form or computed by brute force.  They do not import the program.

    python3 perfbench/oracle_checks.py
    python3 -m pytest -q perfbench/oracle_checks.py
"""

from __future__ import annotations

import math
import random
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracles  # noqa: E402
import specs  # noqa: E402

U01 = {"components": [{"kind": "uniform", "lo": 0.0, "hi": 1.0, "weight": 1.0}]}


def _brute_moments(doc, lo, hi, n=2_000_001):
    x = np.linspace(lo, hi, n)
    p = oracles.pdf(doc, x)
    w = np.full(n, (hi - lo) / (n - 1))
    w[[0, -1]] *= 0.5
    mass, m1, m2 = (float(np.sum(w * p * x ** k)) for k in range(3))
    return mass, m1, m2


def test_uniform01_tv_to_matched_normal():
    assert abs(oracles.tv_to_normal(U01) - 0.19768) < 5e-6


def test_normal_is_at_distance_zero():
    doc = {"components": [{"kind": "normal", "mean": 0.7, "sd": 1.9, "weight": 1.0}]}
    assert oracles.tv_to_normal(doc) < 1e-12


def test_abs_integral_finds_a_crossing_next_to_a_jump():
    # f crosses 0 at c, inside the last scan step before the edge at 1,
    # where it jumps as a mixture density does at a uniform's end; missing
    # the crossing would give |0.5 - c| + 5 instead, (1 - c)^2 = 2.25e-6 low
    c = 0.9985

    def f(x):
        return np.where(x < 1.0, x - c, 5.0)

    want = 0.5 * c * c + 0.5 * (1.0 - c) ** 2 + 5.0
    assert abs(oracles.abs_integral(f, [0.0, 1.0, 2.0]) - want) < 1e-12


def test_gamma_sum_tv_n64():
    assert abs(oracles.gamma_sum_tv(64) - 0.031583) < 5e-7


def test_gamma_sum_tv_n1_is_the_exponential():
    # one unit exponential, standardised, is exponential(1) shifted by -1
    doc = {"components": [{"kind": "exponential", "rate": 1.0, "weight": 1.0}]}
    assert abs(oracles.gamma_sum_tv(1) - oracles.tv_to_normal(doc)) < 1e-10


def test_var_tau_closed_forms():
    assert oracles.var_tau_single(U01) == 1.0 / 720.0
    assert oracles.var_tau_single(
        {"components": [{"kind": "normal", "mean": 1.0, "sd": 2.0, "weight": 1.0}]}) == 0.0
    assert oracles.var_tau_single(
        {"components": [{"kind": "exponential", "rate": 2.0, "weight": 1.0}]}) == 1.0 / 16.0


def test_var_tau_matches_quadrature_of_the_closed_kernel():
    for doc, (lo, hi) in [
        ({"components": [{"kind": "uniform", "lo": -0.5, "hi": 2.0, "weight": 1.0}]}, (-0.5, 2.0)),
        ({"components": [{"kind": "exponential", "rate": 1.5, "weight": 1.0}]}, (0.0, 40.0)),
    ]:
        x = np.linspace(lo, hi, 2_000_001)
        p = oracles.pdf(doc, x) * (x[1] - x[0])
        tau = oracles.closed_kernel(doc, x)
        e1, e2 = float(np.sum(tau * p)), float(np.sum(tau * tau * p))
        _, var = oracles.moments(doc)
        assert abs(e1 - var) < 1e-5 * var
        assert abs((e2 - e1 * e1) - oracles.var_tau_single(doc)) < 1e-4 * oracles.var_tau_single(doc)


def test_moments_and_pdf_of_generated_mixtures():
    rng = random.Random(7)
    families = [specs.uniform, specs.normal, specs.exponential, specs.tabulated,
                specs.continuous_tabulated, specs.overlapping_uniforms,
                specs.exponential_uniform, specs.exponential_pair, specs.exponential_triple,
                specs.centred_normal_uniform, specs.centred_normal_pair, specs.normal_uniform]
    for family in families:
        doc = family(rng)
        mean, var = oracles.moments(doc)
        lo, hi = mean - 40.0 * math.sqrt(var), mean + 40.0 * math.sqrt(var)
        mass, m1, m2 = _brute_moments(doc, lo, hi)
        assert abs(mass - 1.0) < 1e-4, family.__name__
        assert abs(m1 - mean) < 1e-4, family.__name__
        assert abs(m2 - (var + mean * mean)) < 1e-3, family.__name__


def test_moments_with_atoms_and_cantor_part():
    doc = {"components": [{"kind": "uniform", "lo": 0.0, "hi": 1.0, "weight": 0.5},
                          {"kind": "cantor", "lo": 0.0, "hi": 1.0, "weight": 0.5}]}
    mean, var = oracles.moments(doc)
    assert mean == 0.5 and abs(var - 0.5 / 12.0 - 0.5 / 8.0) < 1e-15
    doc = {"components": [{"kind": "atom", "location": 1.0, "mass": 0.5},
                          {"kind": "atom", "location": -1.0, "mass": 0.5}]}
    assert oracles.moments(doc) == (0.0, 1.0)
    assert oracles.singular_mass(doc) == 1.0


def test_generated_weights_sum_to_one():
    rng = random.Random(3)
    for family in (specs.overlapping_uniforms, specs.uniform_atom, specs.gap_uniforms):
        for _ in range(50):
            total = sum(c.get("weight", c.get("mass")) for c in family(rng)["components"])
            assert abs(total - 1.0) < 1e-12


if __name__ == "__main__":
    tests = [v for k, v in sorted(globals().items()) if k.startswith("test_")]
    for test in tests:
        test()
        print(f"ok  {test.__name__}")
    print(f"{len(tests)} oracle checks passed")
