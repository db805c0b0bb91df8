"""Seeded generators of spec documents, one family per function.

Every family returns a plain ``{"components": [...]}`` dict in the JSON spec
format; the benchmark serialises it and hands the program only that text.
The dict doubles as the ground truth that the oracles read, so nothing here
imports the program.

Mixtures that put a normal piece next to a piece with a different mean (or
next to an atom) are drawn only from fixed inputs: on such mixtures the
lower-tail partial expectation leaves a cancellation residue of ~1e-17
that, divided by a density of ~1e-200, makes Var tau infinite on roughly
a third to a half of random draws.  Whether a draw is hit depends on its
rounding, so seeded draws of that shape would make the failed share vary
with the seed.  Seeded normal mixtures are therefore centred (every piece
has mean exactly 0, so the residue is exactly 0), and the fault is kept in
every round through ``FAULT_SPEC``, which fails every time.

Likewise, ``tv_to_normal`` misses a crossing of the mixture and the matched
normal that lies next to a jump of the mixture density, on 1-2% of random
mixtures with jumps inside the support.  The seeded tabulated family is
therefore continuous (zero at both ends), and the fault is kept through
``TV_FAULT_SPEC``, which is wrong every time.
"""

from __future__ import annotations

import random

# The issue-tracker reproduction of the partial-expectation tail fault:
# kernel_stats gives Var tau = inf, so bound_sd and the CLT bound are not
# finite and `steinkit bound` / `steinkit clt` exit 1 with a traceback.
FAULT_SPEC = {"components": [
    {"kind": "normal", "mean": 0.1, "sd": 1.0, "weight": 0.5},
    {"kind": "uniform", "lo": 0.0, "hi": 1.0, "weight": 0.5},
]}

# A mixture of three uniforms on which tv_to_normal misses the crossing at
# -1.1796, next to the density jump at -1.1693, and reports d_TV 1.4e-5 low.
TV_FAULT_SPEC = {"components": [
    {"kind": "uniform", "lo": -1.8391288256568001, "hi": -0.5763866297579239,
     "weight": 0.3132239485831543},
    {"kind": "uniform", "lo": -1.1693390965827892, "hi": 0.47433658959668845,
     "weight": 0.34036079418640086},
    {"kind": "uniform", "lo": -0.035073048896532066, "hi": 1.7205038460737965,
     "weight": 0.34641525723044486},
]}


def _weights(rng: random.Random, k: int, lo: float = 0.2) -> list:
    raw = [rng.uniform(lo, 1.0) for _ in range(k)]
    total = sum(raw)
    ws = [r / total for r in raw[:-1]]
    return ws + [1.0 - sum(ws)]


def uniform(rng):
    lo = rng.uniform(-2.0, 1.0)
    return {"components": [
        {"kind": "uniform", "lo": lo, "hi": lo + rng.uniform(0.5, 3.0), "weight": 1.0}]}


def normal(rng):
    return {"components": [
        {"kind": "normal", "mean": rng.uniform(-1.0, 1.0), "sd": rng.uniform(0.5, 2.0),
         "weight": 1.0}]}


def exponential(rng):
    return {"components": [
        {"kind": "exponential", "rate": rng.uniform(0.5, 3.0), "weight": 1.0}]}


def tabulated(rng):
    """A 5-knot piecewise-linear density, positive at every knot."""
    lo = rng.uniform(-2.0, 1.0)
    step = rng.uniform(1.0, 3.0) / 4
    return {"components": [
        {"kind": "tabulated", "grid": [lo + i * step for i in range(5)],
         "values": [rng.uniform(0.3, 1.5) for _ in range(5)], "weight": 1.0}]}


def continuous_tabulated(rng):
    """A 5-knot piecewise-linear density, zero at both ends and positive at
    the three interior knots, so it has no jump anywhere."""
    lo = rng.uniform(-2.0, 1.0)
    step = rng.uniform(1.0, 3.0) / 4
    return {"components": [
        {"kind": "tabulated", "grid": [lo + i * step for i in range(5)],
         "values": [0.0, *(rng.uniform(0.3, 1.5) for _ in range(3)), 0.0], "weight": 1.0}]}


def overlapping_uniforms(rng):
    """Two or three uniforms, each starting inside the previous one."""
    k = rng.choice((2, 3))
    ws = _weights(rng, k)
    lo = rng.uniform(-2.0, 0.0)
    hi = lo + rng.uniform(0.8, 2.0)
    comps = [{"kind": "uniform", "lo": lo, "hi": hi, "weight": ws[0]}]
    for w in ws[1:]:
        lo = lo + rng.uniform(0.3, 0.7) * (hi - lo)
        hi = lo + rng.uniform(0.8, 2.0)
        comps.append({"kind": "uniform", "lo": lo, "hi": hi, "weight": w})
    return {"components": comps}


def uniform_atom(rng):
    """A uniform with an atom strictly inside its support."""
    lo = rng.uniform(-2.0, 1.0)
    width = rng.uniform(0.5, 3.0)
    mass = rng.uniform(0.1, 0.3)
    return {"components": [
        {"kind": "uniform", "lo": lo, "hi": lo + width, "weight": 1.0 - mass},
        {"kind": "atom", "location": lo + rng.uniform(0.2, 0.8) * width, "mass": mass}]}


def exponential_uniform(rng):
    w = _weights(rng, 2)
    return {"components": [
        {"kind": "exponential", "rate": rng.uniform(0.5, 3.0), "weight": w[0]},
        {"kind": "uniform", "lo": 0.0, "hi": rng.uniform(0.5, 3.0), "weight": w[1]}]}


def exponential_atom(rng):
    mass = rng.uniform(0.1, 0.3)
    return {"components": [
        {"kind": "exponential", "rate": rng.uniform(0.5, 3.0), "weight": 1.0 - mass},
        {"kind": "atom", "location": rng.uniform(0.2, 1.5), "mass": mass}]}


def exponential_pair(rng):
    w = _weights(rng, 2)
    return {"components": [
        {"kind": "exponential", "rate": rng.uniform(0.5, 1.0), "weight": w[0]},
        {"kind": "exponential", "rate": rng.uniform(1.5, 3.0), "weight": w[1]}]}


def exponential_triple(rng):
    w = _weights(rng, 3)
    return {"components": [
        {"kind": "exponential", "rate": rng.uniform(0.7, 1.0), "weight": w[0]},
        {"kind": "exponential", "rate": rng.uniform(1.5, 2.0), "weight": w[1]},
        {"kind": "exponential", "rate": rng.uniform(2.5, 3.0), "weight": w[2]}]}


def centred_normal_uniform(rng):
    w = _weights(rng, 2)
    half = rng.uniform(0.5, 2.0)
    return {"components": [
        {"kind": "normal", "mean": 0.0, "sd": rng.uniform(0.5, 2.0), "weight": w[0]},
        {"kind": "uniform", "lo": -half, "hi": half, "weight": w[1]}]}


def centred_normal_pair(rng):
    """Two centred normals.  The certification cost grows with the wider sd,
    so its range is kept narrow: this family carries the certify tail."""
    w = _weights(rng, 2)
    return {"components": [
        {"kind": "normal", "mean": 0.0, "sd": rng.uniform(0.6, 0.8), "weight": w[0]},
        {"kind": "normal", "mean": 0.0, "sd": rng.uniform(1.8, 2.2), "weight": w[1]}]}


def normal_uniform(rng):
    """Off-centre normal plus uniform.  Used only where the tail fault cannot
    reach: the existence gate never integrates the kernel."""
    w = _weights(rng, 2)
    lo = rng.uniform(-1.0, 1.0)
    return {"components": [
        {"kind": "normal", "mean": rng.uniform(-1.0, 1.0), "sd": rng.uniform(0.5, 2.0),
         "weight": w[0]},
        {"kind": "uniform", "lo": lo, "hi": lo + rng.uniform(0.5, 2.0), "weight": w[1]}]}


def uniform_cantor(rng):
    """A uniform and a Cantor part on the same interval: the kernel has the
    devil's-staircase modulus, so certification takes the composite path."""
    lo = rng.uniform(-1.0, 1.0)
    hi = lo + rng.uniform(0.5, 2.0)
    c = rng.uniform(0.2, 0.5)
    return {"components": [
        {"kind": "uniform", "lo": lo, "hi": hi, "weight": 1.0 - c},
        {"kind": "cantor", "lo": lo, "hi": hi, "weight": c}]}


def gap_uniforms(rng):
    """Two uniforms separated by a gap: no Stein kernel exists."""
    lo = rng.uniform(-2.0, 0.0)
    gap = rng.uniform(0.2, 1.0)
    w = _weights(rng, 2)
    return {"components": [
        {"kind": "uniform", "lo": lo, "hi": lo + 1.0, "weight": w[0]},
        {"kind": "uniform", "lo": lo + 1.0 + gap, "hi": lo + 2.0 + gap, "weight": w[1]}]}


def single_atom(rng):
    return {"components": [{"kind": "atom", "location": rng.uniform(-2.0, 2.0), "mass": 1.0}]}
