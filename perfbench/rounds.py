"""Each workload's round: the fixed, seeded list of operations it runs.

Each operation class has a fixed count per round, so a round's cost and its
failed share do not depend on the seed; the seed only moves parameters
within each family's ranges (see `specs.py`).  Rounds are shuffled so that
machine noise falls evenly on the classes.  A class drawn from a fixed
spec instead of a family holds a known fault of the program: it fails (or
is wrong) every time and is counted as failed.

This module imports only the standard library and `specs`, because the
set-up probe (`setup_probe.py`) imports it next to the program: `setup_s`
must time the program's own start-up, not the benchmark's.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

import specs

CLT_SMALL = {"ns": (1, 2, 4, 8), "grid": 1024}
CLT_LARGE = {"ns": (64, 256, 1024), "grid": 1024}
CLI_CLT = {"verb": "clt", "exit": 0, "ns": (4, 16, 64)}

# (class, family or fixed fault spec, count per round, args)
MIXES = {
    # existence_check -> stein_kernel -> kernel_stats -> 7 stein_residuals
    # -> discrepancy_bounds.  The median falls among the closed and
    # uniform-atom operations (84 of 139, all below ~70 ms), the tail among
    # the 18 exponential-triple and normal-pair operations (260-500 ms)
    # below the two Cantor ones.  Seeded mixtures whose density jumps where
    # the matched normal may cross it (overlapping uniforms, tabulated
    # pieces with positive ends) are left out, because tv_to_normal misses
    # such crossings on 1-2% of random draws, seed by seed; the defect is
    # kept through TV_FAULT_SPEC, which it hits every time.
    "certify": [
        ("closed", specs.uniform, 8, {}),
        ("closed", specs.normal, 8, {}),
        ("closed", specs.exponential, 8, {}),
        ("uniform-atom", specs.uniform_atom, 60, {}),
        ("exp-atom", specs.exponential_atom, 15, {}),
        ("tabulated", specs.continuous_tabulated, 8, {}),
        ("exp-pair", specs.exponential_pair, 5, {}),
        ("normal-uniform", specs.centred_normal_uniform, 5, {}),
        ("normal-pair", specs.centred_normal_pair, 4, {}),
        ("exp-triple", specs.exponential_triple, 14, {}),
        ("cantor", specs.uniform_cantor, 2, {}),
        ("fault", specs.FAULT_SPEC, 1, {}),
        ("tv-fault", specs.TV_FAULT_SPEC, 1, {}),
    ],
    # stein_kernel -> recover_density on specs without interior atoms or a
    # Cantor part (recovery of Cantor-bearing specs does not finish).
    # Closed forms need grid 1024 for the 1e-4 L1 check; grid kernels use
    # 512 so that a round holds 40 operations.
    "recover": [
        ("closed", specs.uniform, 4, {"grid": 1024}),
        ("closed", specs.normal, 3, {"grid": 1024}),
        ("closed", specs.exponential, 3, {"grid": 1024}),
        ("overlap", specs.overlapping_uniforms, 15, {"grid": 512}),
        ("tabulated", specs.tabulated, 15, {"grid": 512}),
    ],
    # One clt_curve per operation at grid 1024.  Single pieces and the
    # exponential pair have no density jump inside the sampling grid.
    # Mixtures with interior jumps (overlapping uniforms) are left out: at
    # grid 1024 their midpoint-sampled mass misses 1 by more than the 1e-3
    # the program accepts, on some seeds.
    "clt": [
        ("small-n", specs.uniform, 100, CLT_SMALL),
        ("small-n", specs.exponential, 100, CLT_SMALL),
        ("large-n", specs.uniform, 20, CLT_LARGE),
        ("large-n", specs.exponential, 20, CLT_LARGE),
        ("large-n", specs.tabulated, 20, CLT_LARGE),
        ("large-n", specs.exponential_pair, 20, CLT_LARGE),
        ("fault", specs.FAULT_SPEC, 1, CLT_SMALL),
    ],
    # One fresh `python -m steinkit <verb>` per operation.
    "cli": [
        ("check", specs.uniform, 1, {"verb": "check", "exit": 0}),
        ("check", specs.normal_uniform, 1, {"verb": "check", "exit": 0}),
        ("check", specs.overlapping_uniforms, 1, {"verb": "check", "exit": 0}),
        ("check", specs.exponential_uniform, 1, {"verb": "check", "exit": 0}),
        ("check", specs.gap_uniforms, 3, {"verb": "check", "exit": 3}),
        ("check", specs.single_atom, 1, {"verb": "check", "exit": 4}),
        ("kernel", specs.uniform, 2, {"verb": "kernel", "exit": 0}),
        ("kernel", specs.normal, 2, {"verb": "kernel", "exit": 0}),
        ("kernel", specs.exponential, 1, {"verb": "kernel", "exit": 0}),
        ("bound", specs.uniform, 2, {"verb": "bound", "exit": 0}),
        ("bound", specs.normal, 1, {"verb": "bound", "exit": 0}),
        ("bound", specs.exponential, 1, {"verb": "bound", "exit": 0}),
        ("fault", specs.FAULT_SPEC, 1, {"verb": "bound", "exit": 0}),
        ("clt", specs.uniform, 2, CLI_CLT),
        ("clt", specs.exponential, 2, CLI_CLT),
        ("recover", specs.uniform, 2, {"verb": "recover", "exit": 0}),
        ("recover", specs.normal, 2, {"verb": "recover", "exit": 0}),
        ("recover", specs.exponential, 2, {"verb": "recover", "exit": 0}),
    ],
}


@dataclass
class Op:
    cls: str
    doc: dict
    fault: bool = False
    args: dict = field(default_factory=dict)
    text: str = ""
    oracle: dict = field(default_factory=dict)

    def __post_init__(self):
        self.text = json.dumps(self.doc)


def build(workload: str, seed: int) -> list:
    """The workload's round for this seed, in its shuffled order."""
    rng = random.Random(f"{workload}:{seed}")
    ops = []
    for cls, family, count, args in MIXES[workload]:
        for _ in range(count):
            if isinstance(family, dict):
                ops.append(Op(cls, family, fault=True, args=dict(args)))
            else:
                ops.append(Op(cls, family(rng), args=dict(args)))
    rng.shuffle(ops)
    return ops
