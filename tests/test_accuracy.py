"""Ulp budgets of the flow's trajectory columns against 40-digit closed forms.

On the perturbed Kottler family phi = r^2 + k_hat - 2m/r + eps/r^2 each
column below is a closed form in the row's radius r, with c and
gamma = c^(3/2) from the genus:

    area              4 pi c r^2
    hawking_mass      gamma (m - eps/(2r))
    H                 2 sqrt(phi)/r
    geroch_rate       gamma eps/(4r)
    scalar_curvature  -6 + 2 eps/r^4

The rows are every 64th of the flow-long workload's members
(perfbench/workloads.py) at seeds 1 and 2: 24 flows of 4096 steps over all
three k_hat, half of them Kottler (eps = 0).  An error is |column - exact|
in units of the ulp of the exact value rounded to a double.  Each budget is
the worst error measured on these rows; a column over its budget lost
accuracy, and the fix belongs in the program, not in the budget.

The mass-aspect kind's extrapolated limits have closed targets on the same
family: mu = m, and a2 = -4m/3 for V^2 = rho^2 + k_hat + a2/rho and 8m/3
for |grad V|^2 = rho^2 + a2/rho.  Their errors are |value - target| over
max(1, |m|) on MAP_COUNT seeded maps (k_hat uniform, m uniform from the
critical mass to 2, eps 0 in half the maps and else uniform up to 0.5,
r_start uniform in [2, 10], 3 to 7 decades), each budget again the worst
measured.
"""

import importlib
import math
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest

from alhflow import (build_substitution, conformal_infinity, critical_mass,
                     expansion_extract, imcf_integrate, kottler_potential)
from alhflow.cli import expand_sweep, validate_config

ROOT = Path(__file__).resolve().parents[1]

#: Worst measured error per column, in ulp, rounded up to three digits.
BUDGETS = {"area": 1.44, "hawking_mass": 2.18, "H": 1.76,
           "geroch_rate": 0.5, "scalar_curvature": 1.51}

SEEDS = (1, 2)
ROW_STRIDE = 64


def _flow_long_members():
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        workloads = importlib.import_module("workloads")
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    return [validate_config(member) for seed in SEEDS
            for sweep in workloads.generate("flow-long", seed)
            for member in expand_sweep(sweep)]


@pytest.fixture(scope="module")
def trajectories():
    members = _flow_long_members()
    assert len(members) == 24
    return [(cfg, imcf_integrate(conformal_infinity(cfg["genus"]), cfg.potential,
                                 cfg["r0"], cfg["t_max"], cfg["steps"]))
            for cfg in members]


def _closed_forms(cfg, r):
    c = mpmath.mpf(conformal_infinity(cfg["genus"]).c)
    gamma = c ** mpmath.mpf(1.5)
    m, eps = mpmath.mpf(cfg.potential.m), mpmath.mpf(cfg.potential.eps)
    phi = r * r + cfg["k_hat"] - 2 * m / r + eps / (r * r)
    return {"area": 4 * mpmath.pi * c * r * r,
            "hawking_mass": gamma * (m - eps / (2 * r)),
            "H": 2 * mpmath.sqrt(phi) / r,
            "geroch_rate": gamma * eps / (4 * r),
            "scalar_curvature": -6 + 2 * eps / r ** 4}


@pytest.fixture(scope="module")
def worst_ulps(trajectories):
    worst = dict.fromkeys(BUDGETS, 0.0)
    with mpmath.workdps(40):
        for cfg, traj in trajectories:
            columns = {"area": traj.area, "hawking_mass": traj.hawking_mass,
                       "H": traj.mean_curvature, "geroch_rate": traj.geroch_rate,
                       "scalar_curvature": traj.scalar_curvature}
            for i in range(0, len(traj.r), ROW_STRIDE):
                exact = _closed_forms(cfg, mpmath.mpf(float(traj.r[i])))
                for name, value in exact.items():
                    if value == 0:  # a Kottler rate: test_kottler_rate_is_positive_zero
                        continue
                    error = abs(mpmath.mpf(float(columns[name][i])) - value)
                    worst[name] = max(worst[name],
                                      float(error) / math.ulp(float(value)))
    return worst


@pytest.mark.parametrize("column", sorted(BUDGETS))
def test_column_within_its_ulp_budget(worst_ulps, column):
    assert worst_ulps[column] <= BUDGETS[column]


def test_kottler_rate_is_positive_zero(trajectories):
    # the exact rate of eps = 0 is 0, written as +0.0 on every row: no -0.0
    # and no rounding residue of cancelled mass terms
    kottler = [traj for cfg, traj in trajectories if cfg.potential.eps == 0.0]
    assert len(kottler) == 12
    for traj in kottler:
        assert not np.any(traj.geroch_rate.view(np.uint64))


#: Worst measured error over max(1, |m|) per extracted limit, rounded up
#: to three digits.
EXTRACTION_BUDGETS = {"mu": 1.76e-13, "potential_squared": 1.19e-13,
                      "gradient_squared": 2.06e-13}

MAP_COUNT = 300


@pytest.fixture(scope="module")
def worst_extraction_errors():
    rng = np.random.default_rng(30)
    worst = dict.fromkeys(EXTRACTION_BUDGETS, 0.0)
    for _ in range(MAP_COUNT):
        k_hat = int(rng.integers(-1, 2))
        m = float(rng.uniform(critical_mass(k_hat), 2.0))
        eps = 0.0 if rng.random() < 0.5 else float(rng.uniform(0.0, 0.5))
        r_start = float(rng.uniform(2.0, 10.0))
        r_end = r_start * 10.0 ** float(rng.uniform(3.0, 7.0))
        result, potential, gradient = expansion_extract(
            build_substitution(kottler_potential(k_hat, m, eps), r_start, r_end))
        for name, value, target in (("mu", result.mu, m),
                                    ("potential_squared", potential.a2, -4.0 * m / 3.0),
                                    ("gradient_squared", gradient.a2, 8.0 * m / 3.0)):
            worst[name] = max(worst[name], abs(value - target) / max(1.0, abs(m)))
    return worst


@pytest.mark.parametrize("limit", sorted(EXTRACTION_BUDGETS))
def test_extracted_limit_within_its_budget(worst_extraction_errors, limit):
    assert worst_extraction_errors[limit] <= EXTRACTION_BUDGETS[limit]
