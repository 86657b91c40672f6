"""The quadrature-built substitution map against independent references.

The oracle solves the separated defining equation with 40-digit mpmath
quadrature: A(rho) - A(r) = -int_r^inf (1/sqrt(phi) - 1/sqrt(s^2 + k_hat)),
A = arcsinh, log, arccosh for k_hat = 1, 0, -1; below r = 2 a k_hat = -1
map follows u = arccosh(rho) with du/dr = 1/sqrt(phi) instead.
"""

import json
import math

import mpmath
import numpy as np
import pytest

from alhflow import (DomainError, NumericalError, RadialPotential,
                     build_substitution, conformal_area, conformal_infinity,
                     horizon_radius, kottler_potential,
                     perturbed_kottler_potential, tabulated_potential)
from alhflow.asymptotics import _GAUSS_W, _GAUSS_X, _panel_integrals
from alhflow.cli import main
from alhflow.geometry import CRITICAL_MASS_HYPERBOLIC

M_CRIT = CRITICAL_MASS_HYPERBOLIC


def _potential(k_hat, m, eps):
    if eps:
        return perturbed_kottler_potential(k_hat, m, eps)
    return kottler_potential(k_hat, m)


def _breaks(a, b):
    """Breakpoints clustered at a, where a horizon may lie just below."""
    inner = [a * (1 + f) for f in (mpmath.mpf("1e-4"), mpmath.mpf("1e-3"),
                                   mpmath.mpf("1e-2"), mpmath.mpf("0.1"), 1, 9)]
    return [a] + [x for x in inner if x < b] + [b]


def exact_map(k_hat, m, eps, radii):
    """(A(r) + D(r), c) at each radius; for k_hat = -1 below 2, (u, c)."""
    with mpmath.workdps(40):
        k, m, eps = (mpmath.mpf(v) for v in (k_hat, m, eps))

        def phi(s):
            return s * s + k - 2 * m / s + eps / (s * s)

        def g(s):
            sqrt_phi, ref = mpmath.sqrt(phi(s)), mpmath.sqrt(s * s + k)
            return (2 * m / s - eps / (s * s)) / (sqrt_phi * ref * (sqrt_phi + ref))

        a_of = {1: mpmath.asinh, 0: mpmath.log, -1: mpmath.acosh}[k_hat]
        a_inv = {1: mpmath.sinh, 0: mpmath.exp, -1: mpmath.cosh}[k_hat]
        rs = [mpmath.mpf(r) for r in radii]
        low = [r for r in rs if k_hat == -1 and r < 2]
        top = [r for r in rs if r not in low] + ([mpmath.mpf(2)] if low else [])
        # from infinity inward: D, then u = arccosh(rho) below 2
        arg, d, outer = {}, 0, mpmath.inf
        for r in sorted(top, reverse=True):
            d -= mpmath.quad(g, _breaks(r, outer))
            arg[r], outer = a_of(r) + d, r
        for r in sorted(low, reverse=True):
            u = arg[outer] - mpmath.quad(lambda s: 1 / mpmath.sqrt(phi(s)),
                                         _breaks(r, outer))
            arg[r], outer = u, r
        return [(arg[r], r * r * (r - a_inv(arg[r]))) for r in rs]


def _near_horizon(k_hat, m, eps):
    r_h = horizon_radius(_potential(k_hat, m, eps))
    return 1.0005 * r_h if r_h else 0.25


MAPS = [(k, 0.5, eps, _near_horizon(k, 0.5, eps))
        for k in (-1, 0, 1) for eps in (0.0, 0.2, 0.45) if (k, eps) != (1, 0.2)]
MAPS += [(-1, M_CRIT + 1e-9, 0.0, 0.9), (-1, M_CRIT + 1e-9, 0.0, 1.5),
         (-1, -0.15, 0.0, 0.85), (1, 0.5, 0.0, 2.0), (-1, -0.15, 0.0, 2.0)]


@pytest.mark.parametrize("k_hat,m,eps,r_start", MAPS)
def test_deviation_matches_mpmath(k_hat, m, eps, r_start):
    sub_map = build_substitution(_potential(k_hat, m, eps), r_start, 1e4 * r_start)
    nodes = sub_map._r
    radii = nodes[[0, 1, nodes.size // 8, nodes.size // 2, -1]]
    for r, (_, exact) in zip(radii, exact_map(k_hat, m, eps, radii)):
        assert abs(sub_map.deviation_scale(r) - float(exact)) <= 1e-13 * abs(float(exact))


def test_gauss_rule_matches_numpy():
    x, w = np.polynomial.legendre.leggauss(8)
    np.testing.assert_allclose(_GAUSS_X, x, rtol=0, atol=2e-16)
    np.testing.assert_allclose(_GAUSS_W, w, rtol=0, atol=2e-16)
    for degree in range(16):  # exact through degree 2n - 1
        exact = 2.0 / (degree + 1) if degree % 2 == 0 else 0.0
        assert np.sum(_GAUSS_W * _GAUSS_X ** degree) == pytest.approx(exact, abs=1e-14)


@pytest.mark.parametrize("samples", [300, 10000])
def test_tabulated_kottler_within_table_error(samples):
    # the dense table has several knots per panel: panels must break there
    exact = kottler_potential(-1, 0.5)
    grid = np.geomspace(1.4, 2.2e3, samples)
    table = tabulated_potential(-1, grid, exact.phi(grid))
    r_end = 2e3
    tab_map = build_substitution(table, 2.0, r_end)
    exact_map_ = build_substitution(exact, 2.0, r_end)
    check = np.geomspace(2.0, r_end, 20001)
    table_error = np.max(np.abs(table.phi(check) / exact.phi(check) - 1.0))
    r = tab_map._r
    drho = np.abs(tab_map.deviation_scale(r) - exact_map_.deviation_scale(r)) / r ** 2
    # a relative error e in phi moves D by at most (e/2) int ds/sqrt(phi),
    # and the leading-order start at r_end by e/6; rho moves by r times that
    assert np.all(drho <= r * table_error * (np.log(r_end / r) + 1.0))


def test_negative_mass_start_below_one():
    # rho stays above 1 down to r* = 0.8433; the parent's ODE solver
    # overshot into rho < 1 and raised a bare math domain error
    p = kottler_potential(-1, -0.15)
    sub_map = build_substitution(p, 0.85, 8.5e3)
    assert sub_map.rho(0.85) > 1.0
    (u_closed, _), (u_open, _) = exact_map(-1, -0.15, 0.0, [0.84, 0.85])
    assert u_closed < 0.0 < u_open
    with pytest.raises(DomainError, match="rho reaches 1"):
        build_substitution(p, 0.84, 8.4e3)


def test_negative_mass_flow_runs(tmp_path):
    cfg = {"kind": "flow", "k_hat": -1, "genus": 2, "m": -0.15, "r0": 0.85,
           "t_max": 4, "steps": 256}
    path = tmp_path / "flow.json"
    path.write_text(json.dumps(cfg))
    assert main(["flow", "--config", str(path), "--out", str(tmp_path / "o")]) == 0


def test_rho_reaching_zero_raises():
    # k_hat = 1: sinh(arcsinh r + D) <= 0 at this start, so no map exists
    r_start = _near_horizon(1, 0.5, 0.2)
    assert exact_map(1, 0.5, 0.2, [r_start])[0][0] < 0.0
    with pytest.raises(DomainError, match="rho reaches 0"):
        build_substitution(_potential(1, 0.5, 0.2), r_start, 1e4 * r_start)


def test_closed_between_probe_radii_raises():
    # phi < 0 only within 1.3e-3 of s = 2.5, which no probe radius hits
    def tail(s):
        return -1.5 * s * s * np.exp(-((s - 2.5) / 2e-3) ** 2)

    p = RadialPotential(k_hat=0, kind="dip", domain_start=0.0,
                        phi=lambda s: s * s + tail(s), dphi=None, d2phi=None,
                        tail=tail, dtail=None)
    assert np.all(p.phi(np.geomspace(1.0, 2e3, 65)) > 0.0)
    with pytest.raises(DomainError, match="at a quadrature node"):
        build_substitution(p, 1.0, 2e3)


def test_k_hat_minus_one_needs_outer_radius_two():
    p = perturbed_kottler_potential(-1, 0.0, 1.0)
    with pytest.raises(DomainError, match="r_end >= 2"):
        build_substitution(p, 1e-3, 1.5)


def test_unconverged_panels_raise():
    # 1/s^2 is not integrable at 0: bisection never settles the first panel
    with pytest.raises(NumericalError, match="did not converge"):
        _panel_integrals(lambda s: 1.0 / (s * s), lambda s: 0.0 * s,
                         np.array([0.0, 1.0]), np.array([1.0, 2.0]))


def test_panels_integrate_a_near_singular_start():
    # int_a^b ds / sqrt(s - 1) with a just above 1 needs graded bisection
    a, b = np.array([1.0005]), np.array([1.1])
    value = _panel_integrals(lambda s: 1.0 / np.sqrt(s - 1.0),
                             lambda s: 1e-16 * s / (s - 1.0) ** 1.5, a, b)
    assert value[0] == pytest.approx(2.0 * (math.sqrt(0.1) - math.sqrt(0.0005)),
                                     rel=1e-14)


def test_conformal_splines_fitted_on_first_use():
    p = kottler_potential(-1, 0.5)
    sub_map = build_substitution(p, 2.0, 2e4)
    assert "_s_spline" not in vars(sub_map) and "_chi_spline" not in vars(sub_map)
    conformal_area(conformal_infinity(2), p, sub_map, 50.0)
    assert sub_map.s(50.0) == pytest.approx(1.0 / sub_map.rho(50.0), rel=1e-12)


def test_non_finite_deviation_raises():
    p = RadialPotential(k_hat=0, kind="broken", domain_start=0.0,
                        phi=lambda s: s * s, dphi=None, d2phi=None,
                        tail=lambda s: np.where(s > 50.0, np.nan, 0.0), dtail=None)
    with pytest.raises(NumericalError, match="not finite"):
        build_substitution(p, 1.0, 1e3)
