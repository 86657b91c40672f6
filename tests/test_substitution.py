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
                     horizon_radius, kottler_potential)
from alhflow.asymptotics import _GAUSS_W, _GAUSS_X, _panel_integrals
from alhflow.cli import main
from alhflow.geometry import CRITICAL_MASS_HYPERBOLIC

M_CRIT = CRITICAL_MASS_HYPERBOLIC


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
    r_h = horizon_radius(kottler_potential(k_hat, m, eps))
    return 1.0005 * r_h if r_h else 0.25


MAPS = [(k, 0.5, eps, _near_horizon(k, 0.5, eps))
        for k in (-1, 0, 1) for eps in (0.0, 0.2, 0.45) if (k, eps) != (1, 0.2)]
MAPS += [(-1, M_CRIT + 1e-9, 0.0, 0.9), (-1, M_CRIT + 1e-9, 0.0, 1.5),
         (-1, -0.15, 0.0, 0.85), (1, 0.5, 0.0, 2.0), (-1, -0.15, 0.0, 2.0)]


@pytest.mark.parametrize("k_hat,m,eps,r_start", MAPS)
def test_deviation_matches_mpmath(k_hat, m, eps, r_start):
    sub_map = build_substitution(kottler_potential(k_hat, m, eps), r_start, 1e4 * r_start)
    radii = np.geomspace(r_start, 1e4 * r_start, 769)[[0, 1, 96, 384, -1]]
    for r, (_, exact) in zip(radii, exact_map(k_hat, m, eps, radii)):
        assert abs(sub_map.deviation_scale(r) - float(exact)) <= 1e-13 * abs(float(exact))


#: maps from 1.0005 r_h, where rho grows like sqrt(r - r_h), and from r = 2
BETWEEN = [case for case in MAPS[:8] if case[3] != 0.25] + [MAPS[-2], MAPS[-1]]


@pytest.mark.parametrize("k_hat,m,eps,r_start", BETWEEN)
def test_map_matches_mpmath_between_nodes(k_hat, m, eps, r_start):
    # the midpoints of a 192-per-decade grid, the first stretch off the
    # start, where rho grows like sqrt(r - r_h), and random radii
    r_end = 1e4 * r_start
    nodes = np.geomspace(r_start, r_end, 769)
    mids = np.sqrt(nodes[:-1] * nodes[1:])
    rng = np.random.default_rng(7)
    radii = np.concatenate((mids[[0, 1, 2, 5, 40, 400]],
                            r_start * (1.0 + np.array([1e-7, 1e-5, 1e-3])),
                            r_start * 10.0 ** rng.uniform(0.0, 4.0, 4)))
    sub_map = build_substitution(kottler_potential(k_hat, m, eps), r_start, r_end)
    c, rho = sub_map.deviation_scale(radii), sub_map.rho(radii)
    for r, c_r, rho_r, (_, exact) in zip(radii, c, rho, exact_map(k_hat, m, eps, radii)):
        exact_rho = float(mpmath.mpf(r) - exact / mpmath.mpf(r) ** 2)
        assert abs(c_r - float(exact)) <= 1e-13 * abs(float(exact))
        assert abs(rho_r - exact_rho) <= 1e-13 * exact_rho


def test_map_matches_mpmath_at_cli_flow_radii(tmp_path):
    # rho along a flow from near the horizon, on a map from its start
    r0 = _near_horizon(-1, 0.5, 0.0)
    cfg = {"kind": "flow", "k_hat": -1, "genus": 2, "m": 0.5, "r0": r0,
           "t_max": 2.0, "steps": 16}
    path = tmp_path / "flow.json"
    path.write_text(json.dumps(cfg))
    assert main(["flow", "--config", str(path), "--out", str(tmp_path / "o")]) == 0
    rows = (tmp_path / "o" / "trajectory.csv").read_text().split("\n")[1:-1]
    r = np.array([float(row.split(",")[1]) for row in rows])
    rho = build_substitution(kottler_potential(-1, 0.5), r0, 1.01e3 * r0).rho(r)
    for r_i, rho_i, (_, exact) in zip(r, rho, exact_map(-1, 0.5, 0.0, r)):
        exact_rho = float(mpmath.mpf(r_i) - exact / mpmath.mpf(r_i) ** 2)
        assert abs(rho_i - exact_rho) <= 1e-13 * exact_rho


@pytest.mark.parametrize("k_hat,m,eps,r_start", [MAPS[0], MAPS[8], MAPS[-3]])
def test_array_calls_equal_scalar_calls_bitwise(k_hat, m, eps, r_start):
    # a value depends on its radius alone, not on the others asked with it
    sub_map = build_substitution(kottler_potential(k_hat, m, eps), r_start, 1e4 * r_start)
    rng = np.random.default_rng(3)
    radii = np.concatenate(([r_start, 1e4 * r_start],
                            r_start * 10.0 ** rng.uniform(0.0, 4.0, 200)))
    rho = sub_map.rho(radii)
    assert rho.tolist() == [sub_map.rho(float(r)) for r in radii]
    assert sub_map.rho(radii[::-3]).tolist() == rho[::-3].tolist()


def test_gauss_rule_matches_numpy():
    x, w = np.polynomial.legendre.leggauss(4)
    np.testing.assert_allclose(_GAUSS_X, x, rtol=0, atol=2e-16)
    np.testing.assert_allclose(_GAUSS_W, w, rtol=0, atol=2e-16)
    for degree in range(8):  # exact through degree 2n - 1
        exact = 2.0 / (degree + 1) if degree % 2 == 0 else 0.0
        assert np.sum(_GAUSS_W * _GAUSS_X ** degree) == pytest.approx(exact, abs=1e-14)


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
        build_substitution(kottler_potential(1, 0.5, 0.2), r_start, 1e4 * r_start)


def test_closed_between_probe_radii_raises():
    # phi < 0 only within 1.3e-3 of s = 2.5, between the 65 radii below:
    # the quadrature-node guard finds it
    class Dip(RadialPotential):
        def tail(self, s):
            return -1.5 * s * s * np.exp(-((s - 2.5) / 2e-3) ** 2)

        def phi(self, s):
            return s * s + self.tail(s)

    p = Dip(k_hat=0, m=0.0, eps=0.0)
    assert np.all(p.phi(np.geomspace(1.0, 2e3, 65)) > 0.0)
    with pytest.raises(DomainError, match="at a quadrature node"):
        build_substitution(p, 1.0, 2e3)


def test_k_hat_minus_one_needs_outer_radius_two():
    p = kottler_potential(-1, 0.0, 1.0)
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


def test_conformal_area_matches_mpmath():
    p = kottler_potential(-1, 0.5)
    sub_map = build_substitution(p, 2.0, 2e4)
    inf = conformal_infinity(2)
    (_, c), = exact_map(-1, 0.5, 0.0, [50.0])
    expected = inf.area * float((50 / (50 - c / 2500)) ** 2)
    assert conformal_area(inf, sub_map, 50.0) == pytest.approx(expected, rel=1e-14)
    assert sub_map.s(50.0) == pytest.approx(1.0 / sub_map.rho(50.0), rel=1e-12)


def test_non_finite_deviation_raises():
    class Broken(RadialPotential):
        def tail(self, s):
            return np.where(s > 50.0, np.nan, 0.0)

        def phi(self, s):
            return s * s

    p = Broken(k_hat=0, m=0.0, eps=0.0)
    with pytest.raises(NumericalError, match="not finite"):
        build_substitution(p, 1.0, 1e3)
