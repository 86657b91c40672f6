import json
import math

import numpy as np
import pytest

from alhflow import (ConformalInfinity, DomainError, RadialPotential,
                     conformal_infinity, critical_mass,
                     hawking_mass_from_integrals, hawking_mass_sphere,
                     horizon_radius, kottler_potential, mean_curvature_sphere,
                     ricci_components, scalar_curvature, static_residual,
                     surface_gravity)
from alhflow.cli import main

M_CRIT = -1.0 / (3.0 * math.sqrt(3.0))


def bisect_root(f, lo, hi, iters=200):
    # independent oracle: plain bisection on a sign change
    flo = f(lo)
    assert flo * f(hi) < 0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if flo * f(mid) <= 0:
            hi = mid
        else:
            lo = mid
            flo = f(lo)
    return 0.5 * (lo + hi)


class TestConformalInfinity:
    @pytest.mark.parametrize("genus,k,area,c", [
        (0, 1, 4 * math.pi, 1.0),
        (1, 0, 4 * math.pi, 1.0),
        (2, -1, 4 * math.pi, 1.0),
        (3, -1, 8 * math.pi, 2.0),
        (5, -1, 16 * math.pi, 4.0),
    ])
    def test_from_genus(self, genus, k, area, c):
        inf = conformal_infinity(genus)
        assert inf.curvature_sign == k
        assert inf.area == pytest.approx(area, rel=1e-14)
        assert inf.c == c
        assert inf.gamma == pytest.approx(c ** 1.5, rel=1e-15)

    def test_negative_genus_rejected(self):
        with pytest.raises(DomainError, match="genus must be nonnegative, got -1"):
            conformal_infinity(-1)
        with pytest.raises(DomainError):
            ConformalInfinity(-1)


def largest_zero(k_hat, m):
    """The largest zero of V = sqrt(r^2 + k_hat - 2m/r), or None, for any mass."""
    return horizon_radius(RadialPotential(k_hat, float(m), 0.0))


class TestLargestZero:
    def test_unit_mass_zero(self):
        assert largest_zero(-1, 0.0) == pytest.approx(1.0, abs=1e-14)

    def test_critical_double_root(self):
        r = largest_zero(-1, M_CRIT)
        assert r == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-12)

    def test_spherical_example_vs_bisection(self):
        # r^3 + r - 2 is strictly increasing: unique positive root
        oracle = bisect_root(lambda r: r ** 3 + r - 2.0, 0.5, 2.0)
        assert largest_zero(1, 1.0) == pytest.approx(oracle, abs=1e-13)
        assert oracle == pytest.approx(1.0, abs=1e-13)

    def test_nonexistence(self):
        assert largest_zero(-1, M_CRIT - 1e-6) is None
        assert largest_zero(0, 0.0) is None
        assert largest_zero(1, -0.5) is None

    @pytest.mark.parametrize("k_hat", [-1, 0, 1])
    def test_defining_relation(self, k_hat):
        lo = critical_mass(k_hat)
        for m in np.linspace(lo + 1e-3, lo + 5.0, 23):
            r = largest_zero(k_hat, m)
            assert r is not None
            assert abs(2 * m - (r ** 3 + k_hat * r)) <= 1e-12

    def test_bad_curvature_sign(self):
        with pytest.raises(DomainError):
            largest_zero(2, 1.0)


class TestKottlerBuild:
    """The Kottler space of a mass: kottler_potential, its horizon
    domain_start and its surface_gravity."""

    def test_zero_mass(self):
        p = kottler_potential(-1, 0.0)
        assert p.domain_start == pytest.approx(1.0, abs=1e-14)
        assert surface_gravity(p) == pytest.approx(1.0, abs=1e-13)

    def test_critical(self):
        p = kottler_potential(-1, M_CRIT)
        assert p.domain_start == pytest.approx(1 / math.sqrt(3.0), abs=1e-12)
        assert surface_gravity(p) == 0.0

    def test_flat_infinity(self):
        p = kottler_potential(0, 0.5)
        assert p.domain_start == pytest.approx(1.0, abs=1e-13)
        assert surface_gravity(p) == pytest.approx(1.5, abs=1e-13)

    def test_inadmissible_mass_names_interval(self):
        with pytest.raises(DomainError, match="-0.19245"):
            kottler_potential(-1, -0.5)

    @pytest.mark.parametrize("k_hat,m", [(-1, -0.15), (-1, 0.7), (0, 0.2), (1, 2.0)])
    def test_mass_round_trip(self, k_hat, m):
        p = kottler_potential(k_hat, m)
        r = p.domain_start
        assert (r ** 3 + k_hat * r) / 2.0 == pytest.approx(m, abs=1e-12)
        assert surface_gravity(p) == pytest.approx(0.5 * p.dphi(r), rel=1e-12)

    def test_admissible_interval(self):
        assert critical_mass(-1) == pytest.approx(M_CRIT)
        assert critical_mass(0) == 0.0

    def test_evaluators_are_the_closed_forms(self, tmp_path):
        # an eps = 0 member adds nothing to the Kottler closed forms: no 0/0
        # where r^n underflows, no +0.0 for the -0.0 tail of m = 0
        r = np.geomspace(1e-300, 1e300, 601)
        for k in (-1, 0, 1):
            masses = [0.0, -0.0, 1e-300, 1e-250, 1e-90, 1.0]
            for m in masses + ([M_CRIT, -0.1] if k == -1 else []):
                p = kottler_potential(k, m)
                with np.errstate(all="ignore"):
                    pairs = ((p.phi(r), r * r + k - 2 * m / r),
                             (p.dphi(r), 2 * r + 2 * m / (r * r)),
                             (p.d2phi(r), 2 - 4 * m / (r * r * r)),
                             (p.tail(r), -2 * m / r))
                for got, closed in pairs:
                    # the same bits: NaN equals NaN, and zeros keep their sign
                    assert np.array_equal(got.view(np.uint64), closed.view(np.uint64))
        # a horizon of 5e-251: r^4 underflows at the profile's radii
        path = tmp_path / "kottler.json"
        path.write_text(json.dumps({"kind": "kottler", "k_hat": 0, "genus": 1,
                                    "m": 1e-250}))
        assert main(["kottler", "--config", str(path),
                     "--out", str(tmp_path / "o")]) == 0


class TestScalarCurvature:
    @pytest.mark.parametrize("k_hat,m", [(-1, 0.0), (-1, -0.1), (-1, 0.5),
                                         (0, 0.5), (1, 1.0)])
    def test_kottler_is_minus_six(self, k_hat, m):
        p = kottler_potential(k_hat, m)
        r0 = max(p.domain_start, 0.3)
        for r in np.geomspace(r0 * 1.05, r0 * 1e3, 20):
            assert abs(scalar_curvature(p, r) + 6.0) <= 1e-10

    def test_hyperbolic_space(self):
        p = kottler_potential(1, 0.0)  # phi = r^2 + 1
        assert scalar_curvature(p, 3.0) == pytest.approx(-6.0, abs=1e-13)

    def test_perturbed_shift(self):
        eps = 0.07
        p = kottler_potential(-1, 0.2, eps)
        for r in (1.7, 3.0, 11.0):
            assert scalar_curvature(p, r) == pytest.approx(
                -6.0 + 2 * eps / r ** 4, abs=1e-12)

    def test_finite_difference_oracle(self):
        # oracle built from phi samples only
        p = kottler_potential(-1, 0.37)
        r = 2.31

        def r_fd(h):
            dphi = (p.phi(r + h) - p.phi(r - h)) / (2 * h)
            return -2 * dphi / r + 2 * (p.k_hat - p.phi(r)) / r ** 2

        exact = scalar_curvature(p, r)
        e1 = abs(r_fd(1e-3) - exact)
        e2 = abs(r_fd(5e-4) - exact)
        assert e1 <= 1e-6
        assert e2 <= e1 / 3.0  # second-order convergence

    def test_outside_domain_raises(self):
        p = kottler_potential(-1, 0.5)
        with pytest.raises(DomainError):
            scalar_curvature(p, 0.5 * p.domain_start)


def test_symbolic_warped_product_oracle():
    # Full curvature tensor of phi^-1 dr^2 + r^2 ghat computed symbolically
    # from an explicit constant-curvature realization of ghat.
    sympy = pytest.importorskip("sympy")
    r, x, y = sympy.symbols("r x y", positive=True)
    phi = sympy.Function("phi", positive=True)

    for k_hat, f in ((-1, sympy.cosh(x)), (0, sympy.Integer(1)), (1, sympy.sin(x))):
        g = sympy.diag(1 / phi(r), r ** 2, r ** 2 * f ** 2)
        coords = (r, x, y)
        ginv = g.inv()
        n = 3
        gamma = [[[sum(ginv[i, l] * (sympy.diff(g[k, l], coords[j])
                                     + sympy.diff(g[j, l], coords[k])
                                     - sympy.diff(g[j, k], coords[l])) / 2
                       for l in range(n)) for k in range(n)] for j in range(n)]
                 for i in range(n)]
        ric = sympy.zeros(n, n)
        for j in range(n):
            for k in range(n):
                expr = 0
                for i in range(n):
                    expr += sympy.diff(gamma[i][j][k], coords[i]) \
                        - sympy.diff(gamma[i][j][i], coords[k])
                    for m_ in range(n):
                        expr += gamma[i][i][m_] * gamma[m_][j][k] \
                            - gamma[i][k][m_] * gamma[m_][j][i]
                ric[j, k] = sympy.simplify(expr)
        scal = sympy.simplify(sum(ginv[i, j] * ric[i, j]
                                  for i in range(n) for j in range(n)))
        dphi = sympy.diff(phi(r), r)
        claimed_scal = -2 * dphi / r + 2 * (k_hat - phi(r)) / r ** 2
        assert sympy.simplify(scal - claimed_scal) == 0
        claimed_rad = -dphi / r  # unit radial: phi * Ric_rr
        assert sympy.simplify(phi(r) * ric[0, 0] - claimed_rad) == 0
        claimed_tan = -(dphi / (2 * r) + (phi(r) - k_hat) / r ** 2)
        assert sympy.simplify(ric[1, 1] / r ** 2 - claimed_tan) == 0


class TestRicci:
    def test_kottler_radial_value(self):
        p = kottler_potential(-1, 0.5)
        rad, _ = ricci_components(p, 2.0)
        assert rad == pytest.approx(-2.125, abs=1e-14)

    def test_hyperbolic_isotropy(self):
        p = kottler_potential(1, 0.0)
        for r in (0.7, 2.0, 9.0):
            rad, tan = ricci_components(p, r)
            assert rad == pytest.approx(-2.0, abs=1e-12)
            assert tan == pytest.approx(-2.0, abs=1e-12)

    def test_radial_asymptotics_exact_in_r(self):
        m = 0.4
        p = kottler_potential(-1, m)
        for r in np.geomspace(2.0, 1e4, 12):
            rad, _ = ricci_components(p, r)
            # rounding in phi'/r is amplified by r^3
            tol = max(1e-10, 8 * np.finfo(float).eps * r ** 3)
            assert r ** 3 * (rad + 2.0) == pytest.approx(-2 * m, abs=tol)

    def test_radial_asymptotics_in_rho(self, submap):
        # against the compactification radius the defect decays at least
        # first order per doubling
        m = 0.5
        p = kottler_potential(-1, m)
        sub_map = submap(-1, m)
        errs = []
        for rho in (25.0, 50.0, 100.0, 200.0):  # rho^3 * eps noise floor above
            r = sub_map.r_of_rho(rho)
            rad, _ = ricci_components(p, r)
            errs.append(abs(rho ** 3 * (rad + 2.0) + 2 * m))
        for a, b in zip(errs, errs[1:]):
            assert b <= a / 2.0


class TestMeanCurvature:
    def test_closed_form(self):
        p = kottler_potential(-1, 0.0)  # phi = r^2 - 1
        assert mean_curvature_sphere(p, 2.0) == pytest.approx(math.sqrt(3.0), rel=1e-14)

    def test_horosphere_limit(self):
        p = kottler_potential(1, 0.0)
        assert mean_curvature_sphere(p, 1e8) == pytest.approx(2.0, abs=1e-8)

    def test_minimal_horizon(self):
        p = kottler_potential(-1, 0.0)
        assert mean_curvature_sphere(p, 1.0) == 0.0

    def test_inside_horizon_raises(self):
        p = kottler_potential(-1, 0.5)
        with pytest.raises(DomainError):
            mean_curvature_sphere(p, p.domain_start * 0.9)

    def test_inverse_expansion(self, submap):
        p = kottler_potential(-1, 0.5)
        sub_map = submap(-1, 0.5)
        for r in (50.0, 100.0, 200.0):
            rho = sub_map.rho(r)
            model = rho / (2.0 * math.sqrt(p.k_hat + rho ** 2))
            defect = abs(1.0 / mean_curvature_sphere(p, r) - model)
            assert defect <= 2.0 / rho ** 2


class TestHawkingMass:
    def test_equality_case_genus_two(self):
        inf = conformal_infinity(2)
        p = kottler_potential(-1, -0.1)
        assert hawking_mass_sphere(inf, p, 2.0) == pytest.approx(-0.1, abs=1e-14)

    def test_genus_three_scaling(self):
        inf = conformal_infinity(3)
        p = kottler_potential(-1, 0.5)
        assert hawking_mass_sphere(inf, p, 1.5) == pytest.approx(2 ** 1.5 * 0.5,
                                                                 rel=1e-14)

    def test_hyperbolic_spheres_massless(self):
        inf = conformal_infinity(0)
        p = kottler_potential(1, 0.0)
        for r in (0.3, 1.0, 40.0):
            assert abs(hawking_mass_sphere(inf, p, r)) <= 1e-14

    @pytest.mark.parametrize("genus,m", [(2, -0.15), (2, 0.0), (3, 0.5), (4, -0.1)])
    def test_constant_in_radius(self, genus, m):
        inf = conformal_infinity(genus)
        p = kottler_potential(-1, m)
        target = inf.c ** 1.5 * m
        for r in np.geomspace(max(p.domain_start, 0.4), 1e5, 25):
            if r < p.domain_start:
                continue
            assert hawking_mass_sphere(inf, p, r) == pytest.approx(
                target, abs=1e-10)

    def test_matches_surface_integral_assembly(self):
        # same quantity assembled from area and the H^2 integral
        inf = conformal_infinity(3)
        p = kottler_potential(-1, 0.37)
        for r in (1.6, 2.5, 8.0):
            area = inf.area * r * r
            h = mean_curvature_sphere(p, r)
            assembled = hawking_mass_from_integrals(3, area, h * h * area)
            assert hawking_mass_sphere(inf, p, r) == pytest.approx(
                assembled, abs=1e-10)

    def test_topology_mismatch_raises(self):
        with pytest.raises(DomainError):
            hawking_mass_sphere(conformal_infinity(0), kottler_potential(-1, 0.0), 2.0)


class TestStaticResidual:
    @pytest.mark.parametrize("k_hat,m", [(-1, 0.3), (-1, -0.1), (0, 0.5), (1, 1.0)])
    def test_kottler_is_static(self, k_hat, m):
        p = kottler_potential(k_hat, m)
        for r in np.geomspace(p.domain_start * 1.1, p.domain_start * 100, 9):
            res = static_residual(p, r)
            assert res.laplace_residual <= 1e-9
            assert res.ricci_residual <= 1e-9

    def test_hyperbolic_is_static(self):
        p = kottler_potential(1, 0.0)
        res = static_residual(p, 2.0)
        assert res.laplace_residual <= 1e-12
        assert res.ricci_residual <= 1e-12

    def test_perturbation_detected(self):
        eps = 0.1
        p = kottler_potential(-1, 0.5, eps)
        r = 2.0
        res = static_residual(p, r)
        assert res.ricci_residual == pytest.approx(eps / r ** 4, rel=1e-9)
        # finite-difference oracle from phi samples confirms non-staticity
        h = 1e-5
        dphi = (p.phi(r + h) - p.phi(r - h)) / (2 * h)
        d2phi = (p.phi(r + h) - 2 * p.phi(r) + p.phi(r - h)) / h ** 2
        fd_res = abs(3.0 - dphi / r - 0.5 * d2phi)
        assert fd_res == pytest.approx(res.ricci_residual, rel=1e-3, abs=1e-8)


def test_critical_data_values():
    assert critical_mass(-1) == pytest.approx(M_CRIT, rel=1e-15)
    assert critical_mass(0) == 0.0
    assert critical_mass(1) == 0.0


class TestHorizonRadius:
    def test_perturbed_family(self):
        p = kottler_potential(-1, 0.5, 0.05)
        r_h = horizon_radius(p)
        assert r_h is not None
        assert p.phi(r_h) == pytest.approx(0.0, abs=1e-10)
        assert p.phi(r_h * 1.01) > 0

    def test_no_horizon(self):
        p = kottler_potential(1, 0.0)
        assert horizon_radius(p) is None
