import dataclasses
import math

import numpy as np
import pytest

from alhflow import (DomainError, HypothesesNotMet, ReferencePotential,
                     alpha_coefficient, boundary_gauss_curvature,
                     build_substitution, compare_with_reference,
                     conformal_infinity, horizon_radius, kappa_to_mass,
                     kottler_potential, mass_aspect_extract,
                     omega_derivatives, omega_ode_residual, richardson,
                     static_compare, surface_gravity)
from alhflow.cli import run_scenario

M_CRIT = -1.0 / (3.0 * math.sqrt(3.0))


def compare_checks(out_dir, m, genus=2):
    """The static-compare checks of Kottler data of mass m, by name."""
    report = run_scenario({"kind": "static-compare", "m": m, "genus": genus}, out_dir)
    return {check["name"]: check for check in report["checks"]}


def failed(checks):
    return {name: check["value"] for name, check in checks.items() if not check["passed"]}


def bisect_root(f, lo, hi, iters=200):
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


class TestBijection:
    def test_unit_surface_gravity_is_massless(self):
        assert kappa_to_mass(-1, 1.0) == pytest.approx(0.0, abs=1e-14)

    def test_small_surface_gravity_limit(self):
        assert kappa_to_mass(-1, 1e-9) == pytest.approx(M_CRIT, abs=1e-9)

    def test_spherical_two_branches(self):
        # kappa = 2 belongs to the masses 5/27 and 1, so neither is the answer
        for m in (5.0 / 27.0, 1.0):
            assert surface_gravity(kottler_potential(1, m)) == pytest.approx(2.0, rel=1e-12)
        with pytest.raises(DomainError, match="does not determine the mass"):
            kappa_to_mass(1, 2.0)

    def test_spherical_below_minimum_rejected(self):
        with pytest.raises(DomainError):
            kappa_to_mass(1, 1.0)

    def test_nonpositive_rejected(self):
        with pytest.raises(DomainError):
            kappa_to_mass(-1, 0.0)

    @pytest.mark.parametrize("k_hat", [-1, 0])
    def test_round_trip_identity(self, k_hat):
        for kappa in np.linspace(0.05, 3.0, 17):
            m = kappa_to_mass(k_hat, kappa)
            assert surface_gravity(kottler_potential(k_hat, m)) == pytest.approx(
                kappa, abs=1e-12)

    def test_kappa_increasing_in_horizon_radius(self):
        for k_hat in (-1, 0):
            kappas = []
            for m in np.linspace(critical := M_CRIT if k_hat == -1 else 0.0,
                                 2.0, 40)[1:]:
                kappas.append(surface_gravity(kottler_potential(k_hat, m)))
            assert np.all(np.diff(kappas) > 0)


class TestOmega:
    def test_massless_closed_form(self):
        ref = ReferencePotential(-1, 0.0)
        assert ref.omega(math.sqrt(3.0)) == pytest.approx(4.0, rel=1e-13)
        for v in (0.0, 0.5, 2.0):
            assert ref.omega(v) == pytest.approx(v * v + 1.0, rel=1e-12)

    @pytest.mark.parametrize("k_hat,m0", [(-1, -0.1), (-1, 0.4), (0, 0.3), (1, 1.0)])
    def test_horizon_value_is_kappa_squared(self, k_hat, m0):
        ref = ReferencePotential(k_hat, m0)
        assert ref.omega(0.0) == pytest.approx(ref.kappa ** 2, rel=1e-12)

    def test_against_bisection_oracle(self):
        # largest root of r^3 - 2r + 0.2 locates the profile radius
        ref = ReferencePotential(-1, -0.1)
        r_oracle = bisect_root(lambda r: r ** 3 - 2.0 * r + 0.2, 1.0, 2.0)
        assert r_oracle == pytest.approx(1.3615, abs=1e-3)
        expect = (r_oracle - 0.1 / r_oracle ** 2) ** 2
        assert ref.omega(1.0) == pytest.approx(expect, rel=1e-11)
        assert ref.omega(1.0) == pytest.approx(1.710, abs=1e-3)

    def test_negative_v_rejected(self):
        with pytest.raises(DomainError):
            ReferencePotential(-1, 0.0).omega(-0.1)
        with pytest.raises(DomainError):
            ReferencePotential(-1, 0.0).omega(np.array([0.5, -0.1]))

    @pytest.mark.parametrize("k_hat,m0", [(-1, M_CRIT + 1e-9), (-1, -0.1),
                                          (0, 0.3), (1, 1.0)])
    def test_array_equals_scalar_bitwise(self, k_hat, m0):
        ref = ReferencePotential(k_hat, m0)
        v = np.concatenate([[0.0], np.geomspace(1e-8, 40.0, 63)])
        got = ref.omega(v)
        assert [x.hex() for x in got.tolist()] == [ref.omega(x).hex() for x in v.tolist()]


class TestOmegaDerivatives:
    def test_massless_closed_form(self):
        ref = ReferencePotential(-1, 0.0)
        d1, d2 = omega_derivatives(ref, 2.0)
        assert d1 == pytest.approx(4.0, rel=1e-12)
        assert d2 == pytest.approx(2.0, rel=1e-12)

    def test_matches_finite_differences(self):
        ref = ReferencePotential(-1, -0.1)
        v, h = 1.0, 1e-4
        d1, d2 = omega_derivatives(ref, v)
        fd1 = (ref.omega(v + h) - ref.omega(v - h)) / (2 * h)
        fd2 = (ref.omega(v + h) - 2 * ref.omega(v)
               + ref.omega(v - h)) / h ** 2
        assert abs(d1 - fd1) <= 1e-6
        assert abs(d2 - fd2) <= 1e-5

    def test_first_derivative_vanishes_at_horizon(self):
        ref = ReferencePotential(-1, 0.3)
        d1, _ = omega_derivatives(ref, 1e-8)
        assert abs(d1) <= 1e-7


class TestAlpha:
    def test_massless_is_zero(self):
        ref = ReferencePotential(-1, 0.0)
        assert alpha_coefficient(ref, 1.3) == pytest.approx(0.0, abs=1e-13)

    def test_worked_value(self):
        ref = ReferencePotential(-1, -0.1)
        assert alpha_coefficient(ref, 1.0) == pytest.approx(0.267, abs=1e-3)

    @pytest.mark.parametrize("m0,sign", [(-0.15, 1.0), (-0.05, 1.0),
                                         (0.1, -1.0), (0.5, -1.0)])
    def test_sign_opposite_to_mass(self, m0, sign):
        ref = ReferencePotential(-1, m0)
        for v in np.linspace(0.25, 5.0, 20):
            assert math.copysign(1.0, alpha_coefficient(ref, v)) == sign


class TestOmegaOde:
    def test_massless_both_sides_closed_form(self):
        ref = ReferencePotential(-1, 0.0)
        for v in (0.5, 1.0, 3.0):
            omega = ref.omega(v)
            d1, d2 = omega_derivatives(ref, v)
            lhs = d2 * omega + 3 * d1 * v
            assert lhs == pytest.approx(8 * v * v + 2.0, rel=1e-12)
            assert omega_ode_residual(ref, v) <= 1e-12

    @pytest.mark.parametrize("k_hat,m0", [(-1, -0.15), (-1, 0.6), (0, 0.3)])
    def test_residual_small(self, k_hat, m0):
        ref = ReferencePotential(k_hat, m0)
        for v in (0.5, 1.0, 2.0):
            assert omega_ode_residual(ref, v) <= 1e-8


class TestBoundaryCurvature:
    @pytest.mark.parametrize("k_hat,m0", [(-1, 0.0), (-1, -0.1), (-1, 0.5),
                                          (0, 0.3), (1, 1.0)])
    def test_equals_topological_value(self, k_hat, m0):
        ref = ReferencePotential(k_hat, m0)
        expect = k_hat / ref.horizon_radius ** 2
        assert abs(boundary_gauss_curvature(ref) - expect) <= 1e-8

    def test_massless_value(self):
        assert boundary_gauss_curvature(ReferencePotential(-1, 0.0)) == \
            pytest.approx(-1.0, abs=1e-9)

    def test_critical_rejected(self):
        with pytest.raises(DomainError):
            boundary_gauss_curvature(ReferencePotential(-1, M_CRIT))

    @pytest.mark.parametrize("delta", [0.01, 0.05, 0.1])
    def test_matches_richardson_second_difference(self, delta):
        # independent route: extrapolate 2 (omega(h) - kappa^2)/h^2 -> -2K
        ref = ReferencePotential(-1, M_CRIT + delta)
        h = 0.04 * ref.kappa / 2.0 ** np.arange(4)
        second, _ = richardson(2.0 * (ref.omega(h) - ref.kappa ** 2) / (h * h),
                               first_order=2, levels=3)
        assert abs(-0.5 * second - boundary_gauss_curvature(ref)) <= 1e-8

    @pytest.mark.parametrize("delta", [1e-11, 1e-8, 1e-6, 1e-4])
    def test_near_critical_reference(self, delta):
        ref = ReferencePotential(-1, M_CRIT + delta)
        expect = -1.0 / ref.horizon_radius ** 2
        assert abs(boundary_gauss_curvature(ref) - expect) <= 1e-11


def _shift_reference_mass(shift):
    return (static_compare, "kappa_to_mass",
            lambda k_hat, kappa: kappa_to_mass(k_hat, kappa) + shift)


def _scale_omega(factor):
    omega = ReferencePotential.omega
    return ReferencePotential, "omega", lambda ref, v: factor * omega(ref, v)


def _shift_reference_horizon(factor):
    init = ReferencePotential.__init__

    def build(ref, k_hat, m0):
        init(ref, k_hat, m0)
        ref.horizon_radius *= factor
    return ReferencePotential, "__init__", build


#: Per check: a broken formula that moves its inequality the wrong way, and
#: the genus it is run at.
_BROKEN = {
    # W0 low by 1e-6 of itself
    "w_le_w0": (_scale_omega(1.0 - 1e-6), 2),
    # the reference mass 1e-6 high puts its horizon outside the data's
    "boundary_curvature_ge_reference": (_shift_reference_mass(1e-6), 2),
    # the reference mass 2e-3 low, twice the tolerance below the mass aspect
    "mass_aspect_le_reference": (_shift_reference_mass(-2e-3), 2),
    # the boundary area normalized as genus 2's, 4 pi, instead of 8 pi
    "area_radius_ge_reference": ((static_compare, "conformal_infinity",
                                  lambda genus: conformal_infinity(genus - 1)), 3),
    # a reference horizon one part in 1e9 off the root of its cubic
    "cubic_root": (_shift_reference_horizon(1.0 + 1e-9), 2),
}


class TestCompare:
    @pytest.mark.parametrize("name", list(_BROKEN))
    def test_broken_formula_fails_its_check(self, tmp_path, monkeypatch, name):
        (target, attribute, broken), genus = _BROKEN[name]
        assert failed(compare_checks(tmp_path / "kept", -0.1, genus)) == {}
        monkeypatch.setattr(target, attribute, broken)
        check = compare_checks(tmp_path / "broken", -0.1, genus)[name]
        assert check["value"] > check["tolerance"]
        assert not check["passed"]

    def test_self_comparison_all_equalities(self):
        report = compare_with_reference(kottler_potential(-1, -0.1), 2)
        assert report.sup_w_minus_w0 <= 1e-9
        assert abs(report.sup_w_minus_w0) <= 1e-9
        assert report.reference_mass == pytest.approx(-0.1, abs=1e-12)
        assert abs(report.mass_aspect - report.reference_mass) <= 1e-3
        assert report.area_radius == pytest.approx(report.reference_area_radius,
                                                   abs=1e-12)
        assert report.cubic_residual <= 1e-10
        assert abs(report.boundary_curvature - report.reference_curvature) <= 1e-8
        assert report.reference_area_radius >= 1.0 / math.sqrt(3.0)

    def test_zero_mass_genus_three(self, tmp_path):
        assert failed(compare_checks(tmp_path, 0.0, genus=3)) == {}
        report = compare_with_reference(kottler_potential(-1, 0.0), 3)
        assert report.reference_mass == pytest.approx(0.0, abs=1e-12)
        assert report.reference_area_radius == pytest.approx(1.0, abs=1e-12)
        assert report.area_radius == pytest.approx(1.0, abs=1e-12)

    def test_cubic_residual_tiny(self):
        report = compare_with_reference(kottler_potential(-1, -0.15), 2)
        assert report.cubic_residual <= 1e-10
        assert report.reference_area_radius >= 1.0 / math.sqrt(3.0)

    def test_positive_mass_hypothesis_error(self):
        with pytest.raises(HypothesesNotMet, match="hypotheses not met"):
            compare_with_reference(kottler_potential(-1, 0.5), 2)

    @pytest.mark.parametrize("m", [4e-13, 5e-324])
    def test_any_positive_mass_is_outside_the_hypotheses(self, m):
        # surface gravity 1 + 8e-13 at m = 4e-13: no slack above kappa = 1
        with pytest.raises(HypothesesNotMet, match=f"mass {m} > 0"):
            compare_with_reference(kottler_potential(-1, m), 2)

    def test_non_static_rejected_with_residual(self):
        p = kottler_potential(-1, -0.1, 0.1)
        with pytest.raises(DomainError, match="not static"):
            compare_with_reference(p, 2)

    @pytest.mark.parametrize("eps", [1e-9, -1e-300])
    def test_any_eps_is_not_static(self, eps):
        # the static residuals stay below 2e-9 at eps = 1e-9: a sampled
        # residual cannot tell these data from static ones
        with pytest.raises(DomainError, match=f"not static: eps = {eps}"):
            compare_with_reference(kottler_potential(-1, -0.1, eps), 2)

    def test_wrong_topology_rejected(self):
        with pytest.raises(DomainError):
            compare_with_reference(kottler_potential(0, 0.5), 1)
        with pytest.raises(DomainError):
            compare_with_reference(kottler_potential(-1, -0.1), 1)

    @pytest.mark.parametrize("delta", [1e-11, 1e-9, 1e-7, 1e-5, 1e-3])
    def test_near_critical_data_pass(self, tmp_path, delta):
        assert failed(compare_checks(tmp_path, M_CRIT + delta)) == {}

    @pytest.mark.parametrize("genus", [2, 5])
    @pytest.mark.parametrize("map_r_end", [2002.0, 1e6, 1e50])
    def test_mass_aspect_equals_map_from_twice_the_horizon(self, map_r_end, genus):
        # the comparison's map starts at r_end / 2^10 where that exceeds 2 r_h;
        # the radii the extraction reads take the same bits from the map
        # built down to 2 r_h, arccosh pieces included
        for delta in np.geomspace(2e-11, -M_CRIT, 8):
            p = kottler_potential(-1, M_CRIT + delta)
            r_h = horizon_radius(p)
            full = build_substitution(p, 2.0 * r_h, max(map_r_end, 2.0 * r_h * 1.001e3))
            mu = compare_with_reference(p, genus, map_r_end).mass_aspect
            assert mu == mass_aspect_extract(full).mu, delta

    def test_report_serialization(self):
        # comparison.json is the report's numbers, with no verdict among them
        report = compare_with_reference(kottler_potential(-1, -0.1), 2)
        d = dataclasses.asdict(report)
        assert list(d) == [
            "sup_w_minus_w0", "boundary_curvature", "reference_curvature",
            "mass_aspect", "reference_mass", "area_radius",
            "reference_area_radius", "cubic_residual"]
        assert all(type(value) is float for value in d.values())

