import math

import numpy as np
import pytest

from alhflow import (DomainError, ExtractionError, asymptotics, build_substitution,
                     conformal_area, conformal_infinity,
                     conformal_mean_curvature_residual, dyadic_profile_samples,
                     expansion_fit, imcf_integrate, kottler_potential,
                     mass_aspect_extract, potential_gradient_squared, richardson)


class TestRichardson:
    def test_geometric_tail(self):
        # v(h) = 3 + h + h^2 at h = 1/2^i
        hs = [1.0 / 2 ** i for i in range(5)]
        vals = [3.0 + h + h * h for h in hs]
        est, err = richardson(vals, first_order=1, levels=3)
        assert est == pytest.approx(3.0, abs=1e-12)
        assert err <= 1e-10

    def test_needs_two_values(self):
        with pytest.raises(DomainError):
            richardson([1.0])


class TestBuildSubstitution:
    def test_zero_mass_identity(self, submap):
        sub_map = submap(-1, 0.0)
        for r in (2.0, 37.0, 1e4):
            assert sub_map.rho(r) == pytest.approx(r, rel=1e-14)

    def test_tangential_correction_limit(self, submap):
        # rho (r^2 - rho^2) -> 2m/3, i.e. (2/3) mu -> 2m/3
        m = 0.5
        sub_map = submap(-1, m)
        for r in (1e3, 1e4, 1e5):
            correction = (2.0 / 3.0) * sub_map.mu_at(r)
            assert correction == pytest.approx(2 * m / 3, abs=1e-4)
        assert sub_map.mu_at(1e5) == pytest.approx(m, abs=1e-7)

    def test_round_trip_on_grid(self, submap):
        sub_map = submap(-1, 0.5)
        radii = np.geomspace(2.0, 1e6, 1095)[::97]
        for r in radii:
            assert sub_map.r_of_rho(sub_map.rho(r)) == pytest.approx(
                r, rel=1e-10)

    def test_monotone_and_normalized(self, submap):
        sub_map = submap(-1, 0.5)
        assert np.all(np.diff(sub_map.rho(np.geomspace(2.0, 1e6, 1095))) > 0)
        assert abs(sub_map.rho(sub_map.r_end) / sub_map.r_end - 1.0) <= 1e-6

    def test_defining_slope(self, submap):
        sub_map = submap(-1, 0.5)
        for r in (3.0, 12.0, 500.0):
            # a central difference of the map against the equation's slope
            h = r * 1e-3
            estimates = [(sub_map.rho(r + h / 2 ** i) - sub_map.rho(r - h / 2 ** i))
                         / (2.0 * h / 2 ** i) for i in range(2)]
            slope, _ = richardson(estimates, first_order=2, levels=1)
            assert sub_map.drho_dr(r) == pytest.approx(slope, rel=1e-8)

    def test_preconditions(self):
        p = kottler_potential(-1, 0.5)
        with pytest.raises(DomainError):
            build_substitution(p, 2.0, 200.0)  # under 3 decades
        with pytest.raises(DomainError):
            build_substitution(p, 0.5, 1e4)  # crosses the horizon

    def test_domain_enforced(self, submap):
        sub_map = submap(-1, 0.5)
        with pytest.raises(DomainError):
            sub_map.rho(1.0)
        with pytest.raises(DomainError):
            sub_map.r_of_rho(sub_map.rho(sub_map.r_end) * 2.0)


class TestMassAspect:
    @pytest.mark.parametrize("m", [-0.15, 0.0, 0.5])
    def test_kottler_extraction(self, submap, m):
        result = mass_aspect_extract(submap(-1, m))
        assert abs(result.mu - m) <= 1e-4

    def test_flat_infinity(self, submap):
        sub_map = submap(0, 0.25, r_start=1.5, r_end=1e6)
        result = mass_aspect_extract(sub_map)
        assert abs(result.mu - 0.25) <= 1e-4

    def test_zero_mass_exact(self, submap):
        result = mass_aspect_extract(submap(-1, 0.0))
        assert result.mu == 0.0

    def test_resolution_invariance(self, submap):
        # doubling the outer radius, and moving every panel edge and sample
        # radius (panels are counted down from r_end, 24 an octave, so 3e6 is
        # not a power-of-two multiple of 1e6), must not move the extraction
        # beyond tolerance
        base = mass_aspect_extract(submap(-1, -0.15)).mu
        wider = mass_aspect_extract(submap(-1, -0.15, r_end=2e6)).mu
        shifted = mass_aspect_extract(submap(-1, -0.15, r_end=3e6)).mu
        assert abs(base - wider) <= 1e-4
        assert abs(base - shifted) <= 1e-4

    def test_coverage_required(self, submap):
        # a truncated map cannot support the extrapolation
        from alhflow import SubstitutionMap
        p = kottler_potential(-1, 0.5)
        full = submap(-1, 0.5)
        short = SubstitutionMap(p, full.r_start, full.r_start * 100.0)
        with pytest.raises(DomainError):
            mass_aspect_extract(short)

    def test_nonconvergence_reported(self, submap, monkeypatch):
        # three decades and three Richardson levels leave an error near 2e-11
        monkeypatch.setattr(asymptotics, "MU_TOLERANCE", 1e-12)
        with pytest.raises(ExtractionError):
            mass_aspect_extract(submap(-1, 0.5, r_end=2e3))


class TestExpansionFit:
    def test_gradient_squared_coefficient(self, submap):
        m = 0.5
        p = kottler_potential(-1, m)
        samples = dyadic_profile_samples(
            submap(-1, m), lambda r: potential_gradient_squared(p, r))
        fit = expansion_fit(samples)
        assert fit.a0 == pytest.approx(1.0, abs=1e-6)
        assert abs(fit.a1) <= 1e-3
        assert fit.a2 == pytest.approx(8 * m / 3, abs=1e-3)

    def test_potential_squared_coefficient(self, submap):
        m = 0.5
        p = kottler_potential(-1, m)
        samples = dyadic_profile_samples(submap(-1, m), p.phi)
        fit = expansion_fit(samples)
        assert fit.a0 == pytest.approx(1.0, abs=1e-6)
        assert fit.a1 == pytest.approx(-1.0, abs=1e-3)
        assert fit.a2 == pytest.approx(-4 * m / 3, abs=1e-3)

    def test_constant_samples(self):
        rho = 4.0 * 2.0 ** np.arange(8)
        samples = np.column_stack([rho, np.full(8, 7.0)])
        fit = expansion_fit(samples)
        assert fit.a0 == pytest.approx(0.0, abs=1e-12)
        assert fit.a1 == pytest.approx(7.0, rel=1e-12)
        assert fit.a2 == pytest.approx(0.0, abs=1e-9)

    def test_exact_basis_recovery(self):
        # elimination amplifies rounding by rho^3 * eps, hence the abs slack
        rho = 3.0 * 2.0 ** np.arange(9)
        y = 2.5 * rho ** 2 - 4.0 + 1.25 / rho
        fit = expansion_fit(np.column_stack([rho, y]))
        assert fit.a0 == pytest.approx(2.5, rel=1e-12)
        assert fit.a1 == pytest.approx(-4.0, rel=1e-8)
        assert fit.a2 == pytest.approx(1.25, abs=2e-6)
        assert fit.error_estimate <= 1e-5

    @pytest.mark.parametrize("rho", [np.geomspace(3.0, 450.0, 9),
                                     np.array([1.0, 1.0 + 1e-9, 1.0 + 2e-9, 150.0])],
                             ids=["geometric", "clustered"])
    def test_non_dyadic_rejected(self, rho):
        y = 0.5 * rho ** 2 + 2.0 - 3.0 / rho
        with pytest.raises(DomainError, match="double"):
            expansion_fit(np.column_stack([rho, y]))

    def test_input_validation(self):
        with pytest.raises(DomainError):
            expansion_fit([(1.0, 1.0), (2.0, 1.0), (4.0, 1.0)])
        with pytest.raises(DomainError):
            # only one decade of span
            rho = 2.0 * 2.0 ** np.arange(4)
            expansion_fit(np.column_stack([rho, rho ** 2]))

    @pytest.mark.parametrize("k_hat, m, eps", [(-1, 0.5, 0.0), (1, 0.2, 0.0),
                                               (0, 0.3, 0.2), (-1, -0.15, 0.3)])
    def test_samples_equal_scalar_calls_bitwise(self, submap, k_hat, m, eps):
        sub_map = submap(k_hat, m, eps=eps)
        p = sub_map.potential
        for fn in (p.phi, lambda r: potential_gradient_squared(p, r)):
            samples = dyadic_profile_samples(sub_map, fn)
            scalar = [(rho, fn(sub_map.r_of_rho(float(rho)))) for rho in samples[:, 0]]
            assert samples.tolist() == [[rho, float(v)] for rho, v in scalar]

    def test_mu_routes_mutually_consistent(self, submap):
        m = 0.5
        p = kottler_potential(-1, m)
        sub_map = submap(-1, m)
        mu_direct = mass_aspect_extract(sub_map).mu
        w_fit = expansion_fit(dyadic_profile_samples(
            sub_map, lambda r: potential_gradient_squared(p, r)))
        v_fit = expansion_fit(dyadic_profile_samples(sub_map, p.phi))
        mu_from_w = 3.0 * w_fit.a2 / 8.0
        mu_from_v = -3.0 * v_fit.a2 / 4.0
        assert abs(mu_direct - mu_from_w) <= 1e-3
        assert abs(mu_direct - mu_from_v) <= 1e-3
        assert abs(mu_from_w - mu_from_v) <= 1e-3


class TestConformalArea:
    def test_zero_mass_exact(self, submap):
        inf = conformal_infinity(3)
        sub_map = submap(-1, 0.0)
        for r in (2.5, 40.0, 9e3):
            assert conformal_area(inf, sub_map, r) == pytest.approx(
                inf.area, rel=1e-13)

    def test_limit_is_infinity_area(self, submap):
        inf = conformal_infinity(2)
        sub_map = submap(-1, 0.5)
        assert conformal_area(inf, sub_map, 1e5) == pytest.approx(
            4 * math.pi, rel=1e-9)

    def test_deviation_rate_along_flow(self, submap):
        inf = conformal_infinity(2)
        p = kottler_potential(-1, 0.5)
        sub_map = submap(-1, 0.5)
        traj = imcf_integrate(inf, p, 3.0, 8.0, steps=256)
        ts, devs = [], []
        for s in traj.states[::16]:
            dev = abs(conformal_area(inf, sub_map, s.r) - inf.area)
            ts.append(s.t)
            devs.append(dev)
        ts, devs = np.array(ts), np.array(devs)
        # fitted at t = 1, the slow bound C e^{-t/2} must hold onward
        i1 = int(np.argmin(np.abs(ts - 1.0)))
        c_bound = devs[i1] * math.exp(0.5 * ts[i1])
        later = ts >= ts[i1]
        assert np.all(devs[later] <= c_bound * np.exp(-0.5 * ts[later]) * (1 + 1e-9))
        # the actual decay exponent is -3/2, stronger than the bound
        slope = np.polyfit(ts[later], np.log(devs[later]), 1)[0]
        assert slope == pytest.approx(-1.5, abs=0.05)


class TestConformalResidual:
    def test_exact_for_zero_mass(self, submap):
        assert conformal_mean_curvature_residual(submap(-1, 0.0), 5.0) <= 1e-10

    def test_kottler_small(self, submap):
        sub_map = submap(-1, 0.5)
        for r in (10.0, 100.0):
            assert conformal_mean_curvature_residual(sub_map, r) <= 1e-6

    def test_perturbed_profile(self, submap):
        sub_map = submap(-1, 0.3, eps=0.11)
        assert conformal_mean_curvature_residual(sub_map, 50.0) <= 1e-5
