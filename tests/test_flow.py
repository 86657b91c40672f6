import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alhflow import (DomainError, FlowError, HypothesesNotMet, conformal_infinity, flow,
                     geroch_rate, hawking_lower_bound, hawking_mass_from_integrals,
                     imcf_integrate, jump_bound_check, kottler_potential,
                     penrose_rhs, write_trajectory_csv)
from alhflow.cli import run_scenario
from alhflow.flow import TRAJECTORY_COLUMNS
from alhflow.geometry import critical_mass

FOUR_PI = 4.0 * math.pi


class TestIntegrate:
    def test_closed_form_radius(self):
        inf = conformal_infinity(2)
        p = kottler_potential(-1, 0.0)
        traj = imcf_integrate(inf, p, 1.0, 2.0)
        assert traj.states[-1].r == pytest.approx(math.e, rel=1e-8)

    def test_area_growth_law(self):
        inf = conformal_infinity(3)
        p = kottler_potential(-1, 0.4)
        traj = imcf_integrate(inf, p, 2.0, 3.0, steps=1024)
        t = traj.t
        area = traj.area
        assert np.max(np.abs(area / (area[0] * np.exp(t)) - 1.0)) <= 1e-8

    def test_equality_case_constant_mass(self):
        inf = conformal_infinity(2)
        p = kottler_potential(-1, -0.1)
        traj = imcf_integrate(inf, p, p.domain_start, 4.0, steps=512)
        mass = traj.hawking_mass
        assert np.max(np.abs(mass + 0.1)) <= 1e-8
        assert traj.max_violation <= 1e-8
        assert np.max(np.abs(traj.geroch_rate)) <= 1e-10

    def test_state_fields(self):
        inf = conformal_infinity(2)
        p = kottler_potential(-1, 0.0)
        traj = imcf_integrate(inf, p, 1.5, 1.0, steps=16)
        s = traj.states[5]
        assert s.area == pytest.approx(inf.area * s.r ** 2, rel=1e-14)
        assert s.mean_curvature == pytest.approx(
            2 * math.sqrt(p.phi(s.r)) / s.r, rel=1e-14)
        assert traj.states[0].t == 0.0
        assert np.all(np.diff(traj.t) > 0)
        assert np.all(np.diff(traj.r) > 0)

    def test_start_inside_horizon_rejected(self):
        inf = conformal_infinity(2)
        p = kottler_potential(-1, 0.5)
        with pytest.raises(DomainError, match="outside domain"):
            imcf_integrate(inf, p, 0.5 * p.domain_start, 1.0)

    def test_bad_parameters(self):
        inf = conformal_infinity(2)
        p = kottler_potential(-1, 0.0)
        with pytest.raises(DomainError):
            imcf_integrate(inf, p, 2.0, -1.0)
        with pytest.raises(DomainError):
            imcf_integrate(inf, p, 2.0, 1.0, steps=0)
        with pytest.raises(DomainError):
            imcf_integrate(conformal_infinity(0), p, 2.0, 1.0)


M_CRIT = -1.0 / (3.0 * math.sqrt(3.0))


@pytest.mark.parametrize("genus,p", [
    (2, kottler_potential(-1, M_CRIT)), (3, kottler_potential(-1, M_CRIT)),
    (5, kottler_potential(-1, M_CRIT)),
    (2, kottler_potential(-1, -0.1, 0.05)),
    (2, kottler_potential(-1, 0.5, 0.2))])
def test_flow_from_the_horizon(genus, p):
    # phi touches 0 at the critical double root and reads <= 0 from
    # rounding just beyond it: the domain alone admits the start
    inf = conformal_infinity(genus)
    r_h = p.domain_start
    traj = imcf_integrate(inf, p, r_h, 4.0, steps=512)
    expected = inf.gamma * penrose_rhs(genus, inf.area * r_h ** 2)
    # m_H - gamma rhs = gamma r phi / 2, which is 0 where phi(r_h) rounds to 0
    gap = 0.5 * inf.gamma * r_h * abs(p.phi(r_h))
    if gap == 0.0:
        assert traj.hawking_mass[0] == expected
    else:
        assert abs(traj.hawking_mass[0] - expected) <= gap + 4.0 * 2.0 ** -53 * abs(expected)
    assert traj.max_violation <= 1e-8
    # as in test_long_flow_rate: rate = gamma eps / (4r) to rounding
    closed = inf.gamma * p.eps / (4.0 * traj.r)
    assert np.all(np.abs(traj.geroch_rate - closed) <= 2.0 ** -52 * closed)


@pytest.mark.parametrize("genus,r0,message", [
    # 4 pi c r^2 overflows from r = 3.8e153 at genus 2 (the first radius
    # past it is named), and far sooner at a large genus
    (2, 3.7e153, "area is not finite at r = 3.9386294979960796e+153"),
    (10**150, 1e100, "area is not finite at r = 1e+100"),
])
def test_overflowing_column_raises(genus, r0, message):
    p = kottler_potential(-1, 0.0)
    with pytest.raises(FlowError, match=re.escape(message)):
        imcf_integrate(conformal_infinity(genus), p, r0, 2.0, steps=16)


class TestGerochRate:
    def test_kottler_rate_vanishes(self):
        # exactly +0.0, also for eps = -0.0: R + 6 = 0 on Kottler data
        inf = conformal_infinity(2)
        for eps in (0.0, -0.0):
            p = kottler_potential(-1, 0.3, eps)
            for r in (1.5, 3.0, 10.0, np.geomspace(1.5, 1e8, 17)):
                rate = np.asarray(geroch_rate(inf, p, r))
                assert not np.any(rate.view(np.uint64))

    @pytest.mark.parametrize("genus", [2, 3])
    def test_perturbed_closed_form(self, genus):
        eps = 0.2
        inf = conformal_infinity(genus)
        p = kottler_potential(-1, -0.1, eps)
        for r in (2.0, 5.0):
            assert geroch_rate(inf, p, r) == pytest.approx(
                inf.c ** 1.5 * eps / (4 * r), rel=1e-10)

    def test_hyperbolic_rate_vanishes(self):
        inf = conformal_infinity(0)
        p = kottler_potential(1, 0.0)
        assert abs(geroch_rate(inf, p, 5.0)) <= 1e-12

    @pytest.mark.parametrize("genus,m,eps", [(2, 0.0, 0.15), (0, 0.0, 0.1),
                                             (2, -0.1, 0.15), (3, 0.3, 0.1)])
    def test_long_flow_rate(self, tmp_path, genus, m, eps):
        # R + 6 formed directly carries a rounding error growing like r^3,
        # which swamps the rate c^(3/2) eps/(4r) long before r = 5e3
        k_hat = conformal_infinity(genus).curvature_sign
        r0 = 5.0
        cfg = {"kind": "flow", "k_hat": k_hat, "genus": genus, "m": m,
               "eps": eps, "r0": r0, "t_max": 2.0 * math.log(5e3 / r0)}
        report = run_scenario(cfg, tmp_path)
        checks = {c["name"]: c for c in report["checks"]}
        assert checks["rate_matches_difference"]["passed"]
        data = np.loadtxt(tmp_path / "trajectory.csv", delimiter=",", skiprows=1)
        r, rate = data[:, 1], data[:, TRAJECTORY_COLUMNS.index("geroch_rate")]
        assert r[-1] == pytest.approx(5e3, rel=1e-12)
        gamma = conformal_infinity(genus).c ** 1.5
        closed = gamma * eps / (4.0 * r)
        # the closed form rounds twice, whatever m and r
        assert np.all(np.abs(rate - closed) <= 2.0 ** -52 * closed)

    def test_rate_equals_mass_derivative(self):
        # centered difference of m_H along the flow, O(dt^2)
        inf = conformal_infinity(2)
        p = kottler_potential(-1, -0.1, 0.15)
        errs = []
        for steps in (128, 256):
            traj = imcf_integrate(inf, p, 2.0, 1.0, steps=steps)
            t = traj.t
            mass = traj.hawking_mass
            rate = traj.geroch_rate
            dt = t[1] - t[0]
            fd = (mass[2:] - mass[:-2]) / (2 * dt)
            errs.append(np.max(np.abs(fd - rate[1:-1])))
        assert errs[0] <= 1e-6
        assert errs[1] <= errs[0] / 3.0  # second order in dt

    def test_rate_check_large_step(self, tmp_path):
        # a correct flow whose step is large enough that the second-order
        # difference's truncation, about rate dt^2/24, exceeds 1e-8 on its own
        r0 = 2.0
        cfg = {"kind": "flow", "k_hat": -1, "genus": 2, "m": -0.1, "eps": 0.15,
               "r0": r0, "t_max": 2.0 * math.log(5e3 / r0), "steps": 4096}
        report = run_scenario(cfg, tmp_path)
        checks = {c["name"]: c for c in report["checks"]}
        assert checks["rate_matches_difference"]["value"] <= 1e-12

    @pytest.mark.parametrize("factor", [-1.0, 2.0])  # flipped sign, gamma eps/(2r)
    def test_broken_rate_fails_the_difference_check(self, tmp_path, monkeypatch, factor):
        # the check differences the Hawking mass, which comes through the
        # tail, so it stays a witness that the closed-form rate cannot share
        cfg = {"kind": "flow", "k_hat": -1, "genus": 2, "m": -0.1, "eps": 0.15,
               "r0": 2.0, "t_max": 2.0, "steps": 256}
        report = run_scenario(cfg, tmp_path / "right")
        assert report["all_pass"]
        rate = flow.geroch_rate
        monkeypatch.setattr(flow, "geroch_rate", lambda *args: factor * rate(*args))
        report = run_scenario(cfg, tmp_path / "broken")
        check = {c["name"]: c for c in report["checks"]}["rate_matches_difference"]
        assert check["value"] >= 1e6 * check["tolerance"]


class TestMonotonicity:
    @settings(max_examples=20, deadline=None)
    @given(m=st.floats(-0.15, 0.5), eps=st.floats(0.0, 0.3),
           genus=st.integers(2, 3), r_shift=st.floats(0.1, 2.0))
    def test_nondecreasing_when_curvature_bounded(self, m, eps, genus, r_shift):
        # scalar curvature -6 + 2 eps / r^4 >= -6 for eps >= 0
        inf = conformal_infinity(genus)
        p = kottler_potential(-1, m, eps)
        r0 = (p.domain_start or 1.0) + r_shift
        traj = imcf_integrate(inf, p, r0, 1.5, steps=256)
        assert traj.max_violation <= 1e-8

    def test_counterexample_direction(self):
        # eps < 0 puts scalar curvature below -6 and the mass must drop
        inf = conformal_infinity(2)
        p = kottler_potential(-1, -0.1, -0.2)
        traj = imcf_integrate(inf, p, 2.0, 2.0, steps=512)
        assert traj.max_violation > 1e-4
        mass = traj.hawking_mass
        assert mass[-1] < mass[0]


class TestPenroseRhs:
    def test_values(self):
        assert penrose_rhs(2, FOUR_PI) == pytest.approx(0.0, abs=1e-14)
        assert penrose_rhs(0, 16 * math.pi) == pytest.approx(5.0, rel=1e-14)
        assert penrose_rhs(3, 8 * math.pi) == pytest.approx(0.0, abs=1e-14)

    @pytest.mark.parametrize("genus", [2, 3, 4])
    def test_equality_on_reference_family(self, genus):
        inf = conformal_infinity(genus)
        for m in np.linspace(-0.15, 0.8, 12):
            area = inf.area * kottler_potential(-1, m).domain_start ** 2
            assert penrose_rhs(genus, area) == pytest.approx(m, abs=1e-10)

    def test_invalid_inputs(self):
        with pytest.raises(DomainError):
            penrose_rhs(-1, 1.0)
        with pytest.raises(DomainError):
            penrose_rhs(2, -1.0)


class TestHawkingLowerBound:
    def test_genus_four(self):
        bound, area = hawking_lower_bound(4)
        assert bound == pytest.approx(-1.0, rel=1e-14)
        assert area == pytest.approx(FOUR_PI, rel=1e-14)

    def test_torus_limit(self):
        assert hawking_lower_bound(1) == (0.0, 0.0)

    def test_sphere_rejected(self):
        with pytest.raises(DomainError):
            hawking_lower_bound(0)

    def test_scan_and_sign_change(self):
        bound, minimizer = hawking_lower_bound(2)
        grid = np.linspace(0.0, 40 * math.pi, 10001)
        vals = np.sqrt(grid / (16 * math.pi)) * (1 - 2 + grid / FOUR_PI)
        assert vals.min() >= bound - 1e-9
        spacing = grid[1] - grid[0]
        assert abs(grid[np.argmin(vals)] - minimizer) <= spacing
        # derivative changes sign across the minimizer
        h = 1e-6
        f = lambda a: math.sqrt(a / (16 * math.pi)) * (-1 + a / FOUR_PI)
        before = (f(minimizer - 1e-3 + h) - f(minimizer - 1e-3 - h)) / (2 * h)
        after = (f(minimizer + 1e-3 + h) - f(minimizer + 1e-3 - h)) / (2 * h)
        assert before < 0 < after

    @pytest.mark.parametrize("genus", [2, 3, 4, 7, 32, 10**5, 10**100])
    def test_critical_horizon_sits_at_the_minimizer(self, genus):
        # the bound is sharp at m_crit: the Penrose right-hand side takes its
        # minimum, gamma m_crit, at the area of the critical Kottler horizon
        m_crit = critical_mass(-1)
        bound, minimizer = hawking_lower_bound(genus)
        inf = conformal_infinity(genus)
        area = inf.area * kottler_potential(-1, m_crit).domain_start ** 2
        assert abs(penrose_rhs(genus, minimizer) - m_crit) <= 2 * math.ulp(m_crit)
        assert abs(bound / inf.gamma - m_crit) <= 2 * math.ulp(m_crit)
        assert abs(area - minimizer) <= 2 * math.ulp(minimizer)


def _admissible_jump_tuple(rng, genus):
    floor_area = FOUR_PI * (genus - 1) / 3.0 if genus >= 2 else 0.5
    area_before = floor_area * (1.0 + 9.0 * rng.random())
    area_after = area_before * (1.0 + rng.random())
    if genus >= 2:
        mass_floor = -(((genus - 1) / 3.0) ** 1.5)
    else:
        mass_floor = 0.0
    # choose the H^2 integral so the pre-jump mass sits above the floor
    x_max = 16 * math.pi * (1 - genus) - mass_floor * math.sqrt(
        (16 * math.pi) ** 3 / area_before)
    x = x_max - 20.0 * rng.random()
    h2_before = max(0.0, x + 4 * area_before)
    h2_after = h2_before * rng.random()
    return area_before, area_after, h2_before, h2_after


class TestJumpBound:
    def test_equal_tuple_passes_with_equality(self):
        assert jump_bound_check(10.0, 10.0, 10.0, 10.0, 2)

    def test_worked_example(self):
        assert jump_bound_check(FOUR_PI, 5 * math.pi, 10.0, 9.0, 2)
        before = hawking_mass_from_integrals(2, FOUR_PI, 10.0)
        after = hawking_mass_from_integrals(2, 5 * math.pi, 9.0)
        assert after >= before

    def test_violated_hypotheses_reported(self):
        with pytest.raises(HypothesesNotMet, match="hypotheses not met"):
            jump_bound_check(5.0, 4.0, 12.0, 12.0, 2)  # area shrinks
        with pytest.raises(HypothesesNotMet):
            jump_bound_check(5.0, 5.0, 12.0, 13.0, 2)  # H^2 grows
        with pytest.raises(HypothesesNotMet):
            # area below the stable-minimal-surface floor
            jump_bound_check(0.01, 0.02, 0.04, 0.04, 2)
        with pytest.raises(HypothesesNotMet):
            # genus 0 with negative pre-jump mass
            jump_bound_check(1.0, 2.0, 200.0, 100.0, 0)

    def test_negative_genus_is_the_conformal_infinity_error(self):
        with pytest.raises(DomainError, match="genus must be nonnegative, got -1"):
            jump_bound_check(10.0, 10.0, 10.0, 10.0, -1)

    @pytest.mark.parametrize("genus", [0, 1, 2, 3, 4])
    def test_random_admissible_tuples(self, genus):
        rng = np.random.default_rng(20240600 + genus)
        for _ in range(500):
            tup = _admissible_jump_tuple(rng, genus)
            try:
                assert jump_bound_check(*tup, genus)
            except HypothesesNotMet:
                continue  # generator overshoot; skip, never fail


def test_trajectory_csv_contract(tmp_path):
    inf = conformal_infinity(2)
    p = kottler_potential(-1, -0.1)
    traj = imcf_integrate(inf, p, 2.0, 1.0, steps=8)
    path = tmp_path / "traj.csv"
    write_trajectory_csv(traj, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == ",".join(TRAJECTORY_COLUMNS)
    assert len(lines) == 10
    row = [float(v) for v in lines[1].split(",")]
    assert row[0] == 0.0 and row[1] == 2.0
    assert row[4] == pytest.approx(-0.1, abs=1e-14)  # hawking_mass column
    assert row[6] == pytest.approx(-6.0, abs=1e-12)  # scalar_curvature column
