"""Horizon roots against 50- and 60-digit mpmath solves.

The tolerance of a root r of p(r) = r^3 + k r - 2m is its conditioning: a
float r can only make |p(r)| as small as the rounding of its terms,
beta = 16 u (r^3 + |k| r + 2|m|).  The largest |dr| with
p' dr + (p''/2) dr^2 = beta is 2 beta / (p' + sqrt(p'^2 + 2 p'' beta)):
beta/p' at a simple root, sqrt(2 beta/p'') at a double one.  Add u r for
representing r.  A perturbed horizon, a root of the quartic
Q(r) = r^4 + k r^2 - 2m r + eps, gets the same bound from Q's terms.
The surface gravity kappa = (3 r^2 + k) / (2 r) inherits the root's bound
through d kappa / dr = 3/2 - k / (2 r^2).
"""

import dataclasses
import math
import random
import re

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alhflow import (DomainError, NumericalError, RadialPotential, ReferencePotential,
                     critical_mass, geometry, horizon_radius, kottler_potential,
                     surface_gravity)
from alhflow.cli import run_scenario
from alhflow.geometry import MASS_SLACK, _largest_cubic_root

M_CRIT = -1.0 / (3.0 * math.sqrt(3.0))
U = 2.0 ** -53


def exact_root_mp(k_hat, m):
    """The largest real root of r^3 + k r - 2m to 50 digits."""
    with mpmath.workdps(50):
        roots = mpmath.polyroots([1, 0, k_hat, -2 * mpmath.mpf(m)],
                                 maxsteps=200, extraprec=100)
        return max(mpmath.re(z) for z in roots
                   if abs(mpmath.im(z)) <= mpmath.mpf(10) ** -30)


def exact_root(k_hat, m):
    return float(exact_root_mp(k_hat, m))


def cubic_root(k_hat, m):
    """The Kottler horizon solve for any mass, admissible or not."""
    return horizon_radius(RadialPotential(k_hat, float(m), 0.0))


def tolerance(k_hat, m, r):
    beta = 16.0 * U * (r ** 3 + abs(k_hat) * r + 2.0 * abs(m))
    d1, d2 = abs(3.0 * r * r + k_hat), 6.0 * r
    return U * r + 2.0 * beta / (d1 + math.sqrt(d1 * d1 + 2.0 * d2 * beta))


def assert_matches_mpmath(k_hat, m):
    exact = exact_root(k_hat, m)
    tol = tolerance(k_hat, m, exact)
    p = kottler_potential(k_hat, m)
    r = p.domain_start
    assert abs(r - exact) <= tol, (k_hat, m, r, exact, tol)
    assert horizon_radius(p) == r
    assert surface_gravity(p) > 0.0


def _positive_real(coefficients):
    with mpmath.workdps(60):
        roots = mpmath.polyroots(coefficients, maxsteps=400, extraprec=200)
        return [z.real for z in roots
                if abs(z.imag) <= mpmath.mpf(10) ** -40 * abs(z) and z.real > 0]


def exact_quartic(k_hat, m, eps):
    """Largest positive root of Q = r^4 + k r^2 - 2m r + eps, or None."""
    roots = _positive_real([1, 0, k_hat, -2 * mpmath.mpf(m), mpmath.mpf(eps)])
    return float(max(roots)) if roots else None


def quartic_tolerance(k_hat, m, eps, r):
    beta = 16.0 * U * (r ** 4 + abs(k_hat) * r * r + 2.0 * abs(m) * r + abs(eps))
    d1 = abs(4.0 * r ** 3 + 2.0 * k_hat * r - 2.0 * m)
    d2 = abs(12.0 * r * r + 2.0 * k_hat)
    return U * r + 2.0 * beta / (d1 + math.sqrt(d1 * d1 + 2.0 * d2 * beta))


def assert_horizon_matches_mpmath(k_hat, m, eps):
    exact = exact_quartic(k_hat, m, eps)
    r = kottler_potential(k_hat, m, eps).domain_start
    assert abs(r - exact) <= quartic_tolerance(k_hat, m, eps, exact), (r, exact)


@pytest.mark.parametrize("delta", np.logspace(-15, -1, 29))
def test_hyperbolic_near_critical(delta):
    # the two upper roots lie about 2 sqrt(2 delta / sqrt 3) apart
    assert_matches_mpmath(-1, M_CRIT + delta)


@pytest.mark.parametrize("k_hat", [-1, 0, 1])
def test_masses_up_to_ten(k_hat):
    for m in np.concatenate([np.logspace(-12, 1, 27), np.linspace(0.05, 10.0, 15)]):
        assert_matches_mpmath(k_hat, float(m))


def test_critical_mass_is_the_exact_double_root():
    # sqrt(1/3) in floats is the correctly rounded 1/sqrt(3)
    third = math.sqrt(1.0 / 3.0)
    with mpmath.workdps(30):
        assert abs(mpmath.mpf(third) - 1 / mpmath.sqrt(3)) <= 0.5 * math.ulp(third)
    assert _largest_cubic_root(-1.0, 2.0 * M_CRIT) == (third, True)
    # masses within the 1e-15 admissibility slack below it are the critical member
    for m in (M_CRIT, M_CRIT - 1e-16, M_CRIT - 1e-15):
        p = kottler_potential(-1, m)
        assert p.domain_start == third
        assert horizon_radius(p) == third
        assert surface_gravity(p) == 0.0


def test_no_root_below_critical():
    for delta in np.logspace(-14, 0, 15):
        assert cubic_root(-1, M_CRIT - delta) is None
    for k_hat in (0, 1):
        for m in (0.0, -1e-15, -0.5, -5.0):
            assert cubic_root(k_hat, m) is None


def _bits(p):
    return [(type(v), v.hex() if isinstance(v, float) else v) for v in dataclasses.astuple(p)]


@pytest.mark.parametrize("k_hat", [-1, 0, 1])
def test_kottler_potential_starts_at_the_horizon_root(k_hat):
    # every mass here is admissible, the first one within the slack
    crit = critical_mass(k_hat)
    for m in (crit - 1e-16, crit, crit + 1e-11, -0.0, 0.0, 1e-300, 0.5, 1e100):
        found = geometry._horizon_root(k_hat, m)
        start = 0.0 if found is None else found[0]
        expect = RadialPotential(k_hat, float(m), 0.0)
        assert _bits(kottler_potential(k_hat, m)) == _bits(expect), m
        assert expect.domain_start.hex() == start.hex(), m
        p = kottler_potential(k_hat, m, 0.05)
        assert p.domain_start == (horizon_radius(p) or 0.0), m
    with pytest.raises(DomainError, match="below the admissible minimum"):
        kottler_potential(k_hat, crit - 1e-14)


def test_kottler_potential_solves_the_cubic_once(monkeypatch):
    calls = []
    solve = geometry._largest_cubic_root
    monkeypatch.setattr(geometry, "_largest_cubic_root",
                        lambda a, b: calls.append((a, b)) or solve(a, b))
    for k_hat, m in ((-1, -0.1), (-1, M_CRIT), (0, 0.5), (1, 0.0)):
        calls.clear()
        kottler_potential(k_hat, m)
        assert len(calls) == 1


def test_surface_gravity_is_pinned():
    # +0.0 on the critical double root, within the slack below it too
    for m in (M_CRIT, M_CRIT - 0.5 * MASS_SLACK):
        kappa = surface_gravity(kottler_potential(-1, m))
        assert kappa == 0.0 and math.copysign(1.0, kappa) == 1.0
    for k_hat in (0, 1):  # no horizon
        assert surface_gravity(kottler_potential(k_hat, 0.0)) == 0.0
    with pytest.raises(DomainError, match="eps"):
        surface_gravity(kottler_potential(-1, 0.1, 0.05))


#: kappa's own rounding, in units of u (3 r^2 + |k|) / (2 r): 2.29 measured at
#: worst over 503 masses (k = 0, m = 1.58e-7), budgeted as 3
KAPPA_ROUNDING = 3.0


@pytest.mark.parametrize("k_hat", [-1, 0, 1])
def test_surface_gravity_against_mpmath(k_hat):
    # near m_crit, kappa ~ sqrt(m - m_crit) is small and the root's error,
    # times d kappa / dr, sets the budget
    if k_hat == -1:
        masses = M_CRIT + np.logspace(-15, 1, 49)
    else:
        masses = np.concatenate([np.logspace(-12, 1, 27), np.linspace(0.05, 10.0, 15)])
    for m in map(float, masses):
        kappa = surface_gravity(kottler_potential(k_hat, m))
        with mpmath.workdps(50):
            r = exact_root_mp(k_hat, m)
            error = float(abs(kappa - (3 * r * r + k_hat) / (2 * r)))
        r = float(r)
        slope = abs(1.5 - k_hat / (2.0 * r * r))
        scale = (3.0 * r * r + abs(k_hat)) / (2.0 * r)
        budget = slope * tolerance(k_hat, m, r) + KAPPA_ROUNDING * U * scale
        assert error <= budget, (k_hat, m, error, budget)


def test_surface_gravity_check_catches_a_wrong_formula(tmp_path, monkeypatch):
    def flipped(p):
        r = p.domain_start
        return (3.0 * r * r - p.k_hat) / (2.0 * r)

    monkeypatch.setattr(geometry, "surface_gravity", flipped)
    report = run_scenario({"kind": "kottler", "k_hat": -1, "m": 0.1, "genus": 2}, tmp_path)
    check, = (c for c in report["checks"] if c["name"] == "surface_gravity")
    assert check["value"] >= 1e6 * check["tolerance"]


@st.composite
def _admissible(draw):
    k_hat = draw(st.sampled_from((-1, 0, 1)))
    crit = critical_mass(k_hat)
    m = draw(st.one_of(
        st.floats(crit, 10.0),
        # near-critical, within the slack below the critical mass included
        st.floats(-15.0, -1.0).map(lambda e: crit + 10.0 ** e),
        st.floats(-MASS_SLACK, 0.0).map(lambda d: crit + d)))
    magnitude = st.floats(-12.0, 3.0).map(lambda e: 10.0 ** e)
    eps = draw(st.one_of(st.just(0.0), magnitude, magnitude.map(lambda e: -e)))
    return k_hat, m, eps


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_admissible())
def test_domain_start_is_derived(params):
    try:
        p = kottler_potential(*params)
    except NumericalError:  # phi touches zero or misses it: no potential
        return
    assert p.domain_start == (horizon_radius(p) or 0.0)
    r = p.domain_start
    if r > 0.0:  # at most the rounding noise of the root below zero
        assert p.phi(r) >= -1e-12 * max(1.0, r * r), params
    else:
        assert np.all(p.phi(np.geomspace(1e-3, 1e3, 61)) > 0.0), params
    with pytest.raises(ValueError, match="domain_start"):
        dataclasses.replace(p, domain_start=2.0 * r + 1.0)
    with pytest.raises(TypeError):
        RadialPotential(*params, r)
    # a replaced parameter derives its own domain again
    assert dataclasses.replace(p, eps=0.0).domain_start == (
        horizon_radius(RadialPotential(p.k_hat, p.m, 0.0)) or 0.0)


_reference = st.one_of(
    st.tuples(st.just(-1), st.floats(M_CRIT, 5.0)),
    # near the double root, where the two upper roots merge as V -> 0
    st.tuples(st.just(-1), st.builds(lambda d: M_CRIT + d, st.floats(0.0, 1e-6))),
    st.tuples(st.sampled_from([0, 1]), st.floats(1e-6, 5.0)))
_potential_values = st.lists(st.one_of(st.floats(0.0, 20.0), st.floats(0.0, 1e-6)),
                             min_size=1, max_size=16)


@settings(max_examples=200, deadline=None)
@given(_reference, _potential_values)
def test_array_path_equals_float_path_bitwise(reference, values):
    ref = ReferencePotential(*reference)
    radii = ref.r_of_V(np.array(values))
    assert [r.hex() for r in radii.tolist()] == [ref.r_of_V(v).hex() for v in values]


def test_array_path_keeps_shape():
    ref = ReferencePotential(0, 0.1)
    v = np.linspace(0.0, 3.0, 12).reshape(3, 4)
    r = ref.r_of_V(v)
    assert r.shape == (3, 4) and r.dtype == float
    np.testing.assert_allclose(r ** 3 - v * v * r, 0.2, rtol=0, atol=1e-14)


class TestNearTangentHorizon:
    # r^2 phi = r^4 + r^2 - 6r + 4 + tau = (r - 1)^2 (r^2 + 2r + 4) + tau
    # for phi = r^2 + 1 - 6/r + (4 + tau)/r^2: tangent to zero at r = 1

    def test_tangent_within_rounding_raises(self):
        with pytest.raises(NumericalError, match="horizon undecided"):
            kottler_potential(1, 3.0, 4.0 + 1e-13)

    def test_dip_between_scan_points_finds_the_outer_root(self):
        # roots at 1 -+ 3.8e-4, either side of the last minimum of Q at 1
        p = kottler_potential(1, 3.0, 4.0 - 1e-6)
        assert p.domain_start == pytest.approx(exact_quartic(1, 3.0, 4.0 - 1e-6), rel=1e-12)
        assert horizon_radius(p) == p.domain_start

    @pytest.mark.parametrize("k_hat,m,eps,root", [(1, 3.0, 4.0, 1.0),
                                                  (-1, 0.0, 0.25, math.sqrt(0.5))])
    def test_exact_tangent_is_a_double_root(self, k_hat, m, eps, root):
        # phi touches zero only within its rounding: located to sqrt(u)
        p = kottler_potential(k_hat, m, eps)
        assert p.domain_start == pytest.approx(root, rel=1e-7)
        assert horizon_radius(p) == p.domain_start

    def test_clear_of_zero_has_no_horizon(self):
        p = kottler_potential(1, 3.0, 4.0 + 1e-3)
        assert p.domain_start == 0.0
        assert horizon_radius(p) is None

    def test_resolved_dip_finds_the_outer_root(self):
        p = kottler_potential(1, 3.0, 4.0 - 0.05)
        assert p.domain_start == pytest.approx(exact_quartic(1, 3.0, 4.0 - 0.05), rel=1e-13)


@pytest.mark.parametrize("eps", [-1e12, -1e14, -1e16, -1e20])
def test_horizon_far_out_is_found(eps):
    # r^2 phi = r^4 - r^2 - r + eps has its root near |eps|^(1/4), far beyond
    # the last minimum of Q near r = 0.88
    p = kottler_potential(-1, 0.5, eps)
    assert p.domain_start == pytest.approx(exact_quartic(-1, 0.5, eps), rel=1e-14)
    assert horizon_radius(p) == p.domain_start


class TestPerturbedHorizon:
    def test_root_beyond_a_near_critical_minimum(self):
        # Q(c) = eps at c = 1/sqrt(3), the critical mass's double root: the
        # horizon lies 2.6e-4 beyond c, and Q has an inner root at 1.78e-7
        assert_horizon_matches_mpmath(-1, M_CRIT, -6.851876594763874e-08)

    def test_tiny_horizon_near_two_m(self):
        # eps is negligible: the horizon is the Kottler one, near 2m = 1.24e-10
        assert_horizon_matches_mpmath(1, 6.195763825488999e-11, -2.3992614044532914e-212)

    def test_positive_eps_without_a_critical_point(self):
        # Q = r^4 + eps > 0 has neither a critical point nor a root
        p = kottler_potential(0, 0.0, 3.19e-126)
        assert p.domain_start == 0.0 and horizon_radius(p) is None

    def test_tiny_horizon_takes_hundreds_of_steps(self):
        # Q = r^4 + r^2 + eps, r^2 = -2 eps / (1 + sqrt(1 - 4 eps)): Newton
        # steps from the bound 2 about halve r, 464 of them
        eps = -1e-274
        with mpmath.workdps(50):
            e = mpmath.mpf(eps)
            exact = float(mpmath.sqrt(-2 * e / (1 + mpmath.sqrt(1 - 4 * e))))
        r = kottler_potential(1, 0.0, eps).domain_start
        assert abs(r - exact) <= quartic_tolerance(1, 0.0, eps, exact)

    def test_k_hat_zero_band_scales_like_c_squared(self):
        # phi(c) = -8.8e-14 at c = 1.7e-7 is a clear dip on phi's scale c^2
        assert_horizon_matches_mpmath(0, 1e-20, 1e-30)

    def test_subnormal_terms_raise(self):
        # Q = r^4 + eps with eps the least subnormal: no digits left in Q(r)
        with pytest.raises(NumericalError, match="underflow"):
            kottler_potential(0, 0.0, -5e-324)

    def test_inadmissible_mass_raises(self):
        for k_hat in (-1, 0, 1):
            m = critical_mass(k_hat) - 1e-12
            with pytest.raises(DomainError, match=re.escape(f"mass {m} below the admissible minimum")):
                kottler_potential(k_hat, m, 0.1)
        # the 1e-15 admissibility slack holds here too
        kottler_potential(-1, M_CRIT - 1e-15, 0.1)

    def test_seeded_draws_match_mpmath(self):
        # every answer is the largest root, None exactly when there is none,
        # or NumericalError where phi at the last minimum c of Q lies within
        # 1e-12 max(|k|, c^2) of zero
        rng = random.Random(1310)
        for _ in range(240):
            k_hat = rng.choice((-1, 0, 1))
            m = critical_mass(k_hat)
            if rng.random() < 0.9:
                m += 10.0 ** rng.uniform(-15.0, 2.0)
            eps = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-12.0, 20.0)
            case = (k_hat, m, eps)
            exact = exact_quartic(*case)
            try:
                r = kottler_potential(*case).domain_start
            except NumericalError:
                c = max(_positive_real([1, 0, mpmath.mpf(k_hat) / 2, -mpmath.mpf(m) / 2]))
                with mpmath.workdps(60):
                    phi_c = float(c * c + k_hat - 2 * mpmath.mpf(m) / c
                                  + mpmath.mpf(eps) / (c * c))
                band = 1e-12 * max(abs(k_hat), float(c * c))
                assert abs(phi_c) <= band * (1.0 + 1e-3), case
                continue
            if r == 0.0:
                assert exact is None, case
            else:
                assert exact is not None, case
                assert abs(r - exact) <= quartic_tolerance(k_hat, m, eps, exact), case
