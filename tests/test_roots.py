"""Horizon roots against 50-digit mpmath solves.

The tolerance of a root r of p(r) = r^3 + k r - 2m is its conditioning: a
float r can only make |p(r)| as small as the rounding of its terms,
beta = 16 u (r^3 + |k| r + 2|m|).  The largest |dr| with
p' dr + (p''/2) dr^2 = beta is 2 beta / (p' + sqrt(p'^2 + 2 p'' beta)):
beta/p' at a simple root, sqrt(2 beta/p'') at a double one.  Add u r for
representing r.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alhflow import (NumericalError, ReferencePotential, geometry,
                     horizon_radius, kottler_build, kottler_potential,
                     largest_zero, perturbed_kottler_potential)
from alhflow.geometry import _largest_cubic_root

M_CRIT = -1.0 / (3.0 * math.sqrt(3.0))
U = 2.0 ** -53


def exact_root(k_hat, m):
    with mpmath.workdps(50):
        roots = mpmath.polyroots([1, 0, k_hat, -2 * mpmath.mpf(m)],
                                 maxsteps=200, extraprec=100)
        return float(max(mpmath.re(z) for z in roots
                         if abs(mpmath.im(z)) <= mpmath.mpf(10) ** -30))


def tolerance(k_hat, m, r):
    beta = 16.0 * U * (r ** 3 + abs(k_hat) * r + 2.0 * abs(m))
    d1, d2 = abs(3.0 * r * r + k_hat), 6.0 * r
    return U * r + 2.0 * beta / (d1 + math.sqrt(d1 * d1 + 2.0 * d2 * beta))


def assert_matches_mpmath(k_hat, m):
    exact = exact_root(k_hat, m)
    tol = tolerance(k_hat, m, exact)
    r = largest_zero(k_hat, m)
    assert abs(r - exact) <= tol, (k_hat, m, r, exact, tol)
    space = kottler_build(k_hat, m)
    assert space.horizon_radius == r
    assert space.surface_gravity > 0.0


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
    assert largest_zero(-1, M_CRIT) == third
    # masses within the 1e-15 admissibility slack below it are the critical member
    for m in (M_CRIT, M_CRIT - 1e-16, M_CRIT - 1e-15):
        assert largest_zero(-1, m) == third
        space = kottler_build(-1, m)
        assert space.horizon_radius == third
        assert space.surface_gravity == 0.0
        assert space.potential.domain_start == third
        assert horizon_radius(space.potential) == third
        assert kottler_potential(-1, m).domain_start == third


def test_no_root_below_critical():
    for delta in np.logspace(-14, 0, 15):
        assert largest_zero(-1, M_CRIT - delta) is None
    for k_hat in (0, 1):
        for m in (0.0, -1e-15, -0.5, -5.0):
            assert largest_zero(k_hat, m) is None


def test_kottler_build_solves_the_cubic_once(monkeypatch):
    calls = []
    solve = geometry._largest_cubic_root
    monkeypatch.setattr(geometry, "_largest_cubic_root",
                        lambda a, b: calls.append((a, b)) or solve(a, b))
    for k_hat, m in ((-1, -0.1), (-1, M_CRIT), (0, 0.5), (1, 0.0)):
        calls.clear()
        kottler_build(k_hat, m)
        assert len(calls) == 1


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
            perturbed_kottler_potential(1, 3.0, 4.0 + 1e-13)

    def test_dip_between_scan_points_finds_the_outer_root(self):
        # roots at 1 -+ 3.8e-4, closer than the scan's 1.1% spacing
        tau = -1e-6
        with mpmath.workdps(50):
            exact = max(float(mpmath.re(z)) for z in mpmath.polyroots(
                [1, 0, 1, -6, mpmath.mpf(4.0 + tau)]) if abs(mpmath.im(z)) < 1e-30)
        p = perturbed_kottler_potential(1, 3.0, 4.0 + tau)
        assert p.domain_start == pytest.approx(exact, rel=1e-12)
        assert horizon_radius(p) == p.domain_start

    @pytest.mark.parametrize("k_hat,m,eps,root", [(1, 3.0, 4.0, 1.0),
                                                  (-1, 0.0, 0.25, math.sqrt(0.5))])
    def test_exact_tangent_is_a_double_root(self, k_hat, m, eps, root):
        # phi touches zero only within its rounding: located to sqrt(u)
        p = perturbed_kottler_potential(k_hat, m, eps)
        assert p.domain_start == pytest.approx(root, rel=1e-7)
        assert horizon_radius(p) == p.domain_start

    def test_clear_of_zero_has_no_horizon(self):
        p = perturbed_kottler_potential(1, 3.0, 4.0 + 1e-3)
        assert p.domain_start == 0.0
        assert horizon_radius(p) is None

    def test_resolved_dip_finds_the_outer_root(self):
        p = perturbed_kottler_potential(1, 3.0, 4.0 - 0.05)
        with mpmath.workdps(50):
            exact = max(float(mpmath.re(z)) for z in mpmath.polyroots(
                [1, 0, 1, -6, mpmath.mpf(4.0 - 0.05)]) if abs(mpmath.im(z)) < 1e-30)
        assert p.domain_start == pytest.approx(exact, rel=1e-13)


@pytest.mark.parametrize("eps", [-1e12, -1e14, -1e16, -1e20])
def test_horizon_far_out_is_found(eps):
    # r^2 phi = r^4 - r^2 - r + eps has its root near |eps|^(1/4), more than
    # ten decades below the scan's top radius 10 (2 + |eps|) from eps = -1e14
    with mpmath.workdps(60):
        roots = mpmath.polyroots([1, 0, -1, -1, mpmath.mpf(eps)],
                                 maxsteps=400, extraprec=200)
        exact = float(max(mpmath.re(z) for z in roots
                          if abs(mpmath.im(z)) <= mpmath.mpf(10) ** -40 * abs(z)))
    p = perturbed_kottler_potential(-1, 0.5, eps)
    assert p.domain_start == pytest.approx(exact, rel=1e-14)
    assert horizon_radius(p) == p.domain_start
