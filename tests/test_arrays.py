"""Array calls of the pointwise functions against their scalar calls.

An array call must return, entry by entry, the very bits of the scalar
calls, and must raise the DomainError a scalar call raises at the offending
radius.
"""

import re

import numpy as np
import pytest

from alhflow import (DomainError, build_substitution,
                     conformal_infinity, geroch_rate,
                     hawking_mass_sphere, horizon_radius, imcf_integrate,
                     kottler_potential, mean_curvature_sphere, potential_gradient_squared,
                     ricci_components, scalar_curvature, static_residual,
                     write_trajectory_csv)
from alhflow.flow import TRAJECTORY_COLUMNS


#: phi(r_h) rounds to -2.8e-17 at this horizon: the clamp's rounding noise
_NEGATIVE_AT_HORIZON = (-1, -0.1, 0.05)

FAMILIES = {
    "kottler": (2, lambda: kottler_potential(-1, 0.3)),
    "perturbed": (1, lambda: kottler_potential(0, 0.4, 0.09)),
    "negative-at-horizon": (2, lambda: kottler_potential(*_NEGATIVE_AT_HORIZON)),
}


def _radii(p):
    r_h = horizon_radius(p)
    return np.array([r_h, r_h * (1 + 1e-9), 1.3 * r_h, 2.0, 7.5, 41.0])


def _pointwise(inf):
    return {
        "scalar_curvature": scalar_curvature,
        "mean_curvature_sphere": mean_curvature_sphere,
        "potential_gradient_squared": potential_gradient_squared,
        "hawking_mass_sphere": lambda p, r: hawking_mass_sphere(inf, p, r),
        "geroch_rate": lambda p, r: geroch_rate(inf, p, r),
        "ricci_radial": lambda p, r: ricci_components(p, r)[0],
        "ricci_tangential": lambda p, r: ricci_components(p, r)[1],
    }


def _bits(values):
    return np.asarray(values, dtype=float).tobytes()


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_array_equals_scalar_bitwise(family):
    genus, make = FAMILIES[family]
    p, inf = make(), conformal_infinity(genus)
    radii = _radii(p)
    for name, fn in _pointwise(inf).items():
        expect = [fn(p, float(r)) for r in radii]
        assert _bits(fn(p, radii)) == _bits(expect), name
        # a 0-d array and a Python int give the float call's values
        assert _bits([fn(p, np.array(r)) for r in radii]) == _bits(expect), name
        assert _bits(fn(p, 2)) == _bits(fn(p, 2.0)), name
    smooth = radii[p.phi(radii) > 0.0]
    res = static_residual(p, smooth)
    for inputs in ([float(r) for r in smooth], [np.array(r) for r in smooth]):
        scalar = [static_residual(p, r) for r in inputs]
        assert _bits(res.laplace_residual) == _bits([s.laplace_residual for s in scalar])
        assert _bits(res.ricci_residual) == _bits([s.ricci_residual for s in scalar])
    assert static_residual(p, 2) == static_residual(p, 2.0)


def test_mean_curvature_clamped_at_horizon():
    p = kottler_potential(*_NEGATIVE_AT_HORIZON)
    r = p.domain_start
    assert -1e-12 * max(1.0, r * r) < p.phi(r) < 0.0
    assert mean_curvature_sphere(p, r) == 0.0
    assert mean_curvature_sphere(p, np.array([r, 2.0]))[0] == 0.0


def _bad_radii(p):
    """(radius, functions that must reject it) pairs for this potential."""
    allpoint = ("scalar_curvature", "mean_curvature_sphere",
                "potential_gradient_squared", "hawking_mass_sphere",
                "geroch_rate", "ricci_radial", "ricci_tangential",
                "static_residual")
    bad = [(-1.0, allpoint), (0.0, allpoint), (0.5 * p.domain_start, allpoint)]
    r_h = horizon_radius(p)
    if p.phi(r_h) <= 0.0:  # V is not smooth on the horizon itself
        bad.append((r_h, ("static_residual",)))
    return bad


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_array_raises_scalar_error(family):
    genus, make = FAMILIES[family]
    p, inf = make(), conformal_infinity(genus)
    functions = dict(_pointwise(inf), static_residual=static_residual)
    good = np.array([2.0, 7.5, 41.0])
    for r_bad, names in _bad_radii(p):
        # an array holding r_bad, r_bad as a 0-d array and, where whole, as an int
        inputs = [np.insert(good, 1, r_bad), np.array(r_bad)]
        if r_bad.is_integer():
            inputs.append(int(r_bad))
        for name in names:
            fn = functions[name]
            with pytest.raises(DomainError) as scalar_err:
                fn(p, r_bad)
            for r in inputs:
                with pytest.raises(DomainError) as err:
                    fn(p, r)
                assert str(err.value) == str(scalar_err.value), (name, r)


def test_require_inside_array():
    p = kottler_potential(-1, 0.3)
    p.require_inside(np.array([p.domain_start, 3.0, 1e6]))
    for bad in (np.nan, 0.0, 0.5 * p.domain_start):
        with pytest.raises(DomainError) as scalar_err:
            p.require_inside(bad)
        with pytest.raises(DomainError) as array_err:
            p.require_inside(np.array([3.0, bad, 0.1]))
        assert str(array_err.value) == str(scalar_err.value)


def test_trajectory_csv_matches_scalar_rendering(tmp_path):
    inf = conformal_infinity(2)
    p = kottler_potential(-1, -0.1, 0.15)
    traj = imcf_integrate(inf, p, 2.0, 3.0, steps=64)
    path = tmp_path / "traj.csv"
    write_trajectory_csv(traj, path)
    lines = [",".join(TRAJECTORY_COLUMNS)]
    for s in traj.states:
        row = (s.t, s.r, s.area, s.mean_curvature, s.hawking_mass, s.geroch_rate,
               scalar_curvature(p, s.r))
        lines.append(",".join(format(v, ".17g") for v in row))
    assert path.read_text() == "\n".join(lines) + "\n"


@pytest.mark.parametrize("k_hat, genus, m", [(1, 0, 0.7), (0, 1, 0.4), (-1, 3, 0.2)])
def test_long_trajectory_csv_matches_format(tmp_path, k_hat, genus, m):
    # a flow-long benchmark member's table: 4,097 rows, nine blocks of the writer
    eps, r0 = 0.1, 4.0
    p = kottler_potential(k_hat, m, eps)
    traj = imcf_integrate(conformal_infinity(genus), p, r0, 2.0 * np.log(4e3 / r0),
                          steps=4096)
    path = tmp_path / "traj.csv"
    write_trajectory_csv(traj, path)
    columns = (traj.t, traj.r, traj.area, traj.mean_curvature,
               traj.hawking_mass, traj.geroch_rate, traj.scalar_curvature)
    lines = path.read_text().split("\n")
    assert lines[0] == ",".join(TRAJECTORY_COLUMNS)
    assert len(lines) == 4099 and lines[-1] == ""
    for line, row in zip(lines[1:], zip(*columns)):
        assert line.split(",") == [format(float(v), ".17g") for v in row]


def test_flow_look_ahead_names_first_closed_radius():
    # phi(0.1) = 1.01 > 0 below the inner root; phi <= 0 again up to the
    # horizon, so the domain, which starts there, rejects the start itself
    p = kottler_potential(-1, -0.1)
    r0, t_max = 0.1, 2.0 * np.log(6.0)
    assert p.phi(r0) > 0.0
    with pytest.raises(DomainError, match=re.escape(
            f"r = {r0} outside domain [{p.domain_start}, inf]")):
        imcf_integrate(conformal_infinity(2), p, r0, t_max)


def test_substitution_probe_names_first_closed_radius():
    p = kottler_potential(-1, 0.3)
    r_start = 0.5 * p.domain_start
    with pytest.raises(DomainError, match=re.escape(
            f"r = {r_start} outside domain [{p.domain_start}, inf]")):
        build_substitution(p, r_start, 1e4 * r_start)
