"""Inverse mean curvature flow of coordinate spheres and mass-bound checks.

Coordinate spheres move outward with normal speed 1/H.  In the warped
product this is the coordinate speed dr/dt = sqrt(phi)/H = r/2, regular
through the horizon, so a flow may start on the minimal boundary itself and
follows r(t) = r0 e^(t/2) on every profile.  A trajectory stores its samples
as columns.  The Hawking mass along the flow is monotone whenever the
scalar curvature stays >= -6; on the perturbed Kottler family R + 6 is
exactly 2 eps/r^4, so the rate of that rise has a closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import geometry
from ._text import csv_text
from .errors import DomainError, FlowError, HypothesesNotMet
from .geometry import ConformalInfinity, RadialPotential

__all__ = [
    "FlowState",
    "FlowTrajectory",
    "imcf_integrate",
    "geroch_rate",
    "penrose_rhs",
    "hawking_lower_bound",
    "jump_bound_check",
    "hawking_mass_from_integrals",
    "write_trajectory_csv",
    "TRAJECTORY_COLUMNS",
]

SIXTEEN_PI = 16.0 * math.pi

TRAJECTORY_COLUMNS = ("t", "r", "area", "H", "hawking_mass", "geroch_rate",
                      "scalar_curvature")


class FlowState(NamedTuple):
    """One sampled flow surface: a row of the trajectory's columns."""

    t: float
    r: float
    area: float
    mean_curvature: float
    hawking_mass: float
    geroch_rate: float
    scalar_curvature: float


_COLUMNS = FlowState._fields


@dataclass(frozen=True, eq=False)
class FlowTrajectory:
    """The sampled flow, as read-only finite columns named as FlowState's fields."""

    t: np.ndarray
    r: np.ndarray
    area: np.ndarray
    mean_curvature: np.ndarray
    hawking_mass: np.ndarray
    geroch_rate: np.ndarray
    scalar_curvature: np.ndarray
    max_violation: float

    def __post_init__(self):
        for name in _COLUMNS:
            values = getattr(self, name)
            values.setflags(write=False)
            bad = np.flatnonzero(~np.isfinite(values))
            if bad.size:  # overflow, as of the area and Hawking mass at a large genus
                raise FlowError(f"{name} is not finite at r = {float(self.r[bad[0]])!r}")

    @cached_property
    def states(self) -> tuple[FlowState, ...]:
        """Row view of the columns, built on first access."""
        rows = zip(*(getattr(self, name).tolist() for name in _COLUMNS))
        return tuple(map(FlowState._make, rows))


def imcf_integrate(inf: ConformalInfinity, p: RadialPotential, r0: float,
                   t_max: float, steps: int = 4096) -> FlowTrajectory:
    """Sample the flow from radius r0 at steps + 1 equally spaced times up to t_max.

    The coordinate speed is r/2 on every warped product, so the flow is
    r(t) = r0 e^(t/2) exactly; `steps` sets only the sampling density.
    r0 must lie in the potential's domain (require_inside): from the horizon
    onward, where phi > 0 beyond r0.  A column that overflows raises FlowError.
    """
    inf.require_sign(p.k_hat)
    if steps < 1:
        raise DomainError("need at least one step")
    if t_max <= 0.0:
        raise DomainError("t_max must be positive")
    p.require_inside(r0)

    dt = t_max / steps
    if r0 + 0.5 * r0 * dt == r0:
        raise FlowError("step size underflow")
    t = np.arange(steps + 1) * dt
    radii = r0 * np.exp(0.5 * t)

    with np.errstate(over="ignore", invalid="ignore"):  # FlowTrajectory raises on overflow
        masses = geometry.hawking_mass_sphere(inf, p, radii)
        # largest drawdown below the running maximum: total decrease, not the
        # per-step dip, so genuine violations are not diluted by small steps
        drawdown = np.maximum.accumulate(masses) - masses
        return FlowTrajectory(
            t=t,
            r=radii,
            area=inf.area * radii * radii,
            mean_curvature=geometry.mean_curvature_sphere(p, radii),
            hawking_mass=masses,
            geroch_rate=geroch_rate(inf, p, radii),
            scalar_curvature=geometry.scalar_curvature(p, radii),
            max_violation=float(drawdown.max()))


def geroch_rate(inf: ConformalInfinity, p: RadialPotential, r):
    """Time derivative of the Hawking mass on umbilic constant-H spheres.

    The monotonicity integrand reduces to (16 pi)^(-3/2) |Sigma|^(3/2) (R+6)
    once the trace-free and gradient terms vanish and the Euler
    characteristic matches the infinity.  On the (k_hat, m, eps) family
    R + 6 = 2 eps/r^4 exactly (the mass terms of tail + r tail' cancel in
    closed form), so the rate is c^(3/2) eps/(4r), free of cancellation,
    and +0.0 on Kottler data, where adding 0.0 turns eps = -0.0 into +0.0.
    r is a float or an array.
    """
    inf.require_sign(p.k_hat)
    p.require_inside(r)
    return 0.25 * inf.gamma * p.eps / r + 0.0


def penrose_rhs(genus: int, area: float) -> float:
    """Right-hand side of the mass bound for a boundary of the given area.

    (1/gamma) sqrt(A/16pi) (1 - genus + A/4pi), gamma = max(1, genus-1)^(3/2).
    """
    gamma = geometry.conformal_infinity(genus).gamma  # DomainError for genus < 0
    if area < 0.0:
        raise DomainError("area must be nonnegative")
    return math.sqrt(area / SIXTEEN_PI) * (1.0 - genus + area / (4.0 * math.pi)) / gamma


def hawking_lower_bound(genus: int) -> tuple[float, float]:
    """Minimum of A -> sqrt(A/16pi)(1 - genus + A/4pi) over A >= 0.

    Returns (bound, minimizer_area) = (-((genus-1)/3)^(3/2), 4pi(genus-1)/3).
    """
    if genus < 1:
        raise DomainError("bound formula requires genus >= 1")
    g1 = genus - 1
    return -((g1 / 3.0) ** 1.5), 4.0 * math.pi * g1 / 3.0


def hawking_mass_from_integrals(genus: int, area: float, h2_integral: float) -> float:
    """Hawking mass assembled from the area and the integral of H^2."""
    if area <= 0.0:
        raise DomainError("area must be positive")
    return math.sqrt(area / SIXTEEN_PI) * (
        1.0 - genus - (h2_integral - 4.0 * area) / SIXTEEN_PI)


def jump_bound_check(area_before: float, area_after: float,
                     h2_integral_before: float, h2_integral_after: float,
                     genus: int) -> bool:
    """Verify that a jump to an outward-minimizing surface cannot drop the mass.

    Hypotheses (violations raise HypothesesNotMet, never return False):
      * the area does not decrease and the H^2 integral does not increase;
      * genus <= 1: the pre-jump Hawking mass is nonnegative;
      * genus >= 2: the pre-jump mass is >= -((genus-1)/3)^(3/2) and the
        pre-jump area is >= (4pi/3)(genus-1), the floor satisfied by any
        stable minimal surface of that genus when R >= -6.

    Under these the mass inequality is a theorem, so the check doubles as a
    property test of the jump algebra.
    """
    ConformalInfinity(genus)  # DomainError for genus < 0
    failures = []
    if area_after < area_before:
        failures.append("area decreases across the jump")
    if h2_integral_after > h2_integral_before:
        failures.append("H^2 integral increases across the jump")
    m_before = hawking_mass_from_integrals(genus, area_before, h2_integral_before)
    if genus <= 1:
        if m_before < 0.0:
            failures.append("pre-jump Hawking mass is negative")
    else:
        floor, floor_area = hawking_lower_bound(genus)
        if m_before < floor:
            failures.append(f"pre-jump Hawking mass below {floor}")
        if area_before < floor_area:
            failures.append("pre-jump area below the minimal-surface floor")
    if failures:
        raise HypothesesNotMet("hypotheses not met: " + "; ".join(failures))
    m_after = hawking_mass_from_integrals(genus, area_after, h2_integral_after)
    return m_after >= m_before - 1e-12 * max(1.0, abs(m_before))


def write_trajectory_csv(traj: FlowTrajectory, path) -> None:
    """Write the trajectory's columns as a table with 17 significant digits."""
    columns = (traj.t, traj.r, traj.area, traj.mean_curvature, traj.hawking_mass,
               traj.geroch_rate, traj.scalar_curvature)
    with open(path, "wb") as f:
        f.writelines(csv_text(TRAJECTORY_COLUMNS, columns))
