"""Inverse mean curvature flow of coordinate spheres and mass-bound checks.

Coordinate spheres move outward with normal speed 1/H.  In the warped
product this is the coordinate speed dr/dt = sqrt(phi)/H = r/2, regular
through the horizon, so a flow may start on the minimal boundary itself and
follows r(t) = r0 e^(t/2) on every profile.  A trajectory stores its samples
as columns.  The Hawking mass along the flow is monotone whenever the
scalar curvature stays >= -6.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Optional, Sequence

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
    "bracket_check",
    "penrose_rhs",
    "hawking_lower_bound",
    "holder_bound",
    "jump_bound_check",
    "hawking_mass_from_integrals",
    "write_trajectory_csv",
    "TRAJECTORY_COLUMNS",
]

SIXTEEN_PI = 16.0 * math.pi

#: Violations below this relative size are attributed to discretization.
MONOTONE_TOL = 1e-8

#: Sub/supersolution bracketing is only asserted beyond this start radius.
BRACKET_MIN_RHO = 10.0

TRAJECTORY_COLUMNS = ("t", "r", "rho", "area", "H", "hawking_mass",
                      "geroch_rate", "scalar_curvature")


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
    """The sampled flow, stored as read-only columns named as FlowState's fields."""

    t: np.ndarray
    r: np.ndarray
    area: np.ndarray
    mean_curvature: np.ndarray
    hawking_mass: np.ndarray
    geroch_rate: np.ndarray
    scalar_curvature: np.ndarray
    start_radius: float
    monotone: bool
    max_violation: float

    def __post_init__(self):
        for name in _COLUMNS:
            getattr(self, name).setflags(write=False)

    def column(self, name: str) -> np.ndarray:
        if name not in _COLUMNS:
            raise KeyError(f"no trajectory column {name!r}; expected one of {_COLUMNS}")
        return getattr(self, name)

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
    Requires phi(r0) >= 0 and phi > 0 strictly beyond r0 up to the final
    radius.
    """
    if inf.curvature_sign != p.k_hat:
        raise DomainError("infinity and potential disagree on curvature sign")
    if steps < 1:
        raise DomainError("need at least one step")
    if t_max <= 0.0:
        raise DomainError("t_max must be positive")
    if r0 <= 0.0 or r0 > p.domain_end:
        raise DomainError(f"start radius {r0} outside the potential's domain")
    if p.phi(r0) < -1e-12 * max(1.0, r0 * r0):
        raise FlowError(f"start radius {r0} lies inside the horizon")
    r_final = r0 * math.exp(0.5 * t_max)
    if r_final > p.domain_end:
        raise DomainError("flow leaves the tabulated domain")
    ahead = np.geomspace(r0 * (1.0 + 1e-9), r_final, 257)
    closed = p.phi(ahead) <= 0.0
    if closed.any():
        raise FlowError(f"horizon encountered at r = {ahead[closed][0]} ahead of the flow")

    dt = t_max / steps
    if r0 + 0.5 * r0 * dt == r0:
        raise FlowError("step size underflow")
    t = np.arange(steps + 1) * dt
    radii = r0 * np.exp(0.5 * t)

    masses = geometry.hawking_mass_sphere(inf, p, radii)
    # largest drawdown below the running maximum: total decrease, not the
    # per-step dip, so genuine violations are not diluted by small steps
    drawdown = np.maximum.accumulate(masses) - masses
    max_violation = float(drawdown.max())
    tol = MONOTONE_TOL * max(1.0, float(np.max(np.abs(masses))))
    return FlowTrajectory(
        t=t,
        r=radii,
        area=inf.area * radii * radii,
        mean_curvature=geometry.mean_curvature_sphere(p, radii),
        hawking_mass=masses,
        geroch_rate=geroch_rate(inf, p, radii),
        scalar_curvature=geometry.scalar_curvature(p, radii),
        start_radius=float(r0),
        monotone=max_violation <= tol,
        max_violation=max_violation)


def geroch_rate(inf: ConformalInfinity, p: RadialPotential, r):
    """Time derivative of the Hawking mass on umbilic constant-H spheres.

    The monotonicity integrand reduces to (16 pi)^(-3/2) |Sigma|^(3/2) (R+6)
    once the trace-free and gradient terms vanish and the Euler
    characteristic matches the infinity.  With q = tail(r),
    R + 6 = -2 (q + r q')/r^2, so the rate is evaluated as
    -(c^(3/2)/4) r (q + r q'): forming R + 6 directly would cancel, with a
    rounding error growing like r^3.  r is a float or an array.
    """
    if inf.curvature_sign != p.k_hat:
        raise DomainError("infinity and potential disagree on curvature sign")
    p.require_inside(r)
    return -0.25 * inf.c ** 1.5 * r * (p.tail(r) + r * p.dtail(r))


def bracket_check(traj: FlowTrajectory, sub_map) -> bool:
    """Check the flow against the sub/supersolution barriers.

    In the compactification coordinate the flow started at rho_0 must stay
    inside [(rho_0 - 1) e^(t/2) + 1, (rho_0 + 1) e^(t/2) - 1] for t > 0.
    The barrier argument only applies for large starts; starts below
    rho_0 = 10 are rejected as not applicable.
    """
    rho = sub_map.rho(traj.r)
    rho0 = rho[0]
    if rho0 < BRACKET_MIN_RHO:
        raise DomainError(
            f"bracket check not applicable: start rho {rho0:.3f} < {BRACKET_MIN_RHO}")
    grow = np.exp(0.5 * traj.t[1:])
    lower = (rho0 - 1.0) * grow + 1.0
    upper = (rho0 + 1.0) * grow - 1.0
    return bool(np.all((lower - 1e-12 <= rho[1:]) & (rho[1:] <= upper + 1e-12)))


def penrose_rhs(genus: int, area: float) -> float:
    """Right-hand side of the mass bound for a boundary of the given area.

    (1/gamma) sqrt(A/16pi) (1 - genus + A/4pi), gamma = max(1, genus-1)^(3/2).
    """
    if genus < 0:
        raise DomainError("genus must be nonnegative")
    if area < 0.0:
        raise DomainError("area must be nonnegative")
    gamma = float(max(1, genus - 1)) ** 1.5
    return math.sqrt(area / SIXTEEN_PI) * (1.0 - genus + area / (4.0 * math.pi)) / gamma


def hawking_lower_bound(genus: int) -> tuple[float, float]:
    """Minimum of A -> sqrt(A/16pi)(1 - genus + A/4pi) over A >= 0.

    Returns (bound, minimizer_area) = (-((genus-1)/3)^(3/2), 4pi(genus-1)/3).
    """
    if genus < 1:
        raise DomainError("bound formula requires genus >= 1")
    g1 = genus - 1
    return -((g1 / 3.0) ** 1.5), 4.0 * math.pi * g1 / 3.0


def holder_bound(mu_samples: Sequence[float], inf: ConformalInfinity,
                 weights: Optional[Sequence[float]] = None) -> float:
    """Power-mean mass bound for a nonpositive mass aspect.

    Returns -(mean |mu|^(2/3))^(3/2) * (|Sigma_hat|/4pi)^(3/2) where the
    mean is weighted over the cross section.  Always <= sup(mu) * c^(3/2).
    """
    mu = np.asarray(mu_samples, dtype=float)
    if mu.size == 0:
        raise DomainError("need at least one sample")
    if np.any(mu > 0.0):
        raise DomainError("mass aspect samples must be nonpositive")
    if weights is None:
        w = np.full(mu.shape, 1.0)
    else:
        w = np.asarray(weights, dtype=float)
        if w.shape != mu.shape or np.any(w <= 0.0) or w.sum() <= 0.0:
            raise DomainError("weights must be positive and match the samples")
    mean = float(np.sum(w * np.abs(mu) ** (2.0 / 3.0)) / np.sum(w))
    return -(mean ** 1.5) * (inf.area / (4.0 * math.pi)) ** 1.5


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
    if genus < 0:
        raise DomainError("genus must be nonnegative")
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
        floor = -(((genus - 1) / 3.0) ** 1.5)
        if m_before < floor:
            failures.append(f"pre-jump Hawking mass below {floor}")
        if area_before < 4.0 * math.pi * (genus - 1) / 3.0:
            failures.append("pre-jump area below the minimal-surface floor")
    if failures:
        raise HypothesesNotMet("hypotheses not met: " + "; ".join(failures))
    m_after = hawking_mass_from_integrals(genus, area_after, h2_integral_after)
    return m_after >= m_before - 1e-12 * max(1.0, abs(m_before))


def write_trajectory_csv(traj: FlowTrajectory, p: RadialPotential, sub_map,
                         path) -> None:
    """Write the fixed-column trajectory table with 17 significant digits.

    The columns come from the trajectory itself, so `p` (the potential it
    was computed on) is not evaluated again.
    """
    columns = (traj.t, traj.r, sub_map.rho(traj.r), traj.area,
               traj.mean_curvature, traj.hawking_mass, traj.geroch_rate,
               traj.scalar_curvature)
    with open(path, "wb") as f:
        f.writelines(csv_text(TRAJECTORY_COLUMNS, columns))
