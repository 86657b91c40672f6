"""Comparison of static data against the equal-surface-gravity reference.

For a static potential V with W = |grad V|^2, the reference Kottler space
with the same surface gravity supplies a single-variable profile omega with
W_0 = omega(V).  The machinery here evaluates omega and its derivatives in
closed form, certifies the master ODE they satisfy, computes the zero-order
comparison coefficient, and assembles the numbers that the inequalities
compare (W <= W_0, boundary curvature, mass aspect, horizon area radius,
and the defining cubic of the reference radius).  It decides none of
them: the static-compare scenario checks their margins.  Its hypotheses
are read off the parameters of phi = r^2 - 1 - 2m/r + eps/r^2: the data
are static exactly when eps = 0, and the reference mass is nonpositive
exactly when m <= 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import asymptotics, geometry
from .errors import DomainError, HypothesesNotMet, NumericalError
from .geometry import (RadialPotential, _largest_cubic_root, conformal_infinity,
                       kottler_potential)

__all__ = [
    "ReferencePotential",
    "ComparisonReport",
    "kappa_to_mass",
    "omega_derivatives",
    "alpha_coefficient",
    "omega_ode_residual",
    "boundary_gauss_curvature",
    "compare_with_reference",
]

#: W - W0 is sampled at GRID_POINTS radii from the horizon to R_FACTOR_MAX r_h.
GRID_POINTS, R_FACTOR_MAX = 256, 30.0


def kappa_to_mass(k_hat: int, kappa: float) -> float:
    """Mass of the Kottler space with the given surface gravity.

    kappa = (3 r^2 + k_hat) / (2 r) inverts monotonically for
    k_hat in {-1, 0}.  For k_hat = +1 it does not (minimum sqrt(3) at
    r = 1/sqrt(3)), so no single mass answers and DomainError is raised.
    """
    geometry._check_k(k_hat)
    if k_hat == 1:
        raise DomainError("surface gravity does not determine the mass "
                          "for curvature sign +1")
    if kappa <= 0.0:
        raise DomainError("surface gravity must be positive")
    if k_hat == 0:
        r = 2.0 * kappa / 3.0
    else:
        r = (kappa + math.sqrt(kappa * kappa + 3.0)) / 3.0
    return 0.5 * (r ** 3 + k_hat * r)


class ReferencePotential:
    """Reference profile omega(V) = (r + m0/r^2)^2 with r the largest root
    of r^2 + k_hat - 2 m0/r = V^2."""

    def __init__(self, k_hat: int, m0: float):
        p = kottler_potential(k_hat, m0)
        self.horizon_radius = p.domain_start
        if self.horizon_radius <= 0.0:
            raise DomainError("reference requires a positive horizon radius")
        self.k_hat = k_hat
        self.m0 = p.m
        self.kappa = geometry.surface_gravity(p)

    def _radius(self, v: float) -> float:
        if v < 0.0:
            raise DomainError("V must be nonnegative")
        found = _largest_cubic_root(self.k_hat - v * v, 2.0 * self.m0)
        if found is None:
            raise NumericalError(f"no radius with potential value {v}")
        return found[0]

    def r_of_V(self, v):
        """Radius where the potential equals v, for a float or an array."""
        if isinstance(v, np.ndarray):
            return np.frompyfunc(self._radius, 1, 1)(v).astype(float)
        return self._radius(v)

    def omega(self, v):
        """omega(V); equals kappa^2 at V = 0 and V^2 + 1 when m0 = 0, k_hat = -1."""
        r = self.r_of_V(v)
        return (r + self.m0 / (r * r)) ** 2


def omega_derivatives(ref: ReferencePotential, v: float) -> tuple[float, float]:
    """Closed forms omega' = 2V (1 - 2 m0/r^3) and
    omega'' = omega'/V + 12 V^2 m0 / (sqrt(omega) r^4)."""
    if v <= 0.0:
        raise DomainError("V must be positive")
    r = ref.r_of_V(v)
    omega = (r + ref.m0 / (r * r)) ** 2
    d1 = 2.0 * v * (1.0 - 2.0 * ref.m0 / r ** 3)
    d2 = d1 / v + 12.0 * v * v * ref.m0 / (math.sqrt(omega) * r ** 4)
    return d1, d2


def alpha_coefficient(ref: ReferencePotential, v: float) -> float:
    """Zero-order coefficient omega'/V - omega'' = -12 V^2 m0/(sqrt(W0) r^4).

    Its sign is opposite to the reference mass, which is what feeds the
    maximum principle.  Both the difference form and the closed form are
    evaluated and must agree.
    """
    if v <= 0.0:
        raise DomainError("V must be positive")
    d1, d2 = omega_derivatives(ref, v)
    difference_form = d1 / v - d2
    r = ref.r_of_V(v)
    w0 = (r + ref.m0 / (r * r)) ** 2
    closed_form = -12.0 * v * v * ref.m0 / (math.sqrt(w0) * r ** 4)
    scale = max(1.0, abs(closed_form))
    if abs(difference_form - closed_form) > 1e-9 * scale:
        raise NumericalError(
            f"alpha forms disagree: {difference_form} vs {closed_form}")
    return closed_form


def omega_ode_residual(ref: ReferencePotential, v: float) -> float:
    """Defect of the master equation for omega,

        omega'' omega + 3 omega' V
            = (3/4) |omega'|^2 - 3 V omega' + 9 V^2 + (omega/V) omega'.

    This is the identity that certifies the whole comparison chain at the
    level where it is literally an ODE.
    """
    if v <= 0.0:
        raise DomainError("V must be positive")
    omega = ref.omega(v)
    d1, d2 = omega_derivatives(ref, v)
    lhs = d2 * omega + 3.0 * d1 * v
    rhs = 0.75 * d1 * d1 - 3.0 * v * d1 + 9.0 * v * v + omega * d1 / v
    return abs(lhs - rhs)


def boundary_gauss_curvature(ref: ReferencePotential) -> float:
    """Gauss curvature of the reference horizon from the profile alone.

    The profile expands as omega(V) = kappa^2 - K V^2 + O(V^4) off the
    horizon, and its slope d omega / d(V^2) = 1 - 2 m0/r^3 (see
    omega_derivatives) gives K = -(1 - 2 m0/r_m^3) in closed form, which
    is k_hat / r_m^2 on the horizon cubic.
    """
    if ref.kappa <= 0.0:
        raise DomainError("critical reference: no horizon expansion")
    return -(1.0 - 2.0 * ref.m0 / ref.horizon_radius ** 3)


@dataclass(frozen=True)
class ComparisonReport:
    """The numbers compared with the equal-surface-gravity reference."""

    sup_w_minus_w0: float
    boundary_curvature: float
    reference_curvature: float
    mass_aspect: float
    reference_mass: float
    area_radius: float
    reference_area_radius: float
    cubic_residual: float


def compare_with_reference(p: RadialPotential, genus: int,
                           map_r_end: float = 1e6) -> ComparisonReport:
    """Build the full comparison report for a static radial data set.

    The data must have curvature sign -1 at infinity, genus >= 2 and a
    horizon (domain_start > 0), and be static, which on this family means
    eps = 0 (DomainError otherwise).  A mass m > 0, whose surface gravity
    exceeds 1 and whose reference mass is positive, is reported as
    HypothesesNotMet.  The mass aspect is extracted from a map reaching at
    least map_r_end.
    """
    if p.k_hat != -1:
        raise DomainError("comparison requires curvature sign -1 at infinity")
    inf = conformal_infinity(genus)
    inf.require_sign(p.k_hat)  # genus >= 2
    r_h = p.domain_start
    if r_h <= 0.0:
        raise DomainError("data has no horizon")

    # the Laplace residual is sqrt(phi) eps / r^4: static exactly when eps = 0
    if p.eps != 0.0:
        raise DomainError(f"input is not static: eps = {p.eps} != 0")
    # kappa = (3 r_h^2 - 1) / (2 r_h) exceeds 1, and the reference mass 0,
    # exactly where r_h > 1, that is where m > 0
    if p.m > 0.0:
        raise HypothesesNotMet(f"hypotheses not met: mass {p.m} > 0 "
                               "(surface gravity above 1, positive reference mass)")

    kappa = 0.5 * p.dphi(r_h)
    if kappa <= 0.0:
        raise DomainError("degenerate horizon: surface gravity is zero")

    m0 = kappa_to_mass(-1, kappa)
    ref = ReferencePotential(-1, m0)

    grid = np.geomspace(r_h * (1.0 + 1e-8), r_h * R_FACTOR_MAX, GRID_POINTS)
    sup = np.max(geometry.potential_gradient_squared(p, grid)
                 - ref.omega(np.sqrt(p.phi(grid))))

    boundary_curv = p.k_hat / (r_h * r_h)
    reference_curv = boundary_gauss_curvature(ref)

    # The extraction reads the map at r_end / 2^k, k < MU_SAMPLES.  The map
    # sums D from r_end down, so those values do not depend on the pieces
    # below r_end / 2^MU_SAMPLES, and the map starts there when it can.
    map_end = max(map_r_end, 2.0 * r_h * 1.001e3)
    map_start = max(2.0 * r_h, map_end / 2.0 ** asymptotics.MU_SAMPLES)
    sub_map = asymptotics.build_substitution(p, map_start, map_end)
    mu = asymptotics.mass_aspect_extract(sub_map).mu

    area = inf.area * r_h * r_h
    frak_r = math.sqrt(area / (4.0 * math.pi * (genus - 1)))
    r0 = ref.horizon_radius
    return ComparisonReport(
        sup_w_minus_w0=float(sup),
        boundary_curvature=boundary_curv,
        reference_curvature=reference_curv,
        mass_aspect=mu,
        reference_mass=m0,
        area_radius=frak_r,
        reference_area_radius=r0,
        cubic_residual=abs(2.0 * m0 + r0 - r0 ** 3),
    )

