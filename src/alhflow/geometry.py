"""Pointwise geometry of warped-product metrics g = phi(r)^-1 dr^2 + r^2 ghat.

The cross section (Sigma_hat, ghat) is a closed constant-curvature surface
with curvature sign k_hat in {-1, 0, +1} and normalized area (4*pi for
k_hat in {0, +1}, 4*pi*(genus-1) for k_hat = -1).  The radial profile
phi = V^2 determines every curvature quantity of the 3-metric through
first and second derivatives of phi.

The Kottler family phi = r^2 + k_hat - 2m/r is the exact reference: its
scalar curvature is -6 and it solves the static vacuum system with
cosmological constant -3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import DomainError, NumericalError

__all__ = [
    "ConformalInfinity",
    "RadialPotential",
    "StaticResidual",
    "conformal_infinity",
    "kottler_potential",
    "critical_mass",
    "require_admissible",
    "horizon_radius",
    "surface_gravity",
    "scalar_curvature",
    "ricci_components",
    "mean_curvature_sphere",
    "hawking_mass_sphere",
    "potential_gradient_squared",
    "static_residual",
]

FOUR_PI = 4.0 * math.pi

_ULP = np.finfo(float).eps
_TINY = float(np.finfo(float).tiny)

#: Critical mass below which no k_hat = -1 horizon exists.
CRITICAL_MASS_HYPERBOLIC = -1.0 / (3.0 * math.sqrt(3.0))
#: Admissibility slack: masses up to this far below the critical mass are
#: admissible, and their horizons are solved at the critical mass.
MASS_SLACK = 1e-15


# ---------------------------------------------------------------------------
# domain types


@dataclass(frozen=True)
class ConformalInfinity:
    """Topology and normalization of the surface at infinity, fixed by the genus.

    The curvature sign is +1, 0 or -1 for genus 0, 1 or >= 2, and the
    normalization is c = max(1, genus - 1) with area 4*pi*c, so that
    Gauss-Bonnet, 1 - genus - c*curvature_sign = 0, holds.
    """

    genus: int

    def __post_init__(self):
        if self.genus < 0:
            raise DomainError(f"genus must be nonnegative, got {self.genus}")

    @property
    def curvature_sign(self) -> int:
        return 1 if self.genus == 0 else 0 if self.genus == 1 else -1

    def require_sign(self, k_hat) -> None:
        """DomainError unless Gauss-Bonnet gives this genus the sign k_hat."""
        if self.curvature_sign != k_hat:
            raise DomainError(f"genus {self.genus} has curvature sign "
                              f"{self.curvature_sign}, not k_hat = {k_hat}")

    @property
    def c(self) -> float:
        return float(max(1, self.genus - 1))

    @property
    def area(self) -> float:
        return FOUR_PI * self.c

    @property
    def gamma(self) -> float:
        """Topological constant c^(3/2) entering the mass bound."""
        return self.c ** 1.5


def conformal_infinity(genus: int) -> ConformalInfinity:
    """The normalized conformal infinity of the given genus."""
    return ConformalInfinity(genus)


@dataclass(frozen=True)
class RadialPotential:
    """The perturbed Kottler profile phi(r) = V(r)^2 = r^2 + k_hat - 2m/r + eps/r^2.

    Its scalar curvature is -6 + 2 eps/r^4; eps = 0 gives the Kottler
    family.  `tail` evaluates phi(r) - r^2 - k_hat and `gradient_tail`
    phi'(r)/2 - r in closed form, so that large-radius asymptotics are free
    of catastrophic cancellation.  The Geroch rate needs no derivative of
    tail: tail + r tail' = -eps/r^2 here.
    Every evaluator takes a float or an array of radii.  The domain is
    [domain_start, inf), where domain_start is derived, not given: the
    horizon, the largest zero of phi, or 0 without one, so phi > 0 beyond it.
    """

    k_hat: int
    m: float
    eps: float
    domain_start: float = field(init=False)

    def __post_init__(self):
        # through the module global, which the traced root layer counts
        object.__setattr__(self, "domain_start", horizon_radius(self) or 0.0)

    def _plus_eps(self, kottler, a: float, r, n: int):
        """The Kottler closed form plus a eps / r^n, r^n formed left to right.
        For eps = 0 the closed form itself, bit for bit: no 0/0 where r^n
        underflows, and the -0.0 tail of m = 0 keeps its sign."""
        if self.eps == 0.0:
            return kottler
        power = r * r
        for _ in range(n - 2):
            power = power * r
        return kottler + a * self.eps / power

    def phi(self, r):
        return self._plus_eps(r * r + self.k_hat - 2.0 * self.m / r, 1.0, r, 2)

    def dphi(self, r):
        return self._plus_eps(2.0 * r + 2.0 * self.m / (r * r), -2.0, r, 3)

    def d2phi(self, r):
        return self._plus_eps(2.0 - 4.0 * self.m / (r * r * r), 6.0, r, 4)

    def tail(self, r):
        return self._plus_eps(-2.0 * self.m / r, 1.0, r, 2)

    def gradient_tail(self, r):
        """phi'/2 - r = m/r^2 - eps/r^3 in closed form, as tail is:
        |grad V|^2 = (r + gradient_tail)^2."""
        return self._plus_eps(self.m / (r * r), -1.0, r, 3)

    def require_inside(self, r) -> None:
        """Accept radii r >= domain_start with r > 0.

        r is a float or an array; an array passes only if every entry does,
        and the error names its first offending entry.  The lower endpoint
        (the horizon, when present) belongs to the manifold; operations
        needing phi > 0 there check that separately.
        """
        _raise_where(r, np.logical_not((r > 0.0) & (r >= self.domain_start)),
                     "r = {r} outside domain [{start}, inf]", start=self.domain_start)


@dataclass(frozen=True)
class StaticResidual:
    """Residuals of the static vacuum system at a radius or an array of radii."""

    laplace_residual: float
    ricci_residual: float


# ---------------------------------------------------------------------------
# root finding


def _polish(r: float, a: float, b: float) -> float:
    """Two Newton steps, then NumericalError unless the residual is small."""
    for _ in range(2):
        r -= (r * r * r + a * r - b) / (3.0 * r * r + a)
    residual = r * r * r + a * r - b
    if abs(residual) > 1e-9 * (1.0 + max(abs(a), abs(b))) ** 3:
        raise NumericalError(f"cubic root residual {residual:.3e} too large")
    return r


def _largest_cubic_root(a: float, b: float) -> Optional[tuple[float, bool]]:
    """Largest positive root of p(r) = r^3 + a*r - b as (root, is_double), or None.

    With q = -a/3, h = b/2 and s = q^(3/2), p = r^3 - 3q r - 2h (Nickalls,
    Math. Gazette 77, 1993; Kahan, "To solve a real cubic equation", 1986).
    h > s: one positive root, by Cardano.  -s < h <= s: the largest of
    three is 2 sqrt(q) cos(theta/3), cos(theta) = h/s.  |h + s| within its
    rounding 4u s: the double root sqrt(q), as is.  Else no positive root.
    Simple roots get two Newton steps.
    """
    q, h = -a / 3.0, 0.5 * b
    sq = math.sqrt(max(q, 0.0))
    s = q * sq
    g = h + s
    if h > s:
        # Cardano's u + q/u with u^3 = h + sqrt(h^2 - q^3), written as
        # 2h / (u^2 - q + q^2/u^2), which does not cancel for h > 0
        u2 = (h + math.sqrt(max(h * h - q * q * q, 0.0))) ** (2.0 / 3.0)
        return _polish(2.0 * h / (u2 - q + q * q / u2), a, b), False
    if q > 0.0 and abs(g) <= 2.0 ** -51 * s:
        return sq, True
    if g > 0.0:
        # theta = 2 atan2(sqrt(s - h), sqrt(s + h)), the half-angle form of
        # cos(theta) = h/s: accurate as g = s + h -> 0
        seed = 2.0 * sq * math.cos(2.0 / 3.0 * math.atan2(math.sqrt(s - h), math.sqrt(g)))
        return _polish(seed, a, b), False
    return None


def _horizon_root(k_hat: int, m: float) -> Optional[tuple[float, bool]]:
    """(root, is_double) of r^3 + k_hat*r - 2m, or None.  Masses within
    MASS_SLACK below the critical mass are solved at it."""
    lo = critical_mass(k_hat)
    if lo - MASS_SLACK <= m < lo:
        m = lo
    return _largest_cubic_root(float(k_hat), 2.0 * m)


def critical_mass(k_hat: int) -> float:
    _check_k(k_hat)
    return CRITICAL_MASS_HYPERBOLIC if k_hat == -1 else 0.0


def _check_k(k_hat: int) -> None:
    if k_hat not in (-1, 0, 1):
        raise DomainError(f"curvature sign must be -1, 0 or +1, got {k_hat}")


# ---------------------------------------------------------------------------
# potential families


def kottler_potential(k_hat: int, m: float, eps: float = 0.0) -> RadialPotential:
    """phi = r^2 + k_hat - 2m/r + eps/r^2 (scalar curvature -6 + 2 eps/r^4),
    from its horizon outward; eps = 0 gives the Kottler family.

    DomainError for a mass more than MASS_SLACK below the critical one.
    """
    require_admissible(k_hat, m)
    return RadialPotential(k_hat, float(m), float(eps))


def require_admissible(k_hat: int, m: float) -> None:
    """DomainError for a mass more than MASS_SLACK below the critical one."""
    lo = critical_mass(k_hat)
    if m < lo - MASS_SLACK:
        raise DomainError(f"mass {m} below the admissible minimum {lo}")


def horizon_radius(p: RadialPotential) -> Optional[float]:
    """Largest zero of phi, or None: for eps = 0 the largest root of the
    Kottler cubic r^3 + k_hat r - 2m, solved at the critical mass for masses
    up to MASS_SLACK below it.

    A perturbed phi = r^2 + k_hat - 2m/r + eps/r^2 vanishes where
    Q = r^2 phi = r^4 + k r^2 - 2m r + eps does.  Q's last critical point c
    is the largest root of the cubic Q'/4 = r^3 + (k/2) r - m/2, or 0;
    beyond it, Q increases and is convex.  With b = 1e-12 max(|k|, c^2)
    (phi scales like r^2 where k = 0), phi(c) decides: above b, no horizon;
    within its rounding 8u (c^2 + |k| + |tail(c)|) of zero, the double root
    c; otherwise above -b, NumericalError, as phi may touch zero or miss it;
    below, the root beyond c, by Newton steps on Q from max(c, Fujiwara's
    bound 2 max(|k|^(1/2), |2m|^(1/3), |eps/2|^(1/4)) on every root) until
    a step no longer lowers r.  With c = 0, Q increases from eps, which
    decides.  A root where Q's terms are subnormal raises NumericalError.

    For an admissible mass, phi(c) > 0 leaves no zero below c.  Where
    k_hat >= 0, Q is convex.  Where k_hat = -1 and m >= m_crit, the Kottler
    cubic has a root r_K, so Q(c) <= Q(r_K) = eps and phi(c) > 0 needs
    eps > 0; below c, Q' has at most one more root, a maximum of Q, so on
    [0, c], Q is least at an end, eps or Q(c).
    """
    if p.eps == 0.0:
        found = _horizon_root(p.k_hat, p.m)
        return None if found is None else found[0]
    k, m, eps = float(p.k_hat), p.m, p.eps

    def quartic(r):
        return ((r * r + k) * r - 2.0 * m) * r + eps

    found = _largest_cubic_root(0.5 * k, 0.5 * m)
    c = 0.0 if found is None else found[0]
    if c > 0.0:
        # phi(c) = Q(c) / c^2, compared in Q's units: c^2 may underflow
        q_c, c2 = quartic(c), c * c
        tol = 1e-12 * max(abs(k), c2) * c2
        if q_c > tol:
            return None
        if abs(q_c) <= 8.0 * _ULP * (c2 * c2 + abs(k) * c2 + abs(eps - 2.0 * m * c)):
            return c
        if q_c >= -tol:
            raise NumericalError(f"phi comes to {q_c / c2:.3e} at its last minimum "
                                 f"r = {c}: horizon undecided")
    elif eps >= 0.0:
        return None
    r = max(c, 2.0 * math.sqrt(abs(k)), 2.0 * abs(2.0 * m) ** (1.0 / 3.0),
            (8.0 * abs(eps)) ** 0.25)
    # where Q ~ r^2 + eps (k_hat = +1, r < 1) each step about halves r:
    # 520 steps reach the root 1.5e-154 of eps = -2.2e-308
    for _ in range(1000):
        lower = r - quartic(r) / ((4.0 * r * r + 2.0 * k) * r - 2.0 * m)
        if not lower < r:
            if r * r * (r * r + abs(k)) + abs(2.0 * m * r) + abs(eps) < _TINY:
                raise NumericalError(f"Q's terms underflow at r = {r}: horizon unresolved")
            return r
        r = lower
    raise NumericalError(f"horizon Newton steps did not settle at r = {r}")


def surface_gravity(p: RadialPotential) -> float:
    """Surface gravity (3 r_h^2 + k_hat) / (2 r_h) = phi'(r_h)/2 of a Kottler
    horizon r_h.  Exactly 0 where the horizon is the critical double root
    (masses up to MASS_SLACK below the critical one included), and 0 without
    a horizon.  DomainError for eps != 0, which has no such closed form.
    """
    if p.eps != 0.0:
        raise DomainError(f"surface_gravity needs Kottler data (eps = 0), got eps = {p.eps}")
    found = _horizon_root(p.k_hat, p.m)
    if found is None or found[1]:
        return 0.0
    r = found[0]
    return (3.0 * r * r + p.k_hat) / (2.0 * r)


# ---------------------------------------------------------------------------
# pointwise quantities
#
# Each function has one numpy body for a float radius and for an array of
# radii.  An array call returns, entry by entry, the values of the calls at
# its radii, and raises the DomainError that a call at its first offending
# radius raises.  A float radius gives a float or an np.float64.


def _raise_where(r, bad, message: str, **fields) -> None:
    """DomainError naming, as a float, the first radius where the mask
    holds (0-d for a float r); the message is formatted only then."""
    if np.any(bad):
        at = np.broadcast_to(r, np.shape(bad))[bad][0]
        raise DomainError(message.format(r=float(at), **fields))


def scalar_curvature(p: RadialPotential, r):
    """Scalar curvature R = -2 phi'/r + 2 (k_hat - phi)/r^2."""
    p.require_inside(r)
    return -2.0 * p.dphi(r) / r + 2.0 * (p.k_hat - p.phi(r)) / (r * r)


def ricci_components(p: RadialPotential, r):
    """Unit-frame Ricci eigenvalues (radial, tangential).

    radial = -phi'/r, tangential = -(phi'/(2r) + (phi - k_hat)/r^2);
    the radial one equals -2 - 2m/r^3 exactly on Kottler potentials.
    """
    p.require_inside(r)
    dphi = p.dphi(r)
    radial = -dphi / r
    tangential = -(dphi / (2.0 * r) + (p.phi(r) - p.k_hat) / (r * r))
    return radial, tangential


def mean_curvature_sphere(p: RadialPotential, r):
    """Outward mean curvature H = 2 sqrt(phi)/r of the sphere {r} x Sigma_hat."""
    p.require_inside(r)
    phi = p.phi(r)
    # the domain starts at the horizon: a negative phi is rounding noise at the root
    return 2.0 * np.sqrt(np.where(phi < 0.0, 0.0, phi)) / r


def potential_gradient_squared(p: RadialPotential, r):
    """|grad V|^2 = (phi')^2 / 4 for V = sqrt(phi)."""
    p.require_inside(r)
    d = p.dphi(r)
    return 0.25 * d * d


def hawking_mass_sphere(inf: ConformalInfinity, p: RadialPotential, r):
    """Hawking mass of the coordinate sphere {r} x Sigma_hat.

    On these spheres the area is 4*pi*c*r^2 and H^2 = 4 phi/r^2, so the
    surface integral collapses to

        m_H = (sqrt(c)*r/2) * (1 - genus - c*(phi - r^2)).

    Since 1 - genus - c*k_hat = 0 for every normalized infinity, this is
    evaluated through the potential tail as -(c^(3/2) r / 2) * tail(r),
    which stays exact at large radii.
    """
    inf.require_sign(p.k_hat)
    p.require_inside(r)
    return -inf.gamma * 0.5 * r * p.tail(r)


def static_residual(p: RadialPotential, r) -> StaticResidual:
    """Residuals of the static vacuum equations at radius r.

    For a radial potential V = sqrt(phi) the system reduces to two
    independent scalar equations; Kottler profiles solve both exactly:

        Laplace:     sqrt(phi) * (phi'/r + phi''/2 - 3) = 0
        Ricci (rad): 3 - phi'/r - phi''/2               = 0
        Ricci (tan): 3 - phi'/r + (k_hat - phi)/r^2     = 0

    For an array of radii both fields are arrays.
    """
    p.require_inside(r)
    phi = p.phi(r)
    _raise_where(r, phi <= 0.0, "phi({r}) <= 0: V is not smooth here")
    dphi, d2phi = p.dphi(r), p.d2phi(r)
    slope = dphi / r
    lap = np.sqrt(phi) * (slope + 0.5 * d2phi - 3.0)
    ric_rad = abs(3.0 - slope - 0.5 * d2phi)
    ric_tan = abs(3.0 - slope + (p.k_hat - phi) / (r * r))
    return StaticResidual(laplace_residual=abs(lap),
                          ricci_residual=np.maximum(ric_rad, ric_tan))
