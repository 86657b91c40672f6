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
from typing import Callable, Optional

import numpy as np
from scipy.interpolate import PchipInterpolator
from scipy.optimize import minimize_scalar

from .errors import DomainError, NumericalError

__all__ = [
    "ConformalInfinity",
    "RadialPotential",
    "KottlerSpace",
    "StaticResidual",
    "conformal_infinity",
    "kottler_potential",
    "perturbed_kottler_potential",
    "tabulated_potential",
    "largest_zero",
    "kottler_build",
    "critical_mass",
    "critical_data",
    "admissible_mass_interval",
    "horizon_radius",
    "scalar_curvature",
    "ricci_components",
    "mean_curvature_sphere",
    "hawking_mass_sphere",
    "potential_gradient_squared",
    "static_residual",
]

FOUR_PI = 4.0 * math.pi

_ULP = np.finfo(float).eps

#: Critical mass below which no k_hat = -1 horizon exists.
CRITICAL_MASS_HYPERBOLIC = -1.0 / (3.0 * math.sqrt(3.0))


# ---------------------------------------------------------------------------
# domain types


@dataclass(frozen=True)
class ConformalInfinity:
    """Topology and normalization of the surface at infinity."""

    genus: int
    curvature_sign: int
    area: float
    c: float
    euler_char: int

    def __post_init__(self):
        if self.genus < 0:
            raise DomainError(f"genus must be nonnegative, got {self.genus}")
        if self.curvature_sign not in (-1, 0, 1):
            raise DomainError(f"curvature sign must be -1, 0 or +1, got {self.curvature_sign}")
        k, g = self.curvature_sign, self.genus
        if k == 1 and g != 0:
            raise DomainError("curvature sign +1 requires genus 0")
        if k == 0 and g != 1:
            raise DomainError("curvature sign 0 requires genus 1")
        if k == -1 and g < 2:
            raise DomainError("curvature sign -1 requires genus >= 2")
        expected_c = float(max(1, g - 1))
        expected_area = FOUR_PI * expected_c if k == -1 else FOUR_PI
        if not math.isclose(self.c, expected_c, rel_tol=0, abs_tol=1e-12):
            raise DomainError(f"c must equal max(1, genus-1) = {expected_c}")
        if not math.isclose(self.area, expected_area, rel_tol=1e-12, abs_tol=0):
            raise DomainError(f"area must equal {expected_area} for this topology")
        if self.euler_char != 2 - 2 * g:
            raise DomainError("euler_char must equal 2 - 2*genus")
        # Normalization identity used by the Hawking mass closed form.
        assert 1 - g - self.c * k == 0

    @property
    def gamma(self) -> float:
        """Topological constant c^(3/2) entering the mass bound."""
        return self.c ** 1.5


def conformal_infinity(genus: int) -> ConformalInfinity:
    """Build the normalized conformal infinity of the given genus."""
    if genus < 0:
        raise DomainError(f"genus must be nonnegative, got {genus}")
    if genus == 0:
        k = 1
    elif genus == 1:
        k = 0
    else:
        k = -1
    c = float(max(1, genus - 1))
    area = FOUR_PI * c if k == -1 else FOUR_PI
    return ConformalInfinity(genus=genus, curvature_sign=k, area=area,
                             c=c, euler_char=2 - 2 * genus)


@dataclass(frozen=True)
class RadialPotential:
    """Radial profile phi(r) = V(r)^2 of a warped-product metric.

    `tail` evaluates phi(r) - r^2 - k_hat and `dtail` its derivative.
    Analytic families supply both in closed form so that large-radius
    asymptotics are free of catastrophic cancellation; tabulated profiles
    fall back to plain subtraction.  Every evaluator takes a float or an
    array of radii.  `knots` lists the radii where phi is only piecewise
    smooth (a table's samples), so that quadratures can break there.
    """

    k_hat: int
    kind: str
    domain_start: float
    phi: Callable
    dphi: Callable
    d2phi: Callable
    tail: Callable
    dtail: Callable
    domain_end: float = math.inf
    params: dict = field(default_factory=dict)
    knots: tuple = field(default=(), repr=False)

    def require_inside(self, r) -> None:
        """Accept radii in [domain_start, domain_end] with r > 0.

        r is a float or an array; an array passes only if every entry does,
        and the error names its first offending entry.  The lower endpoint
        (the horizon, when present) belongs to the manifold; operations
        needing phi > 0 there check that separately.
        """
        if isinstance(r, float) or not isinstance(r, np.ndarray):
            if r > 0.0 and self.domain_start <= r <= self.domain_end:
                return
        else:
            outside = ~((r > 0.0) & (r >= self.domain_start) & (r <= self.domain_end))
            if not outside.any():
                return
            r = r[outside][0]
        raise DomainError(
            f"r = {r} outside domain [{self.domain_start}, {self.domain_end}]")


@dataclass(frozen=True)
class KottlerSpace:
    """An exact Kottler solution together with its horizon data.

    `horizon_radius` is 0 and `surface_gravity` is stored as 0 for the
    horizonless boundary members (m = 0 with k_hat in {0, +1}).
    """

    k_hat: int
    mass: float
    horizon_radius: float
    surface_gravity: float
    potential: RadialPotential


@dataclass(frozen=True)
class StaticResidual:
    """Residuals of the static vacuum system at one radius."""

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
    """(root, is_double) of r^3 + k_hat*r - 2m, or None.  Masses within the
    1e-15 admissibility slack below the critical mass are solved at it."""
    lo = critical_mass(k_hat)
    if lo - 1e-15 <= m < lo:
        m = lo
    return _largest_cubic_root(float(k_hat), 2.0 * m)


def largest_zero(k_hat: int, m: float) -> Optional[float]:
    """Largest positive zero of V(r) = sqrt(r^2 + k_hat - 2m/r), or None.

    Zeros of V coincide with positive roots of r^3 + k_hat*r - 2m; masses
    up to 1e-15 below the critical one count as critical.
    """
    found = _horizon_root(k_hat, m)
    return None if found is None else found[0]


def critical_mass(k_hat: int) -> float:
    _check_k(k_hat)
    return CRITICAL_MASS_HYPERBOLIC if k_hat == -1 else 0.0


def critical_data(k_hat: int) -> tuple[float, str]:
    """Critical mass for the given curvature sign, with a description."""
    _check_k(k_hat)
    if k_hat == -1:
        return (CRITICAL_MASS_HYPERBOLIC,
                "double horizon root at 1/sqrt(3); the inner end is "
                "asymptotic to a cylinder over the cross section")
    if k_hat == 0:
        return (0.0,
                "horizon radius shrinks to zero; the metric becomes an "
                "exponentially expanding product")
    return (0.0, "no horizon; the completion is hyperbolic space")


def admissible_mass_interval(k_hat: int) -> tuple[float, float]:
    """Closed-below interval of masses accepted by kottler_build."""
    _check_k(k_hat)
    return (critical_mass(k_hat), math.inf)


def _check_k(k_hat: int) -> None:
    if k_hat not in (-1, 0, 1):
        raise DomainError(f"curvature sign must be -1, 0 or +1, got {k_hat}")


# ---------------------------------------------------------------------------
# potential families


def kottler_potential(k_hat: int, m: float) -> RadialPotential:
    """phi = r^2 + k_hat - 2m/r with exact derivative and tail evaluators."""
    return _kottler_potential(k_hat, m, largest_zero(k_hat, m) or 0.0)


def _kottler_potential(k_hat: int, m: float, start: float) -> RadialPotential:
    k = float(k_hat)
    return RadialPotential(
        k_hat=k_hat,
        kind="kottler",
        domain_start=start,
        phi=lambda r: r * r + k - 2.0 * m / r,
        dphi=lambda r: 2.0 * r + 2.0 * m / (r * r),
        d2phi=lambda r: 2.0 - 4.0 * m / (r * r * r),
        tail=lambda r: -2.0 * m / r,
        dtail=lambda r: 2.0 * m / (r * r),
        params={"m": float(m)},
    )


def perturbed_kottler_potential(k_hat: int, m: float, eps: float) -> RadialPotential:
    """phi = r^2 + k_hat - 2m/r + eps/r^2 (scalar curvature -6 + 2 eps/r^4)."""
    _check_k(k_hat)
    k = float(k_hat)

    def phi(r):
        return r * r + k - 2.0 * m / r + eps / (r * r)

    def dphi(r):
        return 2.0 * r + 2.0 * m / (r * r) - 2.0 * eps / (r * r * r)

    def d2phi(r):
        return 2.0 - 4.0 * m / (r * r * r) + 6.0 * eps / (r * r * r * r)

    p = RadialPotential(
        k_hat=k_hat, kind="perturbed-kottler", domain_start=0.0,
        phi=phi, dphi=dphi, d2phi=d2phi,
        tail=lambda r: -2.0 * m / r + eps / (r * r),
        dtail=lambda r: 2.0 * m / (r * r) - 2.0 * eps / (r * r * r),
        params={"m": float(m), "eps": float(eps)},
    )
    start = horizon_radius(p)
    if start is None:
        return p
    return RadialPotential(
        k_hat=k_hat, kind="perturbed-kottler", domain_start=start,
        phi=phi, dphi=dphi, d2phi=d2phi, tail=p.tail, dtail=p.dtail,
        params=p.params)


def tabulated_potential(k_hat: int, r_samples, phi_samples) -> RadialPotential:
    """Monotone cubic interpolation of sampled phi values.

    Derivatives come from the interpolant; the tail and its derivative fall
    back to plain subtraction, so asymptotic extraction from tabulated data
    degrades at very large radii.
    """
    _check_k(k_hat)
    r_arr = np.asarray(r_samples, dtype=float)
    phi_arr = np.asarray(phi_samples, dtype=float)
    if r_arr.ndim != 1 or r_arr.size < 4:
        raise DomainError("need at least 4 samples on a 1-d radius grid")
    if np.any(np.diff(r_arr) <= 0):
        raise DomainError("radius samples must be strictly increasing")
    interp = PchipInterpolator(r_arr, phi_arr, extrapolate=False)
    d1 = interp.derivative(1)
    d2 = interp.derivative(2)
    k = float(k_hat)

    def as_float(f):
        def call(r):
            out = f(r)
            if np.any(np.isnan(out)):
                raise DomainError("evaluation outside tabulated range")
            return float(out) if np.isscalar(r) else out
        return call

    phi_eval, dphi_eval = as_float(interp), as_float(d1)
    return RadialPotential(
        k_hat=k_hat, kind="tabulated",
        domain_start=float(r_arr[0]), domain_end=float(r_arr[-1]),
        phi=phi_eval, dphi=dphi_eval, d2phi=as_float(d2),
        tail=lambda r: phi_eval(r) - r * r - k,
        dtail=lambda r: dphi_eval(r) - 2.0 * r,
        knots=tuple(r_arr),
    )


def kottler_build(k_hat: int, m: float) -> KottlerSpace:
    """Kottler space of the given mass, with horizon radius and surface gravity.

    The surface gravity is (3 r_m^2 + k_hat) / (2 r_m) = phi'(r_m)/2; it is
    exactly 0 for the critical k_hat = -1 member (double root), which also
    stands for the admissible masses up to 1e-15 below it.
    """
    lo, _ = admissible_mass_interval(k_hat)
    if m < lo - 1e-15:
        raise DomainError(
            f"mass {m} inadmissible for k_hat={k_hat}; require m >= {lo}")
    found = _horizon_root(k_hat, m)
    if found is None:
        # boundary members m = 0 with k_hat in {0, +1}: no horizon
        r_m, kappa = 0.0, 0.0
    else:
        r_m, is_double = found
        kappa = 0.0 if is_double else (3.0 * r_m * r_m + k_hat) / (2.0 * r_m)
    return KottlerSpace(
        k_hat=k_hat, mass=float(m), horizon_radius=r_m,
        surface_gravity=kappa, potential=_kottler_potential(k_hat, m, r_m))


def horizon_radius(p: RadialPotential) -> Optional[float]:
    """Largest zero of phi for a generic potential, by bracketed scan, or None.

    Without a sign change on the scan, phi is minimized between the
    neighbours of its smallest scan value.  A minimum below zero brackets
    the root.  A minimum within the rounding of phi of zero is returned as
    a double root; one otherwise within 1e-12 max(1, r^2) of zero raises
    NumericalError, since phi may touch zero there or miss it.
    """
    if p.kind == "kottler":
        return largest_zero(p.k_hat, p.params["m"])
    r_hi = min(p.domain_end, 10.0 * (1.0 + abs(p.tail(1.0)) + abs(p.k_hat)))
    if p.kind == "tabulated":
        r_hi = p.domain_end
    r_lo = max(p.domain_start, 1e-8) if p.kind == "tabulated" else 1e-8
    grid = np.geomspace(r_hi, max(r_lo, r_hi * 1e-10), 2048)
    vals = p.phi(grid)
    if vals[0] <= 0:
        raise DomainError("potential not positive at the outer scan radius")
    flips = np.nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) <= 0)[0]
    if flips.size:
        i = flips[0]
        hi, lo = grid[i], grid[i + 1]
    else:
        i = int(np.argmin(vals))
        r_min = grid[i]
        if 0 < i < grid.size - 1:
            r_min = minimize_scalar(p.phi, bounds=(grid[i + 1], grid[i - 1]),
                                    method="bounded", options={"xatol": 1e-12 * r_min}).x
        phi_min = p.phi(r_min)
        if vals[i] < phi_min:
            r_min, phi_min = grid[i], vals[i]
        tol = 1e-12 * max(1.0, r_min * r_min)
        if phi_min > tol:
            return None
        # zero to within the rounding of phi: a double root, as at the
        # critical Kottler mass
        rounding = 8.0 * _ULP * (r_min * r_min + abs(p.k_hat) + abs(p.tail(r_min)))
        if abs(phi_min) <= rounding:
            return float(r_min)
        if phi_min >= -tol:
            raise NumericalError(f"phi comes to {phi_min:.3e} at r = {r_min} "
                                 "without a sign change: horizon undecided")
        # phi dips below zero between two scan points
        hi, lo = grid[i - 1], r_min
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if hi - lo <= 1e-15 * max(1.0, mid):
            break
        if p.phi(mid) <= 0:
            lo = mid
        else:
            hi = mid
    root = 0.5 * (lo + hi)
    for _ in range(3):
        slope = p.dphi(root)
        if slope == 0.0:
            break
        root -= p.phi(root) / slope
    return float(root)


# ---------------------------------------------------------------------------
# pointwise quantities
#
# Each function takes r as a float or as an array of radii.  An array call
# returns arrays equal entry by entry to the scalar calls, and raises
# DomainError where a scalar call would, naming the first offending radius.


def _raise_where(r, bad: np.ndarray, message: str) -> None:
    """DomainError naming the first radius where the array mask holds."""
    if bad.any():
        at = np.broadcast_to(r, bad.shape)[bad][0]
        raise DomainError(message.format(r=at))


def _check_horizon(r, phi) -> None:
    """DomainError where phi is negative beyond the rounding noise
    -1e-12 max(1, r^2) tolerated at the horizon root."""
    if isinstance(phi, np.ndarray):
        _raise_where(r, phi < -1e-12 * np.maximum(1.0, r * r),
                     "phi({r}) < 0: inside the horizon")
    elif phi < -1e-12 * max(1.0, r * r):
        raise DomainError(f"phi({r}) < 0: inside the horizon")


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
    # negative phi that passes the horizon check is rounding noise at the root
    if isinstance(phi, float):
        if phi < 0.0:
            _check_horizon(r, phi)
            phi = 0.0
        return 2.0 * math.sqrt(phi) / r
    _check_horizon(r, phi)
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
    if inf.curvature_sign != p.k_hat:
        raise DomainError(
            f"infinity curvature {inf.curvature_sign} != potential k_hat {p.k_hat}")
    p.require_inside(r)
    phi = p.phi(r)
    if not isinstance(phi, float) or phi < 0.0:
        _check_horizon(r, phi)
    return -(inf.c ** 1.5) * 0.5 * r * p.tail(r)


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
    array = not isinstance(phi, float)
    if array:
        _raise_where(r, phi <= 0.0, "phi({r}) <= 0: V is not smooth here")
    elif phi <= 0.0:
        raise DomainError(f"phi({r}) <= 0: V is not smooth here")
    dphi, d2phi = p.dphi(r), p.d2phi(r)
    slope = dphi / r
    lap = (np.sqrt(phi) if array else math.sqrt(phi)) * (slope + 0.5 * d2phi - 3.0)
    ric_rad = abs(3.0 - slope - 0.5 * d2phi)
    ric_tan = abs(3.0 - slope + (p.k_hat - phi) / (r * r))
    return StaticResidual(
        laplace_residual=abs(lap),
        ricci_residual=np.maximum(ric_rad, ric_tan) if array else max(ric_rad, ric_tan))
