"""Compactification coordinate, mass-aspect extraction, expansion fits.

The hyperbolic-model radial coordinate rho solves

    d rho / d r = sqrt((k_hat + rho^2) / phi(r)),    rho/r -> 1,

and the tangential metric correction it exposes is h = rho (r^2 - rho^2) ghat,
so the mass aspect is mu = (3/2) lim rho (r^2 - rho^2).

The equation separates, so the map is a quadrature, not an initial-value
solve: with A = arcsinh, log or arccosh for k_hat = 1, 0, -1,
A(rho(r)) - A(r) = -int_r^inf (1/sqrt(phi) - 1/sqrt(s^2 + k_hat)) ds, an
integrand written without cancellation through the potential's tail.  The
map is tabulated in the scaled deviation c = r^2 (r - rho), which tends to
a finite limit (m/3 on Kottler profiles) and is recovered from the integral
in cancellation-free form; computing r^2 - rho^2 directly would lose it at
large radii.  Downstream quantities (rho, s = 1/rho, the compactified area
factor) are reconstructed from c the same way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.interpolate import CubicSpline

from .errors import DomainError, ExtractionError, NumericalError
from .geometry import ConformalInfinity, RadialPotential, mean_curvature_sphere

# The map calls no initial-value solver.  The name stays bound because
# perfbench/layers.py counts right-hand-side evaluations through it, which
# now reads 0; drop both together.
solve_ivp = None

__all__ = [
    "SubstitutionMap",
    "ExpansionFit",
    "MassAspectResult",
    "build_substitution",
    "mass_aspect_extract",
    "expansion_fit",
    "conformal_area",
    "conformal_mean_curvature_residual",
    "dyadic_profile_samples",
    "richardson",
]


def richardson(values, ratio: float = 2.0, first_order: int = 1,
               levels: int = 3) -> tuple[float, float]:
    """Accelerate a sequence with error series in powers of the step.

    values[i] is the approximation at step h0 / ratio**i (later entries are
    more accurate); the error is assumed to expand in powers
    first_order, first_order+1, ... of the step.  Returns the extrapolated
    value and the magnitude of the last level-to-level change.
    """
    cur = np.asarray(values, dtype=float)
    if cur.size < 2:
        raise DomainError("need at least two values to extrapolate")
    levels = min(levels, cur.size - 1)
    last_per_level = [cur[-1]]
    for k in range(1, levels + 1):
        f = ratio ** (first_order + k - 1)
        cur = (f * cur[1:] - cur[:-1]) / (f - 1.0)
        last_per_level.append(cur[-1])
    return float(last_per_level[-1]), float(abs(last_per_level[-1] - last_per_level[-2]))


@dataclass(frozen=True)
class ExpansionFit:
    """Coefficients of value = a0 rho^2 + a1 + a2 / rho."""

    a0: float
    a1: float
    a2: float
    error_estimate: float


@dataclass(frozen=True)
class MassAspectResult:
    """Extracted mass aspect; constant over the cross section here, so the
    mean mass and the supremum coincide with it."""

    mu: float
    m: float
    m_bar: float
    error_estimate: float


class SubstitutionMap:
    """Tabulated substitution r <-> rho with stable large-radius evaluators.

    Interpolation between nodes: cubic splines of the smooth slowly-varying
    reductions (c against ln r, ln rho against ln r, s = 1/rho against 1/r,
    the area factor (r/rho)^2 against ln r).  The s and area-factor splines
    are independent interpolants on purpose: consumers differencing the map
    two ways must not cancel algebraically.  Every spline but that of c is
    fitted on first use.
    """

    def __init__(self, potential: RadialPotential, r_grid: np.ndarray,
                 c_grid: np.ndarray):
        self.potential = potential
        self.k_hat = potential.k_hat
        self._r = np.asarray(r_grid, dtype=float)
        self._c = np.asarray(c_grid, dtype=float)
        self._x = np.log(self._r)
        self._rho = self._r - self._c / self._r ** 2
        if np.any(np.diff(self._rho) <= 0.0):
            raise NumericalError("substitution output is not strictly increasing")
        self._c_spline = CubicSpline(self._x, self._c)

    @cached_property
    def _inv_spline(self):
        return CubicSpline(np.log(self._rho), self._x)

    @cached_property
    def _s_spline(self):
        return CubicSpline(1.0 / self._r[::-1], 1.0 / self._rho[::-1])

    @cached_property
    def _chi_spline(self):
        return CubicSpline(self._x, 1.0 / (1.0 - self._c / self._r ** 3) ** 2)

    # -- domain -------------------------------------------------------

    @property
    def r_start(self) -> float:
        return float(self._r[0])

    @property
    def r_end(self) -> float:
        return float(self._r[-1])

    @property
    def decades(self) -> float:
        return math.log10(self.r_end / self.r_start)

    def _require(self, r) -> None:
        r = np.asarray(r, dtype=float)
        if np.any(r < self.r_start * (1.0 - 1e-12)) or \
                np.any(r > self.r_end * (1.0 + 1e-12)):
            raise DomainError(
                f"r outside map domain [{self.r_start}, {self.r_end}]")

    # -- evaluators ---------------------------------------------------

    def deviation_scale(self, r):
        """c(r) = r^2 (r - rho(r)); tends to mu/3."""
        self._require(r)
        return self._c_spline(np.log(r))

    def rho(self, r):
        self._require(r)
        r = np.asarray(r, dtype=float)
        out = r - self._c_spline(np.log(r)) / r ** 2
        return float(out) if out.ndim == 0 else out

    def r_of_rho(self, rho):
        rho = np.asarray(rho, dtype=float)
        lo, hi = self._rho[0], self._rho[-1]
        if np.any(rho < lo * (1.0 - 1e-12)) or np.any(rho > hi * (1.0 + 1e-12)):
            raise DomainError(f"rho outside map range [{lo}, {hi}]")
        out = np.exp(self._inv_spline(np.log(rho)))
        return float(out) if out.ndim == 0 else out

    def s(self, r):
        """Compactification coordinate s = 1/rho as a function of r."""
        self._require(r)
        r = np.asarray(r, dtype=float)
        out = self._s_spline(1.0 / r)
        return float(out) if out.ndim == 0 else out

    def ds_dr(self, r):
        self._require(r)
        r = np.asarray(r, dtype=float)
        out = self._s_spline(1.0 / r, 1) * (-1.0 / r ** 2)
        return float(out) if out.ndim == 0 else out

    def area_factor(self, r):
        """(r/rho)^2, the ratio of compactified to asymptotic area."""
        self._require(r)
        r = np.asarray(r, dtype=float)
        out = 1.0 / (1.0 - self._c_spline(np.log(r)) / r ** 3) ** 2
        return float(out) if out.ndim == 0 else out

    def area_factor_interp(self, r):
        self._require(r)
        return float(self._chi_spline(math.log(r)))

    def darea_factor_dr(self, r):
        self._require(r)
        return float(self._chi_spline(math.log(r), 1)) / r

    def drho_dr(self, r) -> float:
        """Slope of the tabulated map (spline route)."""
        self._require(r)
        x = math.log(r)
        c = float(self._c_spline(x))
        dc_dx = float(self._c_spline(x, 1))
        return 1.0 - dc_dx / r ** 3 + 2.0 * c / r ** 3

    def drho_dr_ode(self, r) -> float:
        """Slope demanded by the defining equation (independent route)."""
        self._require(r)
        rho = self.rho(r)
        return math.sqrt((self.k_hat + rho * rho) / self.potential.phi(r))

    def mu_at(self, r):
        """(3/2) rho (r^2 - rho^2) evaluated without cancellation."""
        self._require(r)
        r = np.asarray(r, dtype=float)
        c = self._c_spline(np.log(r))
        out = 3.0 * c - 4.5 * c ** 2 / r ** 3 + 1.5 * c ** 3 / r ** 6
        return float(out) if out.ndim == 0 else out


#: 8-point Gauss-Legendre nodes and weights on [-1, 1], as returned by
#: np.polynomial.legendre.leggauss(8); literals, because computing them at
#: import time costs memory for nothing.
_GAUSS_X = np.array([-0.9602898564975362, -0.7966664774136267, -0.525532409916329,
                     -0.18343464249564978, 0.18343464249564978, 0.525532409916329,
                     0.7966664774136267, 0.9602898564975362])
_GAUSS_W = np.array([0.10122853629037706, 0.22238103445337443, 0.3137066458778869,
                     0.36268378337836166, 0.36268378337836166, 0.3137066458778869,
                     0.22238103445337443, 0.10122853629037706])
#: A panel is accepted once its two rules agree to _PANEL_RTOL of int |f|,
#: or to _ROUNDING_SLACK times a bound on the rounding of f over it.
_PANEL_RTOL = 1e-14
_ROUNDING_SLACK = 8.0
_ULP = np.finfo(float).eps
#: Bisections of a panel, and sub-panels under test in a batch, beyond which
#: the quadrature gives up.
_MAX_LEVELS = 40
_MAX_SUBPANELS = 8192
#: Panels evaluated per batch, which bounds the temporaries.
_BATCH = 1024
#: Below this radius k_hat = -1 maps integrate u = arccosh(rho) directly.
_ARCCOSH_BELOW = 2.0


def _gauss(f, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """8-point Gauss-Legendre integrals of f and of |f| over each [a_i, b_i]."""
    half = 0.5 * (b - a)
    v = f((a + half)[:, None] + half[:, None] * _GAUSS_X) * _GAUSS_W
    return half * v.sum(axis=1), half * np.abs(v).sum(axis=1)


def _panel_integrals(f, rounding, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Integrals of f over the panels [a_i, b_i], adaptively.

    Each panel's 8-point Gauss value is compared with the sum over its two
    halves.  The halves are kept when the two agree to _PANEL_RTOL of
    int |f|, or to _ROUNDING_SLACK times int rounding, where rounding(s)
    bounds the rounding error of f(s); otherwise both halves are tested the
    same way.  Raises NumericalError when a panel still disagrees after
    _MAX_LEVELS bisections or a batch needs more than _MAX_SUBPANELS
    sub-panels.
    """
    out = np.zeros(a.size)
    for lo in range(0, a.size, _BATCH):
        owner = np.arange(lo, min(lo + _BATCH, a.size))
        left, right = a[owner], b[owner]
        whole, _ = _gauss(f, left, right)
        level = 0
        while True:
            mid = 0.5 * (left + right)
            first, first_abs = _gauss(f, left, mid)
            second, second_abs = _gauss(f, mid, right)
            halves = first + second
            diff = np.abs(whole - halves)
            bad = np.nonzero(diff > _PANEL_RTOL * (first_abs + second_abs))[0]
            if bad.size:
                # rounding bounds only where the rule test fails: it is rare
                noise = (_gauss(rounding, left[bad], mid[bad])[1]
                         + _gauss(rounding, mid[bad], right[bad])[1])
                bad = bad[diff[bad] > _ROUNDING_SLACK * noise]
            keep = np.ones(owner.size, dtype=bool)
            keep[bad] = False
            np.add.at(out, owner[keep], halves[keep])
            if not bad.size:
                break
            level += 1
            if level > _MAX_LEVELS or 2 * bad.size > _MAX_SUBPANELS:
                raise NumericalError("substitution quadrature did not converge on "
                                     f"{bad.size} panels")
            owner = np.concatenate((owner[bad], owner[bad]))
            left, right = (np.concatenate((left[bad], mid[bad])),
                           np.concatenate((mid[bad], right[bad])))
            whole = np.concatenate((first[bad], second[bad]))
    return out


def _integrals_to_last(f, rounding, nodes: np.ndarray, knots) -> np.ndarray:
    """int of f from each node to the last one (0 at the last).

    Panels also break at the knots, where f need only be piecewise smooth.
    """
    knots = np.asarray(knots, dtype=float)
    knots = knots[(knots > nodes[0]) & (knots < nodes[-1])]
    edges = np.union1d(nodes, knots) if knots.size else nodes
    panels = _panel_integrals(f, rounding, edges[:-1], edges[1:])
    if knots.size:
        panels = np.bincount(np.searchsorted(nodes, edges[:-1], side="right") - 1,
                             weights=panels, minlength=nodes.size - 1)
    out = np.zeros(nodes.size)
    out[:-1] = np.cumsum(panels[::-1])[::-1]
    return out


def build_substitution(p: RadialPotential, r_start: float, r_end: float,
                       nodes_per_decade: int = 192) -> SubstitutionMap:
    """Tabulate the substitution on log-spaced nodes by quadrature.

    The defining equation separates: A(rho) - A(r) = D(r) with
    A = arcsinh, log or arccosh for k_hat = 1, 0, -1 and

        D(r) = -int_r^inf g,   g = -tail / (sqrt(phi) R (sqrt(phi) + R)),

    where R = sqrt(s^2 + k_hat); g is 1/sqrt(phi) - 1/R written without
    cancellation.  The integral over [r_end, inf) is taken exactly through
    s = r_end / t; a potential ending at a finite domain_end starts instead
    from the leading-order match rho = r + tail(r)/(6 r) at r_end.  For
    k_hat = -1 the reference is singular at s = 1, so below r = 2 the map
    integrates u = arccosh(rho) through du/dr = 1/sqrt(phi), and r_end must
    be at least 2.  u <= 0 means rho reaches 1, and rho <= 0 (k_hat = 1)
    that rho reaches 0: the map does not exist there (DomainError).

    Every panel between neighbouring nodes is integrated adaptively (see
    _panel_integrals), and c = r^2 (r - rho) is recovered from D without
    cancellation.
    """
    if r_start <= 0.0 or r_end <= r_start:
        raise DomainError("need 0 < r_start < r_end")
    if r_end / r_start < 1e3 * (1.0 - 1e-12):
        raise DomainError("need r_end / r_start >= 1e3 for reliable asymptotics")
    if r_end > p.domain_end:
        raise DomainError("r_end beyond the potential's domain")
    probe = np.geomspace(r_start, r_end, 65)
    closed = p.phi(probe) <= 0.0
    if closed.any():
        raise DomainError(f"phi({probe[closed][0]}) <= 0 inside the requested range")
    k = float(p.k_hat)
    if k == -1.0 and r_end < _ARCCOSH_BELOW:
        raise DomainError(f"k_hat = -1 maps need r_end >= {_ARCCOSH_BELOW}")

    n_nodes = int(math.ceil(nodes_per_decade * math.log10(r_end / r_start))) + 1
    r = np.exp(np.linspace(math.log(r_end), math.log(r_start), max(n_nodes, 8))[::-1])

    def open_phi(s):
        phi = p.phi(s)
        closed = phi <= 0.0
        if closed.any():
            raise DomainError(f"phi({s[closed][0]}) <= 0 at a quadrature node")
        return phi

    def g(s):
        sqrt_phi = np.sqrt(open_phi(s))
        ref = np.sqrt(s * s + k)
        return -p.tail(s) / (sqrt_phi * ref * (sqrt_phi + ref))

    def inner_f(s):
        return 1.0 / np.sqrt(open_phi(s))

    # Bounds on the rounding of the integrands.  phi and the tail are taken
    # to carry that of s^2 + |k_hat| + phi, as when the tail is formed as
    # phi - s^2 - k_hat (tabulated potentials); sqrt(phi) turns it into a
    # relative error of half that over phi.
    def g_rounding(s):
        phi = p.phi(s)
        err = _ULP * (s * s + abs(k) + phi)
        sqrt_phi, ref = np.sqrt(phi), np.sqrt(s * s + k)
        return err * (1.0 + np.abs(p.tail(s)) / phi) / (sqrt_phi * ref * (sqrt_phi + ref))

    def inner_rounding(s):
        phi = p.phi(s)
        return 0.5 * _ULP * (s * s + abs(k) + phi) / (phi * np.sqrt(phi))

    # int of g beyond the last node: exact, or from the leading-order match
    r_out = r[-1]
    if math.isinf(p.domain_end):
        def in_t(f):  # s = r_out / t maps (0, 1] onto [r_out, inf)
            return lambda t: f(r_out / t) * (r_out / (t * t))
        beyond = _panel_integrals(in_t(g), in_t(g_rounding), np.zeros(1), np.ones(1))[0]
    else:
        beyond = -p.tail(r_out) / (6.0 * r_out * math.sqrt(r_out * r_out + k))
    # k_hat = -1 maps integrate u = arccosh(rho) at the nodes below `inner`
    inner = int(np.searchsorted(r, _ARCCOSH_BELOW)) if k == -1.0 else 0
    outer = r[inner:]
    d = -(beyond + _integrals_to_last(g, g_rounding, outer, p.knots))
    if k == 1.0:
        c = -2.0 * outer * outer * np.cosh(np.arcsinh(outer) + 0.5 * d) * np.sinh(0.5 * d)
    elif k == 0.0:
        c = -outer ** 3 * np.expm1(d)
    else:
        c = -2.0 * outer * outer * np.sinh(np.arccosh(outer) + 0.5 * d) * np.sinh(0.5 * d)
    if inner:
        u = math.acosh(outer[0]) + d[0] - _integrals_to_last(
            inner_f, inner_rounding, r[:inner + 1], p.knots)[:-1]
        if u[0] <= 0.0:
            raise DomainError(f"rho reaches 1 above r_start = {r_start}: "
                              "the map does not exist there")
        c = np.concatenate((r[:inner] ** 2 * (r[:inner] - np.cosh(u)), c))
    if not np.all(np.isfinite(c)):
        raise NumericalError("substitution deviation is not finite")
    if r[0] - c[0] / r[0] ** 2 <= 0.0:
        raise DomainError(f"rho reaches 0 above r_start = {r_start}: "
                          "the map does not exist there")
    sub_map = SubstitutionMap(p, r, c)
    if abs(sub_map.rho(sub_map.r_end) / sub_map.r_end - 1.0) > 1e-6:
        raise NumericalError("rho/r failed to reach 1 at the outer radius")
    return sub_map


def mass_aspect_extract(p: RadialPotential, sub_map: SubstitutionMap,
                        levels: int = 3, tolerance: float = 1e-3) -> MassAspectResult:
    """Extract mu = (3/2) lim rho (r^2 - rho^2) by dyadic extrapolation."""
    if sub_map.decades < 3.0 - 1e-9:
        raise DomainError("map must cover at least 3 decades")
    max_halvings = int(math.floor(math.log2(sub_map.r_end / sub_map.r_start)))
    count = min(10, max_halvings + 1)
    radii = sub_map.r_end / 2.0 ** np.arange(count - 1, -1, -1)
    values = sub_map.mu_at(radii)
    mu, err = richardson(values, ratio=2.0, first_order=1, levels=levels)
    if err > tolerance:
        raise ExtractionError(
            f"extrapolation levels disagree by {err:.3e} > {tolerance:.3e}")
    return MassAspectResult(mu=mu, m=mu, m_bar=mu, error_estimate=err)


def dyadic_profile_samples(sub_map: SubstitutionMap, values_of_r,
                           count: int = 8, rho_max: float | None = None) -> np.ndarray:
    """Sample a radial quantity on dyadic rho values, as (rho, value) rows.

    `values_of_r` takes an array of radii and returns the values there.
    The default outer radius is capped: for quantities growing like rho^2
    the coefficient elimination loses the 1/rho signal to rounding once
    eps * rho^3 approaches it.
    """
    if rho_max is None:
        rho_max = min(sub_map.rho(sub_map.r_end) / 4.0, 4096.0)
    rhos = rho_max / 2.0 ** np.arange(count - 1, -1, -1)
    return np.column_stack((rhos, values_of_r(sub_map.r_of_rho(rhos))))


def expansion_fit(samples, levels: int = 3) -> ExpansionFit:
    """Fit value = a0 rho^2 + a1 + a2/rho on dyadic samples.

    Dyadic spacing lets the two leading terms be eliminated exactly
    (4 y_j - y_{j+1} kills rho^2, differencing kills the constant), after
    which the 1/rho coefficient sequence is Richardson-accelerated.
    Non-dyadic input falls back to a least-squares solve with a condition
    diagnostic.
    """
    arr = np.asarray(samples, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] < 4:
        raise DomainError("need at least 4 (rho, value) samples")
    order = np.argsort(arr[:, 0])
    rho, y = arr[order, 0], arr[order, 1]
    if np.any(rho <= 0.0):
        raise DomainError("sample radii must be positive")
    if rho[-1] / rho[0] < 100.0 * (1.0 - 1e-9):
        raise DomainError("samples must span at least 2 decades")
    ratios = rho[1:] / rho[:-1]
    if np.max(np.abs(ratios - 2.0)) <= 1e-6:
        u = (4.0 * y[:-1] - y[1:]) / 3.0
        v = u[:-1] - u[1:]
        a2_seq = (12.0 / 7.0) * rho[: v.size] * v
        a2, a2_err = richardson(a2_seq, ratio=2.0, first_order=1,
                                levels=min(levels, a2_seq.size - 1))
        a1_seq = u - (7.0 / 6.0) * a2 / rho[: u.size]
        a1, _ = richardson(a1_seq, ratio=2.0, first_order=1,
                           levels=min(levels, a1_seq.size - 1))
        a0 = (y[-1] - a1 - a2 / rho[-1]) / rho[-1] ** 2
        return ExpansionFit(a0=float(a0), a1=float(a1), a2=float(a2),
                            error_estimate=a2_err)
    # general spacing: scaled least squares
    basis = np.column_stack([rho ** 2, np.ones_like(rho), 1.0 / rho])
    scale = np.max(np.abs(basis), axis=0)
    cond = np.linalg.cond(basis / scale)
    if cond > 1e6:
        raise ExtractionError(f"ill-conditioned fit: condition number {cond:.3e}")
    coef, res, *_ = np.linalg.lstsq(basis / scale, y, rcond=None)
    coef = coef / scale
    resid = float(np.sqrt(res[0] / rho.size)) if res.size else 0.0
    return ExpansionFit(a0=float(coef[0]), a1=float(coef[1]), a2=float(coef[2]),
                        error_estimate=resid * float(rho[0]))


def conformal_area(inf: ConformalInfinity, p: RadialPotential,
                   sub_map: SubstitutionMap, r: float) -> float:
    """Area of the coordinate sphere in the compactified metric.

    |Sigma~| = |Sigma_hat| (r/rho)^2, which converges to the area of the
    conformal infinity as r grows.
    """
    if inf.curvature_sign != p.k_hat:
        raise DomainError("infinity and potential disagree on curvature sign")
    return inf.area * float(sub_map.area_factor(r))


def conformal_mean_curvature_residual(p: RadialPotential,
                                      sub_map: SubstitutionMap, r: float) -> float:
    """Defect of H = s H~ + 2 nu~(s) between two independent evaluations.

    The left side comes from the radial profile; the right side is read off
    the compactified metric psi(u) du^2 + chi(u) ghat through the map's
    interpolants, with H~ = chi'/(chi sqrt(psi)) oriented outward and
    nu~(s) taken along the inward normal.  The residual reflects the map's
    interpolation defect only.
    """
    p.require_inside(r)
    h_direct = mean_curvature_sphere(p, r)
    phi = p.phi(r)
    if phi <= 0.0:
        raise DomainError("needs phi(r) > 0")
    s = sub_map.s(r)
    sqrt_psi = s / math.sqrt(phi)
    chi = sub_map.area_factor_interp(r)
    h_tilde = sub_map.darea_factor_dr(r) / (chi * sqrt_psi)
    nu_tilde_s = -sub_map.ds_dr(r) / sqrt_psi
    return abs(h_direct - (s * h_tilde + 2.0 * nu_tilde_s))
