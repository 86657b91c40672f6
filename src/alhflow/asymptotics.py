"""Compactification coordinate, mass-aspect extraction, expansion fits.

The hyperbolic-model radial coordinate rho solves

    d rho / d r = sqrt((k_hat + rho^2) / phi(r)),    rho/r -> 1,

and the tangential metric correction it exposes is h = rho (r^2 - rho^2) ghat,
so the mass aspect is mu = (3/2) lim rho (r^2 - rho^2).

Numerically the map is integrated in the scaled deviation c = r^2 (r - rho),
which tends to a finite limit (m/3 on Kottler profiles) and avoids the
catastrophic cancellation that computing r^2 - rho^2 directly would suffer
at large radii.  Downstream quantities (rho, s = 1/rho, the compactified
area factor) are reconstructed from c in cancellation-free form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp
from scipy.interpolate import CubicSpline

from .errors import DomainError, ExtractionError, NumericalError
from .geometry import ConformalInfinity, RadialPotential, mean_curvature_sphere

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
    two ways must not cancel algebraically.
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
        self._dc_spline = self._c_spline.derivative()
        self._inv_spline = CubicSpline(np.log(self._rho), self._x)
        y = 1.0 / self._r[::-1]
        self._s_spline = CubicSpline(y, 1.0 / self._rho[::-1])
        self._ds_spline = self._s_spline.derivative()
        chi = 1.0 / (1.0 - self._c / self._r ** 3) ** 2
        self._chi_spline = CubicSpline(self._x, chi)
        self._dchi_spline = self._chi_spline.derivative()

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
        out = self._ds_spline(1.0 / r) * (-1.0 / r ** 2)
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
        return float(self._dchi_spline(math.log(r))) / r

    def drho_dr(self, r) -> float:
        """Slope of the tabulated map (spline route)."""
        self._require(r)
        x = math.log(r)
        c = float(self._c_spline(x))
        dc_dx = float(self._dc_spline(x))
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


def build_substitution(p: RadialPotential, r_start: float, r_end: float,
                       nodes_per_decade: int = 192, rtol: float = 1e-12,
                       atol: float = 1e-14) -> SubstitutionMap:
    """Integrate the substitution inward from a matched asymptotic state.

    The start value at r_end matches the model metric through order 1/r:
    rho = r + tail(r)/(6 r), which the defining equation then propagates
    stably downward (initialization errors decay like the cube of the
    radius ratio).
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

    x0, x1 = math.log(r_end), math.log(r_start)
    c_end = -p.tail(r_end) * r_end / 6.0
    k = float(p.k_hat)

    def rhs(x, state):
        c = state[0]
        r = math.exp(x)
        q = p.tail(r)
        phi = p.phi(r)
        rho = r - c / (r * r)
        num = q + 2.0 * c / r - (c / (r * r)) ** 2
        den = math.sqrt(phi) * (math.sqrt(phi) + math.sqrt(k + rho * rho))
        return (2.0 * c + r ** 3 * num / den,)
    n_nodes = int(math.ceil(nodes_per_decade * math.log10(r_end / r_start))) + 1
    x_eval = np.linspace(x0, x1, max(n_nodes, 8))
    sol = solve_ivp(rhs, (x0, x1), (c_end,), method="DOP853",
                    t_eval=x_eval, rtol=rtol, atol=atol)
    if not sol.success:
        raise NumericalError(f"substitution integration failed: {sol.message}")
    r_grid = np.exp(sol.t[::-1])
    c_grid = sol.y[0][::-1]
    sub_map = SubstitutionMap(p, r_grid, c_grid)
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

    The default outer radius is capped: for quantities growing like rho^2
    the coefficient elimination loses the 1/rho signal to rounding once
    eps * rho^3 approaches it.
    """
    if rho_max is None:
        rho_max = min(sub_map.rho(sub_map.r_end) / 4.0, 4096.0)
    rhos = rho_max / 2.0 ** np.arange(count - 1, -1, -1)
    out = np.empty((count, 2))
    for i, rho in enumerate(rhos):
        r = sub_map.r_of_rho(rho)
        out[i] = (rho, values_of_r(r))
    return out


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
