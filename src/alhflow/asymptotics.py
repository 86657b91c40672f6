"""Compactification coordinate, mass-aspect and expansion extraction.

The hyperbolic-model radial coordinate rho solves

    d rho / d r = sqrt((k_hat + rho^2) / phi(r)),    rho/r -> 1,

and the tangential metric correction it exposes is h = rho (r^2 - rho^2) ghat,
so the mass aspect is mu = (3/2) lim rho (r^2 - rho^2).

The equation separates, so the map is a quadrature, not an initial-value
solve: with A = arcsinh, log or arccosh for k_hat = 1, 0, -1,
A(rho(r)) - A(r) = -int_r^inf (1/sqrt(phi) - 1/sqrt(s^2 + k_hat)) ds, an
integrand written without cancellation through the potential's tail.  The
map evaluates that integral at whatever radius it is asked for, to the
quadrature's tolerance (see SubstitutionMap); nothing is interpolated.  It
returns the scaled deviation c = r^2 (r - rho), which tends to a finite
limit (m/3 on Kottler profiles) and is recovered from the integral in
cancellation-free form; computing r^2 - rho^2 directly would lose it at
large radii.  rho, s = 1/rho, the compactified area factor, the mass
aspect and the expansion coefficients follow from c the same way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ExtractionError, NumericalError
from .geometry import ConformalInfinity, RadialPotential, mean_curvature_sphere

# The map calls no initial-value solver.  The name stays bound because
# perfbench/layers.py counts right-hand-side evaluations through it, which
# now reads 0; drop both together.
solve_ivp = None

#: mass_aspect_extract and expansion_extract read the map at the radii
#: r_end / 2^k with k < MU_SAMPLES, and raise ExtractionError when the last
#: two extrapolation levels of mu differ by more than MU_TOLERANCE.
MU_SAMPLES, MU_TOLERANCE = 10, 1e-3

__all__ = [
    "SubstitutionMap",
    "ExpansionFit",
    "MassAspectResult",
    "build_substitution",
    "require_map_extent",
    "mass_aspect_extract",
    "expansion_extract",
    "conformal_area",
    "conformal_mean_curvature_residual",
    "richardson",
]


def richardson(values, first_order: int = 1, levels: int = 3) -> tuple[float, float]:
    """Accelerate a sequence with error series in powers of the step.

    values[i] is the approximation at step h0 / 2**i (later entries are
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
        f = 2.0 ** (first_order + k - 1)
        cur = (f * cur[1:] - cur[:-1]) / (f - 1.0)
        last_per_level.append(cur[-1])
    return float(last_per_level[-1]), float(abs(last_per_level[-1] - last_per_level[-2]))


@dataclass(frozen=True)
class ExpansionFit:
    """The coefficient a2 of value = rho^2 + a1 + a2 / rho, where rho^2 + a1
    is the hyperbolic model's value (see expansion_extract)."""

    a2: float
    error_estimate: float


@dataclass(frozen=True)
class MassAspectResult:
    """Extracted mass aspect; constant over the cross section here, so the
    mean mass and the supremum coincide with it."""

    mu: float
    error_estimate: float


class SubstitutionMap:
    """The substitution r <-> rho over [r_start, r_end], exact at every radius.

    The map keeps D(r) = -int_r^inf g (see build_substitution) at the edges
    of an adaptive partition of [r_start, r_end]: _PANELS_PER_OCTAVE panels
    per octave, counted down from r_end, each bisected until the quadrature
    accepts its pieces.  At any radius r, D(r) = D(top) - int_r^top g,
    where top is the upper edge of the piece holding r and the partial
    integral is one Gauss rule on part of an accepted piece.  So a value
    depends on r alone: an array call returns the scalar calls' values bit
    for bit.  For k_hat = -1 the pieces below r = 2 keep u = arccosh(rho)
    instead, through du/dr = 1/sqrt(phi).

    c = r^2 (r - rho), rho, s = 1/rho, the mass aspect and the area factor
    follow from D without cancellation; the slope is the defining equation's
    sqrt((k_hat + rho^2) / phi).  build_substitution checks the arguments.
    """

    def __init__(self, potential: RadialPotential, r_start: float, r_end: float):
        p = self.potential = potential
        k = self._k = float(p.k_hat)
        self._r_start, self._r_end = float(r_start), float(r_end)

        def open_phi(s, phi):
            if phi.min() <= 0.0:
                raise DomainError(f"phi({s[phi <= 0.0][0]}) <= 0 at a quadrature node")
            return phi

        def g(s):
            tail = p.tail(s)
            ref = s * s + k
            sqrt_phi = np.sqrt(open_phi(s, ref + tail))
            ref = np.sqrt(ref)
            return -tail / (sqrt_phi * ref * (sqrt_phi + ref))

        def inner_f(s):
            return 1.0 / np.sqrt(open_phi(s, p.phi(s)))

        # Bounds on the rounding of the integrands.  phi and the tail are taken
        # to carry that of s^2 + |k_hat| + phi, as if the tail were formed as
        # phi - s^2 - k_hat: conservative for the closed-form tails, but it
        # decides which panels bisect, so it stays.  sqrt(phi) turns it into
        # a relative error of half that over phi.
        def g_rounding(s):
            phi = p.phi(s)
            err = _ULP * (s * s + abs(k) + phi)
            sqrt_phi, ref = np.sqrt(phi), np.sqrt(s * s + k)
            return (err * (1.0 + np.abs(p.tail(s)) / phi)
                    / (sqrt_phi * ref * (sqrt_phi + ref)))

        def inner_rounding(s):
            phi = p.phi(s)
            return 0.5 * _ULP * (s * s + abs(k) + phi) / (phi * np.sqrt(phi))

        self._g, self._inner_f = g, inner_f
        def in_t(f):  # s = r_end / t maps (0, 1] onto [r_end, inf)
            return lambda t: f(r_end / t) * (r_end / (t * t))
        beyond = _panel_integrals(in_t(g), in_t(g_rounding), np.zeros(1), np.ones(1))[0]

        count = math.ceil(_PANELS_PER_OCTAVE * math.log2(r_end / r_start))
        breaks = [r_start, ARCCOSH_BELOW] if k == -1.0 else [r_start]
        edges = np.sort(np.concatenate(
            (r_end * np.exp2(-np.arange(count) / _PANELS_PER_OCTAVE), breaks)))
        # drop repeats by hand: np.unique imports numpy.ma on first use
        fresh = np.append(True, edges[1:] != edges[:-1])
        edges = edges[fresh & (edges >= r_start) & (edges <= r_end)]
        # k_hat = -1 maps integrate u = arccosh(rho) on the panels below `inner`
        inner = int(np.searchsorted(edges, ARCCOSH_BELOW)) if k == -1.0 else 0
        below = edges[:inner + 1]
        edges, pieces = _pieces(g, g_rounding, edges[inner:])
        values = -(beyond + _to_last(pieces))  # D at the pieces' edges
        # a radius in piece j starts from the value at its upper edge
        top = values[1:]
        self._inner = 0
        if inner:
            inner_edges, pieces = _pieces(inner_f, inner_rounding, below)
            # u from r = 2 inward; the edge at 2 keeps D, the lower edge of an outer piece
            u = math.acosh(ARCCOSH_BELOW) + values[0] - _to_last(pieces)
            if u[0] <= 0.0:
                raise DomainError(f"rho reaches 1 above r_start = {r_start}: "
                                  "the map does not exist there")
            edges = np.concatenate((inner_edges[:-1], edges))
            values = np.concatenate((u[:-1], values))
            top = np.concatenate((u[1:], top))
            self._inner = pieces.size
        self._edges, self._top = edges, top
        c = self._deviation_from(edges, values, np.arange(edges.size))
        if not np.all(np.isfinite(c)):
            raise NumericalError("substitution deviation is not finite")
        rho = edges - c / edges ** 2
        if rho[0] <= 0.0:
            raise DomainError(f"rho reaches 0 above r_start = {r_start}: "
                              "the map does not exist there")
        if np.any(np.diff(rho) <= 0.0):
            raise NumericalError("substitution output is not strictly increasing")
        if abs(rho[-1] / r_end - 1.0) > 1e-6:
            raise NumericalError("rho/r failed to reach 1 at the outer radius")

    # -- domain -------------------------------------------------------

    @property
    def r_start(self) -> float:
        return self._r_start

    @property
    def r_end(self) -> float:
        return self._r_end

    @property
    def decades(self) -> float:
        return math.log10(self.r_end / self.r_start)

    def _require(self, r) -> None:
        r = np.asarray(r, dtype=float)
        if np.any(r < self.r_start * (1.0 - 1e-12)) or \
                np.any(r > self.r_end * (1.0 + 1e-12)):
            raise DomainError(
                f"r outside map domain [{self.r_start}, {self.r_end}]")

    # -- evaluation -----------------------------------------------------

    def _deviation_from(self, r: np.ndarray, arg: np.ndarray,
                        piece: np.ndarray) -> np.ndarray:
        """c at radii r from D there, or from u on the pieces below r = 2."""
        k = self._k
        if k == 1.0:
            return -2.0 * r * r * np.cosh(np.arcsinh(r) + 0.5 * arg) * np.sinh(0.5 * arg)
        if k == 0.0:
            return -r ** 3 * np.expm1(arg)
        inner = piece < self._inner
        if not inner.any():
            return -2.0 * r * r * np.sinh(np.arccosh(r) + 0.5 * arg) * np.sinh(0.5 * arg)
        c = r * r * (r - np.cosh(arg))
        outer = ~inner
        r, d = r[outer], arg[outer]
        c[outer] = -2.0 * r * r * np.sinh(np.arccosh(r) + 0.5 * d) * np.sinh(0.5 * d)
        return c

    def _values(self, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(D or u, piece index) at the radii r, a flat array."""
        piece = np.searchsorted(self._edges, r, side="right") - 1
        np.clip(piece, 0, self._top.size - 1, out=piece)
        top = self._edges[piece + 1]
        arg = self._top[piece]
        if not self._inner:
            return arg - _integrals(self._g, r, top), piece
        inner = piece < self._inner
        for part, f in ((inner, self._inner_f), (~inner, self._g)):
            if part.any():
                arg[part] -= _integrals(f, r[part], top[part])
        return arg, piece

    def _at(self, r) -> tuple[np.ndarray, np.ndarray]:
        """(r, c) as arrays of the shape of r, after the domain check."""
        self._require(r)
        r = np.asarray(r, dtype=float)
        flat = r.ravel()
        return r, self._deviation_from(flat, *self._values(flat)).reshape(r.shape)

    def deviation_scale(self, r):
        """c(r) = r^2 (r - rho(r)); tends to mu/3."""
        return _scalar_or_array(self._at(r)[1])

    def rho(self, r):
        r, c = self._at(r)
        return _scalar_or_array(r - c / r ** 2)

    def s(self, r):
        """Compactification coordinate s = 1/rho as a function of r."""
        r, c = self._at(r)
        return _scalar_or_array(1.0 / (r - c / r ** 2))

    def drho_dr(self, r):
        """Slope of the map from its defining equation."""
        r, c = self._at(r)
        rho = r - c / r ** 2
        return _scalar_or_array(np.sqrt((self._k + rho * rho) / self.potential.phi(r)))

    def area_factor(self, r):
        """(r/rho)^2, the ratio of compactified to asymptotic area."""
        r, c = self._at(r)
        return _scalar_or_array(1.0 / (1.0 - c / r ** 3) ** 2)


def _scalar_or_array(x: np.ndarray):
    return float(x) if x.ndim == 0 else x


#: 4-point Gauss-Legendre nodes and weights on [-1, 1], as returned by
#: np.polynomial.legendre.leggauss(4); literals, because computing them at
#: import time costs memory for nothing.
_GAUSS_X = np.array([-0.8611363115940526, -0.33998104358485626,
                     0.33998104358485626, 0.8611363115940526])
_GAUSS_W = np.array([0.34785484513745357, 0.6521451548625464,
                     0.6521451548625464, 0.34785484513745357])
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
ARCCOSH_BELOW = 2.0
#: Panels per octave of a map's partition: at 2.9% wide, a panel away from a
#: horizon passes its first test, so it costs one bisection into two pieces.
_PANELS_PER_OCTAVE = 24


def _weighted(f, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Half-widths of the [a_i, b_i] and the Gauss-weighted values of f there:
    half * v.sum(axis=1) is the Gauss-Legendre integral over each."""
    half = 0.5 * (b - a)
    return half, f((a + half)[:, None] + half[:, None] * _GAUSS_X) * _GAUSS_W


def _gauss(f, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre integrals of f and of |f| over each [a_i, b_i]."""
    half, v = _weighted(f, a, b)
    return half * v.sum(axis=1), half * np.abs(v).sum(axis=1)


def _integrals(f, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Gauss-Legendre integrals of f over each [a_i, b_i], _BATCH at a time."""
    out = np.empty(a.size)
    for lo in range(0, a.size, _BATCH):
        half, v = _weighted(f, a[lo:lo + _BATCH], b[lo:lo + _BATCH])
        out[lo:lo + _BATCH] = half * v.sum(axis=1)
    return out


def _accepted(f, rounding, a: np.ndarray, b: np.ndarray):
    """Adaptive quadrature of f over the panels [a_i, b_i].

    Each panel's Gauss value is compared with the sum over its two halves.
    The halves are kept when the two agree to _PANEL_RTOL of int |f|, or to
    _ROUNDING_SLACK times int rounding, where rounding(s) bounds the
    rounding error of f(s); otherwise both halves are tested the same way.
    Returns the panel index, lower edge and Gauss value of every kept half,
    in no particular order.  Raises NumericalError when a panel still
    disagrees after _MAX_LEVELS bisections or a batch needs more than
    _MAX_SUBPANELS sub-panels.
    """
    kept = [(np.zeros(0, dtype=int), np.zeros(0), np.zeros(0))]
    for lo in range(0, a.size, _BATCH):
        owner = np.arange(lo, min(lo + _BATCH, a.size))
        left, right = a[owner], b[owner]
        whole = None
        level = 0
        while True:
            # both halves in one evaluation, and on the first level the whole
            n, mid = left.size, 0.5 * (left + right)
            ends = (mid, right) if whole is not None else (mid, right, right)
            value, size = _gauss(f, np.concatenate((left, mid, left)[:len(ends)]),
                                 np.concatenate(ends))
            first, second = value[:n], value[n:2 * n]
            if whole is None:
                whole = value[2 * n:]
            diff = np.abs(whole - (first + second))
            bad = np.nonzero(diff > _PANEL_RTOL * (size[:n] + size[n:2 * n]))[0]
            if bad.size:
                # rounding bounds only where the rule test fails: it is rare
                noise = _gauss(rounding, np.concatenate((left[bad], mid[bad])),
                               np.concatenate((mid[bad], right[bad])))[1]
                noise = noise[:bad.size] + noise[bad.size:]
                bad = bad[diff[bad] > _ROUNDING_SLACK * noise]
            keep = np.ones(n, dtype=bool)
            keep[bad] = False
            kept.append((np.tile(owner[keep], 2), np.concatenate((left[keep], mid[keep])),
                         np.concatenate((first[keep], second[keep]))))
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
    return tuple(np.concatenate(part) for part in zip(*kept))


def _panel_integrals(f, rounding, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Integrals of f over the panels [a_i, b_i], adaptively (see _accepted)."""
    owner, _, value = _accepted(f, rounding, a, b)
    return np.bincount(owner, weights=value, minlength=a.size)


def _to_last(pieces: np.ndarray) -> np.ndarray:
    """The integrals from each edge of consecutive pieces to the last edge,
    summed from the last inward."""
    return np.append(np.cumsum(pieces[::-1])[::-1], 0.0)


def _pieces(f, rounding, edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The pieces the quadrature accepts on the panels between the sorted
    edges, as their edges (ascending) and the integrals of f over them."""
    _, left, value = _accepted(f, rounding, edges[:-1], edges[1:])
    order = np.argsort(left)
    return np.append(left[order], edges[-1]), value[order]


def build_substitution(p: RadialPotential, r_start: float, r_end: float) -> SubstitutionMap:
    """The substitution r <-> rho of p over [r_start, r_end], by quadrature.

    The defining equation separates: A(rho) - A(r) = D(r) with
    A = arcsinh, log or arccosh for k_hat = 1, 0, -1 and

        D(r) = -int_r^inf g,   g = -tail / (sqrt(phi) R (sqrt(phi) + R)),

    where R = sqrt(s^2 + k_hat); g is 1/sqrt(phi) - 1/R written without
    cancellation.  The integral over [r_end, inf) is taken exactly through
    s = r_end / t.  For k_hat = -1 the reference is singular at s = 1, so
    below r = 2 the map integrates u = arccosh(rho) through
    du/dr = 1/sqrt(phi).  u <= 0 means rho reaches 1, and rho <= 0
    (k_hat = 1) that rho reaches 0: the map does not exist there
    (DomainError).  The span must pass require_map_extent, and r_start must
    lie in p's domain (require_inside), beyond which phi > 0; a quadrature
    node where phi is not positive still raises DomainError.

    The quadrature is adaptive and exact at every radius (see
    SubstitutionMap).
    """
    require_map_extent(p.k_hat, r_start, r_end)
    p.require_inside(r_start)
    return SubstitutionMap(p, r_start, r_end)


def require_map_extent(k_hat: int, r_start: float, r_end: float) -> None:
    """DomainError unless a map of curvature sign k_hat may span
    [r_start, r_end]: 0 < r_start < r_end, three decades for reliable
    asymptotics, and for k_hat = -1 an end at r >= ARCCOSH_BELOW."""
    if r_start <= 0.0 or r_end <= r_start:
        raise DomainError("need 0 < r_start < r_end")
    if r_end / r_start < 1e3 * (1.0 - 1e-12):
        raise DomainError("need r_end / r_start >= 1e3")
    if k_hat == -1 and r_end < ARCCOSH_BELOW:
        raise DomainError(f"k_hat = -1 maps need r_end >= {ARCCOSH_BELOW:g}, "
                          f"and this one would end at r = {r_end:g}")


def _dyadic_deviation(sub_map: SubstitutionMap) -> tuple[np.ndarray, np.ndarray]:
    """The radii r = r_end / 2^k, k < MU_SAMPLES, ascending, and the map's
    c = r^2 (r - rho) there: the one read that each extraction makes."""
    if sub_map.decades < 3.0 - 1e-9:
        raise DomainError("map must cover at least 3 decades")
    r = sub_map.r_end / 2.0 ** np.arange(MU_SAMPLES - 1, -1, -1)
    return r, sub_map.deviation_scale(r)


def _mass_aspect(r: np.ndarray, c: np.ndarray) -> MassAspectResult:
    """mu from the dyadic c: (3/2) rho (r^2 - rho^2) without cancellation,
    Richardson-extrapolated in 1/r."""
    mu, err = richardson(3.0 * c - 4.5 * c ** 2 / r ** 3 + 1.5 * c ** 3 / r ** 6)
    if err > MU_TOLERANCE:
        raise ExtractionError(
            f"extrapolation levels disagree by {err:.3e} > {MU_TOLERANCE:.3e}")
    return MassAspectResult(mu=mu, error_estimate=err)


def mass_aspect_extract(sub_map: SubstitutionMap) -> MassAspectResult:
    """Extract mu = (3/2) lim rho (r^2 - rho^2) by dyadic extrapolation."""
    return _mass_aspect(*_dyadic_deviation(sub_map))


def expansion_extract(sub_map: SubstitutionMap
                      ) -> tuple[MassAspectResult, ExpansionFit, ExpansionFit]:
    """mu, and a2 of V^2 = rho^2 + k_hat + a2/rho and of
    |grad V|^2 = rho^2 + a2/rho (-4m/3 and 8m/3 on these profiles), from
    the one read of mass_aspect_extract.

    Each deviation from the model is formed without cancellation from c,
    the potential's tail = phi - r^2 - k_hat and its
    gradient_tail h = phi'/2 - r:

        r^2 - rho^2 = c (2r - c/r^2) / r^2,
        V^2 - rho^2 - k_hat = (r^2 - rho^2) + tail,
        |grad V|^2 - rho^2 = h (2r + h) + (r^2 - rho^2),

    and rho times it is Richardson-extrapolated in 1/r, as mu is.
    """
    r, c = _dyadic_deviation(sub_map)
    p = sub_map.potential
    gap, rho = c * (2.0 * r - c / r ** 2) / r ** 2, r - c / r ** 2
    h = p.gradient_tail(r)
    return (_mass_aspect(r, c), ExpansionFit(*richardson(rho * (gap + p.tail(r)))),
            ExpansionFit(*richardson(rho * (h * (2.0 * r + h) + gap))))


def conformal_area(inf: ConformalInfinity, sub_map: SubstitutionMap, r: float) -> float:
    """Area of the coordinate sphere in the compactified metric.

    |Sigma~| = |Sigma_hat| (r/rho)^2, which converges to the area of the
    conformal infinity as r grows.
    """
    inf.require_sign(sub_map.potential.k_hat)
    return inf.area * float(sub_map.area_factor(r))


def conformal_mean_curvature_residual(sub_map: SubstitutionMap, r: float) -> float:
    """Defect of H = s H~ + 2 nu~(s) between two independent evaluations.

    The left side comes from the radial profile; the right side is read off
    the compactified metric psi du^2 + chi ghat, chi = (r/rho)^2 the area
    factor, with H~ = chi'/(chi sqrt(psi)) oriented outward and nu~(s)
    taken along the inward normal.  chi' is a Richardson central difference
    of the map's area factor, not its slope, so the residual measures the
    map's error and the difference's.
    """
    p = sub_map.potential
    p.require_inside(r)
    h_direct = mean_curvature_sphere(p, r)
    phi = p.phi(r)
    if phi <= 0.0:
        raise DomainError("needs phi(r) > 0")
    step = min(r * 1e-4, 0.4 * (r - sub_map.r_start), 0.4 * (sub_map.r_end - r))
    if step <= 0.0:
        raise NumericalError("no room to difference the area factor at this radius")
    chi = sub_map.area_factor(r + step * np.array([0.0, 1.0, -1.0, 0.5, -0.5]))
    dchi, _ = richardson([(chi[1] - chi[2]) / (2.0 * step), (chi[3] - chi[4]) / step],
                         first_order=2, levels=1)
    s = sub_map.s(r)
    sqrt_psi = s / math.sqrt(phi)
    h_tilde = dchi / (chi[0] * sqrt_psi)
    nu_tilde_s = sub_map.drho_dr(r) * s * s / sqrt_psi  # ds/dr = -s^2 drho/dr
    return abs(h_direct - (s * h_tilde + 2.0 * nu_tilde_s))
