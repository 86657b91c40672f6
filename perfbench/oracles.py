"""Independent checks of member artifacts against closed forms and mpmath.

Each check returns the names of the quantities that disagree; an empty
list means the member's outputs agree.  Tolerances come from the
conditioning of the quantity, never from what the program happens to
produce (u is the unit roundoff 2^-53):

* Horizon radius r of r^3 + k r - 2m: a float r can only be expected to
  make |p(r)| as small as the rounding of its terms,
  beta = 16 u (r^3 + |k| r + 2|m|).  The largest |dr| with
  p' dr + (p''/2) dr^2 = beta is 2 beta / (p' + sqrt(p'^2 + 2 p'' beta)),
  which is beta/p' for a simple root and sqrt(2 beta/p'') at a double
  root; add u r for representing r.
* reference_mass of a static comparison on Kottler data: the reference
  is rebuilt from kappa = p'(r)/2, and dm/dr = p'(r)/2, so a radius error
  dr moves the mass by p'(r)/2 dr; add 16 u max(1, |m|).
* sup(W - W0) on Kottler data: W equals W0 identically, so it must stay
  below the comparison's own documented tolerance w_tol = 1e-9.
* Flow radius against r0 e^(t/2): each RK4 step of r' = r/2 has relative
  truncation error z^5/120 (z = dt/2) and at most about 8 u of rounding;
  both accumulate over i steps, and t itself carries a rounding of u t.
* Hawking mass against c^(3/2) (m - eps/(2r)) and the Geroch rate against
  c^(3/2) eps / (4r): both are evaluated at the radius the trajectory
  reports, so only the rounding of the documented formulas counts.  The
  rate is (16 pi)^(-3/2) |Sigma|^(3/2) (R + 6) with R from phi and phi';
  R + 6 cancels, so its rounding 8 u (2|phi'|/r + 2(|k| + |phi|)/r^2 + 6)
  is multiplied by c^(3/2) r^3 / 8.
* Mass aspect mu against m: the dyadic Richardson extrapolation reports
  the change of its last level as error_estimate; on these profiles the
  true error runs up to about nine times that change (the extrapolated
  error series is not exactly a power series in 1/r), so the tolerance
  is 32 error_estimate plus 1e-12 max(1, |m|) for the ODE's rtol.
"""

from __future__ import annotations

import functools
import json
import math
from pathlib import Path

import mpmath
import numpy as np

U = 2.0 ** -53
W_TOL = 1e-9


@functools.lru_cache(maxsize=None)
def largest_root(k_hat: int, m: float) -> float:
    """Largest real root of r^3 + k_hat r - 2m, from a 50-digit solve."""
    with mpmath.workdps(50):
        roots = mpmath.polyroots([1, 0, k_hat, -2 * mpmath.mpf(m)],
                                 maxsteps=200, extraprec=100)
        real = [mpmath.re(z) for z in roots
                if abs(mpmath.im(z)) <= mpmath.mpf(10) ** -30]
        return float(max(real))


def root_tolerance(k_hat: int, m: float, r: float) -> float:
    beta = 16.0 * U * (r ** 3 + abs(k_hat) * r + 2.0 * abs(m))
    d1 = abs(3.0 * r * r + k_hat)
    d2 = 6.0 * r
    return U * r + 2.0 * beta / (d1 + math.sqrt(d1 * d1 + 2.0 * d2 * beta))


def _root_ok(k_hat, m, reported) -> bool:
    r = largest_root(k_hat, m)
    return abs(reported - r) <= root_tolerance(k_hat, m, r)


def _read_csv(path: Path):
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    with open(path) as f:
        header = f.readline().strip().split(",")
    return {name: data[:, i] for i, name in enumerate(header)}


def check_kottler(cfg, member_dir: Path) -> list[str]:
    result = json.loads((member_dir / "report.json").read_text())["result"]
    ok = _root_ok(cfg["k_hat"], cfg["m"], result["horizon_radius"])
    return [] if ok else ["horizon_radius"]


def check_penrose(cfg, member_dir: Path) -> list[str]:
    cols = _read_csv(member_dir / "equality.csv")
    return [f"horizon_radius_m{i}"
            for i, (m, r) in enumerate(zip(cols["m"], cols["horizon_radius"]))
            if not _root_ok(-1, float(m), float(r))]


def check_static_compare(cfg, member_dir: Path) -> list[str]:
    report = json.loads((member_dir / "comparison.json").read_text())
    m = cfg["m"]
    r = largest_root(-1, m)
    r_tol = root_tolerance(-1, m, r)
    bad = []
    if abs(report["area_radius"] - r) > r_tol:
        bad.append("area_radius")
    if abs(report["reference_area_radius"] - r) > r_tol:
        bad.append("reference_area_radius")
    m_tol = 0.5 * abs(3.0 * r * r - 1.0) * r_tol + 16.0 * U * max(1.0, abs(m))
    if abs(report["reference_mass"] - m) > m_tol:
        bad.append("reference_mass")
    if not report["sup_w_minus_w0"] <= W_TOL:
        bad.append("sup_w_minus_w0")
    return bad


def check_flow(cfg, member_dir: Path) -> list[str]:
    cols = _read_csv(member_dir / "trajectory.csv")
    t, r = cols["t"], cols["r"]
    k, m, eps = cfg["k_hat"], cfg["m"], cfg["eps"]
    c = float(max(1, cfg["genus"] - 1))
    gamma = c ** 1.5
    bad = []

    steps = np.arange(t.size)
    z = 0.5 * cfg["t_max"] / cfg["steps"]  # half the step size
    exact_r = cfg["r0"] * np.exp(0.5 * t)
    r_tol = exact_r * (steps * (z ** 5 / 120.0 + 8.0 * U) + (t + 4.0) * U)
    if np.any(np.abs(r - exact_r) > r_tol):
        bad.append("r")

    exact_mass = gamma * (m - eps / (2.0 * r))
    mass_tol = 16.0 * U * gamma * (abs(m) + abs(eps) / r)
    if np.any(np.abs(cols["hawking_mass"] - exact_mass) > mass_tol):
        bad.append("hawking_mass")

    exact_rate = gamma * eps / (4.0 * r)
    phi_terms = r * r + abs(k) + 2.0 * abs(m) / r + abs(eps) / (r * r)
    dphi_terms = 2.0 * r + 2.0 * abs(m) / (r * r) + 2.0 * abs(eps) / r ** 3
    curvature_err = 8.0 * U * (2.0 * dphi_terms / r
                               + 2.0 * (abs(k) + phi_terms) / (r * r) + 6.0)
    rate_tol = gamma * r ** 3 / 8.0 * curvature_err + 8.0 * U * np.abs(exact_rate)
    if np.any(np.abs(cols["geroch_rate"] - exact_rate) > rate_tol):
        bad.append("geroch_rate")
    return bad


def check_mass_aspect(cfg, member_dir: Path) -> list[str]:
    result = json.loads((member_dir / "report.json").read_text())["result"]
    tol = 32.0 * result["error_estimate"] + 1e-12 * max(1.0, abs(cfg["m"]))
    return [] if abs(result["mu"] - cfg["m"]) <= tol else ["mu"]


CHECKS = {
    "kottler": check_kottler,
    "penrose": check_penrose,
    "static-compare": check_static_compare,
    "flow": check_flow,
    "mass-aspect": check_mass_aspect,
}


def check_member(cfg: dict, member_dir: Path) -> list[str]:
    """Oracle disagreements of one member that wrote its report."""
    return CHECKS[cfg["kind"]](cfg, Path(member_dir))
