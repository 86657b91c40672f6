"""Configuration-driven scenario runner.

The registry `_KINDS` is the one list of scenario kinds and their fields:
each entry declares a kind's config keys with the type, range and default
of each, the check that spans keys, the runner (none for sweep, which runs
the scenarios it expands) and the one data file the kind writes.  There is
one subcommand per registered kind.  Each takes --config (a JSON file), --out
(output directory) and optionally --tolerance (a global tolerance override).
A "tolerances" object in the config overrides individual tolerances, and may
name only those its kind reads.

Artifacts are deterministic: a CSV float has 17 significant digits, a JSON
float is Python's shortest round-trip repr (1e-10, 0.0), JSON keys and CSV
columns keep a fixed order, and wall time is printed to stdout but never
written into an artifact.  Re-running an identical config reproduces every
output byte for byte.

Exit codes: 0 success, 1 a check failed or the run hit a numerical error,
2 the configuration failed validation.  A subcommand's scenario, or a sweep
member, that raises after validation, or whose validation raises
NumericalError (a horizon solve that fails), leaves error.json, with the
exception's type and message, in its output directory.  So does a check
whose value is not finite: no artifact holds a NaN or an infinity.  A run
into an existing directory first removes the outcome files an earlier run
left there: report.json, error.json and each kind's data file, and for a
sweep those of the member directories past its last member, which go once
empty.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys
import time
from dataclasses import asdict
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import asymptotics, flow, geometry, static_compare
from ._text import csv_text
from .errors import ConfigError, DomainError, NumericalError
from .geometry import FOUR_PI, conformal_infinity, critical_mass, kottler_potential

__all__ = ["main", "run_scenario", "run_sweep", "load_config"]


# ---------------------------------------------------------------------------
# deterministic serialization


def write_json(obj, path: Path) -> None:
    with open(path, "w", newline="\n") as f:
        f.write(json.dumps(obj, indent=2) + "\n")


def write_csv(header, columns, path: Path) -> None:
    """Write a table given as columns: float arrays, or lists of config
    values (see `_text.csv_text`)."""
    with open(path, "wb") as f:
        f.writelines(csv_text(header, columns))


# ---------------------------------------------------------------------------
# configuration


# Upper bounds, each just below the value from which a computation overflows;
# a large value below one may still fail an absolute tolerance (exit 1).
#: The cubic solve for the horizon cubes 2m, which overflows from m = 2.8e102.
_MASS_MAX = 1e100
#: (genus - 1)^(3/2), in the Hawking mass and Penrose bound, overflows from 3.2e205.
_GENUS_MAX = 1e200
#: The last radius of a kottler profile or a flow: the profile's d2phi cubes r
#: (overflow from 5.6e102), the flow's area squares it (from 3.8e153 at genus 2).
_R_MAX = 1e100
#: The c^3/r^6 term of SubstitutionMap.mu_at overflows from about r = 2.4e51.
_MU_R_MAX = 1e50
#: |eps|: from eps = 1.5e56 the substitution quadrature beyond r_end stops
#: converging on maps from r = 2 to 2e3, where the tail's scale eps^(1/4)
#: lies far past r_end.  The horizon scan overflows only from 1.3e153.
_EPS_MAX = 1e56
# Caps on the int fields that size arrays, so that one member's peak RSS grows
# by under 1 GiB.  Growth per element is the ru_maxrss growth of one run in a
# fresh process from 2^14 to 2^16 elements, extrapolated linearly.
#: A flow keeps about 136 B a step (its columns and the CSV rows): 5e6 steps
#: take 0.68 GB.
_STEPS_MAX = 5_000_000
#: A kottler profile keeps about 152 B a radius: 5e6 radii take 0.76 GB.
_N_RADII_MAX = 5_000_000
#: A penrose scan keeps about 40 B a point: 2e7 points take 0.80 GB.
_SCAN_POINTS_MAX = 20_000_000
#: The least positive float: the range [_POSITIVE, hi] is (0, hi].
_POSITIVE = math.ulp(0.0)


class _Field(NamedTuple):
    """A numeric config key: an int, or for float any finite number, in [lo, hi]
    and one of `values` if set.  `message` is the error below lo, outside `values`
    and of a wrong type but for a plain float, `above` the error above hi."""

    type: type
    lo: float = -math.inf
    hi: float = math.inf
    message: str = ""
    above: str = ""
    values: tuple = ()


class _Kind(NamedTuple):
    """A scenario kind.  `fields` maps every key but kind and tolerances, in
    check order, to its _Field, or to None when `check` alone reads it.
    `defaults` fills the optional keys in order.  `tolerances` maps the name
    of each tolerance that `run` reads to its default; a config's
    "tolerances" may override these and name no other.  `check`, run after
    every field passed, tests what spans fields and returns what _Validated
    keeps, as keyword arguments, or None.  `run` is None for sweep (see
    run_sweep); else it writes `artifact` at the path it is given and
    returns the report's result.  A sweep's artifact is its summary."""

    fields: dict
    defaults: dict
    tolerances: dict
    check: Callable
    run: Callable
    artifact: str


def _is_a(value, type_) -> bool:
    """The one type check of config numbers: no bool, and for a float field
    any int or float of finite size (not NaN or inf)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    return isinstance(value, int) if type_ is int else abs(value) <= sys.float_info.max


def _check_field(key, field, value) -> None:
    if not _is_a(value, field.type) or (field.values and value not in field.values):
        raise ConfigError(field.message if field.type is int or field.values else
                          f"config key '{key}' must be a number, got {value!r}")
    if value < field.lo:
        raise ConfigError(field.message or f"config key '{key}' must be at "
                          f"least {field.lo:g}, got {value!r}")
    if value > field.hi:
        raise ConfigError(field.above or f"config key '{key}' must be at "
                          f"most {field.hi:g}, got {value!r}")


def load_config(path) -> dict:
    try:
        with open(path) as f:
            return json.load(f)
    # ValueError: not JSON (JSONDecodeError) or not text (UnicodeDecodeError);
    # RecursionError: arrays or objects nested past the parser's depth
    except (OSError, ValueError, RecursionError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc


class _Validated(dict):
    """A config that passed validate_config, with its defaults filled in.

    It keeps what validation built, so running it builds nothing twice: the
    potential of a kottler, flow or mass-aspect config, the validated members
    of a sweep (a member whose validation raised NumericalError stays as given).
    It is read-only, since a changed key would leave those stale.
    """

    def __init__(self, cfg: dict, potential=None, members=()):
        super().__init__(cfg)
        self.potential = potential
        self.members = members

    def _read_only(self, *args, **kwargs):
        raise TypeError("a validated config is read-only; validate a changed copy")

    __setitem__ = __delitem__ = __ior__ = _read_only
    clear = pop = popitem = setdefault = update = _read_only


def validate_config(cfg: dict) -> dict:
    """Check keys, numeric fields and the preconditions of the library
    functions the run calls (a DomainError of theirs is a ConfigError); return
    the config with its defaults, as a read-only dict that run_scenario and
    run_sweep accept without validating it again."""
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    kind = cfg.get("kind")
    if not isinstance(kind, str) or kind not in _KINDS:  # a list is unhashable
        raise ConfigError(f"unknown scenario kind {kind!r}; "
                          f"expected one of {sorted(_KINDS)}")
    spec = _KINDS[kind]
    unknown = set(cfg) - {"kind", *spec.fields}
    if spec.run is not None:  # a sweep's members carry their own tolerances
        unknown.discard("tolerances")
    if unknown:
        raise ConfigError(f"unknown config keys for kind '{kind}': {sorted(unknown)}")
    missing = {"kind", *spec.fields} - set(spec.defaults) - set(cfg)
    if missing:
        raise ConfigError(f"missing config keys for kind '{kind}': {sorted(missing)}")
    out = dict(cfg)
    for key, default in spec.defaults.items():
        out.setdefault(key, default)
    out.setdefault("tolerances", {})
    if not isinstance(out["tolerances"], dict):
        raise ConfigError("'tolerances' must be an object")
    for name, val in out["tolerances"].items():
        if name not in spec.tolerances:
            raise ConfigError(f"unknown tolerance name '{name}'")
        if not _is_a(val, float) or val <= 0:
            raise ConfigError(f"tolerance '{name}' must be a positive number")
    for key, field in spec.fields.items():
        if field is not None:
            _check_field(key, field, out[key])
    try:
        kept = spec.check(out)
    except DomainError as exc:  # a module precondition, such as genus >= 0
        raise ConfigError(str(exc)) from exc
    return _Validated(out, **(kept or {}))


def _check_sweep(out):
    if not isinstance(out["base"], dict):
        raise ConfigError("'base' must be an object")
    if out["base"].get("kind") == out["kind"]:
        raise ConfigError("sweeps cannot nest")
    if not isinstance(out["vary"], dict) or not out["vary"]:
        raise ConfigError("'vary' must be a non-empty object of parameter lists")
    if "kind" in out["vary"]:
        raise ConfigError("'kind' cannot vary: every member has the base's kind")
    for key, values in out["vary"].items():
        if not isinstance(values, list):
            raise ConfigError(f"vary parameter '{key}' must map to a list")
        if not values:  # a sweep of no members would validate nothing
            raise ConfigError(f"vary parameter '{key}' must map to a non-empty list")
    members = []
    for member in expand_sweep(out):
        try:
            members.append(validate_config(member))
        except NumericalError:  # a horizon solve failed: the member's run
            members.append(member)  # raises it again, and run_sweep records it
    return {"members": members}


def _check_kottler(cfg):
    potential = kottler_potential(cfg["k_hat"], cfg["m"])
    conformal_infinity(cfg["genus"]).require_sign(cfg["k_hat"])
    # the profile's radii reach r_h r_max_factor, 0.5 r_max_factor without a horizon
    if (potential.domain_start or 0.5) * cfg["r_max_factor"] > _R_MAX:
        raise ConfigError(f"r_max_factor {cfg['r_max_factor']!r} puts the profile's "
                          f"last radius past r = {_R_MAX:g}")
    return {"potential": potential}


def _check_flow(cfg):
    geometry.require_admissible(cfg["k_hat"], cfg["m"])
    conformal_infinity(cfg["genus"]).require_sign(cfg["k_hat"])
    if cfg["steps"] < 4:  # rate_matches_difference differences five states
        raise ConfigError("flow scenarios need steps >= 4")
    if cfg["r0"] * math.exp(0.5 * cfg["t_max"]) > _R_MAX:
        raise ConfigError(f"the flow's last radius r0 e^(t_max/2) lies past r = {_R_MAX:g}")
    potential = _potential_from(cfg)
    # from the horizon on, where phi's sign is noise, not below an inner root
    potential.require_inside(cfg["r0"])
    return {"potential": potential}


def _check_mass_aspect(cfg):
    geometry.require_admissible(cfg["k_hat"], cfg["m"])
    asymptotics.require_map_extent(cfg["k_hat"], cfg["r_start"], cfg["r_end"])
    potential = _potential_from(cfg)
    # from the horizon on, as for the flow: require_inside owns the domain
    potential.require_inside(cfg["r_start"])
    return {"potential": potential}


def _check_penrose(cfg) -> None:
    masses = cfg["masses"]
    if not isinstance(masses, list) or not masses:
        raise ConfigError("'masses' must be a non-empty list")
    for m in masses:
        if not _is_a(m, float):
            raise ConfigError("'masses' entries must be numbers")
        geometry.require_admissible(-1, m)
        _check_field("masses", _MASS, m)
    # a scan that ends before the minimizer fails minimizer_location
    _, minimizer = flow.hawking_lower_bound(cfg["genus"])
    if cfg["scan_area_max"] < minimizer:
        raise ConfigError(f"scan_area_max {cfg['scan_area_max']} is below the "
                          f"minimizer area {minimizer} of genus {cfg['genus']}")


def _check_static_compare(cfg) -> None:
    geometry.require_admissible(-1, cfg["m"])
    if cfg["m"] <= critical_mass(-1) + 1e-12:
        raise ConfigError("critical data has no surface-gravity reference")


def _potential_from(cfg):
    return kottler_potential(cfg["k_hat"], cfg["m"], cfg["eps"])


def expand_sweep(cfg: dict) -> list[dict]:
    """Cartesian expansion of the vary lists over the base config."""
    members = [dict(cfg["base"])]
    for key, values in cfg["vary"].items():
        members = [dict(m, **{key: v}) for m in members for v in values]
    return members


# ---------------------------------------------------------------------------
# scenario execution


class _Checks:
    """The checks of one run.  A tolerance is the config's, else the
    --tolerance override, else the kind's default."""

    def __init__(self, defaults, cfg_tols, tol_override):
        self._tols = {name: float(cfg_tols.get(
            name, default if tol_override is None else tol_override))
            for name, default in defaults.items()}
        self.items = []

    def add(self, name, value, tol_name=None):
        """Record a check; NumericalError for a value that is not finite,
        which no artifact may hold (checks run before the data file)."""
        value, tol = float(value), self._tols[tol_name or name]
        if not math.isfinite(value):
            raise NumericalError(f"check {name} is not finite: {value}")
        self.items.append({"name": name, "value": value,
                           "tolerance": tol, "passed": value <= tol})


def _run_kottler(cfg, path, checks):
    p = cfg.potential
    inf = conformal_infinity(cfg["genus"])
    r_m = p.domain_start
    kappa = geometry.surface_gravity(p)
    checks.add("horizon_relation",
               abs(2.0 * cfg["m"] - (r_m ** 3 + cfg["k_hat"] * r_m)))
    # against phi'(r_h)/2, an independent value of the same quantity
    checks.add("surface_gravity", abs(kappa - 0.5 * p.dphi(r_m)) if r_m > 0 else 0.0)
    if r_m > 0:
        radii = np.geomspace(r_m * 1.05, r_m * cfg["r_max_factor"], cfg["n_radii"])
    else:
        radii = np.geomspace(0.5, 0.5 * cfg["r_max_factor"], cfg["n_radii"])
    curv = geometry.scalar_curvature(p, radii)
    res = geometry.static_residual(p, radii)
    m_h = geometry.hawking_mass_sphere(inf, p, radii)
    target = inf.gamma * cfg["m"]
    checks.add("scalar_curvature", float(np.max(np.abs(curv + 6.0))))
    checks.add("static_residual",
               float(np.max(np.maximum(res.laplace_residual, res.ricci_residual))))
    checks.add("hawking_mass_constant", float(np.max(np.abs(m_h - target))))
    write_csv(("r", "phi", "scalar_curvature", "hawking_mass",
               "laplace_residual", "ricci_residual"),
              (radii, p.phi(radii), curv, m_h,
               res.laplace_residual, res.ricci_residual), path)
    return {"horizon_radius": r_m, "surface_gravity": kappa}


def _run_flow(cfg, path, checks):
    p = cfg.potential
    inf = conformal_infinity(cfg["genus"])
    traj = flow.imcf_integrate(inf, p, cfg["r0"], cfg["t_max"], cfg["steps"])
    t, r, area = traj.t, traj.r, traj.area
    mass, rate = traj.hawking_mass, traj.geroch_rate

    checks.add("area_law", float(np.max(np.abs(area / (area[0] * np.exp(t)) - 1.0))))
    checks.add("final_radius",
               abs(r[-1] / (cfg["r0"] * math.exp(0.5 * cfg["t_max"])) - 1.0))
    checks.add("hawking_monotone", traj.max_violation)
    # fourth-order centred difference: the second-order one carries a
    # truncation error of about rate dt^2/24, which alone can exceed the
    # absolute tolerance on a correct flow with a large step
    dt = t[1] - t[0]
    fd = (8.0 * (mass[3:-1] - mass[1:-3]) - (mass[4:] - mass[:-4])) / (12.0 * dt)
    checks.add("rate_matches_difference", float(np.max(np.abs(fd - rate[2:-2]))))

    flow.write_trajectory_csv(traj, path=path)
    return {"final_radius": float(r[-1]), "max_violation": traj.max_violation}


def _run_mass_aspect(cfg, path, checks):
    p = cfg.potential
    sub_map = asymptotics.build_substitution(p, cfg["r_start"], cfg["r_end"])
    result = asymptotics.mass_aspect_extract(sub_map)
    checks.add("extraction_converged", result.error_estimate)
    checks.add("mu_matches_mass", abs(result.mu - cfg["m"]))

    samples = asymptotics.dyadic_profile_samples(
        sub_map, lambda rr: geometry.potential_gradient_squared(p, rr), p.phi)
    fits = []
    for column, (quantity, target) in enumerate(
            (("gradient_squared", 8.0 * cfg["m"] / 3.0),
             ("potential_squared", -4.0 * cfg["m"] / 3.0)), start=1):
        fit = asymptotics.expansion_fit(samples[:, [0, column]])
        fits.append({"quantity": quantity, "a0": fit.a0, "a1": fit.a1,
                     "a2": fit.a2, "error_estimate": fit.error_estimate})
        checks.add(f"{quantity}_coefficient", abs(fit.a2 - target))
    write_json(fits, path)
    return {"mu": result.mu, "error_estimate": result.error_estimate, "expansions": fits}


def _run_penrose(cfg, path, checks):
    genus = cfg["genus"]
    inf = conformal_infinity(genus)
    rows = []
    for i, m in enumerate(cfg["masses"]):
        r_h = kottler_potential(-1, m).domain_start
        area = inf.area * r_h ** 2
        rhs = flow.penrose_rhs(genus, area)
        rows.append((r_h, area, rhs, abs(rhs - m)))
        checks.add(f"equality_m{i}", abs(rhs - m), tol_name="equality")
    bound, minimizer = flow.hawking_lower_bound(genus)
    grid = np.linspace(0.0, cfg["scan_area_max"], cfg["scan_points"])
    vals = np.sqrt(grid / (16.0 * math.pi)) * (1.0 - genus + grid / FOUR_PI)
    spacing = grid[1] - grid[0]
    checks.add("scan_above_bound", float(max(0.0, bound - vals.min())))
    checks.add("minimizer_location",
               float(abs(grid[int(np.argmin(vals))] - minimizer) / spacing))
    # the masses are config values: an int mass reads as an int
    write_csv(("m", "horizon_radius", "boundary_area", "bound_rhs", "residual"),
              (cfg["masses"], *np.array(rows, dtype=float).T), path)
    return {"lower_bound": bound, "minimizer_area": minimizer,
            "scan_min": float(vals.min())}


def _run_static_compare(cfg, path, checks):
    p = kottler_potential(-1, cfg["m"])
    report = static_compare.compare_with_reference(
        p, cfg["genus"], map_r_end=cfg["map_r_end"])
    # each margin is positive where its inequality of the comparison chain
    # fails; on Kottler data, its own reference, all read at rounding level
    checks.add("w_le_w0", report.sup_w_minus_w0)
    checks.add("boundary_curvature_ge_reference",
               report.reference_curvature - report.boundary_curvature)
    checks.add("mass_aspect_le_reference", report.mass_aspect - report.reference_mass)
    checks.add("area_radius_ge_reference",
               report.reference_area_radius - report.area_radius)
    checks.add("cubic_root", report.cubic_residual)
    comparison = asdict(report)
    write_json(comparison, path)
    return comparison


# ---------------------------------------------------------------------------
# the registry: the one list of scenario kinds, their fields and runners


_K_HAT = _Field(float, message="k_hat must be -1, 0 or +1", values=(-1, 0, 1))
_MASS = _Field(float, hi=_MASS_MAX)  # the admissible minimum depends on k_hat
_GENUS = _Field(int, hi=_GENUS_MAX, message="genus must be an integer")
_EPS = _Field(float, -_EPS_MAX, _EPS_MAX)
_R0_T_MAX = "r0 and t_max must be positive"

_KINDS = {
    "kottler": _Kind({
        "k_hat": _K_HAT, "m": _MASS,
        "n_radii": _Field(int, 2, _N_RADII_MAX, "n_radii must be an integer >= 2"),
        # _check_kottler caps it from the horizon radius
        "r_max_factor": _Field(float, math.nextafter(1.0, 2.0),
                               message="r_max_factor must exceed 1"),
        "genus": _GENUS,
    }, {"n_radii": 20, "r_max_factor": 1e3}, {
        "horizon_relation": 1e-12, "surface_gravity": 1e-12,
        "scalar_curvature": 1e-10, "static_residual": 1e-9,
        "hawking_mass_constant": 1e-10,
    }, _check_kottler, _run_kottler, "profile.csv"),
    "flow": _Kind({
        "k_hat": _K_HAT, "m": _MASS, "genus": _GENUS,
        "r0": _Field(float, _POSITIVE, message=_R0_T_MAX),
        # e^(t_max/2) overflows from t_max = 1419.6; _check_flow bounds both
        "t_max": _Field(float, _POSITIVE, 1400.0, _R0_T_MAX),
        "eps": _EPS,
        "steps": _Field(int, 1, _STEPS_MAX, "steps must be a positive integer"),
    }, {"eps": 0.0, "steps": 4096}, {
        "area_law": 1e-8, "final_radius": 1e-8, "hawking_monotone": 1e-8,
        "rate_matches_difference": 1e-8,
    }, _check_flow, _run_flow, "trajectory.csv"),
    "mass-aspect": _Kind({
        "k_hat": _K_HAT, "m": _MASS,
        # changes no result (the map's quadrature is adaptive), but stays a
        # key because perfbench's aspect workload varies it over 192, 384, 768
        "nodes_per_decade": _Field(int, 16,
                                   message="nodes_per_decade must be an integer >= 16"),
        # the innermost rho the profile fits sample, 4096 / 2^7 = 32; loose where
        # rho(r_start) = r_start - c / r_start^2 exceeds r_start (c < 0)
        "r_start": _Field(float, _POSITIVE, asymptotics.PROFILE_RHO_MAX
                          / 2.0 ** (asymptotics.PROFILE_COUNT - 1),
                          "need 0 < r_start < r_end"),
        "r_end": _Field(float, hi=_MU_R_MAX),
        "eps": _EPS,
    }, {"eps": 0.0, "nodes_per_decade": 192}, {
        "extraction_converged": 1e-4, "mu_matches_mass": 1e-4,
        "gradient_squared_coefficient": 1e-3, "potential_squared_coefficient": 1e-3,
    }, _check_mass_aspect, _run_mass_aspect, "expansions.json"),
    "penrose": _Kind({
        "genus": _Field(int, 2, _GENUS_MAX, "penrose scenarios require integer genus >= 2"),
        "masses": None,
        "scan_points": _Field(int, 10, _SCAN_POINTS_MAX,
                              "scan_points must be an integer >= 10"),
        # the scanned A^(3/2) overflows from about A = 6e206
        "scan_area_max": _Field(float, hi=1e200),
    }, {"scan_points": 10000, "scan_area_max": 40.0 * math.pi}, {
        "equality": 1e-10, "scan_above_bound": 1e-9,
        "minimizer_location": 1.0,  # in units of the grid spacing
    }, _check_penrose, _run_penrose, "equality.csv"),
    "static-compare": _Kind({
        # the admissible minimum is _check_static_compare's
        "m": _Field(float, hi=0.0, above="static-compare requires critical mass <= m <= 0"),
        # the boundary area 4 pi (genus - 1) overflows from genus 1.4e307
        "genus": _Field(int, 2, 1e307, "static-compare requires integer genus >= 2"),
        # at least 1.001e3 times the map start 2 r_h <= 2, as compare_with_reference needs
        "map_r_end": _Field(float, 2.0 * 1.001e3, _MU_R_MAX),
    }, {"map_r_end": 1e6}, {
        "w_le_w0": 1e-9, "boundary_curvature_ge_reference": 1e-8,
        "mass_aspect_le_reference": 1e-3, "area_radius_ge_reference": 1e-10,
        "cubic_root": 1e-10,
    }, _check_static_compare, _run_static_compare, "comparison.json"),
    "sweep": _Kind(dict.fromkeys(("base", "vary")), {}, {}, _check_sweep, None,
                   "summary.csv"),
}


def _clean_dir(out_dir, members=None) -> Path:
    """Make out_dir, or remove from it the outcome files an earlier run left:
    report.json, error.json and each kind's artifact, and for a sweep of
    `members` members those of each member_* directory past its last, which
    goes once empty.  Other files stay."""
    out_dir = Path(out_dir)
    try:
        out_dir.mkdir(parents=True)
    except FileExistsError:
        if not out_dir.is_dir():  # out_dir names a file
            raise
        stale = [d for d in (out_dir.glob("member_*") if members else ()) if d.is_dir()
                 and d.name[7:].isdigit() and int(d.name[7:]) >= members]
        for directory in (out_dir, *stale):
            for name in ("report.json", "error.json", *(k.artifact for k in _KINDS.values())):
                (directory / name).unlink(missing_ok=True)
        for directory in stale:
            with contextlib.suppress(OSError):  # it holds other files
                directory.rmdir()
    return out_dir


def run_scenario(cfg: dict, out_dir, tolerance=None) -> dict:
    """Validate, execute and persist one scenario; returns the report that
    out_dir/report.json holds.  Wall time stays out of it, so that a rerun
    reproduces its bytes."""
    if not isinstance(cfg, _Validated):
        cfg = validate_config(cfg)
    spec = _KINDS[cfg["kind"]]
    if spec.run is None:
        raise ConfigError("use run_sweep for sweep configs")
    out_dir = _clean_dir(out_dir)
    checks = _Checks(spec.tolerances, cfg["tolerances"], tolerance)
    result = spec.run(cfg, out_dir / spec.artifact, checks)
    report = {"scenario": cfg, "checks": checks.items,
              "outputs": [spec.artifact, "report.json"],
              "all_pass": all(c["passed"] for c in checks.items), "result": result}
    write_json(report, out_dir / "report.json")
    return report


def _write_error(exc: Exception, out_dir) -> None:
    """Keep the type and message of the exception a run raised in
    out_dir/error.json, else say on stderr why not.  A run raises no
    ConfigError: validation came first, and a sweep member whose validation
    raised NumericalError raises it again."""
    out_dir = Path(out_dir)
    try:
        write_json({"type": type(exc).__name__, "message": str(exc)},
                   _clean_dir(out_dir) / "error.json")
    except OSError as err:  # out_dir names a file, say
        print(f"cannot write {out_dir / 'error.json'}: {err}", file=sys.stderr)


def _failed_run(exc: Exception, out_dir) -> int:
    """Print the reason a run failed, keep it in error.json; the exit code."""
    print(f"run error: {type(exc).__name__}: {exc}", file=sys.stderr)
    _write_error(exc, out_dir)
    return 1


def run_sweep(cfg: dict, out_dir, tolerance=None) -> tuple[list, int]:
    """Run every member scenario; returns the members' reports in input
    order, None for a member that raised, and the largest exit code."""
    if not isinstance(cfg, _Validated):
        cfg = validate_config(cfg)
    members = cfg.members
    out_dir = _clean_dir(out_dir, len(members))
    vary_keys = list(cfg["vary"])

    results = []
    for i, member in enumerate(members):
        member_dir = out_dir / f"member_{i:03d}"
        try:
            report = run_scenario(member, member_dir, tolerance)
            results.append((report, 0 if report["all_pass"] else 1))
        except Exception as exc:  # a failed member keeps its reason
            _write_error(exc, member_dir)
            results.append((None, 1))

    columns = [range(len(members)), [member["kind"] for member in members]]
    columns += [[member.get(k) for member in members] for k in vary_keys]
    columns += [[code for _, code in results], [code == 0 for _, code in results]]
    write_csv(["member", "kind", *vary_keys, "exit_code", "all_pass"],
              columns, out_dir / _KINDS["sweep"].artifact)
    return [report for report, _ in results], max(code for _, code in results)


# ---------------------------------------------------------------------------
# entry point


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="alhflow",
        description="scenario runner for warped-product flow and mass checks")
    subs = parser.add_subparsers(dest="command", required=True)
    for name in _KINDS:
        sub = subs.add_parser(name)
        sub.add_argument("--config", required=True, help="path to a JSON config")
        sub.add_argument("--out", default=".", help="output directory")
        sub.add_argument("--tolerance", type=float, default=None,
                         help="override the default tolerance of every check")
    args = parser.parse_args(argv)

    try:
        if args.tolerance is not None and not (
                _is_a(args.tolerance, float) and args.tolerance > 0):
            raise ConfigError("--tolerance must be a positive number")
        cfg = load_config(args.config)
        # before validation, whose horizon solve may raise NumericalError
        kind = cfg.get("kind") if isinstance(cfg, dict) else None
        if isinstance(kind, str) and kind in _KINDS and kind != args.command:
            raise ConfigError(f"config kind '{kind}' does not match "
                              f"subcommand '{args.command}'")
        cfg = validate_config(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:  # a horizon solve failed: the config's run error
        return _failed_run(exc, args.out)

    started = time.perf_counter()
    try:
        if _KINDS[cfg["kind"]].run is None:  # a sweep
            reports, code = run_sweep(cfg, args.out, args.tolerance)
            print(f"sweep: {len(reports)} members, exit {code}, "
                  f"{time.perf_counter() - started:.2f}s wall time")
            return code
        report = run_scenario(cfg, args.out, args.tolerance)
    except Exception as exc:  # the run failed after validation: keep its reason
        return _failed_run(exc, args.out)

    for check in report["checks"]:
        status = "pass" if check["passed"] else "FAIL"
        print(f"  [{status}] {check['name']}: value={check['value']:.3e} "
              f"tol={check['tolerance']:.3e}")
    passed = report["all_pass"]
    print(f"{cfg['kind']}: {'all checks passed' if passed else 'CHECKS FAILED'} "
          f"({time.perf_counter() - started:.2f}s wall time)")
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
