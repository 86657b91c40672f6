"""Configuration-driven scenario runner.

Subcommands: kottler, flow, mass-aspect, penrose, static-compare, sweep.
Each takes --config (a JSON file), --out (output directory) and optionally
--tolerance (a global tolerance override; individual checks can instead be
overridden through a "tolerances" object in the config).

Artifacts are deterministic: floats are canonicalized to 17 significant
digits, JSON keys keep a fixed order, CSV columns are fixed, and wall time
is printed to stdout but never written into an artifact.  Re-running an
identical config reproduces every output byte for byte.

Exit codes: 0 success, 1 a check failed or the run hit a numerical error,
2 the configuration failed validation.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import asymptotics, flow, geometry, static_compare
from ._text import csv_text
from .errors import ConfigError, DomainError
from .geometry import (conformal_infinity, critical_mass, kottler_build,
                       kottler_potential, perturbed_kottler_potential)

__all__ = ["main", "run_scenario", "run_sweep", "RunReport", "load_config"]

FOUR_PI = 4.0 * math.pi

DEFAULT_TOLERANCES = {
    "horizon_relation": 1e-12,
    "surface_gravity": 1e-12,
    "scalar_curvature": 1e-10,
    "static_residual": 1e-9,
    "hawking_mass_constant": 1e-10,
    "area_law": 1e-8,
    "final_radius": 1e-8,
    "hawking_monotone": 1e-8,
    "rate_matches_difference": 1e-8,
    "extraction_converged": 1e-4,
    "mu_matches_mass": 1e-4,
    "gradient_squared_coefficient": 1e-3,
    "potential_squared_coefficient": 1e-3,
    "equality": 1e-10,
    "scan_above_bound": 1e-9,
    "minimizer_location": 1.0,  # in units of the grid spacing
}


# ---------------------------------------------------------------------------
# deterministic serialization


def _canon(obj):
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, dict):
        return {k: _canon(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_canon(v) for v in obj]
    return obj


def write_json(obj, path: Path) -> None:
    with open(path, "w", newline="\n") as f:
        f.write(json.dumps(_canon(obj), indent=2) + "\n")


def write_csv(header, columns, path: Path) -> None:
    """Write a table given as columns: float arrays, or lists of config
    values (see `_text.csv_text`)."""
    with open(path, "wb") as f:
        f.writelines(csv_text(header, columns))


# ---------------------------------------------------------------------------
# configuration


SCHEMAS = {
    "kottler": {
        "required": {"kind", "k_hat", "m", "genus"},
        "optional": {"n_radii": 20, "r_max_factor": 1e3, "tolerances": {}},
    },
    "flow": {
        "required": {"kind", "k_hat", "m", "genus", "r0", "t_max"},
        "optional": {"eps": 0.0, "steps": 4096, "tolerances": {}},
    },
    "mass-aspect": {
        "required": {"kind", "k_hat", "m", "r_start", "r_end"},
        "optional": {"eps": 0.0, "nodes_per_decade": 192, "tolerances": {}},
    },
    "penrose": {
        "required": {"kind", "genus", "masses"},
        "optional": {"scan_points": 10000, "scan_area_max": 40.0 * math.pi,
                     "tolerances": {}},
    },
    "static-compare": {
        "required": {"kind", "m", "genus"},
        "optional": {"map_r_end": 1e6, "tolerances": {}},
    },
    "sweep": {
        "required": {"kind", "base", "vary"},
        "optional": {"parallel": False, "tolerances": {}},
    },
}


def load_config(path) -> dict:
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc


def _require_number(cfg, key, kinds=(int, float)):
    v = cfg[key]
    if isinstance(v, bool) or not isinstance(v, kinds):
        raise ConfigError(f"config key '{key}' must be a number, got {v!r}")
    return v


class _Validated(dict):
    """A config that passed validate_config, with its defaults filled in.

    It keeps what validation built, so running it builds nothing twice: the
    potential of a flow or mass-aspect config, the validated members of a
    sweep.  It is read-only, since a changed key would leave those stale.
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
    """Check keys and module preconditions; return the config with defaults.

    The result is a read-only dict that run_scenario and run_sweep accept
    without validating it again.
    """
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    kind = cfg.get("kind")
    if kind not in SCHEMAS:
        raise ConfigError(f"unknown scenario kind {kind!r}; "
                          f"expected one of {sorted(SCHEMAS)}")
    schema = SCHEMAS[kind]
    allowed = schema["required"] | set(schema["optional"])
    unknown = set(cfg) - allowed
    if unknown:
        raise ConfigError(f"unknown config keys for kind '{kind}': {sorted(unknown)}")
    missing = schema["required"] - set(cfg)
    if missing:
        raise ConfigError(f"missing config keys for kind '{kind}': {sorted(missing)}")
    out = dict(cfg)
    for key, default in schema["optional"].items():
        out.setdefault(key, default if not isinstance(default, dict) else dict(default))
    if not isinstance(out["tolerances"], dict):
        raise ConfigError("'tolerances' must be an object")
    for name, val in out["tolerances"].items():
        if name not in DEFAULT_TOLERANCES:
            raise ConfigError(f"unknown tolerance name '{name}'")
        if isinstance(val, bool) or not isinstance(val, (int, float)) or val <= 0:
            raise ConfigError(f"tolerance '{name}' must be a positive number")

    if kind == "sweep":
        if not isinstance(out["base"], dict):
            raise ConfigError("'base' must be an object")
        if out["base"].get("kind") == "sweep":
            raise ConfigError("sweeps cannot nest")
        if not isinstance(out["vary"], dict) or not out["vary"]:
            raise ConfigError("'vary' must be a non-empty object of parameter lists")
        for key, values in out["vary"].items():
            if not isinstance(values, list):
                raise ConfigError(f"vary parameter '{key}' must map to a list")
        members = [validate_config(member) for member in expand_sweep(out)]
        if not isinstance(out["parallel"], bool):
            raise ConfigError("'parallel' must be a boolean")
        return _Validated(out, members=members)

    # numeric fields and module preconditions, before any computation
    potential = None
    if kind in ("kottler", "flow", "mass-aspect"):
        k_hat = cfg["k_hat"]
        if k_hat not in (-1, 0, 1):
            raise ConfigError("k_hat must be -1, 0 or +1")
        m = _require_number(out, "m")
        if m < critical_mass(k_hat) - 1e-15:
            raise ConfigError(
                f"mass {m} below the admissible minimum {critical_mass(k_hat)}")
    if kind == "kottler":
        if not isinstance(out["n_radii"], int) or out["n_radii"] < 2:
            raise ConfigError("n_radii must be an integer >= 2")
        if _require_number(out, "r_max_factor") <= 1.0:
            raise ConfigError("r_max_factor must exceed 1")
    if kind == "mass-aspect":
        if not isinstance(out["nodes_per_decade"], int) or out["nodes_per_decade"] < 16:
            raise ConfigError("nodes_per_decade must be an integer >= 16")
    if kind in ("kottler", "flow"):
        genus = out["genus"]
        if not isinstance(genus, int):
            raise ConfigError("genus must be an integer")
        inf = conformal_infinity(genus)
        if inf.curvature_sign != out["k_hat"]:
            raise ConfigError(
                f"genus {genus} has curvature sign {inf.curvature_sign}, "
                f"config says {out['k_hat']}")
    if kind == "flow":
        _require_number(out, "r0")
        _require_number(out, "t_max")
        _require_number(out, "eps")
        if out["r0"] <= 0 or out["t_max"] <= 0:
            raise ConfigError("r0 and t_max must be positive")
        if not isinstance(out["steps"], int) or out["steps"] < 1:
            raise ConfigError("steps must be a positive integer")
        potential = _potential_from(out)
        if potential.phi(out["r0"]) <= 0.0:
            raise ConfigError("flow scenarios need phi(r0) > 0 "
                              "(strictly outside the horizon)")
    if kind == "mass-aspect":
        _require_number(out, "r_start")
        _require_number(out, "r_end")
        _require_number(out, "eps")
        if not 0 < out["r_start"] < out["r_end"]:
            raise ConfigError("need 0 < r_start < r_end")
        if out["r_end"] / out["r_start"] < 1e3:
            raise ConfigError("need r_end / r_start >= 1e3")
        potential = _potential_from(out)
        if (potential.domain_start >= out["r_start"]
                and potential.phi(out["r_start"]) <= 0.0):
            raise ConfigError("r_start lies inside the horizon")
    if kind == "penrose":
        genus = out["genus"]
        if not isinstance(genus, int) or genus < 2:
            raise ConfigError("penrose scenarios require integer genus >= 2")
        if not isinstance(out["masses"], list) or not out["masses"]:
            raise ConfigError("'masses' must be a non-empty list")
        for m in out["masses"]:
            if isinstance(m, bool) or not isinstance(m, (int, float)):
                raise ConfigError("'masses' entries must be numbers")
            if m < critical_mass(-1) - 1e-15:
                raise ConfigError(f"mass {m} below the admissible minimum")
        if not isinstance(out["scan_points"], int) or out["scan_points"] < 10:
            raise ConfigError("scan_points must be an integer >= 10")
    if kind == "static-compare":
        m = _require_number(out, "m")
        genus = out["genus"]
        if not isinstance(genus, int) or genus < 2:
            raise ConfigError("static-compare requires integer genus >= 2")
        if m < critical_mass(-1) - 1e-15 or m > 0.0:
            raise ConfigError("static-compare requires critical mass <= m <= 0")
        if m <= critical_mass(-1) + 1e-12:
            raise ConfigError("critical data has no surface-gravity reference")
    return _Validated(out, potential=potential)


def _potential_from(cfg):
    if cfg.get("eps", 0.0):
        return perturbed_kottler_potential(cfg["k_hat"], cfg["m"], cfg["eps"])
    return kottler_potential(cfg["k_hat"], cfg["m"])


def expand_sweep(cfg: dict) -> list[dict]:
    """Cartesian expansion of the vary lists over the base config."""
    members = [dict(cfg["base"])]
    for key, values in cfg["vary"].items():
        members = [dict(m, **{key: v}) for m in members for v in values]
    return members


# ---------------------------------------------------------------------------
# scenario execution


@dataclass(frozen=True)
class RunReport:
    scenario: dict
    checks: list
    outputs: list
    wall_time_s: float

    @property
    def all_pass(self) -> bool:
        return all(c["passed"] for c in self.checks)

    def artifact_dict(self) -> dict:
        # wall time deliberately excluded: artifacts must be reproducible
        return {
            "scenario": self.scenario,
            "checks": self.checks,
            "outputs": self.outputs,
            "all_pass": self.all_pass,
        }


class _Checks:
    def __init__(self, cfg, tol_override):
        self._cfg_tols = cfg.get("tolerances", {})
        self._override = tol_override
        self.items = []

    def tol(self, name):
        if name in self._cfg_tols:
            return float(self._cfg_tols[name])
        if self._override is not None:
            return float(self._override)
        return DEFAULT_TOLERANCES[name]

    def add(self, name, value, tol_name=None):
        tol = self.tol(tol_name or name)
        self.items.append({"name": name, "value": float(value),
                           "tolerance": tol, "passed": bool(value <= tol)})

    def add_bool(self, name, passed):
        self.items.append({"name": name, "value": float(0.0 if passed else 1.0),
                           "tolerance": 0.0, "passed": bool(passed)})


def _run_kottler(cfg, out_dir, checks):
    space = kottler_build(cfg["k_hat"], cfg["m"])
    p = space.potential
    inf = conformal_infinity(cfg["genus"])
    r_m = space.horizon_radius
    checks.add("horizon_relation",
               abs(2.0 * cfg["m"] - (r_m ** 3 + cfg["k_hat"] * r_m)))
    kappa_res = abs(space.surface_gravity - 0.5 * p.dphi(r_m)) if r_m > 0 else 0.0
    checks.add("surface_gravity", kappa_res)
    if r_m > 0:
        radii = np.geomspace(r_m * 1.05, r_m * cfg["r_max_factor"], cfg["n_radii"])
    else:
        radii = np.geomspace(0.5, 500.0, cfg["n_radii"])
    curv = geometry.scalar_curvature(p, radii)
    res = geometry.static_residual(p, radii)
    m_h = geometry.hawking_mass_sphere(inf, p, radii)
    target = inf.c ** 1.5 * cfg["m"]
    checks.add("scalar_curvature", float(np.max(np.abs(curv + 6.0))))
    checks.add("static_residual",
               float(np.max(np.maximum(res.laplace_residual, res.ricci_residual))))
    checks.add("hawking_mass_constant", float(np.max(np.abs(m_h - target))))
    write_csv(("r", "phi", "scalar_curvature", "hawking_mass",
               "laplace_residual", "ricci_residual"),
              (radii, p.phi(radii), curv, m_h,
               res.laplace_residual, res.ricci_residual), out_dir / "profile.csv")
    return {"horizon_radius": r_m, "surface_gravity": space.surface_gravity}, \
        ["profile.csv"]


def _run_flow(cfg, out_dir, checks):
    p = cfg.potential
    inf = conformal_infinity(cfg["genus"])
    traj = flow.imcf_integrate(inf, p, cfg["r0"], cfg["t_max"], cfg["steps"])
    t = traj.column("t")
    r = traj.column("r")
    area = traj.column("area")
    mass = traj.column("hawking_mass")
    rate = traj.column("geroch_rate")

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

    map_end = max(r[-1] * 8.0, cfg["r0"] * 1.01e3)
    sub_map = asymptotics.build_substitution(p, cfg["r0"], map_end)
    flow.write_trajectory_csv(traj, p, sub_map, out_dir / "trajectory.csv")
    return {"final_radius": float(r[-1]),
            "max_violation": traj.max_violation,
            "monotone": traj.monotone}, ["trajectory.csv"]


def _run_mass_aspect(cfg, out_dir, checks):
    p = cfg.potential
    sub_map = asymptotics.build_substitution(
        p, cfg["r_start"], cfg["r_end"], nodes_per_decade=cfg["nodes_per_decade"])
    result = asymptotics.mass_aspect_extract(p, sub_map)
    checks.add("extraction_converged", result.error_estimate)
    checks.add("mu_matches_mass", abs(result.mu - cfg["m"]))

    fits = []
    for quantity, fn, target in (
            ("gradient_squared",
             lambda rr: geometry.potential_gradient_squared(p, rr),
             8.0 * cfg["m"] / 3.0),
            ("potential_squared", p.phi, -4.0 * cfg["m"] / 3.0)):
        samples = asymptotics.dyadic_profile_samples(sub_map, fn)
        fit = asymptotics.expansion_fit(samples)
        fits.append({"quantity": quantity, "a0": fit.a0, "a1": fit.a1,
                     "a2": fit.a2, "error_estimate": fit.error_estimate})
        checks.add(f"{quantity}_coefficient", abs(fit.a2 - target))
    write_json(fits, out_dir / "expansions.json")
    return {"mu": result.mu, "error_estimate": result.error_estimate,
            "expansions": fits}, ["expansions.json"]


def _run_penrose(cfg, out_dir, checks):
    genus = cfg["genus"]
    inf = conformal_infinity(genus)
    rows = []
    for i, m in enumerate(cfg["masses"]):
        space = kottler_build(-1, m)
        area = inf.area * space.horizon_radius ** 2
        rhs = flow.penrose_rhs(genus, area)
        rows.append((space.horizon_radius, area, rhs, abs(rhs - m)))
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
              (cfg["masses"], *np.array(rows, dtype=float).T), out_dir / "equality.csv")
    return {"lower_bound": bound, "minimizer_area": minimizer,
            "scan_min": float(vals.min())}, ["equality.csv"]


def _run_static_compare(cfg, out_dir, checks):
    p = kottler_potential(-1, cfg["m"])
    report = static_compare.compare_with_reference(
        p, cfg["genus"], map_r_end=cfg["map_r_end"])
    for name, ok in report.verdicts.items():
        checks.add_bool(name, ok)
    write_json(report.to_dict(), out_dir / "comparison.json")
    return report.to_dict(), ["comparison.json"]


_RUNNERS = {
    "kottler": _run_kottler,
    "flow": _run_flow,
    "mass-aspect": _run_mass_aspect,
    "penrose": _run_penrose,
    "static-compare": _run_static_compare,
}


def run_scenario(cfg: dict, out_dir, tolerance=None) -> RunReport:
    """Validate, execute and persist one scenario; returns the report."""
    if not isinstance(cfg, _Validated):
        cfg = validate_config(cfg)
    if cfg["kind"] == "sweep":
        raise ConfigError("use run_sweep for sweep configs")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    checks = _Checks(cfg, tolerance)
    payload, outputs = _RUNNERS[cfg["kind"]](cfg, out_dir, checks)
    report = RunReport(scenario=cfg, checks=checks.items,
                       outputs=outputs + ["report.json"],
                       wall_time_s=time.perf_counter() - started)
    artifact = report.artifact_dict()
    artifact["result"] = payload
    write_json(artifact, out_dir / "report.json")
    return report


def run_sweep(cfg: dict, out_dir, tolerance=None) -> tuple[list, int]:
    """Run every member scenario; results merge in input order."""
    if not isinstance(cfg, _Validated):
        cfg = validate_config(cfg)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    members = cfg.members
    vary_keys = list(cfg["vary"])

    def _one(indexed):
        i, member = indexed
        member_dir = out_dir / f"member_{i:03d}"
        try:
            report = run_scenario(member, member_dir, tolerance)
            return report, (0 if report.all_pass else 1)
        except Exception as exc:  # a failed member keeps its reason
            member_dir.mkdir(parents=True, exist_ok=True)
            write_json({"type": type(exc).__name__, "message": str(exc)},
                       member_dir / "error.json")
            return None, (2 if isinstance(exc, ConfigError) else 1)

    if cfg["parallel"] and members:
        with concurrent.futures.ThreadPoolExecutor(
                max_workers=min(4, len(members))) as pool:
            results = list(pool.map(_one, enumerate(members)))
    else:
        results = [_one(item) for item in enumerate(members)]

    columns = [range(len(members)), [member["kind"] for member in members]]
    columns += [[member.get(k) for member in members] for k in vary_keys]
    columns += [[code for _, code in results],
                [bool(report.all_pass) if report else False for report, _ in results]]
    write_csv(["member", "kind", *vary_keys, "exit_code", "all_pass"],
              columns, out_dir / "summary.csv")
    exit_code = max((code for _, code in results), default=0)
    return [rep for rep, _ in results], exit_code


# ---------------------------------------------------------------------------
# entry point


def _add_common(sub):
    sub.add_argument("--config", required=True, help="path to a JSON config")
    sub.add_argument("--out", default=".", help="output directory")
    sub.add_argument("--tolerance", type=float, default=None,
                     help="override the default tolerance of every check")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="alhflow",
        description="scenario runner for warped-product flow and mass checks")
    subs = parser.add_subparsers(dest="command", required=True)
    for name in ("kottler", "flow", "mass-aspect", "penrose",
                 "static-compare", "sweep"):
        _add_common(subs.add_parser(name))
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
        cfg = validate_config(cfg)
        if cfg["kind"] != args.command:
            raise ConfigError(
                f"config kind '{cfg['kind']}' does not match "
                f"subcommand '{args.command}'")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        if cfg["kind"] == "sweep":
            started = time.perf_counter()
            reports, code = run_sweep(cfg, args.out, args.tolerance)
            elapsed = time.perf_counter() - started
            print(f"sweep: {len(reports)} members, exit {code}, "
                  f"{elapsed:.2f}s wall time")
            return code
        report = run_scenario(cfg, args.out, args.tolerance)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # invariant violation during the run
        print(f"run error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1

    for check in report.checks:
        status = "pass" if check["passed"] else "FAIL"
        print(f"  [{status}] {check['name']}: value={check['value']:.3e} "
              f"tol={check['tolerance']:.3e}")
    print(f"{cfg['kind']}: {'all checks passed' if report.all_pass else 'CHECKS FAILED'} "
          f"({report.wall_time_s:.2f}s wall time)")
    return 0 if report.all_pass else 1


if __name__ == "__main__":
    sys.exit(main())
