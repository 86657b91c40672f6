"""Per-layer metrics: which traced functions feed which metric.

Times are self times per pass (a span's duration minus its traced
children), so a layer's number does not include the layers it calls.
Counts are per pass and repeat exactly for a fixed seed.
"""

from __future__ import annotations

import os

from alhflow import asymptotics, cli, flow, geometry, static_compare
from alhflow.asymptotics import SubstitutionMap
from alhflow.static_compare import ReferencePotential

from tracer import Tracer

ROOT = ("geometry.largest_zero", "geometry.horizon_radius", "geometry.kottler_build")
POINTWISE = ("geometry.scalar_curvature", "geometry.ricci_components",
             "geometry.mean_curvature_sphere", "geometry.hawking_mass_sphere",
             "geometry.potential_gradient_squared", "geometry.static_residual")
INTEGRATE = ("flow.imcf_integrate", "flow.geroch_rate")
EXTRACT = ("asymptotics.mass_aspect_extract", "asymptotics.dyadic_profile_samples",
           "asymptotics.expansion_fit", "asymptotics.richardson")
VALIDATE = ("cli.validate_config", "cli.expand_sweep", "cli.load_config")
WRITE = ("cli.write_json", "cli.write_csv")

#: (name, unit) of every per-layer metric, in output order.
METRICS = (
    ("geometry.root_calls", "count"),
    ("geometry.root_s", "s"),
    ("geometry.root_none_share", "share"),
    ("geometry.pointwise_calls", "count"),
    ("geometry.pointwise_s", "s"),
    ("flow.integrate_calls", "count"),
    ("flow.integrate_s", "s"),
    ("flow.states", "count"),
    ("flow.csv_s", "s"),
    ("flow.csv_bytes", "B"),
    ("asymptotics.rho_calls", "count"),
    ("asymptotics.rho_s", "s"),
    ("asymptotics.build_calls", "count"),
    ("asymptotics.build_s", "s"),
    ("asymptotics.rhs_evals", "count"),
    ("asymptotics.extract_s", "s"),
    ("static_compare.compare_calls", "count"),
    ("static_compare.compare_s", "s"),
    ("static_compare.omega_calls", "count"),
    ("static_compare.omega_s", "s"),
    ("static_compare.errors", "count"),
    ("cli.validate_s", "s"),
    ("cli.scenario_self_s", "s"),
    ("cli.write_s", "s"),
    ("cli.bytes_written", "B"),
    ("cli.member_errors", "count"),
    ("trace.overhead", "ratio"),
)


def _root_none(tracer, result, args, kwargs):
    none = result is None or getattr(result, "horizon_radius", 1.0) == 0.0
    tracer.counts["root_none"] += int(none)


def _flow_states(tracer, result, args, kwargs):
    tracer.counts["flow_states"] += len(result.states)


def _csv_bytes(tracer, result, args, kwargs):
    path = args[3] if len(args) > 3 else kwargs["path"]
    tracer.counts["csv_bytes"] += os.path.getsize(path)


def _nfev(tracer, result):
    tracer.counts["rhs_evals"] += int(result.nfev)


def make_tracer() -> Tracer:
    hooks = {name: _root_none for name in ROOT}
    hooks["flow.imcf_integrate"] = _flow_states
    hooks["flow.write_trajectory_csv"] = _csv_bytes
    return Tracer(modules=(geometry, flow, asymptotics, static_compare, cli),
                  classes=(SubstitutionMap, ReferencePotential),
                  hooks=hooks,
                  probes={(asymptotics, "solve_ivp"): _nfev})


def snapshot(tracer: Tracer) -> dict:
    """Counts and self times of one traced pass, keyed by metric name."""
    calls, self_s = tracer.calls, tracer.self_s

    def total(counter, names):
        return sum(counter[n] for n in names)

    root_calls = total(calls, ROOT)
    static_names = [n for n in tracer.names if n.startswith("static_compare.")]
    reference_names = [n for n in tracer.names if n.startswith("ReferencePotential.")]
    other_map_names = [n for n in tracer.names
                       if n.startswith("SubstitutionMap.") and n != "SubstitutionMap.rho"]
    return {
        "geometry.root_calls": root_calls,
        "geometry.root_s": total(self_s, ROOT),
        "geometry.root_none_share": tracer.counts["root_none"] / max(1, root_calls),
        "geometry.pointwise_calls": total(calls, POINTWISE),
        "geometry.pointwise_s": total(self_s, POINTWISE),
        "flow.integrate_calls": calls["flow.imcf_integrate"],
        "flow.integrate_s": total(self_s, INTEGRATE),
        "flow.states": tracer.counts["flow_states"],
        "flow.csv_s": self_s["flow.write_trajectory_csv"],
        "flow.csv_bytes": tracer.counts["csv_bytes"],
        "asymptotics.rho_calls": calls["SubstitutionMap.rho"],
        "asymptotics.rho_s": self_s["SubstitutionMap.rho"],
        "asymptotics.build_calls": calls["asymptotics.build_substitution"],
        "asymptotics.build_s": self_s["asymptotics.build_substitution"],
        "asymptotics.rhs_evals": tracer.counts["rhs_evals"],
        "asymptotics.extract_s": total(self_s, EXTRACT) + total(self_s, other_map_names),
        "static_compare.compare_calls": calls["static_compare.compare_with_reference"],
        "static_compare.compare_s": total(self_s, static_names),
        "static_compare.omega_calls": calls["ReferencePotential.omega"],
        "static_compare.omega_s": total(self_s, reference_names),
        "static_compare.errors": tracer.errors["static_compare.compare_with_reference"],
        "cli.validate_s": total(self_s, VALIDATE),
        "cli.scenario_self_s": self_s["cli.run_scenario"],
        "cli.write_s": total(self_s, WRITE),
        "cli.member_errors": tracer.errors["cli.run_scenario"],
    }


COUNT_METRICS = tuple(name for name, unit in METRICS
                      if unit in ("count", "B", "share"))
