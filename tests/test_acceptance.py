"""Acceptance suite: every numbered criterion at its stated tolerance.

Each test prints one `[criterion N] PASS/FAIL` line; run with `pytest -s`
to see them live.  Total runtime stays well under a minute on one core.
"""

import json
import math

import numpy as np
import pytest

from alhflow import (HypothesesNotMet, ReferencePotential, alpha_coefficient,
                     boundary_gauss_curvature, build_substitution,
                     conformal_area, conformal_infinity,
                     conformal_mean_curvature_residual, expansion_extract,
                     geroch_rate, hawking_lower_bound, imcf_integrate,
                     jump_bound_check, kottler_potential, mass_aspect_extract,
                     omega_ode_residual, penrose_rhs, scalar_curvature,
                     static_residual, surface_gravity)
from alhflow.cli import run_scenario, run_sweep

FOUR_PI = 4.0 * math.pi
M_CRIT = -1.0 / (3.0 * math.sqrt(3.0))


def _report(n, label, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"[criterion {n}] {status} - {label}")
    for f in failures:
        print(f"    {f}")
    assert not failures


def test_criterion_1_kottler_exactness():
    failures = []
    cases = [(-1, 0.0), (-1, -0.1), (-1, M_CRIT + 1e-3), (0, 0.5), (1, 1.0)]
    for k_hat, m in cases:
        p = kottler_potential(k_hat, m)
        r_m = p.domain_start
        rel = abs(2 * m - (r_m ** 3 + k_hat * r_m))
        if rel > 1e-12:
            failures.append(f"(k={k_hat}, m={m}): horizon relation off by {rel:.2e}")
        if r_m > 0:
            kap = abs(surface_gravity(p) - (3 * r_m ** 2 + k_hat) / (2 * r_m))
            if kap > 1e-12:
                failures.append(f"(k={k_hat}, m={m}): surface gravity off by {kap:.2e}")
        for r in np.geomspace(max(r_m, 0.2) * 1.02, max(r_m, 0.2) * 1e3, 20):
            if abs(scalar_curvature(p, r) + 6.0) > 1e-10:
                failures.append(f"(k={k_hat}, m={m}): |R+6| > 1e-10 at r={r:.3g}")
                break
            res = static_residual(p, r)
            if max(res.laplace_residual, res.ricci_residual) > 1e-9:
                failures.append(f"(k={k_hat}, m={m}): static residual at r={r:.3g}")
                break
    _report(1, "Kottler exactness (curvature, staticity, horizon data)", failures)


def test_criterion_2_equality_case():
    failures = []
    for genus in (2, 3):
        inf = conformal_infinity(genus)
        for m in (-0.15, -0.1, 0.0):
            p = kottler_potential(-1, m)
            traj = imcf_integrate(inf, p, p.domain_start, 3.0)
            mass = traj.hawking_mass
            target = inf.c ** 1.5 * m
            dev = float(np.max(np.abs(mass - target)))
            if dev > 1e-6:
                failures.append(f"(genus={genus}, m={m}): flow mass deviates {dev:.2e}")
            area = inf.area * p.domain_start ** 2
            eq = abs(penrose_rhs(genus, area) - m)
            if eq > 1e-10:
                failures.append(f"(genus={genus}, m={m}): equality off by {eq:.2e}")
    _report(2, "mass-bound equality case along the flow", failures)


def test_criterion_3_geroch_monotonicity():
    failures = []
    genus, m, r0, t_max = 2, -0.1, 2.0, 2.0
    inf = conformal_infinity(genus)
    for eps in (0.0, 0.05, 0.2):
        p = kottler_potential(-1, m, eps)
        traj = imcf_integrate(inf, p, r0, t_max)  # default 4096 steps
        if traj.max_violation > 1e-8:
            failures.append(f"eps={eps}: violation {traj.max_violation:.2e}")
        t = traj.t
        r = traj.r
        rate = traj.geroch_rate
        closed = inf.c ** 1.5 * eps / (4.0 * r)
        rate_dev = float(np.max(np.abs(rate - closed)))
        if rate_dev > 1e-8:
            failures.append(f"eps={eps}: rate vs closed form {rate_dev:.2e}")
        dt = t[1] - t[0]
        mass = traj.hawking_mass
        fd = (mass[2:] - mass[:-2]) / (2 * dt)
        fd_dev = float(np.max(np.abs(fd - rate[1:-1])))
        if fd_dev > 10.0 * dt * dt * max(1.0, float(np.max(np.abs(mass)))):
            failures.append(f"eps={eps}: rate vs finite difference {fd_dev:.2e}")
    p_bad = kottler_potential(-1, m, -0.2)
    traj_bad = imcf_integrate(inf, p_bad, r0, t_max)
    if traj_bad.max_violation <= 1e-8:
        failures.append("eps=-0.2: decrease not detected (test has no power)")
    _report(3, "Hawking-mass monotonicity and rate formula", failures)


def test_criterion_4_mass_aspect_extraction():
    failures = []
    for m in (-0.15, 0.0, 0.5):
        p = kottler_potential(-1, m)
        # two maps sharing no sample radius and no panel edge above r = 2:
        # panels are counted down from r_end, 24 an octave, and 3e6 / 1e6 is
        # not a power of two
        for r_end in (1e6, 3e6):
            sub_map = build_substitution(p, 2.0, r_end)
            mu = mass_aspect_extract(sub_map).mu
            if abs(mu - m) > 1e-4:
                failures.append(f"m={m}, r_end={r_end:g}: |mu - m| = {abs(mu-m):.2e}")
    _report(4, "mass-aspect extraction on two partitions", failures)


def test_criterion_5_expansion_coefficients():
    failures = []
    m = 0.5
    p = kottler_potential(-1, m)
    _, v_fit, w_fit = expansion_extract(build_substitution(p, 2.0, 1e6))
    if abs(w_fit.a2 - 8 * m / 3) > 1e-3:
        failures.append(f"gradient-squared a2 = {w_fit.a2:.6f}, want {8*m/3:.6f}")
    if abs(v_fit.a2 - (-4 * m / 3)) > 1e-3:
        failures.append(f"potential-squared a2 = {v_fit.a2:.6f}, want {-4*m/3:.6f}")
    # consequence: the two coefficient routes agree on the mass aspect
    if abs(3 * w_fit.a2 / 8 - (-3 * v_fit.a2 / 4)) > 1e-3:
        failures.append("coefficient routes disagree on the mass aspect")
    _report(5, "asymptotic expansion coefficients (8m/3 and -4m/3)", failures)


def test_criterion_6_lower_bound_functionals():
    failures = []
    for genus in (2, 3, 4):
        bound, minimizer = hawking_lower_bound(genus)
        grid = np.linspace(0.0, 40 * math.pi, 10 ** 4)
        vals = np.sqrt(grid / (16 * math.pi)) * (1 - genus + grid / FOUR_PI)
        if vals.min() < bound - 1e-9:
            failures.append(f"genus={genus}: scan dips {vals.min() - bound:.2e} below")
        spacing = grid[1] - grid[0]
        if abs(grid[int(np.argmin(vals))] - minimizer) > spacing:
            failures.append(f"genus={genus}: minimizer misplaced")
    rng = np.random.default_rng(1723)
    checked = 0
    while checked < 10 ** 4:
        genus = int(rng.integers(2, 5))
        g1 = genus - 1
        area_before = FOUR_PI * g1 / 3.0 * (1.0 + 9.0 * rng.random())
        area_after = area_before * (1.0 + rng.random())
        floor = -((g1 / 3.0) ** 1.5)
        x_max = 16 * math.pi * (1 - genus) - floor * math.sqrt(
            (16 * math.pi) ** 3 / area_before)
        h2_before = max(0.0, x_max - 20.0 * rng.random() + 4 * area_before)
        h2_after = h2_before * rng.random()
        try:
            ok = jump_bound_check(area_before, area_after,
                                  h2_before, h2_after, genus)
        except HypothesesNotMet:
            continue
        checked += 1
        if not ok:
            failures.append(
                f"jump drop at ({area_before}, {area_after}, {h2_before}, "
                f"{h2_after}, genus={genus})")
            break
    _report(6, "lower-bound scan and jump algebra on random tuples", failures)


def test_criterion_7_comparison_chain(tmp_path):
    failures = []
    m_grid = np.linspace(-0.18, 0.6, 20)
    v_grid = np.linspace(0.25, 5.0, 20)
    worst_ode = 0.0
    for m0 in m_grid:
        ref = ReferencePotential(-1, float(m0))
        for v in v_grid:
            worst_ode = max(worst_ode, omega_ode_residual(ref, float(v)))
            alpha = alpha_coefficient(ref, float(v))
            if np.sign(alpha) != -np.sign(m0):
                failures.append(f"alpha sign wrong at m0={m0:.3f}, V={v:.2f}")
    if worst_ode > 1e-8:
        failures.append(f"profile equation residual {worst_ode:.2e} > 1e-8")
    for k_hat, m0 in ((-1, 0.0), (-1, -0.1), (-1, 0.5), (0, 0.3), (1, 1.0)):
        ref = ReferencePotential(k_hat, m0)
        dev = abs(boundary_gauss_curvature(ref) - k_hat / ref.horizon_radius ** 2)
        if dev > 1e-8:
            failures.append(f"boundary curvature off by {dev:.2e} at "
                            f"(k={k_hat}, m0={m0})")
    for genus, m in ((2, -0.1), (3, 0.0)):
        out = tmp_path / f"genus{genus}"
        run = run_scenario({"kind": "static-compare", "m": m, "genus": genus}, out)
        failed = {c["name"]: c["value"] for c in run["checks"] if not c["passed"]}
        if failed:
            failures.append(f"self comparison checks failed at (genus={genus}, "
                            f"m={m}): {failed}")
        report = json.loads((out / "comparison.json").read_text())
        if report["cubic_residual"] > 1e-10:
            failures.append(f"cubic residual {report['cubic_residual']:.2e}")
        if m <= 0 and report["reference_area_radius"] < 1 / math.sqrt(3.0) - 1e-12:
            failures.append("reference radius below 1/sqrt(3)")
    _report(7, "static comparison chain (profile equation, signs, checks)",
            failures)


def test_criterion_8_conformal_identities():
    failures = []
    profiles = [
        ("zero mass", kottler_potential(-1, 0.0)),
        ("positive mass", kottler_potential(-1, 0.5)),
        ("perturbed", kottler_potential(-1, 0.3, 0.11)),
    ]
    for label, p in profiles:
        sub_map = build_substitution(p, 2.0, 2e4)
        for r in (10.0, 100.0):
            res = conformal_mean_curvature_residual(sub_map, r)
            if res > 1e-6:
                failures.append(f"{label}: residual {res:.2e} at r={r}")
    inf = conformal_infinity(2)
    p = kottler_potential(-1, 0.5)
    sub_map = build_substitution(p, 2.0, 2e4)
    traj = imcf_integrate(inf, p, 3.0, 7.0, steps=512)
    ts = traj.t
    devs = np.array([abs(conformal_area(inf, sub_map, s.r) - inf.area)
                     for s in traj.states])
    i1 = int(np.argmin(np.abs(ts - 1.0)))
    c_fit = devs[i1] * math.exp(0.5 * ts[i1])
    later = ts >= ts[i1]
    if not np.all(devs[later] <= c_fit * np.exp(-0.5 * ts[later]) * (1 + 1e-9)):
        failures.append("compactified area deviation exceeds the fitted decay")
    _report(8, "compactified mean-curvature identity and area decay", failures)


def test_criterion_9_plumbing_determinism(tmp_path):
    failures = []

    def tree(root):
        return {p.relative_to(root): p.read_bytes()
                for p in sorted(root.rglob("*")) if p.is_file()}

    cfg = {"kind": "kottler", "k_hat": -1, "m": -0.1, "genus": 2}
    run_scenario(cfg, tmp_path / "a")
    run_scenario(cfg, tmp_path / "b")
    if tree(tmp_path / "a") != tree(tmp_path / "b"):
        failures.append("repeated run artifacts differ")

    sweep = {"kind": "sweep",
             "base": {"kind": "penrose", "genus": 2,
                      "masses": [-0.15, -0.1, 0.0], "scan_points": 1024},
             "vary": {"genus": [2, 3, 4]}}
    run_sweep(sweep, tmp_path / "first")
    run_sweep(sweep, tmp_path / "second")
    if tree(tmp_path / "first") != tree(tmp_path / "second"):
        failures.append("repeated sweep artifacts differ")
    summary = (tmp_path / "first" / "summary.csv").read_text().strip().split("\n")
    if [row.split(",")[2] for row in summary[1:]] != ["2", "3", "4"]:
        failures.append("sweep rows out of input order")
    report = json.loads((tmp_path / "first" / "member_000" /
                         "report.json").read_text())
    if not report["all_pass"]:
        failures.append("penrose equality member failed")
    _report(9, "byte-identical reruns and ordered sweeps", failures)
