"""Self-tests of the benchmark.  Run from the repository root with

    python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import alhflow  # noqa: E402
from alhflow import asymptotics, cli, flow, geometry, static_compare  # noqa: E402

import layers  # noqa: E402
import oracles  # noqa: E402
import workloads  # noqa: E402


def _run_bench(*args, cwd=ROOT):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_seed_gives_same_valid_configs(name):
    first = workloads.generate(name, 7)
    assert first == workloads.generate(name, 7)
    assert first != workloads.generate(name, 8)
    for sweep in first:
        cli.validate_config(sweep)


def test_compare_masses_cover_every_delta_stratum():
    sweeps = workloads.generate("compare", 3)
    for kind, count, top in (("static-compare", 21, 0.0), ("kottler", 66, 10.0)):
        for sweep in (s for s in sweeps if s["base"]["kind"] == kind):
            deltas = sorted(m - workloads.M_CRIT for m in sweep["vary"]["m"])
            assert len(deltas) == count
            assert 1e-11 <= deltas[0] < 10 ** -10.5
            assert max(sweep["vary"]["m"]) <= top


def _namespace():
    owners = [alhflow, geometry, flow, asymptotics, static_compare, cli,
              asymptotics.SubstitutionMap, static_compare.ReferencePotential]
    return {(id(o), k): v for o in owners for k, v in vars(o).items()}


def test_tracer_patches_by_name_imports_and_restores_everything():
    before = _namespace()
    tracer = layers.make_tracer()
    with tracer:
        assert cli.kottler_build is not before[(id(cli), "kottler_build")]
        assert static_compare.kottler_build is geometry.kottler_build
        assert alhflow.kottler_build is geometry.kottler_build
        assert asymptotics.mean_curvature_sphere is geometry.mean_curvature_sphere
        assert geometry.kottler_build.__wrapped__ is before[(id(geometry), "kottler_build")]
        assert "SubstitutionMap.rho" in tracer.names
        assert "ReferencePotential.omega" in tracer.names
        space = cli.kottler_build(-1, 0.0)
        assert space.horizon_radius == pytest.approx(1.0)
    assert tracer.calls["geometry.kottler_build"] == 1
    assert tracer.calls["geometry.largest_zero"] == 1  # via kottler_potential
    after = _namespace()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_tracer_self_time_excludes_children():
    tracer = layers.make_tracer()
    tracer.keep_spans = True
    with tracer:
        p = geometry.kottler_potential(-1, 0.1)
        geometry.hawking_mass_sphere(geometry.conformal_infinity(2), p, 3.0)
    ids = {s[0]: s for s in tracer.spans}
    for span_id, parent, name, start, end in tracer.spans:
        if parent >= 0:
            assert ids[parent][3] <= start <= end <= ids[parent][4]
    total = sum(end - start for _, parent, _, start, end in tracer.spans if parent < 0)
    assert sum(tracer.self_s.values()) == pytest.approx(total, rel=1e-9)


def _write_report(d, result):
    d.mkdir(parents=True, exist_ok=True)
    (d / "report.json").write_text(json.dumps({"result": result}))


def test_oracle_flags_horizon_zero_where_a_horizon_exists(tmp_path):
    cfg = {"kind": "kottler", "k_hat": -1, "m": 0.1, "genus": 2}
    true_r = oracles.largest_root(-1, 0.1)
    _write_report(tmp_path / "ok", {"horizon_radius": true_r})
    _write_report(tmp_path / "bad", {"horizon_radius": 0.0})
    assert oracles.check_member(cfg, tmp_path / "ok") == []
    assert oracles.check_member(cfg, tmp_path / "bad") == ["horizon_radius"]


def test_oracle_root_tolerance_near_double_root():
    m = workloads.M_CRIT + 1e-9
    r = oracles.largest_root(-1, m)
    gap = (2.0 * 1e-9 / 3 ** 0.5) ** 0.5  # half the distance between the roots
    assert abs(r - (1 / 3 ** 0.5 + gap)) < 1e-3 * gap
    assert oracles.root_tolerance(-1, m, r) < 1e-2 * gap


def test_oracle_flags_wrong_mass_aspect(tmp_path):
    cfg = {"kind": "mass-aspect", "k_hat": 1, "m": 0.5}
    _write_report(tmp_path / "bad", {"mu": 0.5 + 1e-6, "error_estimate": 1e-12})
    _write_report(tmp_path / "ok", {"mu": 0.5 + 1e-13, "error_estimate": 1e-12})
    assert oracles.check_member(cfg, tmp_path / "bad") == ["mu"]
    assert oracles.check_member(cfg, tmp_path / "ok") == []


def test_oracle_flags_perturbed_flow_radius(tmp_path):
    cfg = cli.validate_config({"kind": "flow", "k_hat": -1, "m": 0.2, "genus": 3,
                               "r0": 3.0, "t_max": 3.0, "steps": 512, "eps": 0.1})
    cli.run_scenario(cfg, tmp_path / "run")
    assert oracles.check_member(cfg, tmp_path / "run") == []
    path = tmp_path / "run" / "trajectory.csv"
    lines = path.read_text().splitlines()
    cells = lines[-1].split(",")
    cells[1] = repr(float(cells[1]) * (1 + 1e-9))
    path.write_text("\n".join(lines[:-1] + [",".join(cells)]) + "\n")
    assert "r" in oracles.check_member(cfg, tmp_path / "run")


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_traced_counts_repeat_exactly(name):
    runs = []
    for _ in range(2):
        out = _run_bench("--workload", name, "--seed", "5", "--seconds", "1",
                         "--trace", "1")
        assert out.returncode == 0, out.stderr
        result = json.loads(out.stdout.strip().splitlines()[-1])
        assert set(result["metrics"]) == {n for n, _ in layers.METRICS}
        runs.append(result["metrics"])
    for metric in layers.COUNT_METRICS:
        assert runs[0][metric]["value"] == runs[1][metric]["value"], metric
    assert "COUNT DRIFT" not in out.stdout


def test_member_counts_do_not_depend_on_run_length():
    sweeps = workloads.generate("compare", 2)
    members = sum(len(cli.expand_sweep(cli.validate_config(s))) for s in sweeps)
    results = []
    for seconds in ("1", "10"):
        out = _run_bench("--workload", "compare", "--seed", "2", "--seconds",
                         seconds, "--trace", "0")
        assert out.returncode == 0, out.stderr
        results.append(json.loads(out.stdout.strip().splitlines()[-1]))
    assert [r["attempted"] for r in results] == [members, members]
    assert results[0]["failed"] == results[1]["failed"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _run_bench("--workload", "aspect", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
