import json
import math

import pytest

from alhflow.cli import (ConfigError, expand_sweep, load_config, main,
                         run_scenario, run_sweep, validate_config)
from alhflow.flow import TRAJECTORY_COLUMNS


def write_cfg(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def read_bytes_map(root):
    return {p.relative_to(root): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


KOTTLER_CFG = {"kind": "kottler", "k_hat": -1, "m": 0.0, "genus": 2}
FLOW_CFG = {"kind": "flow", "k_hat": -1, "m": -0.1, "genus": 2,
            "r0": 2.0, "t_max": 2.0, "steps": 256}


class TestValidation:
    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            validate_config(dict(KOTTLER_CFG, typo=1))

    def test_missing_key_rejected(self):
        with pytest.raises(ConfigError, match="missing config keys"):
            validate_config({"kind": "kottler", "k_hat": -1})

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError, match="unknown scenario kind"):
            validate_config({"kind": "warp"})

    def test_inadmissible_mass_rejected(self):
        with pytest.raises(ConfigError, match="admissible"):
            validate_config(dict(KOTTLER_CFG, m=-0.5))

    def test_topology_mismatch_rejected(self):
        with pytest.raises(ConfigError, match="curvature sign"):
            validate_config(dict(KOTTLER_CFG, genus=0))

    def test_flow_inside_horizon_rejected(self):
        with pytest.raises(ConfigError, match="phi"):
            validate_config(dict(FLOW_CFG, r0=0.5))

    def test_unknown_tolerance_rejected(self):
        with pytest.raises(ConfigError, match="tolerance"):
            validate_config(dict(KOTTLER_CFG, tolerances={"bogus": 1e-3}))

    def test_defaults_filled(self):
        cfg = validate_config(dict(KOTTLER_CFG))
        assert cfg["n_radii"] == 20
        assert cfg["r_max_factor"] == 1e3

    def test_sweep_expansion_order(self):
        cfg = {"kind": "sweep",
               "base": {"kind": "penrose", "genus": 2, "masses": [0.0],
                        "scan_points": 100},
               "vary": {"genus": [2, 3, 4]}}
        members = expand_sweep(validate_config(cfg))
        assert [m["genus"] for m in members] == [2, 3, 4]

    def test_nested_sweep_rejected(self):
        cfg = {"kind": "sweep", "base": {"kind": "sweep"}, "vary": {"x": [1]}}
        with pytest.raises(ConfigError, match="nest"):
            validate_config(cfg)


class TestMain:
    def test_config_error_exit_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "bad.json", dict(KOTTLER_CFG, typo=1))
        assert main(["kottler", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "config error" in capsys.readouterr().err

    def test_kind_mismatch_exit_2(self, tmp_path):
        cfg = write_cfg(tmp_path, "k.json", KOTTLER_CFG)
        assert main(["flow", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    def test_kottler_run(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "k.json", KOTTLER_CFG)
        out = tmp_path / "out"
        assert main(["kottler", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["all_pass"] is True
        names = [c["name"] for c in report["checks"]]
        assert names == ["horizon_relation", "surface_gravity",
                         "scalar_curvature", "static_residual",
                         "hawking_mass_constant"]
        assert (out / "profile.csv").exists()
        assert "wall time" in capsys.readouterr().out

    def test_flow_run_csv_contract(self, tmp_path):
        cfg = write_cfg(tmp_path, "f.json", FLOW_CFG)
        out = tmp_path / "out"
        assert main(["flow", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "trajectory.csv").read_text().strip().split("\n")
        assert lines[0] == ",".join(TRAJECTORY_COLUMNS)
        masses = [float(line.split(",")[5]) for line in lines[1:]]
        assert max(abs(m + 0.1) for m in masses) <= 1e-10

    def test_failing_check_exit_1(self, tmp_path, capsys):
        # negative eps drives the scalar curvature below -6: mass decreases
        cfg = write_cfg(tmp_path, "f.json", dict(FLOW_CFG, eps=-0.2))
        assert main(["flow", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_mass_aspect_run(self, tmp_path):
        cfg = write_cfg(tmp_path, "ma.json",
                        {"kind": "mass-aspect", "k_hat": -1, "m": 0.5,
                         "r_start": 2.0, "r_end": 1e5})
        out = tmp_path / "out"
        assert main(["mass-aspect", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert abs(report["result"]["mu"] - 0.5) <= 1e-4
        expansions = json.loads((out / "expansions.json").read_text())
        assert {e["quantity"] for e in expansions} == {
            "gradient_squared", "potential_squared"}

    def test_static_compare_run(self, tmp_path):
        cfg = write_cfg(tmp_path, "sc.json",
                        {"kind": "static-compare", "m": -0.1, "genus": 2,
                         "map_r_end": 1e5})
        out = tmp_path / "out"
        assert main(["static-compare", "--config", cfg, "--out", str(out)]) == 0
        comparison = json.loads((out / "comparison.json").read_text())
        assert comparison["all_pass"] is True
        assert comparison["cubic_residual"] <= 1e-10


class TestDeterminism:
    def test_repeated_run_byte_identical(self, tmp_path):
        cfg = validate_config(dict(KOTTLER_CFG, m=-0.1))
        a, b = tmp_path / "a", tmp_path / "b"
        run_scenario(cfg, a)
        run_scenario(cfg, b)
        assert read_bytes_map(a) == read_bytes_map(b)

    def test_parallel_equals_serial_sweep(self, tmp_path):
        base = {"kind": "penrose", "genus": 2,
                "masses": [-0.15, -0.1, 0.0], "scan_points": 512}
        serial = {"kind": "sweep", "base": base,
                  "vary": {"genus": [2, 3, 4]}, "parallel": False}
        parallel = dict(serial, parallel=True)
        out_s, out_p = tmp_path / "s", tmp_path / "p"
        reports_s, code_s = run_sweep(serial, out_s)
        reports_p, code_p = run_sweep(parallel, out_p)
        assert code_s == code_p == 0
        assert len(reports_s) == len(reports_p) == 3
        assert read_bytes_map(out_s) == read_bytes_map(out_p)

    def test_summary_rows_in_input_order(self, tmp_path):
        base = {"kind": "penrose", "genus": 2, "masses": [0.0],
                "scan_points": 128}
        cfg = {"kind": "sweep", "base": base, "vary": {"genus": [4, 2, 3]}}
        _, code = run_sweep(cfg, tmp_path / "o")
        assert code == 0
        rows = (tmp_path / "o" / "summary.csv").read_text().strip().split("\n")
        assert rows[0] == "member,kind,genus,exit_code,all_pass"
        assert [r.split(",")[2] for r in rows[1:]] == ["4", "2", "3"]

    def test_empty_sweep(self, tmp_path):
        cfg = {"kind": "sweep",
               "base": {"kind": "penrose", "genus": 2, "masses": [0.0]},
               "vary": {"genus": []}}
        reports, code = run_sweep(cfg, tmp_path / "o")
        assert reports == []
        assert code == 0
        assert (tmp_path / "o" / "summary.csv").read_text().strip() == \
            "member,kind,genus,exit_code,all_pass"


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_failed_sweep_member_keeps_its_reason(tmp_path):
    # a map out to r = 1e300 overflows and raises NumericalError
    base = {"kind": "mass-aspect", "k_hat": -1, "m": 0.5,
            "r_start": 2.0, "r_end": 1e4}
    cfg = {"kind": "sweep", "base": base, "vary": {"r_end": [1e4, 1e300]}}
    reports, code = run_sweep(cfg, tmp_path / "o")
    assert code == 1 and reports[1] is None
    assert not (tmp_path / "o" / "member_000" / "error.json").exists()
    error = json.loads((tmp_path / "o" / "member_001" / "error.json").read_text())
    assert error == {"type": "NumericalError",
                     "message": "substitution deviation is not finite"}
    rows = (tmp_path / "o" / "summary.csv").read_text().split("\n")
    assert rows[2] == "1,mass-aspect,1.0000000000000001e+300,1,False"


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "nope.json")


class TestBuildOnce:
    SWEEP = {"kind": "sweep",
             "base": {"kind": "mass-aspect", "k_hat": -1, "m": 0.3, "eps": 0.1,
                      "r_start": 2.0, "r_end": 2e4},
             "vary": {"m": [0.3, 0.4]}}

    def test_sweep_member_potential_built_once(self, tmp_path, monkeypatch):
        from alhflow import geometry
        calls = []
        horizon_radius = geometry.horizon_radius
        monkeypatch.setattr(geometry, "horizon_radius",
                            lambda p: calls.append(p) or horizon_radius(p))
        flow_sweep = {"kind": "sweep", "base": dict(FLOW_CFG, eps=0.1),
                      "vary": {"m": [-0.1, 0.2]}}
        for i, cfg in enumerate((self.SWEEP, flow_sweep)):
            calls.clear()
            path = write_cfg(tmp_path, f"sweep{i}.json", cfg)
            out = str(tmp_path / f"o{i}")
            assert main(["sweep", "--config", path, "--out", out]) == 0
            assert len(calls) == 2  # one perturbed potential per member

    def test_sweep_members_match_single_runs(self, tmp_path):
        run_sweep(self.SWEEP, tmp_path / "sweep")
        for i, member in enumerate(expand_sweep(self.SWEEP)):
            run_scenario(member, tmp_path / f"single{i}")
            assert read_bytes_map(tmp_path / "sweep" / f"member_{i:03d}") == \
                read_bytes_map(tmp_path / f"single{i}")

    def test_validated_config_is_read_only(self):
        cfg = validate_config(dict(FLOW_CFG, eps=0.1))
        for change in (lambda: cfg.__setitem__("m", 0.2), lambda: cfg.update(m=0.2),
                       lambda: cfg.pop("m"), lambda: cfg.setdefault("x", 1)):
            with pytest.raises(TypeError, match="read-only"):
                change()
        changed = validate_config(dict(cfg, m=0.2))
        assert changed["m"] == 0.2
        assert changed.potential.params["m"] == 0.2
