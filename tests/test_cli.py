import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import alhflow
from alhflow import build_substitution, cli, kottler_potential
from alhflow.cli import (ConfigError, expand_sweep, load_config, main,
                         run_scenario, run_sweep, validate_config)
from alhflow.errors import NumericalError
from alhflow.flow import TRAJECTORY_COLUMNS, penrose_rhs
from alhflow.geometry import critical_mass


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
ASPECT_CFG = {"kind": "mass-aspect", "k_hat": -1, "m": 0.5,
              "r_start": 2.0, "r_end": 2e3, "nodes_per_decade": 16}
PENROSE_CFG = {"kind": "penrose", "genus": 2, "masses": [-0.1, 0.0]}
STATIC_CFG = {"kind": "static-compare", "m": -0.1, "genus": 2, "map_r_end": 1e4}
SWEEP_CFG = {"kind": "sweep", "base": PENROSE_CFG, "vary": {"genus": [2, 3]}}
#: a sweep of no members, whose base alone would fail validation
EMPTY_VARY_CFG = {"kind": "sweep", "base": {"kind": "kottler", "k_hat": -1, "m": -5.0,
                                            "genus": 2, "bogus": 1}, "vary": {"m": []}}
#: one small config that passes every check, for each registered kind
MINIMAL = {cfg["kind"]: cfg for cfg in
           (KOTTLER_CFG, FLOW_CFG, ASPECT_CFG, PENROSE_CFG, STATIC_CFG, SWEEP_CFG)}


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
        with pytest.raises(ConfigError, match="outside domain"):
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
               "base": {"kind": "penrose", "genus": 2, "masses": [0.0]},
               "vary": {"genus": [2, 3, 4]}}
        members = expand_sweep(validate_config(cfg))
        assert [m["genus"] for m in members] == [2, 3, 4]

    def test_nested_sweep_rejected(self):
        cfg = {"kind": "sweep", "base": {"kind": "sweep"}, "vary": {"x": [1]}}
        with pytest.raises(ConfigError, match="nest"):
            validate_config(cfg)

    def test_list_kind_rejected(self):
        # a list is unhashable: it must read as an unknown kind, not a TypeError
        for cfg in (dict(KOTTLER_CFG, kind=["kottler"]),
                    dict(SWEEP_CFG, base=dict(PENROSE_CFG, kind=["penrose"]))):
            with pytest.raises(ConfigError, match="unknown scenario kind"):
                validate_config(cfg)

    def test_kind_does_not_vary(self):
        # a member keeps the base's kind, so sweeps cannot nest through vary
        # and summary.csv has one kind column
        nested = {"kind": "sweep", "base": {"kind": "kottler"},
                  "vary": {"kind": ["sweep"], "base": [PENROSE_CFG],
                           "vary": [{"genus": [2, 3]}]}}
        for cfg in (nested, dict(SWEEP_CFG, vary={"kind": [["penrose"]]}),
                    dict(SWEEP_CFG, vary={"kind": ["penrose"]})):
            with pytest.raises(ConfigError) as info:
                validate_config(cfg)
            assert str(info.value) == "'kind' cannot vary: every member has the base's kind"

    def test_empty_vary_list_rejected(self, tmp_path, capsys):
        message = "vary parameter 'm' must map to a non-empty list"
        with pytest.raises(ConfigError) as info:
            validate_config(EMPTY_VARY_CFG)
        assert str(info.value) == message
        path = write_cfg(tmp_path, "sweep.json", EMPTY_VARY_CFG)
        assert main(["sweep", "--config", path, "--out", str(tmp_path / "o")]) == 2
        assert f"config error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_map_ratio_is_the_library_rule(self, tmp_path):
        # build_substitution accepts r_end / r_start down to 1e3 (1 - 1e-12)
        assert run_scenario(dict(ASPECT_CFG, r_end=2e3 * (1.0 - 1e-13)), tmp_path)["all_pass"]
        with pytest.raises(ConfigError, match=re.escape("need r_end / r_start >= 1e3")):
            validate_config(dict(ASPECT_CFG, r_end=2e3 * (1.0 - 1e-11)))


class TestMain:
    def test_config_error_exit_2(self, tmp_path, capsys):
        # an unknown key, a byte that is not UTF-8, and nesting past the
        # JSON parser's recursion limit
        for i, data in enumerate((json.dumps(dict(KOTTLER_CFG, typo=1)).encode(),
                                  b"\xff", b"[" * 100_000)):
            cfg = tmp_path / f"bad{i}.json"
            cfg.write_bytes(data)
            out = tmp_path / f"o{i}"
            assert main(["kottler", "--config", str(cfg), "--out", str(out)]) == 2
            assert "config error" in capsys.readouterr().err
            assert not out.exists()  # a rejected config writes nothing

    def test_kind_mismatch_exit_2(self, tmp_path):
        cfg = write_cfg(tmp_path, "k.json", KOTTLER_CFG)
        assert main(["flow", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    def test_list_kind_exit_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "k.json", dict(KOTTLER_CFG, kind=["kottler"]))
        assert main(["kottler", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "config error: unknown scenario kind ['kottler']" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["kottler", "sweep"])
    def test_out_naming_a_file_exit_1(self, tmp_path, capsys, kind):
        # the run can make neither its directory nor error.json there
        cfg = write_cfg(tmp_path, "c.json", MINIMAL[kind])
        out = tmp_path / "taken"
        out.write_text("kept")
        assert main([kind, "--config", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "run error: FileExistsError" in err
        assert f"cannot write {out / 'error.json'}" in err
        assert out.read_text() == "kept"

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
        column = TRAJECTORY_COLUMNS.index("hawking_mass")
        masses = [float(line.split(",")[column]) for line in lines[1:]]
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
        report = json.loads((out / "report.json").read_text())
        assert report["all_pass"] is True
        assert [c["name"] for c in report["checks"]] == [
            "w_le_w0", "boundary_curvature_ge_reference", "mass_aspect_le_reference",
            "area_radius_ge_reference", "cubic_root"]
        comparison = json.loads((out / "comparison.json").read_text())
        assert comparison == report["result"]
        assert comparison["cubic_residual"] <= 1e-10

    def test_static_compare_reads_the_tolerance_flag(self, tmp_path, capsys):
        # its margins read rounding level, so a tolerance below it fails them
        cfg = write_cfg(tmp_path, "sc.json", {"kind": "static-compare", "m": -0.1,
                                              "genus": 2})
        assert main(["static-compare", "--config", cfg, "--out", str(tmp_path / "o"),
                     "--tolerance", "1e-300"]) == 1
        assert re.search(r"\[FAIL\] w_le_w0: value=\S+ tol=1\.000e-300",
                         capsys.readouterr().out)

    def test_flow_drawdown_has_one_rule(self, tmp_path):
        # a drawdown of 2.2e-8 on a Hawking mass of about 8: the check's
        # absolute tolerance 1e-8 decides, and result keeps only the number
        cfg = write_cfg(tmp_path, "f.json", {"kind": "flow", "k_hat": -1, "m": 1.5,
                                             "genus": 4, "r0": 2.0, "t_max": 4.0,
                                             "eps": -2e-8})
        out = tmp_path / "out"
        assert main(["flow", "--config", cfg, "--out", str(out)]) == 1
        report = json.loads((out / "report.json").read_text())
        assert list(report["result"]) == ["final_radius", "max_violation"]
        check = {c["name"]: c for c in report["checks"]}["hawking_monotone"]
        assert check["value"] == report["result"]["max_violation"] > 1e-8
        assert check["tolerance"] == 1e-8 and not check["passed"]


@pytest.mark.parametrize("m,eps", [(-0.1, 0.0), (-0.1, 0.05), (0.5, 0.2)])
def test_flow_from_the_horizon(tmp_path, m, eps):
    # phi(r_h) rounds to 0, -2.8e-17 and -5.0e-16: the domain alone admits
    # the start, and the Hawking mass starts at the Penrose bound
    r_h = kottler_potential(-1, m, eps).domain_start
    path = write_cfg(tmp_path, "f.json", dict(FLOW_CFG, m=m, eps=eps, r0=r_h))
    assert main(["flow", "--config", path, "--out", str(tmp_path / "o")]) == 0
    row = (tmp_path / "o" / "trajectory.csv").read_text().split("\n")[1].split(",")
    mass = float(row[TRAJECTORY_COLUMNS.index("hawking_mass")])
    bound = penrose_rhs(2, 4.0 * math.pi * r_h ** 2)
    assert abs(mass - bound) <= 7e-16 * abs(bound)


@pytest.mark.parametrize("k_hat,m,eps", [
    (-1, 3.0, 0.0), (0, 0.5, 0.0), (1, 1.0, 0.0), (-1, 0.5, 0.2), (-1, 0.5, 0.0)])
def test_mass_aspect_from_the_horizon(tmp_path, k_hat, m, eps):
    # phi(r_h) rounds to 0, 0, 0, -5.0e-16 and +2.2e-16: the domain alone
    # admits the start, and mu is the mass
    r_h = kottler_potential(k_hat, m, eps).domain_start
    cfg = dict(ASPECT_CFG, k_hat=k_hat, m=m, eps=eps, r_start=r_h,
               r_end=2e3 * max(r_h, 2.0))
    out = tmp_path / "o"
    assert main(["mass-aspect", "--config", write_cfg(tmp_path, "a.json", cfg),
                 "--out", str(out)]) == 0
    mu = json.loads((out / "report.json").read_text())["result"]["mu"]
    assert abs(mu - m) <= 1.8e-13


def test_mass_aspect_from_a_horizon_the_map_cannot_leave(tmp_path):
    # the domain admits r_h, but rho reaches 1 above it: a run error
    r_h = kottler_potential(-1, -0.1, 0.05).domain_start
    cfg = dict(ASPECT_CFG, m=-0.1, eps=0.05, r_start=r_h, r_end=4e3)
    out = tmp_path / "o"
    assert main(["mass-aspect", "--config", write_cfg(tmp_path, "a.json", cfg),
                 "--out", str(out)]) == 1
    error = json.loads((out / "error.json").read_text())
    assert error["type"] == "DomainError"
    assert "rho reaches 1 above r_start" in error["message"]
    assert [path.name for path in out.iterdir()] == ["error.json"]


def test_overflowing_flow_is_a_run_error(tmp_path):
    # at genus 1e198, gamma r overflows from r = 1e40 on, where the Hawking
    # mass multiplies it by tail(r) = 0: no NaN reaches a file
    cfg = {"kind": "flow", "k_hat": -1, "m": 0.0, "genus": 10**198, "r0": 1e40,
           "t_max": 2.0, "steps": 16}
    out = tmp_path / "o"
    assert main(["flow", "--config", write_cfg(tmp_path, "f.json", cfg),
                 "--out", str(out)]) == 1
    assert json.loads((out / "error.json").read_text()) == {
        "type": "FlowError", "message": "hawking_mass is not finite at r = 1e+40"}
    for path in out.rglob("*"):
        assert not re.search("NaN|Infinity", path.read_text()), path


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_non_finite_check_is_a_run_error(tmp_path):
    # at genus 1e198, gamma r / 2 overflows from r = 3.6e11 on, before the
    # Hawking mass meets tail(r): the check, not the profile, says so, and
    # numpy warns of nothing on the way
    cfg = {"kind": "kottler", "k_hat": -1, "m": 5.0, "genus": 10**198,
           "r_max_factor": 1e40}
    out = tmp_path / "o"
    assert main(["kottler", "--config", write_cfg(tmp_path, "k.json", cfg),
                 "--out", str(out)]) == 1
    assert json.loads((out / "error.json").read_text()) == {
        "type": "NumericalError", "message": "check hawking_mass_constant is not finite: inf"}
    assert [path.name for path in out.iterdir()] == ["error.json"]


class TestDeterminism:
    def test_repeated_run_byte_identical(self, tmp_path):
        cfg = validate_config(dict(KOTTLER_CFG, m=-0.1))
        a, b = tmp_path / "a", tmp_path / "b"
        run_scenario(cfg, a)
        run_scenario(cfg, b)
        assert read_bytes_map(a) == read_bytes_map(b)

    def test_summary_rows_in_input_order(self, tmp_path):
        base = {"kind": "penrose", "genus": 2, "masses": [0.0]}
        cfg = {"kind": "sweep", "base": base, "vary": {"genus": [4, 2, 3]}}
        _, code = run_sweep(cfg, tmp_path / "o")
        assert code == 0
        rows = (tmp_path / "o" / "summary.csv").read_text().strip().split("\n")
        assert rows[0] == "member,kind,genus,exit_code,all_pass"
        assert [r.split(",")[2] for r in rows[1:]] == ["4", "2", "3"]


#: a mass-aspect config whose substitution map fails after validation
#: (NumericalError "rho/r failed to reach 1")
RAISING_CFG = {"kind": "mass-aspect", "k_hat": -1, "m": 0.5, "r_start": 2.0,
               "r_end": 2e3, "eps": 1e10}


class TestRerun:
    """A run into an existing directory leaves nothing of an earlier run's outcome."""

    def test_raising_run_after_a_passing_one(self, tmp_path):
        out = tmp_path / "o"
        for cfg, code in ((ASPECT_CFG, 0), (RAISING_CFG, 1)):
            assert main(["mass-aspect", "--config", write_cfg(tmp_path, "c.json", cfg),
                         "--out", str(out)]) == code
        assert sorted(p.name for p in out.iterdir()) == ["error.json"]

    def test_passing_run_after_a_raising_one(self, tmp_path):
        out = tmp_path / "o"
        out.mkdir()
        (out / "notes.txt").write_text("kept")
        for cfg, code in ((RAISING_CFG, 1), (ASPECT_CFG, 0)):
            assert main(["mass-aspect", "--config", write_cfg(tmp_path, "c.json", cfg),
                         "--out", str(out)]) == code
        assert sorted(p.name for p in out.iterdir()) == \
            ["expansions.json", "notes.txt", "report.json"]

    def test_other_kind_into_the_same_directory(self, tmp_path):
        run_scenario(KOTTLER_CFG, tmp_path)
        run_scenario(PENROSE_CFG, tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["equality.csv", "report.json"]

    def test_sweep_rerun_whose_member_now_fails(self, tmp_path):
        # a member directory past the new sweep's last member goes
        passing = dict(RAISING_CFG, eps=0.0)
        run_sweep({"kind": "sweep", "base": passing, "vary": {"r_end": [2e3, 4e3]}},
                  tmp_path)
        reports, code = run_sweep({"kind": "sweep", "base": RAISING_CFG,
                                   "vary": {"r_end": [2e3]}}, tmp_path)
        assert code == 1 and reports == [None]
        assert sorted(p.name for p in (tmp_path / "member_000").iterdir()) == ["error.json"]
        assert not (tmp_path / "member_001").exists()
        assert (tmp_path / "summary.csv").read_text().count("\n") == 2

    def test_shorter_sweep_rerun_keeps_other_files(self, tmp_path):
        # each stale member loses its outcome files; one that holds other
        # files stays with them, and a directory that merely looks like a
        # member's is not touched
        run_sweep({"kind": "sweep", "base": PENROSE_CFG, "vary": {"genus": [2, 3, 4]}},
                  tmp_path)
        (tmp_path / "member_002" / "notes.txt").write_text("kept")
        (tmp_path / "member_extra").mkdir()
        (tmp_path / "member_extra" / "report.json").write_text("kept")
        _, code = run_sweep(SWEEP_CFG, tmp_path)
        assert code == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "member_000", "member_001", "member_002", "member_extra", "summary.csv"]
        assert [p.name for p in (tmp_path / "member_002").iterdir()] == ["notes.txt"]
        assert (tmp_path / "member_extra" / "report.json").read_text() == "kept"


def test_failed_sweep_member_keeps_its_reason(tmp_path, monkeypatch):
    # the map of the second member fails as an overflowing map would
    from alhflow import asymptotics
    build = asymptotics.build_substitution

    def failing_build(p, r_start, r_end, **kwargs):
        if r_end == 2e4:
            raise NumericalError("substitution deviation is not finite")
        return build(p, r_start, r_end, **kwargs)

    monkeypatch.setattr(asymptotics, "build_substitution", failing_build)
    base = {"kind": "mass-aspect", "k_hat": -1, "m": 0.5,
            "r_start": 2.0, "r_end": 1e4}
    cfg = {"kind": "sweep", "base": base, "vary": {"r_end": [1e4, 2e4]}}
    reports, code = run_sweep(cfg, tmp_path / "o")
    assert code == 1 and reports[1] is None
    assert not (tmp_path / "o" / "member_000" / "error.json").exists()
    error = json.loads((tmp_path / "o" / "member_001" / "error.json").read_text())
    assert error == {"type": "NumericalError",
                     "message": "substitution deviation is not finite"}
    rows = (tmp_path / "o" / "summary.csv").read_text().split("\n")
    assert rows[2] == "1,mass-aspect,20000,1,False"


def test_failed_scenario_keeps_its_reason(tmp_path, monkeypatch, capsys):
    # the single run fails as the second sweep member above does
    from alhflow import asymptotics

    def failing_build(p, r_start, r_end):
        raise NumericalError("substitution deviation is not finite")

    monkeypatch.setattr(asymptotics, "build_substitution", failing_build)
    out = tmp_path / "o"
    cfg = write_cfg(tmp_path, "aspect.json", ASPECT_CFG)
    assert main(["mass-aspect", "--config", cfg, "--out", str(out)]) == 1
    assert "run error: NumericalError" in capsys.readouterr().err
    assert json.loads((out / "error.json").read_text()) == {
        "type": "NumericalError", "message": "substitution deviation is not finite"}
    assert sorted(p.name for p in out.iterdir()) == ["error.json"]


#: phi comes within its rounding of zero at its last minimum r = 1, so the
#: horizon solve of validation raises NumericalError
UNDECIDED_CFG = {"kind": "flow", "k_hat": 1, "genus": 0, "m": 3,
                 "eps": 4.0000000000001, "r0": 2, "t_max": 1, "steps": 64}
UNDECIDED_ERROR = {"type": "NumericalError", "message": "phi comes to 1.004e-13 "
                   "at its last minimum r = 1.0: horizon undecided"}


def test_undecided_horizon_is_a_run_error(tmp_path, capsys):
    out = tmp_path / "o"
    cfg = write_cfg(tmp_path, "flow.json", UNDECIDED_CFG)
    assert main(["flow", "--config", cfg, "--out", str(out)]) == 1
    assert "run error: NumericalError" in capsys.readouterr().err
    assert json.loads((out / "error.json").read_text()) == UNDECIDED_ERROR
    assert sorted(p.name for p in out.iterdir()) == ["error.json"]
    # under another subcommand it is a config error, as any config would be
    assert main(["kottler", "--config", cfg, "--out", str(tmp_path / "k")]) == 2
    assert not (tmp_path / "k").exists()


def test_undecided_sweep_member_keeps_its_reason(tmp_path):
    # the member fails as its single run does, and the sweep runs the next one
    out = tmp_path / "o"
    cfg = write_cfg(tmp_path, "sweep.json", {"kind": "sweep", "base": UNDECIDED_CFG,
                                             "vary": {"eps": [4.0000000000001, 0.1]}})
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 1
    assert json.loads((out / "member_000" / "error.json").read_text()) == UNDECIDED_ERROR
    assert (out / "member_001" / "trajectory.csv").is_file()
    rows = (out / "summary.csv").read_text().split("\n")
    assert rows[1:3] == ["0,flow,4.0000000000001004,1,False",
                         "1,flow,0.10000000000000001,0,True"]


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
        kottler_sweep = {"kind": "sweep", "base": KOTTLER_CFG, "vary": {"m": [-0.1, 0.2]}}
        for i, cfg in enumerate((self.SWEEP, flow_sweep, kottler_sweep)):
            calls.clear()
            path = write_cfg(tmp_path, f"sweep{i}.json", cfg)
            out = str(tmp_path / f"o{i}")
            assert main(["sweep", "--config", path, "--out", out]) == 0
            assert len(calls) == 2  # one potential per member

    def test_mass_aspect_solves_profile_radii_once(self, tmp_path, monkeypatch):
        # mu and both expansions read the map in one call, at r_end / 2^k
        from alhflow.asymptotics import MU_SAMPLES, SubstitutionMap
        calls = []
        values = SubstitutionMap._values
        monkeypatch.setattr(SubstitutionMap, "_values",
                            lambda sub_map, r: calls.append(r) or values(sub_map, r))
        run_scenario(ASPECT_CFG, tmp_path / "o")
        [radii] = calls
        assert radii.tolist() == [ASPECT_CFG["r_end"] / 2.0 ** k
                                  for k in range(MU_SAMPLES - 1, -1, -1)]

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
        assert changed.potential.m == 0.2


#: Per kind and key: the config changes made on both runs, then the key's
#: second value with the keys it constrains.  A massless Kottler space has
#: Hawking mass 0 on every genus, so kottler genus is varied at m = -0.1.
_SECOND_VALUES = {
    "kottler": {
        "k_hat": ({}, {"k_hat": 0, "genus": 1}),
        "m": ({}, {"m": -0.1}),
        "n_radii": ({}, {"n_radii": 21}),
        "r_max_factor": ({}, {"r_max_factor": 100.0}),
        "genus": ({"m": -0.1}, {"genus": 3}),
        "tolerances": ({}, {"tolerances": {"scalar_curvature": 1e-9}}),
    },
    "flow": {
        "k_hat": ({"m": 0.1}, {"k_hat": 0, "genus": 1}),
        "m": ({}, {"m": 0.2}),
        "genus": ({}, {"genus": 3}),
        "r0": ({}, {"r0": 3.0}),
        "t_max": ({}, {"t_max": 1.0}),
        "eps": ({}, {"eps": 0.01}),
        "steps": ({}, {"steps": 128}),
        "tolerances": ({}, {"tolerances": {"area_law": 1e-7}}),
    },
    "mass-aspect": {
        "k_hat": ({}, {"k_hat": 0}),
        "m": ({}, {"m": 0.4}),
        "r_end": ({}, {"r_end": 4e3}),
        "eps": ({}, {"eps": 0.01}),
        "tolerances": ({}, {"tolerances": {"mu_matches_mass": 1e-5}}),
    },
    "penrose": {
        "genus": ({}, {"genus": 3}),
        "masses": ({}, {"masses": [-0.1]}),
        "tolerances": ({}, {"tolerances": {"equality": 1e-9}}),
    },
    "static-compare": {
        "m": ({}, {"m": -0.05}),
        "map_r_end": ({}, {"map_r_end": 2e4}),
        "tolerances": ({}, {"tolerances": {"w_le_w0": 1e-10}}),
    },
    "sweep": {
        "base": ({}, {"base": dict(PENROSE_CFG, masses=[-0.1])}),
        "vary": ({}, {"vary": {"genus": [2, 4]}}),
    },
}
#: Keys that reach no artifact but the config's echo in report.json.  Each
#: stays because perfbench's workloads set it.
_NO_ARTIFACT = {
    # the map's quadrature is adaptive; the aspect workload varies it
    ("mass-aspect", "nodes_per_decade"),
    # the extraction reads the map no further in than r_end / 2^9, and
    # r_end >= 1e3 r_start; the aspect workload sets it
    ("mass-aspect", "r_start"),
    # the area radius sqrt(|Sigma| r_h^2 / (4 pi (genus - 1))) is r_h on
    # every genus >= 2; the compare workload sets it
    ("static-compare", "genus"),
}


#: phi = r^2 - 1 + 1/r^2 has no zero; the map ends below r = 2
ASPECT_SHORT_MAP_CFG = dict(ASPECT_CFG, m=0.0, eps=1.0, r_start=1e-4, r_end=0.5)


def _accepted_keys(kind):
    """The keys a config of this kind may set, besides kind: tolerances
    only where the kind reads one."""
    spec = cli._KINDS[kind]
    return [*spec.fields, "tolerances"] if spec.tolerances else list(spec.fields)


def _computed(root):
    """Every artifact under root, with each report.json's echo of its config
    left out."""
    return {path: dict(json.loads(data), scenario=None) if path.name == "report.json"
            else data for path, data in read_bytes_map(root).items()}


class TestRegistry:
    def test_subcommands_are_the_registered_kinds(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        assert "{" + ",".join(cli._KINDS) + "}" in capsys.readouterr().out
        assert set(MINIMAL) == set(cli._KINDS)
        assert [kind for kind, spec in cli._KINDS.items() if spec.run is None] == ["sweep"]

    @pytest.mark.parametrize("kind", list(MINIMAL))
    def test_minimal_config_exits_0(self, tmp_path, kind):
        path = write_cfg(tmp_path, "c.json", MINIMAL[kind])
        assert main([kind, "--config", path, "--out", str(tmp_path / "o")]) == 0

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, True, False])
    @pytest.mark.parametrize("kind,key", [
        (kind, key) for kind, spec in cli._KINDS.items()
        for key, field in spec.fields.items() if field is not None])
    def test_numeric_field_rejects_non_finite_and_bool(self, kind, key, value):
        with pytest.raises(ConfigError):
            validate_config(dict(MINIMAL[kind], **{key: value}))

    @pytest.mark.parametrize("cfg", [
        dict(PENROSE_CFG, masses=[math.nan]),
        dict(KOTTLER_CFG, tolerances={"scalar_curvature": math.inf}),
        dict(KOTTLER_CFG, tolerances={"scalar_curvature": math.nan}),
        # values that overflowed at run time
        dict(FLOW_CFG, t_max=1500.0),
        dict(KOTTLER_CFG, m=1e300),
        dict(KOTTLER_CFG, r_max_factor=1e300),
        # radii would reach r_h r_max_factor = 1.05e100
        dict(KOTTLER_CFG, m=-0.1, r_max_factor=1.2e100),
        dict(KOTTLER_CFG, genus=10**206),
        # the flow's last radius r0 e^(t_max/2) would lie past 1e100
        dict(FLOW_CFG, t_max=500.0),
        dict(FLOW_CFG, r0=5e99),
        dict(KOTTLER_CFG, genus=-1),
        dict(FLOW_CFG, steps=3),
        # past the declared range of eps
        dict(ASPECT_CFG, eps=-1e100),
    ])
    def test_rejected_values(self, cfg):
        with pytest.raises(ConfigError):
            validate_config(cfg)

    @pytest.mark.parametrize("value", ["inf", "nan", "-1", "0"])
    def test_tolerance_flag_must_be_finite_and_positive(self, tmp_path, capsys, value):
        path = write_cfg(tmp_path, "k.json", KOTTLER_CFG)
        assert main(["kottler", "--config", path, "--out", str(tmp_path / "o"),
                     "--tolerance", value]) == 2
        assert "--tolerance must be a positive number" in capsys.readouterr().err

    @pytest.mark.parametrize("cfg", [
        # not a penrose key
        dict(PENROSE_CFG, scan_points=64),
        # a penrose mass and genus past their caps
        dict(PENROSE_CFG, masses=[-0.1, 1e101]),
        dict(PENROSE_CFG, genus=10**201),
        dict(STATIC_CFG, map_r_end=-5.0),
        dict(STATIC_CFG, map_r_end=1e100),
        dict(STATIC_CFG, map_r_end=1e300),
        dict(ASPECT_CFG, r_end=1e52),
        dict(ASPECT_CFG, r_end=1e80),
        dict(ASPECT_CFG, r_end=1e103),
        dict(ASPECT_CFG, r_start=1e51, r_end=1e55),
        # r_start's range ends at r_end / 1e3, 1e47 with r_end at its cap
        dict(ASPECT_CFG, r_start=1.1e47, r_end=1e50),
        # starts below the inner root 0.2296 of m = -0.1, where phi > 0 again
        dict(FLOW_CFG, r0=0.1, t_max=1.0, steps=64),
        dict(ASPECT_CFG, m=-0.1, r_start=0.1, r_end=200.0),
        # the flow's last radius 5e99 e = 1.4e100 would lie past 1e100
        dict(FLOW_CFG, r0=5e99),
        # a k_hat = -1 map that would end below r = 2
        ASPECT_SHORT_MAP_CFG,
        # phi(0.3) > 0, but 0.3 lies inside the horizon 0.5777, which sits
        # beyond a near-critical minimum of r^2 phi
        dict(FLOW_CFG, m=-1.0 / (3.0 * math.sqrt(3.0)) + 1e-8, eps=-1e-7, r0=0.3),
        dict(ASPECT_CFG, m=-1.0 / (3.0 * math.sqrt(3.0)) + 1e-8, eps=-1e-7,
             r_start=0.3, r_end=1e3),
        # tolerance names the kind never reads
        dict(FLOW_CFG, tolerances={"equality": 1e-30}),
        dict(KOTTLER_CFG, tolerances={"area_law": 1.0}),
        dict(STATIC_CFG, tolerances={"equality": 1e-300}),
        # below the horizon 2.0 of m = 3: the domain alone rejects it
        dict(ASPECT_CFG, m=3, r_start=1.9),
    ])
    def test_closed_validation_gaps_exit_2(self, tmp_path, capsys, cfg):
        path = write_cfg(tmp_path, "c.json", cfg)
        assert main([cfg["kind"], "--config", path, "--out", str(tmp_path / "o")]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("kind,key", [
        (kind, key) for kind in cli._KINDS for key in _accepted_keys(kind)
        if (kind, key) not in _NO_ARTIFACT])
    def test_every_key_reaches_the_artifacts(self, tmp_path, kind, key):
        # a key whose second value leaves every computed artifact as it was
        # is a knob that does nothing
        context, change = _SECOND_VALUES[kind][key]
        first = dict(MINIMAL[kind], **context)
        run = run_sweep if kind == "sweep" else run_scenario
        trees = []
        for name, cfg in (("first", first), ("second", dict(first, **change))):
            run(cfg, tmp_path / name)
            trees.append(_computed(tmp_path / name))
        assert trees[0] != trees[1]

    @pytest.mark.parametrize("k_hat,genus", [(0, 1), (1, 0)])
    def test_r_max_factor_reaches_horizonless_profiles(self, tmp_path, k_hat, genus):
        # m = 0 with k_hat in {0, +1} has no horizon: radii run from 0.5 out
        # to 0.5 r_max_factor
        for factor in (10.0, 1e5):
            cfg = dict(KOTTLER_CFG, k_hat=k_hat, genus=genus, r_max_factor=factor)
            run_scenario(cfg, tmp_path / str(factor))
            rows = (tmp_path / str(factor) / "profile.csv").read_text().splitlines()
            assert [float(row.split(",")[0]) for row in (rows[1], rows[-1])] == \
                [0.5, 0.5 * factor]

    @pytest.mark.parametrize("kind", [kind for kind, spec in cli._KINDS.items()
                                      if spec.run is not None])
    def test_each_kind_declares_the_tolerances_its_checks_read(self, tmp_path, kind):
        report = run_scenario(MINIMAL[kind], tmp_path)
        # penrose checks each mass as equality_m<i>, against one tolerance
        read = {"equality" if check["name"].startswith("equality_m") else check["name"]
                for check in report["checks"]}
        assert read == set(cli._KINDS[kind].tolerances)

    @pytest.mark.parametrize("kind", [kind for kind, spec in cli._KINDS.items()
                                      if spec.run is not None])
    def test_each_kind_writes_its_artifact_and_one_report(self, tmp_path, kind):
        report = run_scenario(MINIMAL[kind], tmp_path)
        artifact = cli._KINDS[kind].artifact
        assert {p.name for p in tmp_path.iterdir()} == {artifact, "report.json"}
        assert report["outputs"] == [artifact, "report.json"]
        assert report == json.loads((tmp_path / "report.json").read_text())

    @pytest.mark.parametrize("key,value", [("parallel", False), ("tolerances", {})])
    def test_sweep_rejects_keys_no_member_reads(self, key, value):
        # the serial loop was the only one; members carry their own tolerances
        with pytest.raises(ConfigError) as info:
            validate_config(dict(SWEEP_CFG, **{key: value}))
        assert str(info.value) == f"unknown config keys for kind 'sweep': ['{key}']"

    @pytest.mark.parametrize("cfg", [
        dict(FLOW_CFG, steps=cli._STEPS_MAX),
        dict(KOTTLER_CFG, n_radii=cli._N_RADII_MAX),
    ])
    def test_allocating_fields_at_their_caps_validate(self, cfg):
        validate_config(cfg)  # not run: a member at a cap may take 0.8 GB

    @pytest.mark.parametrize("cfg,message", [
        (dict(FLOW_CFG, steps=cli._STEPS_MAX + 1),
         "config key 'steps' must be at most 5e+06, got 5000001"),
        (dict(KOTTLER_CFG, n_radii=cli._N_RADII_MAX + 1),
         "config key 'n_radii' must be at most 5e+06, got 5000001"),
    ])
    def test_allocating_fields_past_their_caps_rejected(self, cfg, message):
        with pytest.raises(ConfigError) as info:
            validate_config(cfg)
        assert str(info.value) == message

    @pytest.mark.parametrize("cfg", [
        dict(KOTTLER_CFG, k_hat=-1.0),
        dict(KOTTLER_CFG, m=2e3),
        dict(KOTTLER_CFG, genus=10**5, k_hat=-1),
        dict(KOTTLER_CFG, r_max_factor=1e60),
        # radii to r_h 1e90 = 8.8e89: the cap reads the horizon, not the largest mass
        dict(KOTTLER_CFG, m=-0.1, r_max_factor=1e90),
        dict(FLOW_CFG, t_max=400.0),
        # the last radius 3e99 e = 8.2e99
        dict(FLOW_CFG, r0=3e99),
        dict(PENROSE_CFG, masses=[2e3], genus=10**5),
        dict(STATIC_CFG, genus=10**300),
        dict(ASPECT_CFG, r_start=32.0, r_end=3.2e4),
    ])
    def test_values_below_the_overflows_validate(self, cfg):
        validate_config(cfg)

    @pytest.mark.parametrize("cfg", [
        # past rho = 32, the innermost rho that the old profile fits sampled
        dict(ASPECT_CFG, r_start=33.0, r_end=3.3e4),
        dict(ASPECT_CFG, r_start=1e47, r_end=1e50),
    ])
    def test_mass_aspect_r_start_runs_to_its_range_end(self, tmp_path, cfg):
        path = write_cfg(tmp_path, "a.json", cfg)
        assert main(["mass-aspect", "--config", path, "--out", str(tmp_path / "o")]) == 0

    @pytest.mark.parametrize("cfg,code", [
        (dict(KOTTLER_CFG, m=-0.1, r_max_factor=1e90), 0),
        (dict(KOTTLER_CFG, m=-0.1, r_max_factor=1.2e100), 2),
        # without a horizon the radii reach 0.5 r_max_factor
        (dict(KOTTLER_CFG, k_hat=0, genus=1, r_max_factor=2e100), 0),
        (dict(KOTTLER_CFG, k_hat=0, genus=1, r_max_factor=2.5e100), 2),
    ])
    def test_r_max_factor_capped_from_the_horizon(self, tmp_path, cfg, code):
        path = write_cfg(tmp_path, "k.json", cfg)
        assert main(["kottler", "--config", path, "--out", str(tmp_path / "o")]) == code

    @pytest.mark.parametrize("cfg", [
        dict(FLOW_CFG, eps=cli._EPS_MAX),
        dict(FLOW_CFG, eps=-cli._EPS_MAX, r0=1e15),
        dict(ASPECT_CFG, eps=cli._EPS_MAX),
    ])
    def test_eps_at_its_bound_validates(self, cfg):
        validate_config(cfg)

    @pytest.mark.parametrize("cfg,message", [
        (dict(FLOW_CFG, eps=1.5e56), "config key 'eps' must be at most 1e+56, got 1.5e+56"),
        (dict(FLOW_CFG, eps=-1.5e56, r0=1e15),
         "config key 'eps' must be at least -1e+56, got -1.5e+56"),
        (dict(ASPECT_CFG, eps=1e60), "config key 'eps' must be at most 1e+56, got 1e+60"),
    ])
    def test_eps_past_its_bound_rejected(self, cfg, message):
        with pytest.raises(ConfigError) as info:
            validate_config(cfg)
        assert str(info.value) == message

    def test_eps_bound_sits_below_the_quadrature_failure(self):
        # the failure the bound keeps out of a run, on the flow config's map
        p = kottler_potential(-1, -0.1, 2e56)
        with pytest.raises(NumericalError, match="did not converge"):
            build_substitution(p, 2.0, 2.02e3)

    @pytest.mark.parametrize("genus", [32, 10**5])
    def test_penrose_defaults_run_at_every_genus(self, tmp_path, genus):
        # the m_crit row sits at the minimizer area 4 pi (genus - 1) / 3
        cfg = {"kind": "penrose", "genus": genus, "masses": [critical_mass(-1), 0.0]}
        path = write_cfg(tmp_path, "p.json", cfg)
        assert main(["penrose", "--config", path, "--out", str(tmp_path / "o")]) == 0
        assert json.loads((tmp_path / "o" / "report.json").read_text())["all_pass"]

    @pytest.mark.parametrize("cfg,message", [
        ({"kind": "warp"}, "unknown scenario kind 'warp'; expected one of "
         "['flow', 'kottler', 'mass-aspect', 'penrose', 'static-compare', 'sweep']"),
        ({"kind": "kottler", "k_hat": -1},
         "missing config keys for kind 'kottler': ['genus', 'm']"),
        (dict(KOTTLER_CFG, k_hat="x"), "k_hat must be -1, 0 or +1"),
        (dict(KOTTLER_CFG, m="x"), "config key 'm' must be a number, got 'x'"),
        (dict(KOTTLER_CFG, m=-1),
         "mass -1 below the admissible minimum -0.19245008972987526"),
        (dict(KOTTLER_CFG, genus="x"), "genus must be an integer"),
        (dict(KOTTLER_CFG, genus=1), "genus 1 has curvature sign 0, not k_hat = -1"),
        (dict(KOTTLER_CFG, n_radii=1), "n_radii must be an integer >= 2"),
        (dict(KOTTLER_CFG, r_max_factor=1), "r_max_factor must exceed 1"),
        (dict(PENROSE_CFG, tolerances={"equality": -1}),
         "tolerance 'equality' must be a positive number"),
        (dict(FLOW_CFG, r0=-1), "r0 and t_max must be positive"),
        (dict(FLOW_CFG, steps=0), "steps must be a positive integer"),
        (dict(FLOW_CFG, r0=0.5), "r = 0.5 outside domain [0.8788850662499729, inf]"),
        (dict(ASPECT_CFG, nodes_per_decade=8),
         "nodes_per_decade must be an integer >= 16"),
        (dict(ASPECT_CFG, r_start=-1), "need 0 < r_start < r_end"),
        (dict(ASPECT_CFG, r_start=3), "need r_end / r_start >= 1e3"),
        # the horizon of m = 3 is 2.0: the domain alone rejects r_start below it
        (dict(ASPECT_CFG, m=3, r_start=1.9), "r = 1.9 outside domain [2.0, inf]"),
        (dict(PENROSE_CFG, genus=1), "penrose scenarios require integer genus >= 2"),
        (dict(PENROSE_CFG, masses=[]), "'masses' must be a non-empty list"),
        (dict(PENROSE_CFG, masses=["x"]), "'masses' entries must be numbers"),
        (dict(PENROSE_CFG, masses=[-1]),
         "mass -1 below the admissible minimum -0.19245008972987526"),
        (dict(PENROSE_CFG, masses=[-0.1, 1e101]),
         "config key 'masses' must be at most 1e+100, got 1e+101"),
        (dict(STATIC_CFG, m=0.1), "static-compare requires critical mass <= m <= 0"),
        (dict(STATIC_CFG, genus=1), "static-compare requires integer genus >= 2"),
        (dict(STATIC_CFG, m=-1.0 / (3.0 * math.sqrt(3.0))),
         "critical data has no surface-gravity reference"),
        (dict(FLOW_CFG, r0=5e99),
         "the flow's last radius r0 e^(t_max/2) lies past r = 1e+100"),
        (ASPECT_SHORT_MAP_CFG,
         "k_hat = -1 maps need r_end >= 2, and this one would end at r = 0.5"),
        # phi(0.1) = 1.01 > 0 below the inner root of m = -0.1
        (dict(FLOW_CFG, r0=0.1, t_max=1.0, steps=64),
         "r = 0.1 outside domain [0.8788850662499729, inf]"),
        (dict(KOTTLER_CFG, tolerances={"scalar_curvature": -1}),
         "tolerance 'scalar_curvature' must be a positive number"),
    ])
    def test_messages_kept(self, cfg, message):
        with pytest.raises(ConfigError) as info:
            validate_config(cfg)
        assert str(info.value) == message


_COLD_START = """
import sys
sys.path.insert(0, sys.argv[1])
from alhflow.cli import main
for path in sys.argv[3:]:
    kind = path.rsplit("/", 1)[-1][:-5]
    assert main([kind, "--config", path, "--out", sys.argv[2] + "/" + kind]) == 0, kind
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
print("numpy.ma" in sys.modules)
"""


def test_cold_start_loads_no_scipy(tmp_path):
    # a fresh process runs a scenario of every kind without importing scipy,
    # which took most of a cold start, or numpy.ma, which np.unique imports
    kinds = [kind for kind, spec in cli._KINDS.items() if spec.run is not None]
    paths = [write_cfg(tmp_path, f"{kind}.json", MINIMAL[kind]) for kind in kinds]
    src = str(Path(alhflow.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", _COLD_START, src, str(tmp_path), *paths],
                         capture_output=True, text=True, timeout=120, check=True)
    assert out.stdout.strip().splitlines()[-2:] == ["[]", "False"]


def test_module_entry_point(tmp_path):
    # the documented `python -m alhflow.cli`, in a fresh process
    env = dict(os.environ, PYTHONPATH=str(Path(alhflow.__file__).resolve().parents[1]))
    for kind, cfg, code in (("kottler", KOTTLER_CFG, 0), ("sweep", EMPTY_VARY_CFG, 2)):
        path = write_cfg(tmp_path, f"{kind}.json", cfg)
        out = subprocess.run([sys.executable, "-m", "alhflow.cli", kind, "--config", path,
                              "--out", str(tmp_path / kind)], env=env, cwd=tmp_path,
                             capture_output=True, text=True, timeout=120)
        assert out.returncode == code, out.stderr


def test_readme_configs_validate():
    # the README's minimal configs: one per registered kind, each valid
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    configs = [json.loads(block) for block in re.findall(r"```json\n(.*?)```", readme, re.S)]
    assert sorted(cfg["kind"] for cfg in configs) == sorted(cli._KINDS)
    for cfg in configs:
        validate_config(cfg)
