"""The benchmark's traced mode still runs on the package.

perfbench/layers.py probes `asymptotics.solve_ivp`, counts
`FlowTrajectory.states` and sizes the file at the keyword argument `path`
of `write_trajectory_csv`, as the flow runner passes it.  A change that drops one of them
breaks `python3 perfbench/run.py --trace 1`; this test fails first.  Its
ROOT layer counts the calls of `geometry.horizon_radius`, the one horizon
solve that the package calls by its public name.
"""

import functools
import importlib
from pathlib import Path

import pytest

from alhflow import cli, geometry

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def layers(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("layers")


def test_traced_flow_and_mass_aspect(tmp_path, layers):
    flow = {"kind": "flow", "k_hat": -1, "m": -0.1, "genus": 2,
            "r0": 2.0, "t_max": 2.0, "steps": 64}
    aspect = {"kind": "mass-aspect", "k_hat": -1, "m": 0.5,
              "r_start": 2.0, "r_end": 2e3}
    with layers.make_tracer() as tracer:
        cli.run_scenario(flow, tmp_path / "flow")
        cli.run_scenario(aspect, tmp_path / "aspect")
    metrics = layers.snapshot(tracer)
    assert metrics["flow.states"] == 65
    assert metrics["flow.csv_bytes"] > 0
    assert metrics["asymptotics.build_calls"] == 1  # the mass aspect's; a flow has no map


def test_traced_root_layer_sees_every_horizon_solve(tmp_path, layers, monkeypatch):
    # an independent count of the horizon solves, validation included; the
    # tracer, made after it, wraps the counting function in its place
    calls = []
    solve = geometry.horizon_radius

    @functools.wraps(solve)
    def counted(p):
        calls.append(p)
        return solve(p)

    monkeypatch.setattr(geometry, "horizon_radius", counted)
    configs = [
        {"kind": "kottler", "k_hat": -1, "m": -0.1, "genus": 2},
        {"kind": "kottler", "k_hat": 0, "m": 0.0, "genus": 1},  # no horizon
        {"kind": "penrose", "genus": 2, "masses": [-0.1, 0.0, 0.5], "scan_points": 64},
        {"kind": "static-compare", "m": -0.1, "genus": 2, "map_r_end": 1e4},
    ]
    with layers.make_tracer() as tracer:
        for i, cfg in enumerate(configs):
            assert cli.run_scenario(cfg, tmp_path / str(i))["all_pass"]
    metrics = layers.snapshot(tracer)
    # one solve per kottler member and per penrose mass, two per
    # static-compare member (its data and its reference)
    assert metrics["geometry.root_calls"] == len(calls) == 1 + 1 + 3 + 2
    assert metrics["geometry.root_none_share"] == 1 / len(calls)
