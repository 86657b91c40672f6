"""The benchmark's traced mode still runs on the package.

perfbench/layers.py probes `asymptotics.solve_ivp`, counts
`FlowTrajectory.states` and sizes the file at the fourth positional
argument `path` of `write_trajectory_csv`.  A change that drops one of them
breaks `python3 perfbench/run.py --trace 1`; this test fails first.
"""

import importlib
from pathlib import Path

from alhflow import cli

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_traced_flow_and_mass_aspect(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    layers = importlib.import_module("layers")
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
    assert metrics["asymptotics.build_calls"] == 2
