"""tools/artifact_digests.py: a header naming numpy's build, then one line per
written file and one per sweep."""

import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy
from numpy._core import _multiarray_umath as umath

from alhflow.cli import expand_sweep

ROOT = Path(__file__).resolve().parents[1]
TOOL = str(ROOT / "tools" / "artifact_digests.py")


def _header(disabled=()):
    targets = [t for t in umath.__cpu_dispatch__
               if umath.__cpu_features__.get(t) and t not in disabled]
    return f"numpy {numpy.__version__} dispatch {' '.join(targets) or 'baseline'}"


def test_artifact_digests_cover_every_sweep_of_one_seed(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    workloads = importlib.import_module("workloads")
    result = subprocess.run(
        [sys.executable, TOOL, str(ROOT / "src"), "1"],
        capture_output=True, text=True, check=True)
    header, *lines = result.stdout.splitlines()
    assert header == _header()
    sweeps = {f"{workload}/seed1/sweep{i}": sweep for workload in workloads.WORKLOADS
              for i, sweep in enumerate(workloads.generate(workload, 1))}
    assert [line.split("  ")[1] for line in lines if line.startswith("exit ")] == list(sweeps)
    files = [line for line in lines if not line.startswith("exit ")]
    assert all(re.fullmatch(r"[0-9a-f]{64}  \S+", line) for line in files)
    # every sweep writes its summary, and every member at this seed its report
    expected = {f"{name}/member_{j:03d}/report.json"
                for name, sweep in sweeps.items() for j in range(len(expand_sweep(sweep)))}
    expected |= {f"{name}/summary.csv" for name in sweeps}
    assert expected <= {line.split("  ")[1] for line in files}


def test_header_names_the_dispatch_targets_in_effect():
    # numpy's runtime switch acts on the child alone, on top of any the
    # parent runs with; with no seed the tool prints its header only
    enabled = [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]
    disabled = enabled[1:]
    switch = " ".join([os.environ.get("NPY_DISABLE_CPU_FEATURES", ""), *disabled])
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=switch)
    result = subprocess.run([sys.executable, TOOL, str(ROOT / "src")],
                            capture_output=True, text=True, check=True, env=env)
    assert result.stdout.splitlines() == [_header(disabled)]
