"""tools/artifact_digests.py: one line per written file and one per sweep."""

import importlib
import re
import subprocess
import sys
from pathlib import Path

from alhflow.cli import expand_sweep

ROOT = Path(__file__).resolve().parents[1]


def test_artifact_digests_cover_every_sweep_of_one_seed(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    workloads = importlib.import_module("workloads")
    result = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "artifact_digests.py"), str(ROOT / "src"), "1"],
        capture_output=True, text=True, check=True)
    lines = result.stdout.splitlines()
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
