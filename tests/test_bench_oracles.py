"""Every member of the three benchmark workloads agrees with perfbench's oracles.

The oracles of perfbench/oracles.py check each member's artifacts against
closed forms and 50-digit mpmath solves.  This runs every sweep of the
flow-long, compare and aspect workloads at seed 1 through `cli.main`, as
the benchmark does, so an answer the oracles refuse fails here first.
"""

import contextlib
import importlib
import io
import json
from pathlib import Path

import pytest

from alhflow import cli

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("workloads"), importlib.import_module("oracles")


def test_every_workload_member_agrees_with_the_oracles(tmp_path, bench):
    workloads, oracles = bench
    members, disagreements = 0, {}
    for workload in workloads.WORKLOADS:
        for i, sweep in enumerate(workloads.generate(workload, 1)):
            out = tmp_path / workload / f"sweep_{i:02d}"
            config = tmp_path / workload / f"sweep_{i:02d}.json"
            config.parent.mkdir(parents=True, exist_ok=True)
            config.write_text(json.dumps(sweep))
            with contextlib.redirect_stdout(io.StringIO()):  # wall times
                assert cli.main(["sweep", "--config", str(config), "--out", str(out)]) == 0
            for j, member in enumerate(cli.validate_config(sweep).members):
                member_dir = out / f"member_{j:03d}"
                members += 1
                bad = oracles.check_member(member, member_dir)
                if bad:
                    disagreements[str(member_dir.relative_to(tmp_path))] = bad
    assert members == 312
    assert disagreements == {}
