"""The CSV writer against CPython's per-value "%.17g" rendering, byte for byte."""

import csv
import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alhflow._text import BLOCK_ROWS, csv_text
from alhflow.cli import run_sweep, write_csv


def reference_csv(header, rows) -> bytes:
    """The per-cell rendering the writers used before the array kernel."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(format(float(v), ".17g")
                              if isinstance(v, (float, np.floating)) else str(v)
                              for v in row))
    return ("\n".join(lines) + "\n").encode()


def kernel_cells(values) -> list[str]:
    data = b"".join(csv_text(["v"], [np.array(values, dtype=np.float64)]))
    return data.decode().split("\n")[1:-1]


def _from_bits(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


# st.floats draws subnormals, both zeros, both infinities and nan; raw bit
# patterns spread evenly over the exponents instead of clustering near 1
doubles = st.floats() | st.integers(0, 2 ** 64 - 1).map(_from_bits)


@settings(max_examples=300, deadline=None)
@given(st.lists(doubles, min_size=1, max_size=40))
def test_cells_match_format(values):
    assert kernel_cells(values) == [format(v, ".17g") for v in values]


def _powers_of_ten():
    out = []
    for k in range(-324, 309):
        v = float(f"1e{k}")
        out += [v, np.nextafter(v, 0.0), np.nextafter(v, np.inf)]
    return out


EXPLICIT = {
    "ties": [123456789012345675.0, 2.0 ** -25, 3 * 2.0 ** -25, -(2.0 ** -25),
             1234567890123456.25, 1234567890123456.75, 4503599627370495.5,
             0.5, 2.5, 1e23],
    "powers of ten": _powers_of_ten(),
    "notation switches": [1e-5, 1e-4, 9.9999999999999991e-06, 9.9999999999999991e-05,
                          0.000099999999999999999, 1e16, 1e17, 9999999999999998.0,
                          99999999999999984.0, 99999999999999999.0, -1e16, -1e17],
    "beyond 1e280": [1e281, -1e281, 1.7976931348623157e308, 1e-281, 1e-300,
                     2.2250738585072014e-308, 5e-324, -5e-324],
    "zeros and non-finite": [0.0, -0.0, float("inf"), -float("inf"), float("nan")],
}


@pytest.mark.parametrize("name", sorted(EXPLICIT))
def test_explicit_cells_match_format(name):
    values = EXPLICIT[name]
    assert kernel_cells(values) == [format(v, ".17g") for v in values]


#: Cells the kernel handles off its main path, by the fix-up they need
RARE = {
    "zero low groups": [1.0, 123.0, 1e16, -2.5e-3],
    # doubles just below a power of ten that print as it: log10 gives the
    # power, one too high, and at the exponent below the digits round up
    "carry to 10^17": [1e-14, -1e98, 1e129],
    "log10 off by one": [float(np.nextafter(v, 0.0)) for v in (1e16, -1e-5, 1e22, 1e-30)],
    "ties and non-finite": [2.0 ** -25, 1234567890123456.25, -4503599627370495.5,
                            float("nan"), float("inf"), -float("inf")],
    # |v| 10^(16 - e10) within 3e-16 of n + 1/2 but off it, closer than the
    # scaled product's error: rounded on the fast path, these come out wrong
    "near ties": [float.fromhex(h) for h in ("0x1.a5ca9080b933ep-25", "-0x1.55d224bfed7adp-28",
                                             "0x1.545bb680250a6p-28")],
    "beyond 1e280": [1e281, -1.7976931348623157e308, 1e-300, 5e-324],
    "zeros": [0.0, -0.0],
}


@pytest.mark.parametrize("kinds", [[kind] for kind in RARE] + [list(RARE)],
                         ids=[*RARE, "all"])
def test_rare_cells_in_every_block_match_reference(kinds):
    """Every block of a multi-column table mixes in the rare cells, so a
    fix-up skipped in a block that needs it shows."""
    rows, width = 3 * BLOCK_ROWS + 1, 5
    rng = np.random.default_rng(len(kinds))
    columns = [rng.standard_normal(rows) * 10.0 ** rng.integers(-6, 12, rows)
               for _ in range(width)]
    values = [v for kind in kinds for v in RARE[kind]]
    for start in range(0, rows, BLOCK_ROWS):
        block = min(BLOCK_ROWS, rows - start)
        for j, v in enumerate(values):
            columns[j % width][start + 37 * j % block] = v
    header = [f"c{k}" for k in range(width)]
    assert b"".join(csv_text(header, columns)) == reference_csv(header, zip(*columns))


@pytest.mark.parametrize("rows", [1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1])
def test_block_edges_match_reference(rows):
    rng = np.random.default_rng(rows)
    columns = [rng.standard_normal(rows) * 10.0 ** rng.integers(-8, 20, rows),
               np.zeros(rows), -rng.random(rows), np.arange(rows, dtype=float)]
    data = b"".join(csv_text(["a", "b", "c", "d"], columns))
    assert data == reference_csv(["a", "b", "c", "d"], zip(*columns))


def test_config_columns_keep_their_rendering(tmp_path):
    # ints, strings, bools and floats in one column, a NUL inside a string
    config = [1, "kottler", True, 0.1, "a\0b", "é", 10 ** 20]
    floats = np.array([1.5, -0.0, 1e-300, np.nan, 0.25, 1e300, 7.0])
    path = tmp_path / "mixed.csv"
    write_csv(["config", "value"], [config, floats], path)
    assert path.read_bytes() == reference_csv(["config", "value"], zip(config, floats))


def test_sweep_summary_with_mixed_vary_values(tmp_path):
    cfg = {"kind": "sweep",
           "base": {"kind": "kottler", "k_hat": 1, "m": 0.25, "genus": 0, "n_radii": 4},
           "vary": {"k_hat": [1, 1.0], "m": [0.1, 1]}}
    reports, code = run_sweep(cfg, tmp_path)
    assert code == 0
    k_hats = [1, 1, 1.0, 1.0]
    rows = [(i, "kottler", k, m, 0, True)
            for i, (k, m) in enumerate(zip(k_hats, [0.1, 1] * 2))]
    header = ["member", "kind", "k_hat", "m", "exit_code", "all_pass"]
    assert (tmp_path / "summary.csv").read_bytes() == reference_csv(header, rows)


def test_sweep_summary_keeps_list_and_object_values_in_one_cell(tmp_path):
    cfg = {"kind": "sweep", "base": {"kind": "penrose", "genus": 2, "masses": [0.0],
                                     "scan_points": 64},
           "vary": {"masses": [[0.0, 0.1], [0.2]], "tolerances": [{"equality": 1e-9}]}}
    run_sweep(cfg, tmp_path)
    with open(tmp_path / "summary.csv", newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["member", "kind", "masses", "tolerances", "exit_code", "all_pass"]
    assert all(len(row) == len(rows[0]) for row in rows)
    assert [(json.loads(row[2]), json.loads(row[3])) for row in rows[1:]] == [
        ([0.0, 0.1], {"equality": 1e-9}), ([0.2], {"equality": 1e-9})]


def test_artifact_cells_render_back(tmp_path):
    """Every number in every CSV artifact reads as format(float(cell), ".17g")."""
    sweeps = [
        {"kind": "sweep", "base": {"kind": "kottler", "k_hat": -1, "genus": 2, "m": 0.1},
         "vary": {"m": [-0.1, 0, 0.3], "n_radii": [7, 40]}},
        {"kind": "sweep", "base": {"kind": "flow", "k_hat": 0, "m": 0.2, "genus": 1,
                                   "r0": 2.0, "t_max": 3.0, "steps": 64},
         "vary": {"eps": [0.0, 0.1], "k_hat": [0]}},
        {"kind": "sweep", "base": {"kind": "penrose", "genus": 3,
                                   "masses": [-0.1, 0, 0.5, 2, 1e-9]},
         "vary": {"genus": [2, 3]}},
    ]
    for i, cfg in enumerate(sweeps):
        run_sweep(cfg, tmp_path / f"sweep_{i}")
    paths = sorted(tmp_path.rglob("*.csv"))
    assert {p.name for p in paths} == {"summary.csv", "profile.csv",
                                       "trajectory.csv", "equality.csv"}
    numbers = 0
    for path in paths:
        for line in path.read_text().splitlines()[1:]:
            for cell in line.split(","):
                try:
                    value = float(cell)
                except ValueError:
                    continue  # a kind name or a bool
                assert format(value, ".17g") == cell, (path, cell)
                numbers += 1
    assert numbers > 1000
