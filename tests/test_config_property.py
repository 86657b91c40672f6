"""Every config that validates runs, or fails with a typed error it keeps.

A seeded hypothesis property over the registry `cli._KINDS`, one case per
kind, sweeps included: each drawn config runs through `main`.  A config that
validation rejects exits 2; every other one writes report.json or leaves
error.json naming a DomainError or NumericalError (HypothesesNotMet,
FlowError and ExtractionError are subclasses).  No other exception may
escape, no run may end without either file, and no file written may hold a
NaN or infinite number.

Each key has a strategy of its own in `_DRAWS`, so a key added to the
registry fails here until it gets one.  Half the masses lie from 1e-15 to
10 above the critical mass; eps is 0 in a third of the draws, otherwise of
either sign from 1e-12 to 1e6; radii start beyond the horizon scale of m
and eps, so most configs validate; and every size is small (flows take at
most 64 steps).
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alhflow import cli, errors
from alhflow.geometry import critical_mass

#: The names error.json may carry: DomainError, NumericalError and their subclasses.
TYPED = {name for name, cls in vars(errors).items() if isinstance(cls, type)
         and issubclass(cls, (errors.DomainError, errors.NumericalError))}


def _log(lo, hi):
    """10^U(lo, hi)."""
    return st.floats(lo, hi).map(lambda e: 10.0 ** e)


def _mass(draw, cfg):
    k_hat = cfg.get("k_hat", -1)
    m = draw(st.one_of(_log(-15, 1).map(lambda d: critical_mass(k_hat) + d),
                       st.floats(-1.0, 10.0)))
    return min(m, 0.0) if cfg["kind"] == "static-compare" else m


def _genus(draw, cfg):
    # a genus whose curvature sign is the config's k_hat
    return draw({1: st.just(0), 0: st.just(1), -1: st.integers(2, 6)}[cfg.get("k_hat", -1)])


def _radius(draw, cfg, hi):
    # from just beyond where a horizon of the drawn m and eps lies to 10^hi
    # times that radius
    scale = max(abs(2.0 * cfg["m"]) ** (1.0 / 3.0), abs(cfg.get("eps", 0.0)) ** 0.25, 1.0)
    return scale * draw(_log(0.1, hi))


_EPS = st.one_of(st.just(0.0), _log(-12, 6), _log(-12, 6).map(lambda e: -e))

#: One strategy per config key, drawn in this order: draw(data draw, config
#: drawn so far) -> value.
_DRAWS = {
    "k_hat": lambda draw, cfg: draw(st.sampled_from((-1, 0, 1))),
    "m": _mass,
    "genus": _genus,
    "eps": lambda draw, cfg: draw(_EPS),
    "r0": lambda draw, cfg: _radius(draw, cfg, 2.5),
    "t_max": lambda draw, cfg: draw(_log(-3, 1.5)),
    "steps": lambda draw, cfg: draw(st.integers(1, 64)),
    "n_radii": lambda draw, cfg: draw(st.integers(2, 64)),
    "r_max_factor": lambda draw, cfg: 1.0 + draw(_log(-6, 4)),
    "nodes_per_decade": lambda draw, cfg: draw(st.integers(16, 64)),
    "r_start": lambda draw, cfg: _radius(draw, cfg, 1.5),
    "r_end": lambda draw, cfg: cfg["r_start"] * draw(_log(3, 8)),
    "masses": lambda draw, cfg: [_mass(draw, {"kind": "penrose"})
                                 for _ in range(draw(st.integers(1, 3)))],
    "scan_points": lambda draw, cfg: draw(st.integers(10, 512)),
    "scan_area_max": lambda draw, cfg: draw(_log(1.5, 4)),
    "map_r_end": lambda draw, cfg: draw(_log(3.4, 8)),
}


def _scenario(draw, kind):
    cfg = {"kind": kind}
    for key in sorted(cli._KINDS[kind].fields, key=list(_DRAWS).index):
        cfg[key] = _DRAWS[key](draw, cfg)
    return cfg


@st.composite
def configs(draw, kind):
    if kind != "sweep":
        return _scenario(draw, kind)
    base = _scenario(draw, draw(st.sampled_from(
        sorted(k for k, spec in cli._KINDS.items() if spec.run is not None))))
    key = draw(st.sampled_from(list(cli._KINDS[base["kind"]].fields)))
    values = [_DRAWS[key](draw, base) for _ in range(draw(st.integers(1, 2)))]
    return {"kind": "sweep", "base": base, "vary": {key: values}}


@pytest.mark.parametrize("kind", sorted(cli._KINDS))
@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_validated_configs_run_or_keep_a_typed_error(kind, data):
    cfg = data.draw(configs(kind))
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp, "config.json"), Path(tmp, "out")
        path.write_text(json.dumps(cfg))
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main([cfg["kind"], "--config", str(path), "--out", str(out)])
        if code == 2:
            with pytest.raises(errors.ConfigError):
                cli.validate_config(cfg)
            return
        assert code in (0, 1)
        runs = [out]
        if cfg["kind"] == "sweep" and not (out / "error.json").exists():
            runs = [out / f"member_{i:03d}" for i in range(len(cli.expand_sweep(cfg)))]
            assert (out / "summary.csv").is_file()
        for run in runs:
            if not (run / "report.json").is_file():
                error = json.loads((run / "error.json").read_text())
                assert error["type"] in TYPED, error
        for written in out.rglob("*"):
            if written.is_file():
                assert not _non_finite(written), written


def _non_finite(path) -> bool:
    """Whether a written file holds a NaN or infinite number: a bare JSON
    NaN or Infinity, or a CSV cell nan or inf (a message's words are text)."""
    text = path.read_text()
    if path.suffix == ".json":
        found = []
        json.loads(text, parse_constant=found.append)
        return bool(found)
    return any(cell.lstrip("+-") in ("nan", "inf", "NaN", "Infinity")
               for line in text.splitlines() for cell in line.split(","))
