"""Benchmark of the alhflow scenario runner on seeded sweep workloads.

Usage, from the repository root:

    python3 perfbench/run.py --workload flow-long --seed 1 --seconds 30 --trace 0

One run generates the workload's sweep configs from the seed, times the
set-up (fresh-interpreter import plus config validation), runs one
reference pass through ``alhflow.cli.main`` and checks its artifacts
against independent oracles, then repeats full passes for ``--seconds``.
Every timed pass must reproduce the reference artifacts byte for byte.
All work is serial in this one process.  Wall times are rescaled by the
machine-speed probe in ``calibrate.py``; raw medians are printed too.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` half the time runs untraced (for
the overhead baseline) and half traced, and the JSON carries the
per-layer metrics.  Without ``src/alhflow`` the run exits with code 1 and
prints no result; an unknown workload exits with code 2.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy
import scipy

import calibrate

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

#: Fresh interpreters timed per run for setup_s (after one untimed warm-up).
SETUP_SAMPLES = 3
#: Member latencies needed before p90 has ten samples beyond it.
MIN_MEMBER_SAMPLES = 100

_SETUP_CHILD = """
import sys, time
t0 = time.perf_counter()
src, bench, workload, seed = sys.argv[1:5]
sys.path[:0] = [src, bench]
import alhflow.cli as cli
import workloads
for sweep in workloads.generate(workload, int(seed)):
    cli.validate_config(sweep)
print(repr(time.perf_counter() - t0))
"""


def _import_program():
    if not (SRC / "alhflow" / "__init__.py").is_file():
        raise SystemExit(f"error: no alhflow package under {SRC}")
    sys.path.insert(0, str(SRC))
    import alhflow
    if Path(alhflow.__file__).resolve().parent != SRC / "alhflow":
        raise SystemExit(f"error: imported alhflow from {alhflow.__file__}")


def measure_setup(workload: str, seed: int) -> list[float]:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    cmd = [sys.executable, "-c", _SETUP_CHILD, str(SRC), str(BENCH_DIR),
           workload, str(seed)]
    times = []
    for _ in range(SETUP_SAMPLES + 1):
        out = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                             text=True, timeout=120, check=True)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return times[1:]


class MemberRecorder:
    """Wraps cli.run_scenario: latency of every member, and the type and
    message of any exception, which run_sweep itself discards."""

    def __init__(self, cli):
        self._cli = cli
        self._original = None
        self.latencies = []
        self.errors = {}

    def __enter__(self):
        original = self._original = self._cli.run_scenario

        def recorded(cfg, out_dir, tolerance=None):
            start = time.perf_counter()
            try:
                return original(cfg, out_dir, tolerance)
            except Exception as exc:
                self.errors[Path(out_dir)] = f"{type(exc).__name__}: {exc}"
                raise
            finally:
                self.latencies.append(time.perf_counter() - start)

        self._cli.run_scenario = recorded
        return self

    def __exit__(self, *exc):
        self._cli.run_scenario = self._original
        return False


def _hash_tree(root: Path) -> dict:
    return {p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


def _dir_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


class Pass:
    """Wall times of one pass, raw and rescaled to the reference speed."""

    def __init__(self, directory: Path):
        self.dir = directory
        self.raw_s = 0.0
        self.scaled_s = 0.0
        self.raw_latencies = []
        self.scaled_latencies = []

    def add(self, elapsed, latencies, scale) -> None:
        self.raw_s += elapsed
        self.scaled_s += elapsed * scale
        self.raw_latencies += latencies
        self.scaled_latencies += [x * scale for x in latencies]


class Workload:
    def __init__(self, name: str, seed: int, work: Path):
        from alhflow import cli
        import workloads

        self.cli = cli
        self.name = name
        self.sweeps = workloads.generate(name, seed)
        self.work = work
        self.config_paths = []
        self.members = []  # (sweep index, member index, validated member config)
        work.mkdir(parents=True)
        for i, sweep in enumerate(self.sweeps):
            validated = cli.validate_config(sweep)
            path = work / f"sweep_{i:02d}.json"
            path.write_text(json.dumps(sweep))
            self.config_paths.append(path)
            for j, member in enumerate(cli.expand_sweep(validated)):
                self.members.append((i, j, cli.validate_config(member)))
        self._passes = 0

    def run_pass(self, recorder: MemberRecorder) -> Pass:
        """One full pass, each sweep timed between two machine-speed probes."""
        pass_dir = self.work / f"pass_{self._passes:04d}"
        self._passes += 1
        result = Pass(pass_dir)
        sink = io.StringIO()
        speed = calibrate.probe()
        for i, path in enumerate(self.config_paths):
            first = len(recorder.latencies)
            with contextlib.redirect_stdout(sink):
                start = time.perf_counter()
                self.cli.main(["sweep", "--config", str(path),
                               "--out", str(pass_dir / f"sweep_{i:02d}")])
                elapsed = time.perf_counter() - start
            next_speed = calibrate.probe()
            scale = calibrate.REFERENCE_S / (0.5 * (speed + next_speed))
            speed = next_speed
            result.add(elapsed, recorder.latencies[first:], scale)
        return result

    def member_dir(self, pass_dir: Path, i: int, j: int) -> Path:
        return pass_dir / f"sweep_{i:02d}" / f"member_{j:03d}"

    def outcomes(self, pass_dir: Path, errors: dict) -> list[list[str]]:
        """Program-side failure reasons of every member of one pass."""
        result = []
        for i, j, _ in self.members:
            d = self.member_dir(pass_dir, i, j)
            if d in errors:
                result.append([f"raise {errors[d]}"])
                continue
            report = d / "report.json"
            if not report.is_file():
                result.append(["no report.json"])
                continue
            checks = json.loads(report.read_text())["checks"]
            result.append([f"check {c['name']}" for c in checks if not c["passed"]])
        return result


def _quartiles(values) -> list[float]:
    if len(values) < 2:
        return [round(v, 4) for v in values]
    return [round(q, 4) for q in statistics.quantiles(values, n=4)]


def _percentile(sorted_values, q):
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def run(args) -> int:
    _import_program()
    import layers
    import oracles
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    run_dir = WORK / f"run-{os.getpid()}"
    if run_dir.exists():
        shutil.rmtree(run_dir)
    try:
        wl = Workload(args.workload, args.seed, run_dir)
        return _measure(args, wl, layers, oracles)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def _measure(args, wl: Workload, layers, oracles) -> int:
    setup_times = measure_setup(args.workload, args.seed)
    n_members = len(wl.members)
    kinds = collections.Counter(cfg["kind"] for _, _, cfg in wl.members)
    print(f"machine: nproc {os.cpu_count()}, python {platform.python_version()}, "
          f"numpy {numpy.__version__}, scipy {scipy.__version__}")
    print(f"workload {wl.name} seed {args.seed}: {len(wl.sweeps)} sweeps, "
          f"{n_members} members per pass ({dict(sorted(kinds.items()))})")

    tracer = layers.make_tracer() if args.trace else None
    recorder = MemberRecorder(wl.cli)

    with recorder:
        ref_dir = wl.run_pass(recorder).dir
    ref_outcomes = wl.outcomes(ref_dir, recorder.errors)
    ref_hashes = _hash_tree(ref_dir)
    oracle_reasons = []
    for (i, j, cfg), outcome in zip(wl.members, ref_outcomes):
        d = wl.member_dir(ref_dir, i, j)
        if outcome and outcome[0].startswith(("raise", "no report")):
            oracle_reasons.append([])
            continue
        oracle_reasons.append([f"oracle {q}" for q in oracles.check_member(cfg, d)])

    silent = [k for k, (o, r) in enumerate(zip(ref_outcomes, oracle_reasons))
              if r and not o]
    nondeterministic = set()
    passes, traced_passes, snapshots, kept_spans = [], [], [], []

    def timed_pass(traced: bool):
        recorder.errors.clear()
        if traced:
            tracer.reset()
            tracer.keep_spans = not snapshots
            with tracer, recorder:
                result = wl.run_pass(recorder)
            snap = layers.snapshot(tracer)
            snap["cli.bytes_written"] = _dir_bytes(result.dir)
            snapshots.append(snap)
            traced_passes.append(result)
            if tracer.keep_spans:
                kept_spans.append(tracer.spans)
        else:
            with recorder:
                result = wl.run_pass(recorder)
            passes.append(result)
        pass_dir = result.dir
        outcomes = wl.outcomes(pass_dir, recorder.errors)
        hashes = _hash_tree(pass_dir)
        for k, ((i, j, _), outcome) in enumerate(zip(wl.members, outcomes)):
            prefix = f"sweep_{i:02d}/member_{j:03d}/"
            if outcome != ref_outcomes[k] or any(
                    hashes.get(p) != h for p, h in ref_hashes.items()
                    if p.startswith(prefix)):
                nondeterministic.add(k)
        if set(hashes) != set(ref_hashes):
            nondeterministic.add(-1)
        shutil.rmtree(pass_dir)

    start = time.perf_counter()
    budget = args.seconds / 2.0 if args.trace else args.seconds
    cap = 3.0 * args.seconds
    while True:
        elapsed = time.perf_counter() - start
        samples = sum(len(p.raw_latencies) for p in passes)
        enough = elapsed >= budget and (args.trace or samples >= MIN_MEMBER_SAMPLES)
        if (enough and len(passes) >= 2) or (elapsed >= cap and passes):
            break
        timed_pass(traced=False)
    if args.trace:
        start = time.perf_counter()
        while len(snapshots) < 2 or time.perf_counter() - start < args.seconds / 2.0:
            timed_pass(traced=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # Each member counts once, with the reasons of the reference pass, so
    # attempted and failed depend on the seed alone and not on how many
    # timed passes fit into --seconds; a member whose artifacts differ in
    # any timed pass fails as well.
    reason_counts = collections.Counter()
    attempted = n_members
    failed = 0
    for k, (_, _, cfg) in enumerate(wl.members):
        reasons = ref_outcomes[k] + oracle_reasons[k]
        if k in nondeterministic:
            reasons = reasons + ["artifacts differ from the reference pass"]
        if reasons:
            failed += 1
            # one line per kind of reason, not per penrose mass index
            for reason in {re.sub(r"_m\d+$", "_m*", r) for r in reasons}:
                reason_counts[(cfg["kind"], reason)] += 1
    fail_share = failed / attempted
    raw_times = [p.raw_s for p in passes]
    print(f"passes: {len(passes)} untraced, {len(traced_passes)} traced; untraced "
          f"pass quartiles {_quartiles(raw_times)} s raw, "
          f"{_quartiles([p.scaled_s for p in passes])} s rescaled")
    print(f"fail_share {fail_share:.4f} ({failed}/{attempted} members, each run in "
          f"{1 + len(passes) + len(traced_passes)} passes)")
    for (kind, reason), count in sorted(reason_counts.items(),
                                        key=lambda kv: (-kv[1], kv[0])):
        print(f"  {count:6d}  {kind:15s} {reason}")
    correct = not silent and not nondeterministic
    for k in silent:
        i, j, cfg = wl.members[k]
        print(f"SILENT WRONG ANSWER sweep {i} member {j}: {cfg} -> {oracle_reasons[k]}")
    if nondeterministic:
        print(f"NONDETERMINISTIC artifacts in {len(nondeterministic)} members")

    if args.trace:
        spans_path = WORK / f"spans-{wl.name}-seed{args.seed}.csv"
        tracer.spans = kept_spans[0]
        tracer.write_spans(spans_path)
        print(f"spans of the first traced pass: {spans_path}")
        metrics = _layer_metrics(layers, snapshots, traced_passes, passes)
        _print_top(tracer)
    else:
        lat = sorted(x for p in passes for x in p.scaled_latencies)
        raw_lat = sorted(x for p in passes for x in p.raw_latencies)
        p90 = _percentile(lat, 0.9)
        beyond = sum(1 for x in lat if x > p90)
        print(f"member latency: {len(lat)} samples, {beyond} beyond p90; raw "
              f"p50 {1e3 * statistics.median(raw_lat):.4g} ms, "
              f"p90 {1e3 * _percentile(raw_lat, 0.9):.4g} ms; raw sweep_s "
              f"{statistics.median(raw_times):.4g} s")
        print(f"setup samples {[round(t, 4) for t in setup_times]}")
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "sweep_s": (statistics.median(p.scaled_s for p in passes), "s"),
            "member_ms_p50": (1e3 * statistics.median(lat), "ms"),
            "member_ms_p90": (1e3 * p90, "ms"),
            "pass_share": (1.0 - fail_share, "share"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def _layer_metrics(layers, snapshots, traced_passes, passes) -> dict:
    first = snapshots[0]
    for snap in snapshots[1:]:
        drift = [n for n in layers.COUNT_METRICS if snap[n] != first[n]]
        if drift:
            print(f"COUNT DRIFT between traced passes: {drift}")
    out = {}
    for name, unit in layers.METRICS:
        if name == "trace.overhead":
            value = (statistics.median(p.scaled_s for p in traced_passes)
                     / statistics.median(p.scaled_s for p in passes))
        elif unit == "s":
            value = statistics.median(s[name] for s in snapshots)
        else:
            value = first[name]
        out[name] = (value, unit)
    return out


def _print_top(tracer, limit=12):
    print("self time by function, last traced pass:")
    for name, seconds in tracer.self_s.most_common(limit):
        print(f"  {seconds:9.4f} s  {tracer.calls[name]:9d} calls  {name}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
