"""Digest every file the benchmark workloads write, to compare two trees.

Usage: python tools/artifact_digests.py SRC SEED...

SRC is the directory that holds the alhflow package to run (a checkout's
src/).  For each seed, each workload of perfbench/workloads.py generates its
sweeps, and each sweep runs through alhflow.cli.main in a temporary
directory.  Every file written prints as "<sha256>  <workload>/seed<n>/
sweep<i>/<path>", and each sweep adds "exit <code>  <workload>/seed<n>/
sweep<i>".  Two source trees write the same bytes when their outputs diff
empty.
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path


def main(argv) -> int:
    src, *seeds = argv
    src = Path(src).resolve()
    sys.path[:0] = [str(src), str(Path(__file__).resolve().parents[1] / "perfbench")]
    import alhflow.cli
    import workloads

    if Path(alhflow.cli.__file__).parents[1] != src:
        raise SystemExit(f"error: imported alhflow from {alhflow.cli.__file__}")
    with tempfile.TemporaryDirectory() as tmp:
        for seed in map(int, seeds):
            for workload in workloads.WORKLOADS:
                for i, sweep in enumerate(workloads.generate(workload, seed)):
                    name = f"{workload}/seed{seed}/sweep{i}"
                    out, config = Path(tmp, name), Path(tmp, f"{name}.json")
                    config.parent.mkdir(parents=True, exist_ok=True)
                    config.write_text(json.dumps(sweep))
                    with contextlib.redirect_stdout(io.StringIO()):  # wall times
                        code = alhflow.cli.main(["sweep", "--config", str(config),
                                                 "--out", str(out)])
                    for path in sorted(out.rglob("*")):
                        if path.is_file():
                            digest = hashlib.sha256(path.read_bytes()).hexdigest()
                            print(f"{digest}  {name}/{path.relative_to(out).as_posix()}")
                    print(f"exit {code}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
