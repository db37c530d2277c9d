#!/usr/bin/env python3
"""Build and run the stem-engine benchmark for one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the `perfbench` package (release, offline) into
`$CARGO_TARGET_DIR` (default `.bench_build`), then runs it. The binary
prints progress lines and, as its last line, the JSON result. Scratch
files (write-ahead logs) go to `perfbench/work/` and are removed
afterwards. Exits non-zero if the build fails or any output check fails.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("dense-threshold", "live-feed")


def source_id():
    """A digest of the sources built: the checkout is not a git repository."""
    digest = hashlib.sha256()
    roots = [ROOT / "crates", HERE / "src"]
    files = [ROOT / "Cargo.lock", HERE / "Cargo.toml"]
    for root in roots:
        files.extend(p for p in root.rglob("*") if p.is_file())
    for path in sorted(files):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(HERE / "Cargo.toml")],
        env=env, stdout=sys.stderr, check=False,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    work = HERE / "work"
    work.mkdir(exist_ok=True)
    try:
        run = subprocess.run(
            [str(target / "release" / "perfbench"),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", args.trace,
             "--work", str(work), "--source", source_id()],
            check=False,
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
