#!/usr/bin/env python3
"""Builds and runs the paper-query benchmark.

    python3 perfbench/run.py --workload q1_median --seed 1 --seconds 40 --trace 0

Run from the root of the repository. The first run configures and builds
perfbench/ (the SIDR sources under src/ plus paper_bench) into
.bench_build/perfbench; later runs only rebuild what changed. Build output
goes to stderr; paper_bench's stdout passes through, and its last line is
the JSON result. Exits non-zero, without a result, when the build or the
run fails.
"""

import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
WORK_DIR = BUILD_DIR / "run"


def build() -> Path:
    configure = ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD_DIR),
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not (BUILD_DIR / "Makefile").exists():
        configure += ["-G", "Ninja"]
    subprocess.run(configure, stdout=sys.stderr, check=True)
    jobs = str(os.cpu_count() or 1)
    subprocess.run(["cmake", "--build", str(BUILD_DIR), "-j", jobs],
                   stdout=sys.stderr, check=True)
    return BUILD_DIR / "paper_bench"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", str(WORK_DIR)]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
