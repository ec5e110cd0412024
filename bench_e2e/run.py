#!/usr/bin/env python3
"""Builds bench_e2e from this checkout's sources, then runs it.

Usage, from the root of a checkout:

    python3 bench_e2e/run.py --workload tower-converge --seed 1 \\
        --seconds 10 --trace 0

Every argument is passed through to the bench_e2e binary (see README.md).
The build tree is .bench_build/bench_e2e; configure happens once, and later
runs only re-check it. Build output goes to stderr so that the last line of
stdout stays the benchmark's JSON result.
"""

import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "bench_e2e"


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit(f"bench_e2e: no library sources under {ROOT / 'src'}; "
                 "run from a full checkout")
    if not (BUILD / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(BUILD), "-j",
                    str(os.cpu_count() or 1)],
                   stdout=sys.stderr, check=True)


def main():
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as error:
        sys.exit(f"bench_e2e: build failed: {error}")
    bench = subprocess.Popen([str(BUILD / "bench_e2e")] + sys.argv[1:])
    signal.signal(signal.SIGTERM, lambda *_: bench.terminate())
    signal.signal(signal.SIGINT, lambda *_: bench.terminate())
    sys.exit(bench.wait())


if __name__ == "__main__":
    main()
