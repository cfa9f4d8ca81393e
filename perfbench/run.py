#!/usr/bin/env python3
"""Build the benchmark from source, then run it.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload exec-suite --seed 1 --seconds 30 --trace 0

The OCaml benchmark is built with dune into `.bench_build` (the dune
cache is disabled, so the build reads and writes only inside the
checkout) and then run with the given arguments; its standard output,
whose last line is the JSON result, is passed through unchanged.  If
the build fails, the script exits non-zero without printing a result.
"""

import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = ".bench_build"
TARGET = "perfbench/bench.exe"


def main() -> int:
    dune = shutil.which("dune")
    if dune is None:
        print("run.py: dune not found on PATH", file=sys.stderr)
        return 2
    build = subprocess.run(
        [dune, "build", "--root", ".", "--build-dir", BUILD_DIR,
         "--cache=disabled", "--display=quiet", TARGET],
        cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return 2
    exe = os.path.join(ROOT, BUILD_DIR, "default", TARGET)
    sys.stdout.flush()
    return subprocess.run([exe] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
