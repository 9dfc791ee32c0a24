#!/usr/bin/env python3
"""Build the benchmark from source, then run one workload.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout. Nothing is written outside it: the
build goes to the checkout's _build directory with dune's shared cache
off, and TMPDIR points at perfbench/tmp for the compiler and the C
toolchain the benchmark drives. Build output goes to stderr, so the last
line of stdout is the benchmark's JSON result. Without the repository's
sources the build fails and this script exits non-zero without a result.
"""

import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "main.exe")


def main():
    tmp = os.path.abspath(os.path.join("perfbench", "tmp"))
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled", TMPDIR=tmp)
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet", "./perfbench/main.exe"],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0 or not os.path.exists(EXE):
        sys.stderr.write("perfbench: build failed\n")
        return build.returncode or 1
    return subprocess.run([EXE] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
