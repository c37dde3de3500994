#!/usr/bin/env python3
"""Build the simulator benchmark from source and run one workload.

Usage, from the repository root:

    python3 simbench/run.py --workload serve1024 --seed 42 --seconds 30 --trace 0

The first call configures and compiles the simulator library and the
benchmark (Release) into .bench_build/simbench; later calls only rebuild what
changed. Build output goes to stderr, so the last line of stdout is the
benchmark's JSON result. The exit status is the benchmark's (0 ok, 1 an output
check failed, 2 usage error), or 1 when the build fails.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "simbench")


def build():
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    step = ["cmake", "--build", BUILD, "--target", "simbench", "-j", jobs]
    return subprocess.run(step, stdout=sys.stderr).returncode == 0


def main():
    if not build():
        print("simbench: build failed", file=sys.stderr)
        return 1
    # The simulator reads these to pick engine shards, the event queue and
    # tick elision; the benchmark measures the defaults.
    env = {k: v for k, v in os.environ.items() if not k.startswith("SCHEDBATTLE_")}
    cmd = [os.path.join(BUILD, "simbench"), "--digests", os.path.join(HERE, "digests.txt")]
    result = subprocess.run(cmd + sys.argv[1:], env=env)
    return result.returncode if result.returncode >= 0 else 1


if __name__ == "__main__":
    sys.exit(main())
