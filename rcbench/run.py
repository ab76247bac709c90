#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 rcbench/run.py --workload <sql_sweep|olxp_serve|trace_rw_mix> \
        --seed <n> --seconds <s> --trace <0|1> [--tiny] [--inject-failure]

Run from the repository root. The first run configures and builds the
simulator library and the rcbench binary (rcbench/CMakeLists.txt) in
.bench_build/; later runs only re-check the build. Build output goes
to stderr, so the last line of stdout is the binary's JSON result.

The simulator library reads RCNVM_* environment variables (threads,
seed, tuples, epoch sampling, tracing, artifact directories). They
are removed from the binary's environment so that only the arguments
define the workload; the binary itself refuses to run with any set.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "rcbench")


def build():
    """Configure (once) and build the binary; exit 2 on failure."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "rcbench",
                  "-j", "4"])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            print("run.py: build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            sys.exit(2)


def main():
    os.chdir(ROOT)
    build()
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("RCNVM_")}
    # Replace this process with the binary, so that no child is left
    # running if the benchmark is stopped.
    sys.stdout.flush()
    os.execve(BINARY, [BINARY, "--work-dir", BUILD] + sys.argv[1:], env)


if __name__ == "__main__":
    main()
