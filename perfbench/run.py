#!/usr/bin/env python3
"""Repository benchmark entry point.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the benchmark binary (perfbench.cmake) together with the
repository libraries into .bench_build/ on first use, runs one workload
and forwards the binary's output: the last line of standard output is the
result JSON. Build logs and diagnostics go to standard error. The exit
code is the binary's (0 only when every job was bit-exact).

Extra flags after the four above are passed through to the binary
(--smoke, --corrupt-expectation; see selftest.py).
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = ".bench_build"
BINARY = os.path.join(BUILD_DIR, "perfbench", "perfbench")


def build():
    """Configures (once) and builds the binary; returns its path."""
    if not os.path.isfile("CMakeLists.txt") or not os.path.isdir("src"):
        raise RuntimeError(
            "run from the root of a repository checkout (no CMakeLists.txt/src here)")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", ".", "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release",
             "-DCMAKE_PROJECT_INCLUDE=" + os.path.join(HERE, "hook.cmake")],
            stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j", jobs],
                   stdout=sys.stderr, check=True)
    return BINARY


def main(argv):
    args = list(argv)
    try:
        binary = build()
    except (RuntimeError, OSError, subprocess.CalledProcessError) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 2
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument("--workload", default="trace")
    parser.add_argument("--trace")
    known, _ = parser.parse_known_args(args)
    if known.trace == "1" and "--trace-out" not in args:
        trace_dir = os.path.join(BUILD_DIR, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        args += ["--trace-out", os.path.join(trace_dir, known.workload + ".json")]
    return subprocess.run([binary] + args).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
