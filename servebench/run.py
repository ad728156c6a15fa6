#!/usr/bin/env python3
"""Builds the served-query benchmark from source and runs one workload.

    python3 servebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The build tree is $CARGO_TARGET_DIR when set,
else .bench_build; the first run configures and compiles it (Release), later
runs only check it is up to date. All build output goes to stderr, so the
last line of standard output is the benchmark's JSON result. Any extra
arguments (--tiny, --failpoint, --corrupt-digest) pass through to the
driver binary.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "Makefile")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", build_dir, "-j", "4", "--target", "servebench"],
        stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "servebench")


def main():
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    try:
        binary = build(build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"servebench: build failed: {e}", file=sys.stderr)
        return 1
    cmd = [binary, "--out-dir", os.path.join(build_dir, "run")] + sys.argv[1:]
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("servebench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
