#!/usr/bin/env python3
"""Self-test of the served-query benchmark (tiny data, short runs).

    python3 servebench/selftest.py

Run from the repository root; builds like run.py. Checks, for every
workload in BENCHMARK.json and for read_write_wal:
  * an untraced run prints every end-to-end metric by name and unit, puts
    each in its JSON result and answers everything correctly;
  * a traced run prints every per-layer metric by name and unit;
  * arming the `server.reply` failpoint makes failed_frac > 0 and the exit
    code non-zero;
  * a deliberately wrong expected digest is reported as a failure;
and, on read_write_wal, that arming `server.epoch_publish` (every publish
skips) makes stale_read_frac > 0. Exits non-zero on the first failed check.
"""

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402  (run.py sits beside this file)

SECONDS = "3"


def drive(binary, out_dir, workload, *extra, trace="0"):
    cmd = [binary, "--out-dir", out_dir, "--workload", workload, "--seed", "7",
           "--seconds", SECONDS, "--trace", trace, "--tiny", *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    printed = {}
    for line in lines:
        m = re.match(r"^(?:metric|info)\s+(\S+) = (\S+) (\S+)", line)
        if m:
            printed[m.group(1)] = (m.group(2), m.group(3))
    return proc.returncode, result, printed, proc.stdout + proc.stderr


def check(ok, what, output=""):
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        print(output)
        sys.exit(1)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    binary = run.build(build_dir)
    out_dir = os.path.join(build_dir, "selftest")

    names = [w["name"] for w in spec["workloads"]]
    if "read_write_wal" not in names:
        names.append("read_write_wal")
    for name in names:
        code, result, printed, out = drive(binary, out_dir, name)
        check(code == 0 and result["correct"] and result["failed"] == 0,
              f"{name}: untraced run correct", out)
        for m in spec["end_to_end"]:
            check(printed.get(m["name"], (None, None))[1] == m["unit"],
                  f"{name}: prints {m['name']} in {m['unit']}", out)
            check(result["metrics"].get(m["name"], {}).get("unit") == m["unit"],
                  f"{name}: JSON has {m['name']}", out)

        code, result, printed, out = drive(binary, out_dir, name, trace="1")
        check(code == 0 and result["correct"], f"{name}: traced run correct", out)
        for m in spec["per_layer"]:
            check(printed.get(m["name"], (None, None))[1] == m["unit"]
                  and m["name"] in result["metrics"],
                  f"{name}: traced run prints {m['name']} in {m['unit']}", out)

        code, result, printed, out = drive(binary, out_dir, name,
                                           "--failpoint", "server.reply")
        check(code != 0 and not result["correct"]
              and float(printed["failed_frac"][0]) > 0,
              f"{name}: server.reply failpoint gives failed_frac > 0", out)

        code, result, printed, out = drive(binary, out_dir, name, "--corrupt-digest")
        check(code != 0 and result["failed"] > 0,
              f"{name}: wrong expected digest is a failure", out)

    code, result, printed, out = drive(binary, out_dir, "read_write_wal",
                                       "--failpoint", "server.epoch_publish")
    check(code == 0 and float(printed["stale_read_frac"][0]) > 0,
          "read_write_wal: server.epoch_publish failpoint gives stale_read_frac > 0",
          out)
    print("selftest: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
