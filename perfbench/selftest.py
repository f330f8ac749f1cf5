#!/usr/bin/env python3
"""Self-test of the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/selftest.py

1. A smoke-size run (--smoke, one second) of every workload (those of
   BENCHMARK.json and the ungated `programs`), untraced and traced, must print every end-to-end (respectively per-layer) metric of
   BENCHMARK.json, with the same unit, as a finite number, and report
   every job correct.
2. The same run with one bit of the golden answer flipped
   (--corrupt-expectation) must count failed jobs, report correct=false
   and exit non-zero: the oracle catches a wrong result.

Exits 0 when every check passes.
"""
import json
import math
import os
import subprocess
import sys

sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (the benchmark entry point; builds the binary)


# Runnable by the binary for per-layer profiles, but not in BENCHMARK.json
# (see README.md, "Design notes").
UNGATED_WORKLOADS = ["programs"]


def last_json(stdout):
    lines = [l for l in stdout.splitlines() if l.strip()]
    return json.loads(lines[-1]) if lines else None


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    binary = run.build()
    failures = []

    def check(ok, what):
        print(("  [ok]   " if ok else "  [FAIL] ") + what)
        if not ok:
            failures.append(what)

    for w in [x["name"] for x in bench["workloads"]] + UNGATED_WORKLOADS:
        for trace, table in (("0", bench["end_to_end"]), ("1", bench["per_layer"])):
            p = subprocess.run(
                [binary, "--workload", w, "--seed", "1", "--seconds", "1",
                 "--trace", trace, "--smoke"],
                capture_output=True, text=True)
            r = last_json(p.stdout)
            tag = "%s --trace %s" % (w, trace)
            check(p.returncode == 0 and r is not None, tag + ": exit 0 with a result")
            if r is None:
                continue
            check(set(r) == {"correct", "attempted", "failed", "metrics"},
                  tag + ": result keys")
            check(r["correct"] is True and r["failed"] == 0 and r["attempted"] >= 1,
                  tag + ": every job correct")
            want = {m["name"]: m["unit"] for m in table}
            got = r["metrics"]
            check(set(got) == set(want), tag + ": exactly the BENCHMARK.json metrics")
            for name, unit in want.items():
                m = got.get(name)
                check(m is not None and m.get("unit") == unit
                      and isinstance(m.get("value"), (int, float))
                      and math.isfinite(m["value"]),
                      "%s: %s printed in %s" % (tag, name, unit))

        p = subprocess.run(
            [binary, "--workload", w, "--seed", "1", "--seconds", "1",
             "--trace", "0", "--smoke", "--corrupt-expectation"],
            capture_output=True, text=True)
        r = last_json(p.stdout)
        check(p.returncode != 0 and r is not None and r["correct"] is False
              and r["failed"] >= 1,
              w + ": a corrupted expectation is counted as failed")

    print("selftest %s (%d failed checks)" % ("passed" if not failures else "FAILED",
                                              len(failures)))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
