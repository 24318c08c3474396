#!/usr/bin/env python3
"""Self-test of the benchmark: python3 perfbench/selftest.py

Run from the root of a checkout. Runs every workload of BENCHMARK.json at a
tiny size through perfbench/run.py, untraced and traced, and asserts that

  * the run passes its correctness checks and exits 0;
  * the last line is the result object with exactly the keys correct,
    attempted, failed and metrics;
  * every end-to-end (untraced) or per-layer (traced) metric named in
    BENCHMARK.json is printed with its unit;
  * a corrupted fingerprint (--corrupt-fingerprint) makes the run report
    "correct": false, name the fingerprint, and exit non-zero.

Exits 0 when every assertion holds, 1 otherwise.
"""

import json
import os
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def run(workload, trace, *extra):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--tiny"] + list(extra)
    p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=600)
    lines = p.stdout.strip().splitlines()
    return p.returncode, p.stdout, json.loads(lines[-1]) if lines else None


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    failures = []

    def expect(cond, what):
        print("%s %s" % ("ok  " if cond else "FAIL", what))
        if not cond:
            failures.append(what)

    for w in (x["name"] for x in spec["workloads"]):
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            code, _, res = run(w, trace)
            tag = "%s trace=%d" % (w, trace)
            expect(code == 0, tag + ": exit 0")
            expect(res is not None and sorted(res) ==
                   ["attempted", "correct", "failed", "metrics"],
                   tag + ": result object keys")
            if not res:
                continue
            expect(res["correct"] is True and res["failed"] == 0 and
                   res["attempted"] >= 1, tag + ": correct, nothing failed")
            for m in wanted:
                got = res["metrics"].get(m["name"])
                expect(got is not None and got["unit"] == m["unit"],
                       "%s: %s printed in %s" % (tag, m["name"], m["unit"]))
        code, out, res = run(w, 0, "--corrupt-fingerprint")
        expect(code != 0 and res is not None and res["correct"] is False and
               "fingerprint" in out,
               w + ": corrupted fingerprint trips the check")

    print("selftest: %d failure(s)" % len(failures))
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
