#!/usr/bin/env python3
"""Builds the repository benchmark from source and runs one workload.

    python3 perfbench/run.py [--workload fig7_suite|gen_20k|serve_mixed|all]
                             [--seed N] [--seconds S] [--trace 0|1]

Run it from the root of a checkout. It configures and builds perfbench/
(a CMake package that compiles ../src) in Release mode under
$CARGO_TARGET_DIR (default .bench_build), runs the perfbench binary, checks
its record against BENCHMARK.json and prints, as the last line of standard
output, one JSON object with the keys correct, attempted, failed and
metrics. --trace 0 reports the end-to-end metrics, --trace 1 the per-layer
ones and writes a Chrome trace under the build directory.

--workload all (the default) runs every workload in turn; its last line
holds every workload's metrics as "<workload>.<metric>".

Exit codes: 0 when every check passed, 1 when a correctness check failed
or the record is incomplete, 2 when the benchmark could not be built or
run. --tiny and --corrupt-fingerprint are passed through for the
self-test (perfbench/selftest.py).
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def load_spec():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def build_dir():
    return os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                        "perfbench")


def build():
    """Configures and builds the benchmark; returns the binary's path."""
    bdir = build_dir()
    jobs = str(os.cpu_count() or 1)
    for cmd in (["cmake", "-S", HERE, "-B", bdir,
                 "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", bdir, "--target", "perfbench",
                 "-j", jobs]):
        p = subprocess.run(cmd, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True)
        if p.returncode != 0:
            sys.stderr.write(p.stdout[-4000:])
            sys.stderr.write("perfbench: build step failed: %s\n"
                             % " ".join(cmd))
            sys.exit(2)
    return os.path.join(bdir, "perfbench")


def git_commit():
    try:
        p = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                           text=True, timeout=10)
        if p.returncode == 0:
            return p.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return "unknown (not a git checkout)"


def run_workload(binary, spec, args, workload):
    """Runs one workload; returns (record, problems)."""
    out_dir = os.path.dirname(binary)
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           # Relative: a unix socket path may hold at most 107 bytes.
           "--sock-dir", os.path.relpath(os.path.join(out_dir, "sock"))]
    if args.trace:
        trace_path = os.path.join(out_dir, "traces",
                                  "%s-seed%d.json" % (workload, args.seed))
        os.makedirs(os.path.dirname(trace_path), exist_ok=True)
        cmd += ["--trace-out", trace_path]
    if args.tiny:
        cmd.append("--tiny")
    if args.corrupt_fingerprint:
        cmd.append("--corrupt-fingerprint")
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: %s did not finish in %d s\n"
                         % (workload, RUN_TIMEOUT_S))
        sys.exit(2)
    lines = p.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stdout.write(p.stdout)
        sys.stderr.write("perfbench: %s printed no record (exit %d)\n"
                         % (workload, p.returncode))
        sys.exit(2)
    for line in lines[:-1]:
        print(line)
    record["meta"]["commit"] = git_commit()
    print("record:", json.dumps(record, sort_keys=True))

    problems = []
    if p.returncode != 0 and record.get("correct"):
        problems.append("perfbench exited %d" % p.returncode)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    got = record.get("metrics", {})
    for m in wanted:
        v = got.get(m["name"])
        if v is None:
            problems.append("metric %s missing" % m["name"])
        elif v["unit"] != m["unit"]:
            problems.append("metric %s has unit %s, expected %s"
                            % (m["name"], v["unit"], m["unit"]))
        elif not math.isfinite(v["value"]) or (
                not args.trace and v["value"] <= 0):
            problems.append("metric %s reads %r" % (m["name"], v["value"]))
    known = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name in got:
        if name not in known:
            problems.append("metric %s is not in BENCHMARK.json" % name)
    record["metrics"] = {m["name"]: got[m["name"]] for m in wanted
                         if m["name"] in got}
    print("%s (%s, seed %d, %s s, trace %d):" % (
        workload, "optimized" if record["meta"]["optimized"]
        else "NOT OPTIMIZED", args.seed, args.seconds, args.trace))
    for m in wanted:
        if m["name"] in got:
            print("  %-42s %14.6g %s" % (m["name"], got[m["name"]]["value"],
                                         m["unit"]))
    print("  %-42s %14.6g %s" % (
        "error_rate", record["failed"] / max(1, record["attempted"]),
        "failed/attempted"))
    for msg in problems:
        print("BENCHMARK RECORD INVALID: " + msg)
    return record, problems


def main():
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=names + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    ap.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--corrupt-fingerprint", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args()

    binary = build()
    workloads = names if args.workload == "all" else [args.workload]
    correct, attempted, failed, metrics = True, 0, 0, {}
    for w in workloads:
        record, problems = run_workload(binary, spec, args, w)
        correct = correct and record["correct"] and not problems
        attempted += record["attempted"]
        failed += record["failed"]
        for name, v in record["metrics"].items():
            key = name if len(workloads) == 1 else "%s.%s" % (w, name)
            metrics[key] = {"value": v["value"], "unit": v["unit"]}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
