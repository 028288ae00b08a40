#!/usr/bin/env python3
"""Repository benchmark: one workload, one run.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Builds perfbench/ (the limbo-perf
program plus the library sources under src/) into .bench_build/, sets the
workload up several times from --seed (reporting the median set-up time),
then measures it in child processes and prints, as the last line of
stdout, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json,
measured with the obs layer off; with --trace 1 they are the per-layer
ones, from a traced run. Workload parameters live in perfbench/spec.json.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
# A run must end within 180 s of its build.
RUN_BUDGET_S = 170.0
BUILD_BUDGET_S = 850.0


def log(message):
    print("run.py: " + message, file=sys.stderr, flush=True)


def fail(message, code=1):
    log(message)
    sys.exit(code)


def run_child(argv, deadline):
    """Runs argv to completion (killing it at `deadline`); returns
    (exit status, stdout text)."""
    try:
        proc = subprocess.run(argv, stdout=subprocess.PIPE, cwd=ROOT,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail("timed out: " + " ".join(argv))
    return proc.returncode, proc.stdout.decode()


def run_jobs(argv, what, seconds, minimum, deadline):
    """Runs argv in a fresh process each time, at least `minimum` times and
    until `seconds` have passed. Returns one result: the summed attempted
    and failed counts and, per metric, the median over the runs."""
    start = time.monotonic()
    results = []
    while len(results) < minimum or time.monotonic() - start < seconds:
        code, out = run_child(argv, deadline)
        if code != 0:
            fail(what + " failed")
        results.append(last_json(out, what))
    return {"attempted": sum(int(r["attempted"]) for r in results),
            "failed": sum(int(r["failed"]) for r in results),
            "metrics": {name: statistics.median(r["metrics"][name]
                                                for r in results)
                        for name in results[0]["metrics"]}}


def last_json(text, what):
    lines = [l for l in text.splitlines() if l.strip()]
    if not lines:
        fail(what + " printed nothing")
    try:
        return json.loads(lines[-1])
    except ValueError:
        fail(what + " printed no JSON result: " + lines[-1][:200])


def build():
    build_dir = os.path.join(ROOT, ".bench_build", "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    deadline = time.monotonic() + BUILD_BUDGET_S
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr, cwd=ROOT,
                          timeout=deadline - time.monotonic()).returncode:
            fail("configure failed")
    if subprocess.run(["cmake", "--build", build_dir, "--target",
                       "limbo-perf", "-j", jobs], stdout=sys.stderr,
                      cwd=ROOT, timeout=deadline - time.monotonic()
                      ).returncode:
        fail("build failed")
    return os.path.join(build_dir, "limbo-perf")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no library sources at src/: run from a full source checkout", 2)
    with open(os.path.join(BENCH_DIR, "spec.json")) as f:
        spec = json.load(f)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)
    if args.workload not in spec["workloads"]:
        fail("unknown workload " + args.workload, 2)
    if args.seed < 0:
        fail("--seed must be >= 0", 2)

    binary = build()
    deadline = time.monotonic() + RUN_BUDGET_S
    work_dir = os.path.join(ROOT, ".bench_work", args.workload)
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    flags = ["--workload=" + args.workload, "--dir=" + work_dir,
             "--seed=%d" % args.seed]
    flags += ["--%s=%s" % kv for kv in
              sorted(spec["workloads"][args.workload]["args"].items())]

    # Set-up several times (each rewrites the same inputs from the seed);
    # the median is the set-up time.
    setup_s = []
    for _ in range(spec["workloads"][args.workload]["setup_repeats"]):
        code, out = run_child([binary, "setup"] + flags, deadline)
        if code != 0:
            fail("set-up failed")
        setup_s.append(float(last_json(out, "set-up")["setup_s"]))

    workload = spec["workloads"][args.workload]
    measure = [binary, "measure", "--seconds=%g" % args.seconds,
               "--trace=%d" % args.trace] + flags
    if args.trace or "jobs" not in workload:
        result = run_jobs(measure, "measure", 0, 1, deadline)
    else:
        # Users wait on each fit or mining job in a fresh process (which
        # also grows its heap), so each timed job gets one.
        result = run_jobs(measure, "measure", args.seconds, workload["jobs"],
                          deadline)
    measured = result["metrics"]
    measured["setup_s"] = statistics.median(setup_s)

    known = {m["name"] for m in declared["end_to_end"] + declared["per_layer"]}
    unknown = sorted(set(measured) - known)
    if unknown:
        fail("metrics missing from BENCHMARK.json: " + ", ".join(unknown))
    kind = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    for m in declared[kind]:
        if m["name"] in measured:
            value = measured[m["name"]]
        elif kind == "per_layer":
            value = 0.0  # a layer this workload does not exercise
        else:
            fail("missing end-to-end metric " + m["name"])
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    attempted = int(result["attempted"])
    failed = int(result["failed"])
    if failed:
        log("%d of %d checked operations failed" % (failed, attempted))
    print(json.dumps({"correct": failed == 0 and attempted > 0,
                      "attempted": max(1, attempted), "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
