#!/usr/bin/env python3
"""Build and run the simulator benchmark.

    python3 simbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 simbench/run.py --self-test

Run from the root of a checkout. The first call configures and builds
simbench/ (which compiles ../src) into the directory named by
CARGO_TARGET_DIR, or .bench_build; later calls rebuild incrementally.
Build output goes to stderr, so the last stdout line is the result
JSON the benchmark binary prints. The result's metric names and units
are checked against BENCHMARK.json before it is passed on.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "simbench")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
RUN_TIMEOUT_S = 170


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build():
    """Configure once, then build incrementally. Returns the binary path."""
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("simbench: build failed: " + " ".join(step))
    return os.path.join(out, "simbench")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def check_result(line, trace):
    """Return the problems with one result line (empty when it is valid)."""
    try:
        result = json.loads(line)
    except ValueError:
        return ["last line is not JSON: " + line[:200]]
    if set(result) != RESULT_KEYS:
        return ["result keys are %s" % sorted(result)]
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    want = expected_metrics(trace)
    problems = []
    for name, unit in want.items():
        if name not in got:
            problems.append("metric %s missing" % name)
        elif got[name] != unit:
            problems.append("metric %s has unit %s, BENCHMARK.json says %s"
                            % (name, got[name], unit))
    problems += ["metric %s not in BENCHMARK.json" % n for n in got if n not in want]
    return problems


def run(binary, args):
    """Run the binary; return (exit code, stdout lines)."""
    proc = subprocess.Popen([binary] + args, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        sys.exit("simbench: run exceeded %d s" % RUN_TIMEOUT_S)
    return proc.returncode, stdout.splitlines()


def self_test(binary):
    code, lines = run(binary, ["--self-test"])
    print("\n".join(lines))
    failures = 0 if code == 0 else 1
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]
    for name in workloads:
        for trace in (0, 1):
            code, lines = run(binary, ["--workload", name, "--seed", "3",
                                       "--seconds", "0.1", "--trace", str(trace),
                                       "--scale", "0.02"])
            problems = [] if code == 0 and lines else ["exit code %d" % code]
            if lines:
                problems += check_result(lines[-1], trace)
            what = "%s --trace %d prints every BENCHMARK.json metric" % (name, trace)
            print(("ok   " if not problems else "FAIL ") + what)
            for p in problems:
                print("       " + p)
            failures += bool(problems)
    print("all self-tests passed" if failures == 0 else "self-tests FAILED")
    return 0 if failures == 0 else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        parser.error("--workload is required")

    binary = build()
    if args.self_test:
        return self_test(binary)

    code, lines = run(binary, ["--workload", args.workload,
                               "--seed", str(args.seed),
                               "--seconds", str(args.seconds),
                               "--trace", str(args.trace)])
    if code != 0 or not lines:
        print("\n".join(lines))
        return code or 1
    problems = check_result(lines[-1], args.trace)
    if problems:
        print("\n".join(lines[:-1]))
        sys.stderr.write("simbench: " + "; ".join(problems) + "\n")
        return 1
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
