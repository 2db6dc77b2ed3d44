#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload zipf12-cot --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --unit-tests

The benchmark program (perfbench/cot_perf.cc) is compiled in Release from the
repository's own src/ into the build directory: $CARGO_TARGET_DIR when it is
set, else .bench_build. The build type is attested twice: here from the
CMake cache, and by the program, which refuses any other build. Build output
goes to stderr, so the last line of stdout is the program's JSON result.
"""

import json
import os
import subprocess
import sys

ROOT = os.getcwd()
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no library sources at ./src; run from the repository root")
    out = build_dir()
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = [
        ["cmake", "-S", BENCH_DIR, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", out, "--target", target, "-j", jobs],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    with open(os.path.join(out, "CMakeCache.txt")) as cache:
        if "CMAKE_BUILD_TYPE:STRING=Release\n" not in cache.read():
            fail("build directory is not configured for Release")
    return os.path.join(out, target)


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace == "1" else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def main(argv):
    if argv == ["--unit-tests"]:
        return subprocess.run([build("harness_test")]).returncode
    trace = argv[argv.index("--trace") + 1] if "--trace" in argv else None
    if trace not in ("0", "1"):
        fail("usage: run.py --workload <name> --seed <n> --seconds <s> "
             "--trace <0|1>")
    want = expected_metrics(trace)
    program = build("cot_perf")
    proc = subprocess.run([program] + argv, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode not in (0, 1):
        sys.stdout.write(proc.stdout)
        return proc.returncode
    result = json.loads(lines[-1])
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail(f"cot_perf metrics {sorted(got.items())} do not match "
             f"BENCHMARK.json {sorted(want.items())}")
    sys.stdout.write(proc.stdout)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
