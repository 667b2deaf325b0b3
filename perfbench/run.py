#!/usr/bin/env python3
"""Repository benchmark for the LISA mapper stack and the lisa-serve daemon.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see perfbench/README.md for why each exists):

    map-fig9a    fixed-II SA and ILP* jobs on the 12 PolyBench kernels
    serve-hit    closed-loop cache hits against an in-process daemon
    serve-mixed  the same daemon with fresh-kernel misses and persistence

The first run builds perfbench/ (the lisa library from ../src plus the
lisa_perfbench binary) with CMake into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that variable is unset; later runs rebuild
incrementally. The run's full detail (per-job rows, notes, failures) is
written to <build root>/perfbench-results/. The last line of stdout is the
result:

    {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}

With --trace 0 the metrics are the end_to_end metrics of BENCHMARK.json;
with --trace 1 the per_layer ones. A per-layer metric of a layer the
workload does not exercise (say, the SA counters on serve-hit) reads 0.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("map-fig9a", "serve-hit", "serve-mixed")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_root():
    return os.environ.get("CARGO_TARGET_DIR") or ".bench_build"


def build():
    """Configure (once) and build the binary; return its path."""
    out = os.path.join(build_root(), "perfbench")
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + generator)
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", out, "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                # A failed configure must not leave a cache that skips
                # the configure step next time.
                if cmd[1] == "-S":
                    shutil.rmtree(out, ignore_errors=True)
                fail("build failed: " + " ".join(cmd))
    return os.path.join(out, "lisa_perfbench")


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def run_binary(binary, workload, seed, seconds, trace):
    """Run one workload; return the binary's detail object."""
    workdir = os.path.join(build_root(), "perfbench-run")
    os.makedirs(workdir, exist_ok=True)
    # No LISA_* knob of the caller's environment may change the program.
    env = {k: v for k, v in os.environ.items() if not k.startswith("LISA_")}
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--workdir", os.path.relpath(workdir)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{workload} exited with code {proc.returncode}")
    try:
        return json.loads(lines[-1])
    except ValueError:
        fail(f"{workload} printed no result line")


def result_line(spec, detail, trace):
    attempted = int(detail["attempted"])
    failed = int(detail["failed"])
    measured = dict(detail["metrics"])
    measured["failed_share"] = {
        "value": failed / attempted if attempted else 0.0, "unit": "ratio"}
    metrics = {}
    for m in spec["per_layer" if trace else "end_to_end"]:
        name, unit = m["name"], m["unit"]
        got = measured.get(name)
        if got is None:
            if not trace:
                fail(f"end-to-end metric {name} was not measured")
            got = {"value": 0.0, "unit": unit}
        if got["unit"] != unit:
            fail(f"metric {name}: unit {got['unit']} != {unit}")
        metrics[name] = {"value": got["value"], "unit": unit}
    return {"correct": bool(detail["correct"]) and failed == 0,
            "attempted": attempted, "failed": failed, "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    os.chdir(ROOT)
    spec = load_spec()
    binary = build()
    detail = run_binary(binary, args.workload, args.seed, args.seconds,
                        args.trace)
    results = os.path.join(build_root(), "perfbench-results")
    os.makedirs(results, exist_ok=True)
    name = f"{args.workload}.seed{args.seed}.trace{args.trace}.json"
    with open(os.path.join(results, name), "w") as f:
        json.dump(detail, f, indent=1)
    for why in detail.get("failures", []):
        print(f"perfbench: check failed: {why}", file=sys.stderr)
    print(json.dumps(result_line(spec, detail, args.trace)))


if __name__ == "__main__":
    main()
