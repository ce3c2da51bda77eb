#!/usr/bin/env python3
"""Runs one daecc benchmark workload and prints its result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--record FILE]

Run from the root of a checkout. The first call builds the benchmark (the
repository's libraries from src/ plus perfbench/driver) into
.bench_build/perfbench; later calls rebuild only what changed.

The workload runs in one fresh process (perfbench/driver/main.cpp). With
--trace 0 the result carries every end-to-end metric of BENCHMARK.json,
with --trace 1 every per-layer metric, and the traced run's spans are
written to .bench_build/perfbench/traces/ as Chrome trace-event JSON. The
last line of stdout is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--record appends the full record (run context, exact counts, guards and
digests included) to FILE as one JSON line; perfbench/trajectory.py
summarizes and compares such records.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
EXPECTED = os.path.join(HERE, "expected_outputs.txt")
# A run must end within 180 seconds, the first one (which builds) within 900.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 700


def log(msg):
    print(f"[run.py] {msg}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark; raises on failure."""
    started = time.monotonic()
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr,
                       timeout=BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs], check=True,
                   stdout=sys.stderr,
                   timeout=BUILD_TIMEOUT_S - (time.monotonic() - started))


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_workload(workload, seed, seconds, trace, scale="full",
                 expected=EXPECTED):
    """Runs the benchmark process; returns its result object."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--scale", scale, "--expected", expected]
    if trace:
        traces = os.path.join(BUILD_DIR, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, f"{workload}-seed{seed}.json")]
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"benchmark process exited with {proc.returncode}")
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def result_line(spec, result, trace):
    """The contract's result object: exactly the declared metrics."""
    declared = spec["per_layer" if trace else "end_to_end"]
    got = result["metrics"]
    names = {m["name"] for m in declared}
    if names != set(got):
        raise RuntimeError("metric set differs from BENCHMARK.json: missing "
                           f"{sorted(names - set(got))}, undeclared "
                           f"{sorted(set(got) - names)}")
    metrics = {}
    for m in declared:
        value = got[m["name"]]
        if value["unit"] != m["unit"]:
            raise RuntimeError(f"{m['name']}: unit {value['unit']} but "
                               f"BENCHMARK.json says {m['unit']}")
        metrics[m["name"]] = {"value": value["value"], "unit": m["unit"]}
    return {"correct": bool(result["correct"]),
            "attempted": int(result["attempted"]),
            "failed": int(result["failed"]),
            "metrics": metrics}


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--record", help="append the full record to this file")
    args = p.parse_args()

    try:
        spec = benchmark_spec()
        build()
        result = run_workload(args.workload, args.seed, args.seconds,
                              args.trace)
        line = result_line(spec, result, args.trace)
    except (OSError, RuntimeError, ValueError, KeyError,
            subprocess.SubprocessError) as e:
        log(f"error: {e}")
        return 1

    ctx = result["context"]
    ctx["commit"] = commit()
    ctx["flagged"] = ctx["build_type"] == "Debug" or ctx["sanitizer"]
    if ctx["flagged"]:
        log("warning: Debug or sanitizer build; its timings are not "
            "comparable to an optimized build")
    for problem in result["problems"]:
        log(f"problem: {problem}")
    if args.record:
        with open(args.record, "a") as f:
            f.write(json.dumps(result, sort_keys=True) + "\n")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
