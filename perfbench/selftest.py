#!/usr/bin/env python3
"""Self-test of the benchmark, on every workload at test scale.

    python3 perfbench/selftest.py

Checks that
  * untraced and traced runs are correct and fail no operation;
  * every exact count (instructions, trace events, same-line events, hit and
    miss counts, pass and analysis counts, timeline events, refined tasks,
    verify checks) repeats bit for bit across processes, and the untraced
    run's counts equal the traced run's;
  * the metric sets and units match BENCHMARK.json;
  * layer self-times plus harness.other_s add up to the traced total;
  * a wrong pinned output digest makes the run incorrect and fails
    operations.
Exits 1 on the first failed check.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

# Layers whose self-times partition the traced total.
TOTAL_LAYERS = (
    "dae.generate_s", "dae.refine_s", "harness.cold_profile_s",
    "harness.other_s", "runtime.price_s", "runtime.replay_s",
    "runtime.timeline_s", "sim.functional_s", "verify.audit_s",
    "verify.check_s", "workloads.init_s")


def check(ok, what):
    if not ok:
        print(f"FAIL: {what}")
        sys.exit(1)
    print(f"ok: {what}")


def sound(result, what):
    check(result["correct"] and result["failed"] == 0
          and result["attempted"] > 0, f"{what} is correct")


def main():
    spec = run.benchmark_spec()
    run.build()
    for w in (x["name"] for x in spec["workloads"]):
        # A short budget gives one repetition per flavour.
        untraced = run.run_workload(w, 1, 0.01, 0, "test")
        traced = run.run_workload(w, 1, 0.01, 1, "test")
        again = run.run_workload(w, 1, 0.01, 1, "test")
        for r, what in ((untraced, "untraced"), (traced, "traced"),
                        (again, "repeated traced")):
            sound(r, f"{w}: {what} run")
        run.result_line(spec, untraced, 0)
        run.result_line(spec, traced, 1)
        check(traced["exact"] == again["exact"],
              f"{w}: exact counts repeat across processes")
        shared = {k: traced["exact"].get(k) for k in untraced["exact"]}
        check(shared == untraced["exact"],
              f"{w}: untraced counts equal the traced run's")
        m = traced["metrics"]
        parts = sum(m[k]["value"] for k in TOTAL_LAYERS)
        total = m["harness.traced_total_s"]["value"]
        check(abs(parts - total) <= 1e-6 * max(1.0, total),
              f"{w}: layer self-times add up to the traced total")

    # Mutation: one altered digest must be caught.
    bad = os.path.join(run.BUILD_DIR, "selftest_expected.txt")
    with open(run.EXPECTED) as src, open(bad, "w") as dst:
        for line in src:
            fields = line.split()
            if fields[:3] == ["test", "fig3-dense", "LU"]:
                line = line.replace(fields[3], "0" * 16)
            dst.write(line)
    r = run.run_workload("fig3-dense", 1, 0.01, 0, "test", expected=bad)
    check(not r["correct"] and r["failed"] == 3,
          "a wrong pinned digest fails the app's three scheme runs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
