#!/usr/bin/env python3
"""Summarizes benchmark records into a result set and compares two sets.

    python3 perfbench/trajectory.py summarize RECORDS.jsonl [-o SET.json]
    python3 perfbench/trajectory.py compare BASE.json NEW.json

RECORDS.jsonl holds the lines `perfbench/run.py --record` appends. A set
keeps, per workload and metric, the median and quartiles of every run
(Python's statistics.quantiles with n=4) and the run context: host cores,
compiler, build type, sanitizer, each workload's backend, and the commit.

`compare` refuses (exit 2) to compare sets whose contexts differ in anything
but the commit, or that come from a Debug or sanitizer build. Otherwise it
prints every end-to-end metric with its change against the bound in
BENCHMARK.json and exits 1 when one got worse by more than its bound. Per-
layer metrics are listed as new/base ratios; they carry no bound.
"""

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
CONTEXT_KEYS = ("nproc", "compiler", "build_type", "sanitizer")


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def summarize(path):
    records = [json.loads(line) for line in open(path) if line.strip()]
    if not records:
        sys.exit(f"{path}: no records")
    ctx = {k: records[0]["context"][k] for k in CONTEXT_KEYS}
    commits = sorted({r["context"].get("commit", "unknown") for r in records})
    for r in records:
        other = {k: r["context"][k] for k in CONTEXT_KEYS}
        if other != ctx:
            sys.exit(f"{path}: records from different contexts: {ctx} vs "
                     f"{other}")
    if len(commits) != 1:
        sys.exit(f"{path}: records from several commits: {commits}")

    workloads = {}
    for r in records:
        w = workloads.setdefault(r["workload"], {
            "backend": r["context"]["backend"], "seeds": [], "failed": 0,
            "correct": True, "values": {}, "units": {}})
        if w["backend"] != r["context"]["backend"]:
            sys.exit(f"{path}: {r['workload']} ran on several backends")
        w["seeds"].append(r["seed"])
        w["failed"] += r["failed"]
        w["correct"] = w["correct"] and r["correct"]
        for name, m in r["metrics"].items():
            w["values"].setdefault(name, []).append(m["value"])
            w["units"][name] = m["unit"]

    out = {"context": dict(ctx, commit=commits[0]), "workloads": {}}
    for name, w in sorted(workloads.items()):
        metrics = {}
        for metric, values in sorted(w["values"].items()):
            q1, med, q3 = quartiles(values)
            metrics[metric] = {
                "unit": w["units"][metric], "n": len(values), "median": med,
                "q1": q1, "q3": q3,
                "spread": (q3 - q1) / abs(med) if med else 0.0}
        out["workloads"][name] = {
            "backend": w["backend"], "seeds": sorted(set(w["seeds"])),
            "failed": w["failed"], "correct": w["correct"],
            "metrics": metrics}
    return out


def flagged(ctx):
    return ctx["build_type"] == "Debug" or ctx["sanitizer"]


def compare(base, new):
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    diffs = [k for k in CONTEXT_KEYS if base["context"][k] != new["context"][k]]
    for w in sorted(set(base["workloads"]) & set(new["workloads"])):
        if base["workloads"][w]["backend"] != new["workloads"][w]["backend"]:
            diffs.append(f"{w} backend")
    if diffs:
        print(f"refusing to compare: contexts differ in {', '.join(diffs)}")
        return 2
    if flagged(base["context"]) or flagged(new["context"]):
        print("refusing to compare: a Debug or sanitizer build")
        return 2

    print(f"base {base['context']['commit']}  new {new['context']['commit']}")
    worse = 0
    for w in sorted(set(base["workloads"]) & set(new["workloads"])):
        b, n = base["workloads"][w]["metrics"], new["workloads"][w]["metrics"]
        print(f"\n{w}")
        for m in spec["end_to_end"]:
            name = m["name"]
            if name not in b or name not in n:
                continue
            bm, nm = b[name]["median"], n[name]["median"]
            sign = 1.0 if m["better"] == "lower" else -1.0
            change = sign * (nm - bm) / abs(bm) if bm else 0.0
            verdict = "WORSE" if change > m["bound"] else "ok"
            worse += verdict == "WORSE"
            print(f"  {name:<16} {bm:>14.6g} -> {nm:<14.6g} {m['unit']:<6} "
                  f"worse by {change:+.2%} (bound {m['bound']:.0%}, base "
                  f"spread {b[name]['spread']:.2%}) {verdict}")
        for m in spec["per_layer"]:
            name = m["name"]
            if name in b and name in n and b[name]["median"]:
                bm, nm = b[name]["median"], n[name]["median"]
                print(f"  {name:<30} x{nm / bm:.3f}  ({bm:.6g} -> {nm:.6g} "
                      f"{m['unit']})")
    return 1 if worse else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="cmd", required=True)
    s = sub.add_parser("summarize")
    s.add_argument("records")
    s.add_argument("-o", "--output")
    c = sub.add_parser("compare")
    c.add_argument("base")
    c.add_argument("new")
    args = p.parse_args()

    if args.cmd == "summarize":
        text = json.dumps(summarize(args.records), indent=1, sort_keys=True)
        if args.output:
            with open(args.output, "w") as f:
                f.write(text + "\n")
        else:
            print(text)
        return 0
    with open(args.base) as f:
        base = json.load(f)
    with open(args.new) as f:
        new = json.load(f)
    return compare(base, new)


if __name__ == "__main__":
    sys.exit(main())
