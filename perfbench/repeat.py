#!/usr/bin/env python3
"""Repeat runner: runs each workload N times and prints every metric's median
and quartiles.

    python3 perfbench/repeat.py [--runs 10] [--workloads kws_stream,serve_fleet,model_deploy]
                                [--seconds S] [--trace 0|1] [--seed0 1]

Run i uses seed seed0 + i. For each workload it prints, per metric, the
median, the first and third quartiles (statistics.quantiles(n=4)) and the
spread (q3 - q1) / median. With --trace 0 the tables are the end-to-end
metrics under the workload's own names (hop_p50_us, serve_rps, deploy_p99_ms,
...), then the benchmark's end-to-end names with their bounds from
BENCHMARK.json: a spread above a third of the bound is flagged, setup_s
excepted. The "raw" columns give the unnormalised median and spread where a
metric is normalised. With --trace 1 the table is the per-layer metrics. Exits 1 if any
run fails.
"""
import argparse
import json
import os
import re
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RAW = re.compile(r"^raw ([-+0-9.eE]+)")


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def table(title, runs, key, bounds=None):
    names = []
    for r in runs:
        for n in r[key]:
            if n not in names:
                names.append(n)
    print(title)
    print("  %-30s %-7s %14s %14s %14s %8s %14s %8s%s" % (
        "metric", "unit", "median", "q1", "q3", "spread", "raw median", "raw spr",
        "   bound  flag" if bounds else ""))
    bad = []
    for n in names:
        vals = [r[key][n]["value"] for r in runs if n in r[key]]
        raws = [float(m.group(1)) for r in runs if n in r[key]
                for m in [RAW.match(r[key][n].get("note", ""))] if m]
        q1, med, q3 = quartiles(vals)
        spread = (q3 - q1) / abs(med) if med else 0.0
        raw = "%14s %8s" % ("-", "-")
        if len(raws) == len(vals):
            r1, rmed, r3 = quartiles(raws)
            raw = "%14.6g %8.4f" % (rmed, (r3 - r1) / rmed if rmed else 0.0)
        extra = ""
        if bounds and n in bounds:
            flag = n != "setup_s" and spread >= bounds[n] / 3
            extra = "   %5.3f  %s" % (bounds[n], "WIDE" if flag else "ok")
            if flag:
                bad.append(n)
        unit = runs[0][key].get(n, {}).get("unit", "")
        print("  %-30s %-7s %14.6g %14.6g %14.6g %8.4f %s%s" % (
            n, unit, med, q1, q3, spread, raw, extra))
    return bad


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default=None)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--seed0", type=int, default=1)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    seconds = args.seconds if args.seconds else spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    failed = False
    for w in workloads:
        runs = []
        for i in range(args.runs):
            seed = args.seed0 + i
            p = subprocess.run([sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
                                "--workload", w, "--seed", str(seed), "--seconds", str(seconds),
                                "--trace", str(args.trace)],
                               cwd=ROOT, stdout=subprocess.PIPE, text=True)
            lines = p.stdout.splitlines()
            detail = [json.loads(l[len("PERFBENCH_RESULT "):]) for l in lines
                      if l.startswith("PERFBENCH_RESULT ")]
            if p.returncode != 0 or not detail:
                print("%s seed %d FAILED (exit %d)\n%s" % (w, seed, p.returncode, "\n".join(lines[-20:])))
                failed = True
                continue
            runs.append(detail[0])
            print("%s seed %d: %s" % (w, seed, lines[-1]), flush=True)
        if not runs:
            continue
        print("\n== %s: %d runs of %gs, seeds %d..%d ==" % (
            w, len(runs), seconds, args.seed0, args.seed0 + args.runs - 1))
        if args.trace:
            table("per-layer:", runs, "layer")
        else:
            table("end-to-end, this workload's names:", runs, "detail")
            bad = table("end-to-end, benchmark names (spread flagged at >= bound/3):",
                        runs, "e2e", bounds)
            if bad:
                print("  wide: " + ", ".join(bad))
        print(flush=True)
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
