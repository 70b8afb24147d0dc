#!/usr/bin/env python3
"""Deployed-path benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Builds the repository's libraries and the
benchmark program from source into .bench_build/ (first run only; later runs
rebuild incrementally), runs one workload, and prints the program's report
followed by one JSON result line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list (a layer that is not on the workload's path
reads 0 and is named as such above the result line). Exits non-zero when the
build fails, the run times out, or an output check fails.
"""
import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
BIN = os.path.join(BUILD, "perfbench")
WORKLOADS = ("kws_stream", "serve_fleet", "model_deploy")
RUN_LIMIT_S = 170  # the whole invocation must end within 180 s


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    """Configures once, then builds incrementally; serialised by a lock."""
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    with open(os.path.join(BUILD, ".lock"), "w") as lock, open(log_path, "a") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            gen = ["-G", "Ninja"] if shutil.which("ninja") else []
            steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + gen)
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        env = dict(os.environ, TMPDIR=os.path.join(BUILD, "tmp"))  # compiler temporaries
        os.makedirs(env["TMPDIR"], exist_ok=True)
        steps.append(["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs])
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT, env=env).returncode != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                cache = os.path.join(BUILD, "CMakeCache.txt")
                if cmd[1] == "-S" and os.path.exists(cache):  # never reuse a failed configure
                    os.remove(cache)
                fail("build failed (log: .bench_build/build.log)")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(spec_path):
        fail("BENCHMARK.json not found at the checkout root")
    with open(spec_path) as f:
        spec = json.load(f)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    build()  # the first run in a checkout builds; the time limit starts after
    start = time.monotonic()

    cmd = [BIN, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            BUILD, "trace_%s_seed%d.json" % (args.workload, args.seed))]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(10, RUN_LIMIT_S - (time.monotonic() - start)))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("run timed out")

    result = None
    for line in out.splitlines():
        print(line)
        if line.startswith("PERFBENCH_RESULT "):
            result = json.loads(line[len("PERFBENCH_RESULT "):])
    if result is None:
        fail("perfbench exited with %d and no result" % proc.returncode)

    have = result["e2e"] if not args.trace else result["layer"]
    metrics = {}
    for m in wanted:
        name = m["name"]
        if name in have:
            metrics[name] = {"value": have[name]["value"], "unit": m["unit"]}
            if have[name]["unit"] != m["unit"]:
                fail("metric %s: perfbench unit %s, BENCHMARK.json unit %s"
                     % (name, have[name]["unit"], m["unit"]))
        elif args.trace:
            print("  %-28s n/a: not on %s's path, reported as 0" % (name, args.workload))
            metrics[name] = {"value": 0, "unit": m["unit"]}
        else:
            fail("end-to-end metric %s missing from %s" % (name, args.workload))

    print(json.dumps({"correct": bool(result["correct"]) and proc.returncode == 0,
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))
    sys.exit(0 if proc.returncode == 0 and result["correct"] else 1)


if __name__ == "__main__":
    main()
