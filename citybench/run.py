#!/usr/bin/env python3
"""One run of one city-tick benchmark workload.

    python3 citybench/run.py --workload tick_basic_1000 --seed 1 \
        --seconds 14 --trace 0

Builds citybench/ (a CMake project over ../src) into .bench_build/citybench,
runs the citybench binary with the workload's parameters from
citybench/workloads.json, writes the full result with a host and build
fingerprint to .bench_out/results/, and prints as the last line of standard
output one JSON object: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are BENCHMARK.json's end_to_end list, with --trace 1
its per_layer list. Exits nonzero on a build failure, a correctness or
accounting breach, or a missing metric.
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "citybench")
OUT = os.path.join(ROOT, ".bench_out")
RUN_TIMEOUT_S = 170
SERVING_FIGURES = ("lat_p50_us", "lat_p99_us", "areas_per_s", "cpu_us_per_area")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures and builds incrementally; output goes to stderr."""
    subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                    "-DCMAKE_BUILD_TYPE=Release"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(BUILD, "citybench")


def host_fingerprint():
    model, flags = "unknown", ""
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                key, _, value = line.partition(":")
                key = key.strip()
                if key == "model name" and model == "unknown":
                    model = value.strip()
                elif key == "flags" and not flags:
                    flags = value.strip()
    except OSError:
        pass
    isa = sorted(f for f in flags.split()
                 if f.startswith(("avx", "fma", "sse4", "amx", "f16c")))
    return {
        "cpu_model": model,
        "isa_flags": " ".join(isa),
        "cpu_flags_sha1": hashlib.sha1(flags.encode()).hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def workload_args(spec, name, overrides):
    """Binary flags for workload `name` (overrides: key=value strings)."""
    w = spec["workloads"].get(name)
    if w is None:
        raise SystemExit("unknown workload %r; known: %s" %
                         (name, ", ".join(sorted(spec["workloads"]))))
    params = dict(spec["run"])
    params.update(mode=w["mode"], shards=w["shards"], workers=w.get("workers", 1),
                  limit_us=w["limit_us"])
    if w["kind"] == "open":
        params.update(open_loop="true", rate=w["rate"], feed_us=w["feed_us"],
                      mix=",".join("%s:%d" % (s, c) for s, c in w["sizes"].items()))
    for item in overrides:
        key, _, value = item.partition("=")
        params[key] = value
    return ["--%s=%s" % (k, v) for k, v in params.items()]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                    help="override a workload parameter (self-test scale)")
    ap.add_argument("--doctor", action="store_true",
                    help="corrupt one served answer before the bitwise check")
    ap.add_argument("--results", default=os.path.join(OUT, "results"),
                    help="directory for the full result file")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "workloads.json")) as f:
        spec = json.load(f)
    flags = workload_args(spec, args.workload, args.set)

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        log("citybench: build failed: %s" % e)
        return 1
    tag = "%s_s%d_t%d" % (args.workload, args.seed, args.trace)
    work = os.path.join(OUT, "work", tag)
    os.makedirs(work, exist_ok=True)
    os.makedirs(args.results, exist_ok=True)
    trace_path = os.path.join(OUT, "traces", tag + ".json")
    cmd = [binary, "--workload=" + args.workload, "--seed=%d" % args.seed,
           "--seconds=%g" % args.seconds, "--trace=%d" % args.trace,
           "--artifact=" + os.path.join(work, "model.dsar")] + flags
    if args.trace:
        os.makedirs(os.path.dirname(trace_path), exist_ok=True)
        cmd.append("--trace_out=" + trace_path)
    if args.doctor:
        cmd.append("--doctor=true")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S, cwd=work)
    except subprocess.TimeoutExpired:
        log("citybench: run exceeded %d s" % RUN_TIMEOUT_S)
        return 1
    lines = proc.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        raw = json.loads(lines[-1])
    except (IndexError, ValueError):
        log("citybench exited %d without a result" % proc.returncode)
        return 1

    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    metrics, missing = {}, []
    for m in wanted:
        value = raw["metrics"].get(m["name"])
        if value is None or not math.isfinite(value):
            missing.append(m["name"])
        else:
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    if missing:
        log("citybench: no value for " + ", ".join(missing))
        return 1
    if args.trace:
        with open(trace_path) as f:
            json.load(f)  # the chrome trace must parse

    correct = bool(raw["correct"]) and proc.returncode == 0
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "correct": correct,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "latency_samples": raw["samples"],
        "answers_checked": raw["checked"],
        "setup_s_samples": raw["setup_s_samples"],
        "window_p50_us": raw["window_p50_us"],
        "metrics": metrics,
        "all_metrics": raw["metrics"],
        "self_us": raw["self_us"],
        "trace_file": os.path.relpath(trace_path, ROOT) if args.trace else None,
        "fingerprint": dict(host_fingerprint(), **raw["build"]),
    }
    with open(os.path.join(args.results, tag + ".json"), "w") as f:
        json.dump(result, f, indent=1, sort_keys=True)
    print("%s seed %d: ops %d failed %d, %d latency samples, %d answers "
          "checked bitwise" % (args.workload, args.seed, raw["attempted"],
                               raw["failed"], raw["samples"], raw["checked"]))
    for name, m in sorted(metrics.items()):
        print("  %-34s %14.6g %s" % (name, m["value"], m["unit"]))
    if not args.trace:
        # The serving figures BENCHMARK.json keeps among the per-layer
        # metrics, because they move too much from run to run on a shared
        # host to carry a bound, are still shown for the untraced run.
        for m in bench["per_layer"]:
            if m["name"] in SERVING_FIGURES:
                print("  %-34s %14.6g %s (not gated)" % (
                    m["name"], raw["metrics"][m["name"]], m["unit"]))
    print(json.dumps({"correct": correct, "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
