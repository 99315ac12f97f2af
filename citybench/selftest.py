#!/usr/bin/env python3
"""Self-test of the city-tick benchmark at tiny scale (about half a minute).

    python3 citybench/selftest.py

Runs every workload of citybench/workloads.json (the gated ones in
BENCHMARK.json and the open loop) on a 48-area city for one second,
untraced and traced, and checks that each run passes its bitwise
reference checks and accounting, reports every metric BENCHMARK.json
lists, and (traced) writes chrome-trace JSON that `python3 -m json.tool`
accepts. Then proves the checks bite: a doctored answer must fail the
bitwise check. Finally drives citybench/compare.py on results made from
those runs: the same set compares clean, a slowed copy is "worse", a sped-up
copy "improved", and a copy with another fingerprint is refused.
Writes only under .bench_out/. Exits nonzero on the first failure.
"""

import copy
import glob
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_out", "selftest")
TINY = ["areas=48", "train_items=200", "setups=2", "checks=2", "decomps=2"]
# The open loop's absolute rate is sized for 1000 areas; a tiny city gets
# a proportionate one so the test exercises admission without overload.
TINY_OPEN = ["rate=80", "feed_us=50000"]


def fail(msg):
    print("selftest: FAIL: " + msg, file=sys.stderr)
    sys.exit(1)


def run(workload, seed, trace, results, extra=()):
    spec = json.load(open(os.path.join(HERE, "workloads.json")))
    sets = TINY + (TINY_OPEN if spec["workloads"][workload]["kind"] == "open" else [])
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
           "--results", results] + [a for s in sets for a in ("--set", s)]
    cmd += list(extra)
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=300)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc, result


def check_run(workload, seed, trace, results, bench):
    proc, result = run(workload, seed, trace, results)
    if proc.returncode != 0 or result is None or not result["correct"]:
        fail("%s trace=%d exited %d\n%s" % (workload, trace, proc.returncode,
                                             proc.stderr[-3000:]))
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("%s: result keys %s" % (workload, sorted(result)))
    want = bench["per_layer"] if trace else bench["end_to_end"]
    names = {m["name"] for m in want}
    if set(result["metrics"]) != names:
        fail("%s trace=%d: metrics differ from BENCHMARK.json: %s" %
             (workload, trace, sorted(names ^ set(result["metrics"]))))
    if result["attempted"] < 1:
        fail("%s: nothing attempted" % workload)
    if trace:
        path = os.path.join(ROOT, ".bench_out", "traces",
                            "%s_s%d_t1.json" % (workload, seed))
        tool = subprocess.run([sys.executable, "-m", "json.tool", path],
                              capture_output=True, text=True)
        if tool.returncode != 0:
            fail("%s: chrome trace does not parse: %s" % (workload, tool.stderr))
    print("selftest: %s trace=%d ok (%d ops)" % (workload, trace,
                                                  result["attempted"]))


def compare(base, change, expect_code, expect_verdict=None):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "compare.py"),
                           base, change], cwd=ROOT, capture_output=True,
                          text=True)
    if proc.returncode != expect_code:
        fail("compare %s vs %s exited %d, want %d\n%s%s" % (
            base, change, proc.returncode, expect_code, proc.stdout,
            proc.stderr))
    if expect_verdict and expect_verdict not in proc.stdout:
        fail("compare %s vs %s: no %r verdict\n%s" % (base, change,
                                                      expect_verdict,
                                                      proc.stdout))


def rewrite(src, dst, fn):
    os.makedirs(dst, exist_ok=True)
    for path in glob.glob(os.path.join(src, "*.json")):
        r = json.load(open(path))
        fn(r)
        json.dump(r, open(os.path.join(dst, os.path.basename(path)), "w"))


def main():
    shutil.rmtree(OUT, ignore_errors=True)
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    spec = json.load(open(os.path.join(HERE, "workloads.json")))
    names = list(spec["workloads"])
    unknown = {w["name"] for w in bench["workloads"]} - set(names)
    if unknown:
        fail("BENCHMARK.json names workloads workloads.json lacks: %s" %
             sorted(unknown))

    base = os.path.join(OUT, "base")
    for w in names:
        for trace in (0, 1):
            check_run(w, 1, trace, base, bench)
    check_run(names[0], 2, 0, base, bench)
    check_run(names[0], 3, 0, base, bench)

    # A wrong answer must fail the run, and never as a "failed op".
    for w in names:
        proc, result = run(w, 1, 0, os.path.join(OUT, "doctored"), ["--doctor"])
        if proc.returncode == 0 or (result is not None and result["correct"]):
            fail("%s: a doctored answer passed the bitwise check" % w)
        if "not bitwise equal" not in proc.stderr:
            fail("%s: doctored run failed for another reason:\n%s" %
                 (w, proc.stderr[-2000:]))
    print("selftest: doctored answers rejected")

    # The compare tool: clean on itself, worse, improved, refused.
    compare(base, base, 0, "same")
    # The untraced serving figures BENCHMARK.json keeps among the per-layer
    # metrics are compared too, from the runs' full metric sets.
    compare(base, base, 0, "lat_p99_us")

    def scale(factor):
        def fn(r):
            if r["trace"]:
                return
            for m in bench["end_to_end"]:
                v = r["metrics"][m["name"]]
                lower = m["better"] == "lower"
                v["value"] *= factor if lower else 1 / factor
        return fn
    rewrite(base, os.path.join(OUT, "slower"), scale(2.0))
    compare(base, os.path.join(OUT, "slower"), 1, "worse")
    rewrite(base, os.path.join(OUT, "faster"), scale(0.5))
    compare(base, os.path.join(OUT, "faster"), 0, "improved")

    def other_host(r):
        r["fingerprint"] = copy.deepcopy(r["fingerprint"])
        r["fingerprint"]["nproc"] = r["fingerprint"]["nproc"] + 1
    rewrite(base, os.path.join(OUT, "otherhost"), other_host)
    compare(base, os.path.join(OUT, "otherhost"), 2)
    print("selftest: compare tool ok")
    print("selftest: all ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
