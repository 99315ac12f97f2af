#!/usr/bin/env python3
"""Compares two sets of citybench result files, metric by metric.

    python3 citybench/compare.py BASE_DIR CHANGE_DIR [--trace 0|1]

Each directory holds result files written by citybench/run.py (by default
.bench_out/results/). With --trace 0 the metrics are BENCHMARK.json's
end-to-end list plus the serving figures it keeps among the per-layer
metrics (lat_p99_us, areas_per_s, ...), read from the untraced runs; with
--trace 1 the per-layer list, from the traced runs. For every workload x
metric the tool prints each
side's median and quartiles, the change in the median, the share of seed
pairs the change won, and a verdict:

  improved    the change wins at least 9 of 10 pairs (ties count for
              neither) and the medians differ by more than the base's
              own quartile spread;
  worse       the change's median is worse than the base's by more than
              the metric's bound in BENCHMARK.json (per-layer metrics,
              which have no bound: the mirror of "improved");
  unresolved  the base's own spread is wider than the bound and not every
              change run beats every base run, or (per-layer) neither of
              the above;
  same        within the bound, on a base whose spread is inside it.

Runs pair by seed. The tool refuses (exit 2) to compare result files whose
host or build fingerprints differ. Exit 1 when any verdict is "worse".
"""

import argparse
import glob
import json
import os
import statistics
import sys

from run import SERVING_FIGURES

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FINGERPRINT_KEYS = ("cpu_model", "cpu_flags_sha1", "nproc", "compiler",
                    "build_type", "native_arch", "kernel_mode", "pool_threads")


def load(directory, trace):
    runs = []
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as f:
            r = json.load(f)
        if r.get("trace") == trace and "metrics" in r:
            runs.append(r)
    return runs


def fingerprints(runs):
    return {tuple((k, r["fingerprint"].get(k)) for k in FINGERPRINT_KEYS)
            for r in runs}


def value(run, name):
    """A metric of a result file: its printed list, else its full set."""
    if name in run["metrics"]:
        return run["metrics"][name]["value"]
    return run.get("all_metrics", {}).get(name)


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(base, change, better, bound):
    """base/change: {seed: value}. Returns (verdict, wins, pairs)."""
    def beats(x, y):
        return x < y if better == "lower" else x > y

    a, b = list(base.values()), list(change.values())
    seeds = sorted(set(base) & set(change))
    if seeds:
        pairs = [(base[s], change[s]) for s in seeds]
    else:
        pairs = list(zip(sorted(a), sorted(b)))
    wins = sum(1 for x, y in pairs if beats(y, x))
    losses = sum(1 for x, y in pairs if beats(x, y))
    q1, med_a, q3 = quartiles(a)
    med_b = statistics.median(b)
    spread = q3 - q1
    apart = abs(med_b - med_a) > spread
    if pairs and wins >= 0.9 * len(pairs) and apart and beats(med_b, med_a):
        return "improved", wins, len(pairs)
    if bound is None:
        if pairs and losses >= 0.9 * len(pairs) and apart:
            return "worse", wins, len(pairs)
        return "unresolved", wins, len(pairs)
    scale = abs(med_a) if med_a else 1.0
    if spread / scale > bound and not all(beats(y, x) for x in a for y in b):
        return "unresolved", wins, len(pairs)
    if beats(med_a, med_b) and abs(med_b - med_a) / scale > bound:
        return "worse", wins, len(pairs)
    return "same", wins, len(pairs)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("base")
    ap.add_argument("change")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="compare end-to-end (0) or per-layer (1) results")
    ap.add_argument("--benchmark", default=os.path.join(ROOT, "BENCHMARK.json"))
    args = ap.parse_args()

    with open(args.benchmark) as f:
        bench = json.load(f)
    if args.trace:
        metrics = bench["per_layer"]
    else:
        # Untraced figures without a bound: compared by the per-layer rules.
        metrics = bench["end_to_end"] + [
            dict(m, bound=None) for m in bench["per_layer"]
            if m["name"] in SERVING_FIGURES]
    base, change = load(args.base, args.trace), load(args.change, args.trace)
    if not base or not change:
        print("compare: no trace=%d result files in %s" %
              (args.trace, args.base if not base else args.change),
              file=sys.stderr)
        return 2
    fa, fb = fingerprints(base), fingerprints(change)
    if len(fa | fb) != 1:
        print("compare: refusing to compare results from different hosts or "
              "builds:", file=sys.stderr)
        for fp in sorted(fa | fb):
            side = "+".join(s for s, f in (("base", fa), ("change", fb))
                            if fp in f)
            print("  %-11s %s" % (side, dict(fp)), file=sys.stderr)
        return 2

    workloads = sorted({r["workload"] for r in base} & {r["workload"] for r in change})
    header = "%-18s %-32s %28s %28s %9s %6s  %s" % (
        "workload", "metric", "base median [q1, q3]",
        "change median [q1, q3]", "delta", "wins", "verdict")
    print(header)
    print("-" * len(header))
    any_worse = False
    for w in workloads:
        for m in metrics:
            a = {r["seed"]: value(r, m["name"]) for r in base
                 if r["workload"] == w and value(r, m["name"]) is not None}
            b = {r["seed"]: value(r, m["name"]) for r in change
                 if r["workload"] == w and value(r, m["name"]) is not None}
            if not a or not b:
                continue
            v, wins, pairs = verdict(a, b, m["better"], m.get("bound"))
            any_worse |= v == "worse"
            qa, qb = quartiles(list(a.values())), quartiles(list(b.values()))
            delta = ((qb[1] - qa[1]) / abs(qa[1]) * 100) if qa[1] else 0.0
            print("%-18s %-32s %12.5g [%.4g, %.4g] %12.5g [%.4g, %.4g] %+8.2f%% "
                  "%3d/%-2d  %s" % (w, m["name"] + " (" + m["unit"] + ")",
                                    qa[1], qa[0], qa[2], qb[1], qb[0], qb[2],
                                    delta, wins, pairs, v))
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())
