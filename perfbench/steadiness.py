#!/usr/bin/env python3
"""Steadiness check: repeat the benchmark on one commit and report spread.

Run from the repository root:

    python3 perfbench/steadiness.py --runs 10 [--workloads check_large ...]
                                    [--first-seed 1] [--sets 2] [--trace 0]

Each run uses the next seed. For every workload and end-to-end metric it
prints the median, the first and third quartiles (Python's
statistics.quantiles, n=4), and the interquartile spread as a share of
the median, against the metric's bound in BENCHMARK.json. A metric is
flagged "WIDE" when its spread exceeds the bound (setup_s excepted) and
"wide" when it exceeds a third of it. With --sets 2 the runs are
repeated and each set's median compared: "SHIFT" marks a metric whose
second median is worse than the first by more than the bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("steadiness: %s seed %d failed (exit %d)"
                 % (workload, seed, proc.returncode))
    result = json.loads(lines[-1])
    if not result["correct"]:
        print("  %s seed %d: correct=false (%d/%d failed)"
              % (workload, seed, result["failed"], result["attempted"]))
    return {name: m["value"] for name, m in result["metrics"].items()}


def worse(first, second, better):
    """Relative amount by which second is worse than first."""
    if first == 0:
        return 0.0
    change = (second - first) / abs(first)
    return change if better == "lower" else -change


def main():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--workloads", nargs="*",
                        default=[w["name"] for w in bench["workloads"]])
    args = parser.parse_args()
    metrics = bench["end_to_end"] if args.trace == 0 else bench["per_layer"]

    flagged = []
    for workload in args.workloads:
        medians = []
        for s in range(args.sets):
            seeds = range(args.first_seed, args.first_seed + args.runs)
            values = [run(workload, seed, args.seconds, args.trace)
                      for seed in seeds]
            print("%s set %d (seeds %d..%d)" % (workload, s + 1, seeds[0], seeds[-1]))
            set_medians = {}
            for m in metrics:
                series = [v[m["name"]] for v in values]
                med = statistics.median(series)
                q1, _, q3 = statistics.quantiles(series, n=4)
                spread = (q3 - q1) / med if med else 0.0
                bound = m.get("bound")
                flag = ""
                if bound is not None and m["name"] != "setup_s":
                    if spread > bound:
                        flag = "WIDE"
                    elif spread > bound / 3:
                        flag = "wide"
                if flag:
                    flagged.append("%s %s %s" % (workload, m["name"], flag))
                print("  %-34s median %-14.6g q1 %-14.6g q3 %-14.6g spread %6.2f%%%s %s"
                      % (m["name"], med, q1, q3, 100 * spread,
                         "" if bound is None else " (bound %g%%)" % (100 * bound), flag))
                set_medians[m["name"]] = med
            medians.append(set_medians)
        for s in range(1, len(medians)):
            for m in metrics:
                if "bound" not in m:
                    continue
                shift = worse(medians[0][m["name"]], medians[s][m["name"]], m["better"])
                if shift > m["bound"]:
                    flagged.append("%s %s SHIFT %.1f%%" % (workload, m["name"], 100 * shift))
                print("  set %d vs set 1 %-22s worse by %6.2f%%" % (s + 1, m["name"], 100 * shift))
    print("flagged: " + (", ".join(flagged) if flagged else "none"))
    return 1 if any("WIDE" in f or "SHIFT" in f for f in flagged) else 0


if __name__ == "__main__":
    sys.exit(main())
