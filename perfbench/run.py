#!/usr/bin/env python3
"""Build and run the verdict-cost benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload check_large --seed 1 --seconds 10 --trace 0

The first call configures and builds perfbench/ (the product libraries
under src/ plus the harness) into $CARGO_TARGET_DIR, default
.bench_build; later calls rebuild only what changed. The harness prints
human-readable lines, then one JSON line with the metrics. Use
--workload all to run every workload in turn (one process each).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ["litmus_service", "check_large", "synth_n4", "conform_stream"]
HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configure (once) and build the harness; return its path."""
    tree = os.path.join(build_dir, "perfbench")
    if not os.path.exists(os.path.join(tree, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", tree, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", tree, "--target", "mpbench", "-j", jobs],
                   check=True, stdout=sys.stderr)
    return os.path.join(tree, "mpbench")


def run_one(binary, build_dir, workload, seed, seconds, trace):
    """Run one workload in its own process; return (code, stdout)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--scratch", build_dir, "--data", HERE]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print("run.py: %s timed out" % workload, file=sys.stderr)
        return 1, ""
    return proc.returncode, out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    os.makedirs(build_dir, exist_ok=True)
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as exc:
        print("run.py: build failed: %s" % exc, file=sys.stderr)
        return 1

    if args.workload != "all":
        code, out = run_one(binary, build_dir, args.workload, args.seed,
                            args.seconds, args.trace)
        sys.stdout.write(out)
        return code

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        code, out = run_one(binary, build_dir, workload, args.seed,
                            args.seconds, args.trace)
        lines = out.splitlines()
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        if code != 0 or not lines:
            return code or 1
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][workload + "/" + name] = metric
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
