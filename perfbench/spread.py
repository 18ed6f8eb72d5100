#!/usr/bin/env python3
"""Runs the benchmark once per seed and reports each end-to-end metric's
median and quartile spread (Q3 - Q1, as a share of the median), next to
the bound BENCHMARK.json fixes for it.

    python3 perfbench/spread.py --workload fleet-validate --seeds 1-10
    python3 perfbench/spread.py --workload all --seeds 1-10 --json out.json

Run it from the repository root.  Runs are sequential: on a small
machine, concurrent runs would measure each other.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds_of(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(bench, workload, seed, seconds, trace):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    out = subprocess.run(cmd, capture_output=True, text=True, check=False)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stdout}\n{out.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: a check failed\n{out.stdout}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--json", help="also write every value to this file")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    workloads = names if args.workload == "all" else [args.workload]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    record = {}
    worst = 0.0
    for workload in workloads:
        runs = []
        for seed in seeds_of(args.seeds):
            runs.append(run_once(bench, workload, seed, seconds, 0))
            print(f"{workload} seed {seed}: {runs[-1]}", file=sys.stderr)
        record[workload] = runs
        print(f"{workload}: {len(runs)} seeds, {seconds} s each")
        for name, bound in bounds.items():
            values = [r[name] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            worst = max(worst, spread / bound)
            print(f"  {name:<12} median {med:<14.6g} spread {spread:7.4f}"
                  f"  bound {bound}  spread/bound {spread / bound:5.2f}")
    print(f"worst spread/bound: {worst:.2f}")
    if args.json:
        with open(args.json, "w") as f:
            json.dump(record, f, indent=1)


if __name__ == "__main__":
    main()
