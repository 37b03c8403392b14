#!/usr/bin/env python3
"""Steadiness report for the Impliance benchmark.

    python3 perfbench/steady.py [--runs 10] [--first-seed 1]
        [--workloads analytics,lookup,ingest] [--seconds S]

Runs every workload --runs times, each with its own seed, through
perfbench/run.py (untraced), then prints for every end-to-end metric of
every workload the median and the quartile spread: the distance between
the first and third quartile (statistics.quantiles, n=4) as a share of
the median. A spread above a third of the metric's bound in
BENCHMARK.json is marked `wide`, one above the bound `OVER` (setup_s is
reported but only its median is bounded). Exits 1 when any run fails its
checks or any spread is over its bound. Run it from the repository root.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(workload, seed, seconds):
    cmd = [
        sys.executable,
        os.path.join(HERE, "run.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", "0",
    ]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        return None
    return json.loads(lines[-1])


def main() -> int:
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    status = 0
    for workload in args.workloads.split(","):
        values = {name: [] for name in bounds}
        for i in range(args.runs):
            seed = args.first_seed + i
            result = run_once(workload, seed, args.seconds)
            if result is None or not result["correct"]:
                print(f"{workload} seed {seed}: FAILED {result}")
                status = 1
                continue
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        print(f"== {workload} ({args.runs} runs, {args.seconds}s each)")
        for name, bound in bounds.items():
            vs = values[name]
            if len(vs) < 2:
                continue
            med = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else 0.0
            flag = ""
            if name != "setup_s" and spread > bound:
                flag = "OVER"
                status = 1
            elif spread > bound / 3:
                flag = "wide"
            print(f"  {name:32s} median {med:14.6g}  spread {spread:7.4f}  bound {bound:5.3f}  {flag}")
    return status


if __name__ == "__main__":
    sys.exit(main())
