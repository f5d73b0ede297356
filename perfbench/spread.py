#!/usr/bin/env python3
"""Measures the run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py [--workloads a,b] [--seeds 1-10] [--seconds N]

Runs perfbench/run.py once per workload and seed (untraced, run_seconds from
BENCHMARK.json unless --seconds is given) and prints, for each end-to-end
metric, the median of the runs and the distance between the first and third
quartile as a share of the median, next to the metric's bound. A spread
above its bound (setup_s excepted) marks the benchmark as unsteady; the
exit code is 1 then, or when any run fails.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    unsteady = 0
    for workload in args.workloads.split(","):
        values = {name: [] for name in bounds}
        for seed in parse_seeds(args.seeds):
            cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
            done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                                  text=True, cwd=ROOT)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: run failed (exit {done.returncode})")
                unsteady += 1
                continue
            metrics = json.loads(lines[-1])["metrics"]
            for name in bounds:
                values[name].append(metrics[name]["value"])
            print(f"{workload} seed {seed}: " +
                  " ".join(f"{n}={metrics[n]['value']:.4g}" for n in bounds), flush=True)
        for name, series in values.items():
            if len(series) < 2:
                continue
            q1, median, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / median if median else float("inf")
            bad = name != "setup_s" and spread > bounds[name]
            unsteady += bad
            print(f"  {workload:22s} {name:16s} median={median:<12.5g} "
                  f"spread={spread:.4f} bound={bounds[name]}{'  UNSTEADY' if bad else ''}")
    return 1 if unsteady else 0


if __name__ == "__main__":
    sys.exit(main())
