#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs the command in BENCHMARK.json once per seed on one workload and
prints, per end-to-end metric, the median and the interquartile range as
a share of the median (quartiles from statistics.quantiles(n=4)), next
to the metric's bound. A spread above the bound fails the benchmark's
acceptance; the aim is below a third of it.

    python3 perfbench/spread.py <workload> [--seeds 10] [--first-seed 1]

Run from the repository root. Exits 1 if a run fails or is incorrect.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("workload")
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    values = {name: [] for name in metrics}
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        cmd = bench["command"] + [
            "--workload", args.workload,
            "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]),
            "--trace", args.trace,
        ]
        t0 = time.time()
        out = subprocess.run(cmd, capture_output=True, text=True)
        wall = time.time() - t0
        calib = [l for l in out.stdout.splitlines() if l.startswith("# calib_ms")]
        if out.returncode != 0 or not out.stdout.strip():
            print(f"seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}")
            return 1
        result = json.loads(out.stdout.strip().splitlines()[-1])
        print(
            f"seed {seed}: {wall:.1f} s, correct={result['correct']} "
            f"attempted={result['attempted']} failed={result['failed']} "
            f"{calib[0][2:] if calib else ''}",
            flush=True,
        )
        if not result["correct"]:
            return 1
        if args.trace != "0":
            continue
        for name in metrics:
            values[name].append(result["metrics"][name]["value"])
    if args.trace != "0":
        return 0
    print(f"\n{'metric':<16}{'median':>14}{'iqr/med':>10}{'bound':>8}  verdict")
    for name, m in metrics.items():
        xs = values[name]
        med = statistics.median(xs)
        q1, _, q3 = statistics.quantiles(xs, n=4)
        spread = (q3 - q1) / med
        bound = m["bound"]
        verdict = "steady" if spread < bound / 3 else ("within bound" if spread <= bound else "TOO WIDE")
        if name == "setup_s":
            verdict += " (setup_s is judged on its median only)"
        print(f"{name:<16}{med:>14.4f}{spread:>10.3f}{bound:>8.2f}  {verdict}")
        print(f"{'':<16}{' '.join(f'{x:.4g}' for x in xs)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
