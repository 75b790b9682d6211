#!/usr/bin/env python3
"""Steadiness check: runs one workload repeatedly, each time with another
seed, and prints for each metric the median, the quartiles, the min/max and
the quartile spread as a share of the median.

usage: python3 perfbench/steady.py --workload NAME [--runs 10] [--seed0 1]
                                   [--seconds N]

`--seconds` defaults to `run_seconds` of BENCHMARK.json. Quartiles are
those of Python's statistics.quantiles(values, n=4). The last column flags
an end-to-end metric whose spread exceeds a third of its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seed0", type=int, default=1)
    p.add_argument("--seconds", type=int, default=bench["run_seconds"])
    a = p.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values, shares = {}, []
    for seed in range(a.seed0, a.seed0 + a.runs):
        out = subprocess.run(
            [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
             "--workload", a.workload, "--seed", str(seed),
             "--seconds", str(a.seconds), "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True).stdout
        res = json.loads(out.strip().splitlines()[-1])
        if not res["correct"]:
            print(out, file=sys.stderr)
        shares.append(res["failed"] / res["attempted"])
        print(f"seed {seed}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']}", file=sys.stderr)
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    print(f"{a.workload}: {a.runs} runs of {a.seconds} s, seeds {a.seed0}..{a.seed0 + a.runs - 1}, "
          f"failed shares {sorted(set(shares))}")
    print(f"{'metric':32} {'median':>14} {'q1':>14} {'q3':>14} {'min':>14} {'max':>14} "
          f"{'iqr/med':>8}")
    for name, v in values.items():
        q1, med, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        bound = bounds.get(name)
        flag = "" if bound is None or spread <= bound / 3 else "  WIDE"
        print(f"{name:32} {med:14.6g} {q1:14.6g} {q3:14.6g} {min(v):14.6g} {max(v):14.6g} "
              f"{spread:8.4f}{flag}")


if __name__ == "__main__":
    main()
