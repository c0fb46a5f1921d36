#!/usr/bin/env python3
"""Steadiness check: run workloads k times with k seeds and summarise.

    python3 perfbench/steady.py [--runs K] [--first-seed N] [--seconds S]
                                [--trace 0|1] [--workloads a,b,...]

For every metric of every workload prints the median, the quartiles (as
statistics.quantiles(values, n=4) gives them) and the spread, (Q3 - Q1) /
median. With --trace 0 each end-to-end spread is compared with a third of
its bound in BENCHMARK.json; this is the check that sets the bounds and
later re-checks them. With --trace 1 the medians form the per-layer table
(perfbench/baseline.txt is this output).
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.PIPE, text=True).stdout
    lines = out.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workloads", default=",".join(names))
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    steady = True
    for w in args.workloads.split(","):
        values = {}
        units = {}
        ok = True
        for i in range(args.runs):
            res, notes = run_once(w, args.first_seed + i, args.seconds, args.trace)
            ok = ok and res["correct"] and res["failed"] == 0
            for k, m in res["metrics"].items():
                values.setdefault(k, []).append(m["value"])
                units[k] = m["unit"]
            print(f"# {w} seed {args.first_seed + i}: " + "; ".join(notes[:1]) + "; " +
                  " ".join(f"{k}={m['value']:.4g}" for k, m in res["metrics"].items()),
                  flush=True)
        print(f"== {w} ({args.runs} runs, trace {args.trace}, outputs "
              f"{'correct' if ok else 'NOT CORRECT'})")
        print(f"{'metric':34s} {'median':>14s} {'q1':>14s} {'q3':>14s} {'spread':>8s}")
        for k, v in values.items():
            med = statistics.median(v)
            q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0], 0, v[0])
            spread = (q3 - q1) / med if med else 0.0
            flag = ""
            if args.trace == 0 and k in bounds:
                within = spread < bounds[k] / 3
                steady = steady and within
                if spread > bounds[k]:
                    flag = f"  > bound ({bounds[k]:.3f})"
                elif not within:
                    flag = f"  > bound/3 ({bounds[k] / 3:.3f})"
            print(f"{k:34s} {med:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.3f} {units[k]}{flag}")
        print(flush=True)
        steady = steady and ok
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
