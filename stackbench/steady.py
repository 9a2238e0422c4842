#!/usr/bin/env python3
"""Steadiness check for the stack benchmark.

Runs each workload of BENCHMARK.json several times, each with another
seed, and prints every metric's median, quartiles and spread (the
distance between the first and third quartile, from
statistics.quantiles(values, n=4), as a share of the median) next to the
metric's bound. It also checks that each run's metric names equal the
names BENCHMARK.json lists, that every run was correct, and that the
share of failed operations is the same in every run.

Run from the repository root:

    python3 stackbench/steady.py                     # 10 seeds x every workload
    python3 stackbench/steady.py --runs 5 --workloads coll-coop128
    python3 stackbench/steady.py --trace 1 --runs 1  # per-layer names

Every run lasts BENCHMARK.json's run_seconds, the length the bounds were
set at. Exits 1 if a check fails or an end-to-end spread reaches a third
of its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(command, workload, seed, seconds, trace, save=None):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    start = time.monotonic()
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
    wall = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    if save:
        with open(save, "a") as f:
            f.write("\n".join(lines[-2:]) + "\n")
    return json.loads(lines[-1]), wall


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--workloads", help="comma-separated subset")
    ap.add_argument("--save", help="append every run's detail and result lines to this file")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    listed = bench["per_layer"] if args.trace else bench["end_to_end"]
    names = [m["name"] for m in listed]
    bounds = {m["name"]: m.get("bound") for m in listed}
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        workloads = args.workloads.split(",")

    ok = True
    for wl in workloads:
        values = {n: [] for n in names}
        shares = set()
        walls = []
        for k in range(args.runs):
            seed = args.first_seed + k
            res, wall = run_once(bench["command"], wl, seed, seconds, args.trace, args.save)
            walls.append(wall)
            got = list(res["metrics"])
            if sorted(got) != sorted(names):
                ok = False
                print(f"{wl} seed {seed}: metric names differ from BENCHMARK.json: "
                      f"missing {sorted(set(names) - set(got))}, extra {sorted(set(got) - set(names))}")
            if not res["correct"]:
                ok = False
                print(f"{wl} seed {seed}: correct is false")
            shares.add((res["failed"], res["attempted"]) if res["failed"] else 0)
            for n in names:
                if n in res["metrics"]:
                    values[n].append(res["metrics"][n]["value"])
        if len({s if s == 0 else s[0] / s[1] for s in shares}) > 1:
            ok = False
            print(f"{wl}: failed share differs between runs: {shares}")
        print(f"\n{wl}: {args.runs} runs, wall per run {min(walls):.1f}-{max(walls):.1f} s")
        print(f"  {'metric':34} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
        for n in names:
            v = values[n]
            if len(v) < 2:
                print(f"  {n:34} {v[0] if v else float('nan'):>14.6g}")
                continue
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / abs(med) if med else float("inf")
            b = bounds[n]
            flag = ""
            if b is not None and spread >= b / 3:
                flag = "  <-- spread >= bound/3"
                ok = False
            print(f"  {n:34} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} {spread:>8.3f} "
                  f"{'' if b is None else b:>6}{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
