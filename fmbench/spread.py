#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, in two sets of runs.

    python3 fmbench/spread.py        # about 40 minutes

Each set is ten rounds; round k runs every workload once with seed k, at
BENCHMARK.json's run_seconds, and the workload that goes first rotates
from round to round, so the machine's drift falls on all workloads alike.
For every pairing of workload and end-to-end metric it prints each set's
median and quartiles, the quartile spread (Q3 - Q1, from
statistics.quantiles with n=4) as a share of the median, and how much
worse the second set's median is than the first's. Both are compared with
the metric's bound. Both sets run the same seeds, so the gap between them
is run-to-run noise alone.
"""
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETS = 2
SEEDS = range(1, 11)


def run(workload, seed):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True).stdout
    res = json.loads(out.splitlines()[-1])
    if not res["correct"]:
        sys.exit(f"{workload} seed {seed}: {res['failed']} failed operations")
    return {k: v["value"] for k, v in res["metrics"].items()}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    # values[set][workload][metric] -> one value per seed
    values = [{w: {m["name"]: [] for m in bench["end_to_end"]}
               for w in workloads} for _ in range(SETS)]
    for s in range(SETS):
        for k, seed in enumerate(SEEDS):
            shift = (s * len(SEEDS) + k) % len(workloads)
            for w in workloads[shift:] + workloads[:shift]:
                got = run(w, seed)
                for name, v in values[s][w].items():
                    v.append(got[name])
                print(f"set {s + 1} seed {seed} {w}: " + ", ".join(
                    f"{n}={got[n]:.6g}" for n in values[s][w]), flush=True)

    for w in workloads:
        for m in bench["end_to_end"]:
            meds = []
            for s in range(SETS):
                q1, med, q3 = statistics.quantiles(values[s][w][m["name"]],
                                                   n=4)
                meds.append(med)
                share = (q3 - q1) / med
                print(f"{w} {m['name']} set {s + 1}: median {med:.6g} "
                      f"{m['unit']} (Q1 {q1:.6g}, Q3 {q3:.6g}), spread "
                      f"{100 * share:.2f}% = {share / m['bound']:.2f} of the "
                      f"{100 * m['bound']:.0f}% bound")
            worse = (meds[1] - meds[0]) / meds[0]
            if m["better"] == "higher":
                worse = -worse
            print(f"{w} {m['name']}: set 2 median worse than set 1 by "
                  f"{100 * worse:+.2f}% = {worse / m['bound']:+.2f} of the "
                  f"bound")


if __name__ == "__main__":
    main()
