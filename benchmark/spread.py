#!/usr/bin/env python3
"""Run-to-run spread of every end-to-end metric, the way the driver takes it.

Runs the benchmark on ten seeds per workload (untraced), `--sets` times
over with fresh seeds, and prints per metric and set the median and the
distance between the first and third quartile
(`statistics.quantiles(values, n=4)`) as a share of the median, next to
the metric's regression bound; from the second set on also how much worse
its median is than the first set's. The driver accepts the benchmark when
every spread except that of `setup_s` is within its bound and no later
median is worse than the first by more than the bound; the benchmark is
steady when the spreads are below a third of their bounds.

    python3 benchmark/spread.py [--sets N] [--first-seed N] [--runs N] [workload ...]

Run it from the repo root on an otherwise idle host; it builds once and
then calls the built executable through cargo.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_set(command, workload, seeds, names):
    values = {name: [] for name in names}
    for seed in seeds:
        run = subprocess.run(
            command + ["--workload", workload, "--seed", str(seed)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
        result = json.loads(run.stdout.strip().splitlines()[-1])
        assert result["correct"] and result["failed"] == 0, result
        for name in names:
            values[name].append(result["metrics"][name]["value"])
        print(f"{workload} seed {seed}: " + " ".join(
            f"{n}={values[n][-1]:.5g}" for n in names), flush=True)
    return values


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("workloads", nargs="*")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    command = spec["command"] + ["--seconds", str(spec["run_seconds"]), "--trace", "0"]

    worst = 0.0
    for workload in workloads:
        first = {}
        for s in range(args.sets):
            start = args.first_seed + s * args.runs
            values = run_set(command, workload, range(start, start + args.runs), metrics)
            for name, vals in values.items():
                bound = metrics[name]["bound"]
                q1, _, q3 = statistics.quantiles(vals, n=4)
                med = statistics.median(vals)
                spread = (q3 - q1) / med
                line = (f"{workload:8} set {s + 1} {name:20} median {med:12.6g}"
                        f"  spread {100 * spread:6.2f} %  bound {100 * bound:.4g} %")
                if name != "setup_s":
                    worst = max(worst, spread / bound)
                if name in first:
                    worse = (med - first[name]) / first[name]
                    if metrics[name]["better"] == "higher":
                        worse = -worse
                    worst = max(worst, worse / bound)
                    line += f"  vs set 1 {100 * worse:+6.2f} % worse"
                first.setdefault(name, med)
                print(line, flush=True)
    print(f"worst spread or shift is {worst:.2f} of its bound (steady below 0.33, accepted below 1)")
    return 0 if worst < 1 else 1


if __name__ == "__main__":
    sys.exit(main())
