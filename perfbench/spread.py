#!/usr/bin/env python3
"""Runs the benchmark on several seeds and reports each metric's spread.

    python3 perfbench/spread.py --workload constructs --seeds 1 2 3 4 5
    python3 perfbench/spread.py --workload replication --seeds 1-10 --sets 2
    python3 perfbench/spread.py --workload terrain --seeds 1-10 --trace 1

Runs the command in BENCHMARK.json from the repository root, once per
seed and set, each run measuring `run_seconds`. Prints per metric and set
the median over seeds and the distance between the first and third
quartile as a share of the median; with two or more sets, also how much
worse each set's median is than the first set's. Both are checked against
the metric's bound in BENCHMARK.json, for every metric alike. Also prints
each run's sim digest, so sets and invocations can be compared. Exits with
1 if a run fails or any spread or median change exceeds its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_seeds(items):
    seeds = []
    for item in items:
        if "-" in item:
            lo, hi = item.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(item))
    return seeds


def run(bench, workload, seed, trace):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", str(trace),
    ]
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    digest = next((l.split()[-1] for l in lines if l.startswith("sim digest")), "?")
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"seed {seed}: exit code {proc.returncode}")
    return json.loads(lines[-1]), digest


def spread(vals):
    """Distance between the first and third quartile, as a share of the median."""
    med = statistics.median(vals)
    if len(vals) < 2 or not med:
        return float("nan")
    q1, _, q3 = statistics.quantiles(vals, n=4)
    return (q3 - q1) / med


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", nargs="+", default=["1-10"])
    parser.add_argument("--sets", type=int, default=1, help="times to run the seed list")
    parser.add_argument("--trace", type=int, default=0, choices=[0, 1])
    parser.add_argument("--per-seed", action="store_true", help="print every value")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    catalogue = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    sets = []
    ok = True
    for n in range(args.sets):
        values = {}
        for seed in parse_seeds(args.seeds):
            result, digest = run(bench, args.workload, seed, args.trace)
            ok &= result["correct"] and result["failed"] == 0
            print(f"set {n + 1} seed {seed:>4}  digest {digest}  correct {result['correct']}  "
                  f"attempted {result['attempted']}  failed {result['failed']}", flush=True)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        sets.append(values)

    if args.per_seed:
        for n, values in enumerate(sets):
            print(f"\nset {n + 1}")
            for name, vals in values.items():
                print(f"{name:<36} " + " ".join(f"{v:.4g}" for v in vals))

    print(f"\n{'metric':<36} {'set':>3} {'median':>14} {'iqr/median':>11} "
          f"{'worse':>7} {'bound':>6}")
    for name in sets[0]:
        bound = catalogue[name].get("bound")
        lower_better = catalogue[name]["better"] == "lower"
        first = statistics.median(sets[0][name])
        for n, values in enumerate(sets):
            med = statistics.median(values[name])
            iqr = spread(values[name])
            # How much worse than the first set's median, as a share of it.
            worse = ((med - first) if lower_better else (first - med)) / first if first else 0.0
            flags = []
            if bound is not None:
                if not iqr <= bound:
                    flags.append("SPREAD OVER BOUND")
                    ok = False
                elif not iqr <= bound / 3:
                    flags.append("spread over a third of the bound")
                if n > 0 and worse > bound:
                    flags.append("MEDIAN WORSE THAN BOUND")
                    ok = False
            print(f"{name:<36} {n + 1:>3} {med:>14.6g} {iqr:>11.4f} "
                  f"{worse if n else 0.0:>7.4f} {'' if bound is None else bound:>6}"
                  f"{'  ' + '; '.join(flags) if flags else ''}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
