"""Run the benchmark over several seeds and print each metric's median and spread.

    python3 perfbench/spread.py --workloads finite-scale,limit,placement --seeds 1-10

Each run is `run.py --workload W --seed S --seconds <run_seconds> --trace T`
with run_seconds from BENCHMARK.json, in a fresh interpreter, one after the
other.  For every metric it prints the median, the quartiles (as
statistics.quantiles(values, n=4) gives them) and the spread, the distance
between the quartiles as a share of the median.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", required=True, help="comma-separated workload names")
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"), help="e.g. 1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)

    ok = True
    for workload in args.workloads.split(","):
        values, units, shares = {}, {}, set()
        for seed in args.seeds:
            cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]),
                                      "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                ok = False
                continue
            result = json.loads(lines[-1])
            ok &= result["correct"]
            shares.add(result["failed"] / result["attempted"])
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  + " ".join(f"{k}={m['value']:.6g}" for k, m in result["metrics"].items()
                             if args.trace == 0 or k.startswith("trace.")), flush=True)
        print(f"{workload}: failed shares {sorted(shares)}")
        for name, vals in values.items():
            med = statistics.median(vals)
            if len(vals) < 2:
                print(f"  {name}: {med:.6g} {units[name]}")
                continue
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
            print(f"  {name}: median {med:.6g} {units[name]}, quartiles {q1:.6g}..{q3:.6g}, "
                  f"spread {spread:.4f}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
