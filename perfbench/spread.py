#!/usr/bin/env python3
"""Run the benchmark over several seeds and print each metric's spread.

Run from the root of a checkout:

    python3 perfbench/spread.py --workload cold-flat --seeds 1-10 --seconds 20

For every metric it prints the median of the per-run values and the
interquartile range as a share of that median (Python's
statistics.quantiles, n=4), the figure BENCHMARK.json's bounds are set
against.
"""
import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-5")
    ap.add_argument("--seconds", default="20")
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()
    values = {}
    for s in seeds(args.seeds):
        cmd = ["bash", "perfbench/run.sh", "--workload", args.workload,
               "--seed", str(s), "--seconds", args.seconds, "--trace", args.trace]
        out = subprocess.run(cmd, capture_output=True, text=True)
        if out.returncode != 0:
            sys.exit(f"seed {s}: exit {out.returncode}\n{out.stdout}{out.stderr}")
        lines = out.stdout.strip().splitlines()
        res = json.loads(lines[-1])
        print(f"seed {s}: " + " | ".join(lines[:-1]), flush=True)
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    for name, vs in sorted(values.items()):
        med = statistics.median(vs)
        q = statistics.quantiles(vs, n=4) if len(vs) > 1 else [vs[0]] * 3
        spread = (q[2] - q[0]) / med if med else float("nan")
        print(f"{name:28s} median {med:12.5g}  iqr/median {spread:7.3f}  "
              f"values {' '.join(f'{v:.4g}' for v in vs)}")


if __name__ == "__main__":
    main()
