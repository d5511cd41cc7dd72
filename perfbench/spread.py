#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workload W --runs 10 [--first-seed 1]

Runs the benchmark once per seed and prints, for each end-to-end metric,
the median and the distance between the first and third quartiles as a
share of the median, next to the metric's bound from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    values = {m["name"]: [] for m in bench["end_to_end"]}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        out = subprocess.run([*bench["command"], "--workload", args.workload,
                              "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                              "--trace", "0"], cwd=ROOT, capture_output=True, text=True,
                             check=True).stdout
        result = json.loads(out.strip().splitlines()[-1])
        if not result["correct"]:
            sys.exit(f"seed {seed}: incorrect result\n{out}")
        for name, metric in result["metrics"].items():
            values[name].append(metric["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={v[-1]:.4f}" for k, v in values.items()),
              flush=True)
    for m in bench["end_to_end"]:
        vals = values[m["name"]]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        print(f"{args.workload} {m['name']:24s} median {med:.4f} "
              f"spread {(q3 - q1) / med:.4f} bound {m['bound']}")


if __name__ == "__main__":
    main()
