#!/usr/bin/env python3
"""Record the count of every fstat cell of every workload into expected.json.

    python3 perfbench/record.py

The benchmark compares each run against these counts, so record them
only at a commit whose counts are trusted.  A cell is recorded only if
it passes the benchmark's other checks: zero ambiguous pairs and the
workload's independent identity.
"""

from __future__ import annotations

import json
import sys

from run import WORK, identity_truths, run_child
from workloads import EXPECTED_PATH, IID_SEEDS, WORKLOADS, check_step


def main():
    expected = {}
    for name, workload in WORKLOADS.items():
        work = WORK / name
        work.mkdir(parents=True, exist_ok=True)
        table = expected[name] = {}
        done = set()
        for scale in ("full", "smoke"):
            for seed in range(IID_SEEDS):
                # gen steps run too: the fstat steps after them read their files
                steps = [step for step in workload.build(scale, seed, work)
                         if step.key not in done and step.kind != "verify"]
                if not steps:
                    continue
                truths = identity_truths(workload, scale, seed, work)
                for i, step in enumerate(steps):
                    done.add(step.key)
                    out = work / f"record{i}.out"
                    code, _, _ = run_child(step.argv, out)
                    outcome = check_step(step, code, out.read_text(), None, truths)
                    if outcome.failed:
                        sys.exit("\n".join(outcome.problems))
                    if step.kind == "fstat":
                        table[step.key] = list(outcome.counts)
        print(f"{name}: {len(table)} steps recorded")
    with open(EXPECTED_PATH, "w") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
