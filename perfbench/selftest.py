#!/usr/bin/env python3
"""Self-test of the benchmark's own checks.

    python3 perfbench/selftest.py

- The checker rejects a count that is off by one, a nonzero ambiguous
  value and a failed child, and accepts the recorded output.
- A smoke pass of every workload at tiny N, through the CLI, ends with
  no failed operation.
- run.py emits exactly the metrics that BENCHMARK.json names.

Exits 1 if any of these does not hold.
"""

from __future__ import annotations

import json
import sys

import spans
from run import END_TO_END, ROOT, WORK, Tally, identity_truths, run_pass
from workloads import WORKLOADS, check_step, load_expected


def _fstat_output(step, counts, ambiguous):
    lines = ["sequence,params,N,alpha,s,threshold,count,F,abs_err_vs_2s,ambiguous"]
    for (n, alpha, s), count, amb in zip(step.cells, counts, ambiguous):
        lines.append(f"kronecker,z=golden,{n},{alpha},{s},0,{count},0,0,{amb}")
    return "\n".join(lines) + "\n"


def checker_cases(expected):
    workload = WORKLOADS["rotation_sweep"]
    work = WORK / "selftest"
    work.mkdir(parents=True, exist_ok=True)
    step = workload.build("smoke", 0, work)[0]
    truths = identity_truths(workload, "smoke", 0, work)
    table = expected["rotation_sweep"]
    counts = table[step.key]
    zeros = [0] * len(counts)
    off_by_one = _fstat_output(step, [counts[0] + 1] + counts[1:], zeros)
    return [
        ("recorded output accepted",
         check_step(step, 0, _fstat_output(step, counts, zeros), table, truths).failed == 0),
        ("count off by one rejected",
         check_step(step, 0, off_by_one, table, truths).failed == 1),
        ("count off by one rejected by the identity alone",
         check_step(step, 0, off_by_one, None, truths).failed == 1),
        ("nonzero ambiguous rejected",
         check_step(step, 0, _fstat_output(step, counts, [1] + zeros[1:]), table,
                    truths).failed == 1),
        ("failed child rejected",
         check_step(step, 1, "", table, truths).failed == len(step.cells)),
    ]


def smoke_cases(expected):
    cases = []
    for name, workload in WORKLOADS.items():
        work = WORK / f"smoke_{name}"
        work.mkdir(parents=True, exist_ok=True)
        tally = Tally()
        truths = identity_truths(workload, "smoke", 0, work)
        run_pass(workload.build("smoke", 0, work), work, expected[name], truths, tally)
        for problem in tally.problems:
            print(f"  {problem}")
        cases.append((f"smoke {name}: {tally.attempted} operations, "
                      f"{tally.failed} failed", tally.attempted > 0 and tally.failed == 0))
    return cases


def metric_cases():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e, layers = ([(m["name"], m["unit"]) for m in bench[key]]
                   for key in ("end_to_end", "per_layer"))
    return [("end-to-end metrics match BENCHMARK.json", e2e == list(END_TO_END)),
            ("per-layer metrics match BENCHMARK.json", layers == list(spans.PER_LAYER)),
            ("workloads match BENCHMARK.json",
             [w["name"] for w in bench["workloads"]] == list(WORKLOADS))]


def main():
    expected = load_expected()
    ok = True
    for label, passed in checker_cases(expected) + metric_cases() + smoke_cases(expected):
        print(f"{'ok  ' if passed else 'FAIL'} {label}")
        ok = ok and passed
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
