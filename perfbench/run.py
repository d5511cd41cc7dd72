#!/usr/bin/env python3
"""Benchmark of the circlecorr command line.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from a checkout of the repository; the program is imported from its
``src`` directory.  With ``--trace 0`` the workload's CLI steps run as
child processes, one after another (one client, closed loop), in passes
until ``--seconds`` is spent; the end-to-end metrics are printed.  With
``--trace 1`` one pass runs in this process under the tracer of
``spans.py`` and the per-layer metrics are printed.  ``--workload all``
prints the end-to-end table of every workload.  The last line of the
output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import spans
from workloads import IID_SEEDS, WORKLOADS, check_step, load_expected

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# a CLI process that starts, parses its arguments and does no real work
SETUP_ARGV = ("cf", "1/2", "--terms", "1")
SETUP_RUNS = 7
CHILD_TIMEOUT_S = 150

# (name, unit) of every end-to-end metric
END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_ops_share", "share"),
    ("unambiguous_cell_share", "share"),
)


class ChildTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise ChildTimeout(f"a CLI child ran longer than {CHILD_TIMEOUT_S} s")


def run_child(argv, out_path: Path, program=("-m", "circlecorr.cli")):
    """Run one CLI child to its end: (exit code, seconds from spawn to exit, maxrss KB).

    A child's ru_maxrss starts from its parent's memory high-water mark, so
    this process keeps numpy and circlecorr out of its own address space.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    with open(out_path, "w") as out, open(out_path.with_suffix(".err"), "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *program, *argv],
                                stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                env=env, cwd=out_path.parent)
        previous = signal.signal(signal.SIGALRM, _on_alarm)
        signal.alarm(CHILD_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, seconds, usage.ru_maxrss


def identity_truths(workload, scale: str, seed: int, work: Path):
    """The independent identities of a workload's cells, from a helper process."""
    out = work / "truths.json"
    code, _, _ = run_child((workload.name, scale, str(seed), str(work)), out,
                           program=(str(HERE / "workloads.py"),))
    if code != 0:
        raise RuntimeError(f"identity helper exited {code}: {out.with_suffix('.err').read_text()}")
    return json.loads(out.read_text())


@dataclass
class Tally:
    """Operations judged so far, and the problems found."""

    attempted: int = 0
    failed: int = 0
    cells: int = 0
    ambiguous: int = 0
    ambiguous_cells: int = 0
    problems: list = field(default_factory=list)

    def add(self, outcome):
        self.attempted += outcome.ops
        self.failed += outcome.failed
        self.cells += outcome.cells
        self.ambiguous += outcome.ambiguous
        self.ambiguous_cells += outcome.ambiguous_cells
        self.problems.extend(outcome.problems)


def run_pass(steps, work: Path, expected, truths, tally: Tally):
    """One pass of a workload as CLI children: (wall seconds, peak maxrss KB)."""
    wall, peak = 0.0, 0
    for i, step in enumerate(steps):
        out = work / f"step{i}.out"
        code, seconds, rss = run_child(step.argv, out)
        wall += seconds
        peak = max(peak, rss)
        tally.add(check_step(step, code, out.read_text(), expected, truths))
    return wall, peak


def measure(workload, seed: int, seconds: float, work: Path, expected):
    """Untraced run: set-up probes, then passes until the time is spent."""
    steps = workload.build("full", seed, work)
    truths = identity_truths(workload, "full", seed, work)
    setups, peak = [], 0
    for _ in range(SETUP_RUNS):
        code, secs, rss = run_child(SETUP_ARGV, work / "setup.out")
        if code != 0:
            raise RuntimeError(f"set-up probe {' '.join(SETUP_ARGV)} exited {code}")
        setups.append(secs)
        peak = max(peak, rss)
    tally, walls, elapsed = Tally(), [], []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start + statistics.median(elapsed) <= seconds:
        t0 = time.perf_counter()
        wall, rss = run_pass(steps, work, expected, truths, tally)
        elapsed.append(time.perf_counter() - t0)
        walls.append(wall)
        peak = max(peak, rss)
    metrics = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak / 1024,
        "ok_ops_share": 1 - tally.failed / tally.attempted,
        "unambiguous_cell_share": 1 - tally.ambiguous_cells / tally.cells if tally.cells else 1.0,
    }
    detail = {"passes": len(walls), "pass_walls_s": " ".join(f"{w:.4f}" for w in walls),
              "failed_ops": tally.failed / tally.attempted,
              "ambiguous_pairs": tally.ambiguous,
              # peak_rss_mb is a child's own only while it stays above this
              "parent_maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    return metrics, detail, tally


def traced(workload, seed: int, work: Path, expected):
    """One untraced pass for comparison, one traced pass in-process, then the replay."""
    steps = workload.build("full", seed, work)
    truths = identity_truths(workload, "full", seed, work)
    tally = Tally()
    untraced_wall, _ = run_pass(steps, work, expected, truths, tally)
    tracer = spans.Tracer(workload.name)
    with tracer.installed():
        outputs = spans.traced_pass(tracer, steps, work)
    for step, code, text in outputs:
        tally.add(check_step(step, code, text, expected, truths))
    mismatches = spans.replay(tracer, workload.per_point)
    replayed = len(tracer.calls["paircorr.f_stat"])
    tally.attempted += replayed
    tally.failed += len(mismatches)
    tally.problems.extend(mismatches)
    metrics = spans.layer_metrics(tracer.spans, spans.peak_mb(tracer), untraced_wall)
    path = work / f"spans_{workload.name}_seed{seed}.json"
    with open(path, "w") as fh:
        json.dump({"workload": workload.name, "seed": seed, "spans": tracer.spans}, fh)
    detail = {"replayed_cells": replayed, "spans": len(tracer.spans), "spans_file": str(path)}
    return metrics, detail, tally


# --- run record ---------------------------------------------------------------


def _read(path):
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def _version(dist):
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return None


def _git_sha():
    head = _read(ROOT / ".git" / "HEAD").strip()
    if not head.startswith("ref: "):
        return head or None
    ref = head[5:]
    sha = _read(ROOT / ".git" / ref).strip()
    if sha:
        return sha
    for line in _read(ROOT / ".git" / "packed-refs").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def _l3_bytes():
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        if _read(index / "level").strip() == "3":
            size = _read(index / "size").strip()
            scale = {"K": 1 << 10, "M": 1 << 20}.get(size[-1:], 1)
            return int(size.rstrip("KM")) * scale
    return None


def run_record(workload, seed: int, work: Path):
    cpu = next((line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
                if line.startswith("model name")), platform.processor())
    mem = next((int(line.split()[1]) * 1024 for line in _read("/proc/meminfo").splitlines()
                if line.startswith("MemTotal")), None)
    steps = workload.build("full", seed, work)
    ns = [n for step in steps for n, _, _ in step.cells]
    largest = max(ns, default=0)
    return {
        "nproc": os.cpu_count(), "cpu": cpu, "l3_bytes": _l3_bytes(), "mem_bytes": mem,
        "python": platform.python_version(), "numpy": _version("numpy"),
        "mpmath": _version("mpmath"), "git_sha": _git_sha(),
        "workload": workload.name, "seed": seed, "iid_seed": seed % IID_SEEDS,
        "cells": len(ns), "sum_n": sum(ns), "steps": len(steps),
        # a uint64 array of the largest N; below L3 no kernel time is a bandwidth figure
        "largest_n": largest, "largest_uint64_bytes": 8 * largest,
        "clients": 1, "loop": "closed",
    }


# --- entry point ----------------------------------------------------------------


def _fmt(name, value, unit):
    return f"  {name:44s} {value:>16.6f} {unit}"


def _result(tally, metrics, units):
    return {"correct": tally.failed == 0, "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units}}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "circlecorr" / "cli.py").is_file():
        print(f"error: no circlecorr sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    expected_all = load_expected()
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        workload = WORKLOADS[name]
        work = WORK / name
        work.mkdir(parents=True, exist_ok=True)
        expected = expected_all.get(name, {})
        print("record " + json.dumps(run_record(workload, args.seed, work)))
        if args.trace:
            metrics, detail, tally = traced(workload, args.seed, work, expected)
            units = spans.PER_LAYER
        else:
            metrics, detail, tally = measure(workload, args.seed, args.seconds, work, expected)
            units = END_TO_END
        print(f"{name}:")
        for metric, unit in units:
            print(_fmt(metric, metrics[metric], unit))
        for key, value in detail.items():
            print(f"  {key:44s} {value}")
        if args.trace:
            overhead = metrics["trace.wall_s"] - metrics["trace.untraced_wall_s"]
            print(f"  tracing overhead: traced {metrics['trace.wall_s']:.4f} s in-process "
                  f"against {metrics['trace.untraced_wall_s']:.4f} s untraced CLI "
                  f"children ({overhead:+.4f} s)")
        for problem in tally.problems[:20]:
            print(f"  FAILED {problem}")
        results[name] = _result(tally, metrics, units)
    if args.workload == "all":
        print(json.dumps(results))
        return 0 if all(r["correct"] for r in results.values()) else 1
    print(json.dumps(results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
