"""The benchmark's four workloads and the checks on every operation.

Each workload is a list of CLI steps, run one after another (a closed
loop with a single client).  An operation is one fstat cell, one gen
step or one verify suite; ``check_step`` decides, for each operation,
whether the program's output is correct.

Sizes are scaled down from the paper's N = 10^7 so that one pass of a
workload takes a few seconds and a 30-second run holds several passes.
"""

from __future__ import annotations

import csv
import io
import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

EXPECTED_PATH = Path(__file__).with_name("expected.json")

# --seed n gives the i.i.d. points of seed n % IID_SEEDS; expected.json
# holds the counts recorded at the seed commit for every one of them
IID_SEEDS = 16

THM6_ALPHAS = ("0.25", "0.5", "0.75")
THM6_S = ("0.5", "1", "2")


@dataclass(frozen=True)
class Step:
    """One CLI child process and what its output must hold."""

    key: str                      # names the step's counts in expected.json
    kind: str                     # fstat | gen | verify
    argv: tuple                   # arguments after the program name
    cells: tuple = ()             # fstat: (N, alpha, s) per output row, in order
    points: int = 0               # gen: number of points the file must hold
    out: Optional[Path] = None    # gen: the point file
    width: int = 0                # gen: bytes per point of a binary file (0: CSV)
    identity: str = ""            # fstat: independent check, diffsum | thm6 | roundtrip
    seed: int = 0                 # the i.i.d. seed of the points


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable               # (scale, seed, work dir) -> list of Step
    per_point: bool = False       # the traced run also replays per_point_counts


def _fstat(key, ns, alphas, svals, *args, identity="", seed=0):
    # the CLI sorts the N list and loops N, then alpha, then s
    cells = tuple((n, a, s) for n in sorted(ns) for a in alphas for s in svals)
    argv = ("fstat", *args, "--n", ",".join(map(str, ns)),
            "--alpha", ",".join(alphas), "--s", ",".join(svals))
    return Step(key, "fstat", argv, cells=cells, identity=identity, seed=seed)


# --- independent identities ---------------------------------------------------


def rotation_count(n: int, alpha: str, s: str) -> int:
    """Ordered count of the golden orbit by the difference sum, O(N), no sort.

    x_n = n z mod 2^64 is a homomorphism, so ||x_i - x_j|| = ||(i-j) z||
    and the count is 2 * sum_{d=1}^{N-1} (N - d) [||d z|| <= t].
    """
    import numpy as np
    from circlecorr.numutil import threshold_from
    from circlecorr.sequences import resolve_z
    t = threshold_from(float(s), n, float(alpha)).distance.value
    d = np.arange(1, n, dtype=np.uint64)
    x = d * np.uint64(resolve_z("golden"))          # wraps mod 2^64
    near = np.minimum(x, np.uint64(0) - x) <= np.uint64(t)
    return 2 * int((np.uint64(n) - d[near]).sum())


def thm6_bracket(n, alpha, s, count):
    """2s - 2N^(alpha-1) <= F <= 2s at N = b^k, by exact integer comparison.

    With alpha = p/q and 2s = a/b the bounds read
    (count b)^q <= a^q N^(2q-p) <= ((count + 2N) b)^q.
    """
    al, two_s = Fraction(alpha), 2 * Fraction(s)
    p, q = al.numerator, al.denominator
    a, b = two_s.numerator, two_s.denominator
    target = a ** q * n ** (2 * q - p)
    return (count * b) ** q <= target <= ((count + 2 * n) * b) ** q


def generated_count(seed: int, n: int, alpha: str, s: str) -> int:
    """Count of the i.i.d. batch generated in-process, not read from a file."""
    from circlecorr import SequenceSpec, f_stat, generate
    batch = generate(SequenceSpec("iid", seed=seed), n)
    return f_stat(batch, float(s), float(alpha)).ordered_pair_count


def identity_truths(steps):
    """The count each cell must have by an independent route (None: no route).

    diffsum applies to every cell; roundtrip to the first (smallest) N only.
    This imports numpy and circlecorr, which would raise the measuring
    process's memory high-water mark, and a child's ru_maxrss starts from
    its parent's; so run.py calls it in a helper process.
    """
    truths = {}
    for step in steps:
        if step.identity == "diffsum":
            truths[step.key] = [rotation_count(*cell) for cell in step.cells]
        elif step.identity == "roundtrip":
            truths[step.key] = [generated_count(step.seed, *step.cells[0])]
    return truths


# --- workloads ----------------------------------------------------------------


def rotation_sweep(scale, seed, work):
    """Golden Kronecker fstat: loads the count kernel, the two guard-band
    recounts and the per-cell sort; ROADMAP items 2, 3 (sort once) and 4(b)
    should move it, item 5 should not.  The paper's headline N = 10^7 is
    scaled to 3 * 10^6 so that a 30-second run holds several passes."""
    ns = (10 ** 5, 10 ** 6, 3 * 10 ** 6) if scale == "full" else (10 ** 3, 10 ** 4)
    return [_fstat(f"{scale}/golden", ns, ("0.5", "0.9"), ("1",),
                   "--seq", "kronecker", "--z", "golden", identity="diffsum")]


def vdc_exact(scale, seed, work):
    """The thm6 grid of van der Corput points plus one decimal-alpha cell:
    loads Python-object generation, the list-to-uint64 conversion of every
    cell and the exact-threshold search; items 3 and 5 should move it,
    items 2 and 4 bypass it and should not."""
    if scale == "full":
        grid = {2: (2 ** 14, 2 ** 16), 3: (3 ** 8, 3 ** 10), 10: (10 ** 3, 10 ** 4, 10 ** 5)}
        decimal_n = 10 ** 4
    else:
        grid = {2: (2 ** 9, 2 ** 10), 3: (3 ** 6, 3 ** 7), 10: (10 ** 3,)}
        decimal_n = 10 ** 3
    steps = [_fstat(f"{scale}/base{b}", ns, THM6_ALPHAS, THM6_S,
                    "--seq", "vdc", "--base", str(b), identity="thm6")
             for b, ns in grid.items()]
    # a decimal alpha makes the exact threshold search raise to the 10^5th power
    steps.append(_fstat(f"{scale}/base10_decimal_alpha", (decimal_n,), ("0.33333",),
                        ("1",), "--seq", "vdc", "--base", "10"))
    return steps


def iid_files(scale, seed, work):
    """Seeded i.i.d. points written by gen and read back by fstat --points,
    as CSV at P = 64 and binary at P = 128: the only load on cli
    serialization and on the pure-Python P = 128 bisect fallback; items 2
    and 5 should move it, the rotation-only item 4 should not."""
    k = seed % IID_SEEDS
    if scale == "full":
        csv_ns, bin_ns = (10 ** 5, 2 * 10 ** 5), (5 * 10 ** 4, 10 ** 5)
    else:
        csv_ns, bin_ns = (10 ** 3, 2 * 10 ** 3), (500, 10 ** 3)
    # children run in the work dir; a bare file name keeps the checkout's
    # path, which may hold a comma, out of fstat's CSV report
    csv_path, bin_path = work / "iid64.csv", work / "iid128.bin"
    return [
        Step(f"{scale}/seed{k}/gen_csv", "gen",
             ("gen", "--seq", "iid", "--seed", str(k), "--n", str(csv_ns[-1]),
              "--out", csv_path.name), points=csv_ns[-1], out=csv_path),
        _fstat(f"{scale}/seed{k}/fstat_csv", csv_ns, ("0.5",), ("1",),
               "--points", csv_path.name, identity="roundtrip", seed=k),
        Step(f"{scale}/seed{k}/gen_bin128", "gen",
             ("gen", "--seq", "iid", "--seed", str(k), "--precision", "128",
              "--n", str(bin_ns[-1]), "--binary", "--out", bin_path.name),
             points=bin_ns[-1], out=bin_path, width=16),
        _fstat(f"{scale}/seed{k}/fstat_bin128", bin_ns, ("0.5",), ("1",),
               "--precision", "128", "--points", bin_path.name,
               "--points-format", "binary"),
    ]


def verify_suites(scale, seed, work):
    """verify oracle, thm7 and threegap: many small and medium calls into the
    naive oracle, f_stat, gap census and prediction, so per-call overhead
    shows; the only workload where threegap does real work.  The suites have
    fixed sizes, so the smoke scale runs them whole."""
    return [Step(f"{scale}/{name}", "verify", ("verify", name))
            for name in ("oracle", "thm7", "threegap")]


WORKLOADS = {w.name: w for w in (
    Workload("rotation_sweep", rotation_sweep, per_point=True),
    Workload("vdc_exact", vdc_exact),
    Workload("iid_files", iid_files),
    Workload("verify_suites", verify_suites),
)}


# --- checks -------------------------------------------------------------------


@dataclass
class StepOutcome:
    ops: int = 0
    failed: int = 0
    cells: int = 0
    ambiguous: int = 0          # sum of the ambiguous column
    ambiguous_cells: int = 0    # cells with a nonzero ambiguous value
    counts: tuple = ()          # fstat counts in row order, for recording
    problems: tuple = ()


def load_expected():
    with open(EXPECTED_PATH) as fh:
        return json.load(fh)


def parse_fstat(text: str):
    """(N, count, ambiguous) per row of fstat's CSV report."""
    return [(int(r["N"]), int(r["count"]), int(r["ambiguous"]))
            for r in csv.DictReader(io.StringIO(text))]


def check_step(step: Step, returncode: int, stdout: str, expected, truths) -> StepOutcome:
    """Judge every operation of one finished step.

    ``expected`` maps step keys to recorded counts; None skips that
    comparison (used only while recording them).  ``truths`` is what
    ``identity_truths`` returns for the workload.
    """
    if step.kind == "gen":
        ok = returncode == 0 and _points_in(step) == step.points
        return StepOutcome(1, int(not ok), problems=() if ok else (f"{step.key}: bad point file",))
    if step.kind == "verify":
        lines = stdout.splitlines()
        ok = returncode == 0 and bool(lines) and "PASS" in lines[0] and "FAIL" not in stdout
        return StepOutcome(1, int(not ok), problems=() if ok else (f"{step.key}: suite failed",))
    try:
        rows = parse_fstat(stdout) if returncode == 0 else []
    except (KeyError, ValueError):
        rows = []
    # a step with no recorded counts fails every cell
    want = None if expected is None else expected.get(step.key, [])
    truth = truths.get(step.key, [])
    out = StepOutcome(ops=len(step.cells), cells=len(rows),
                      counts=tuple(count for _, count, _ in rows))
    problems = []
    for i, (n, alpha, s) in enumerate(step.cells):
        if i >= len(rows):
            problems.append(f"{step.key} N={n} alpha={alpha} s={s}: no output row")
            continue
        row_n, count, ambiguous = rows[i]
        out.ambiguous += ambiguous
        out.ambiguous_cells += ambiguous != 0
        if row_n != n:
            problems.append(f"{step.key} row {i}: N={row_n}, expected {n}")
        elif want is not None and (i >= len(want) or count != want[i]):
            problems.append(f"{step.key} N={n} alpha={alpha} s={s}: count {count} "
                            f"differs from the recorded count")
        elif ambiguous:
            problems.append(f"{step.key} N={n} alpha={alpha} s={s}: {ambiguous} ambiguous")
        elif step.identity == "thm6" and not thm6_bracket(n, alpha, s, count) \
                or i < len(truth) and count != truth[i]:
            problems.append(f"{step.key} N={n} alpha={alpha} s={s}: {step.identity} "
                            f"identity fails")
    # at most one problem per cell
    out.failed = len(problems)
    out.problems = tuple(problems)
    return out


def _points_in(step: Step) -> int:
    if not step.out.is_file():
        return -1
    if step.width:
        size = step.out.stat().st_size
        return size // step.width if size % step.width == 0 else -1
    with open(step.out) as fh:
        return sum(1 for _ in fh) - 1   # minus the header line


if __name__ == "__main__":
    # helper process: python3 workloads.py WORKLOAD SCALE SEED WORKDIR
    name, scale, seed, work = sys.argv[1:]
    print(json.dumps(identity_truths(WORKLOADS[name].build(scale, int(seed), Path(work)))))
