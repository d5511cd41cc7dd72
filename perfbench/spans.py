"""In-process traced replay of one workload.

The tracer wraps the public functions of the circlecorr layers in every
module namespace that binds them, runs the workload's CLI steps through
``cli.main`` in this process, and records one span per call: name,
start, end, parent and workload.  Spans stay in memory and are written
out as JSON when the run ends.  Per-layer metrics are derived from them.

After the traced pass, every f_stat cell is replayed as sorted_raw, then
threshold_from, then pair_count_fast, and the replayed count must equal
f_stat's.  An exact van der Corput batch lives on the grid 1/b^k, not
1/2^P, so its replay takes the exact threshold numerator from
``exact_numerator`` instead of threshold_from.  Peak memory comes from tracemalloc around a second call of the
largest generate and pair_count_fast calls, so the timed pass runs
without tracemalloc.
"""

from __future__ import annotations

import contextlib
import importlib
import os
import time
import tracemalloc
from collections import defaultdict
from fractions import Fraction

MODULES = ("cf", "cli", "numutil", "paircorr", "sequences", "threegap", "verify")

# (name, unit) of every per-layer metric, in report order
PER_LAYER = (
    ("sequences.generate.s", "s"),
    ("sequences.generate.ns_per_point", "ns"),
    ("paircorr.sorted_raw.s", "s"),
    ("paircorr.sorted_raw.ns_per_point", "ns"),
    ("paircorr.pair_count_fast.p64.s", "s"),
    ("paircorr.pair_count_fast.p64.ns_per_point", "ns"),
    ("paircorr.pair_count_fast.p128.s", "s"),
    ("paircorr.pair_count_fast.p128.ns_per_point", "ns"),
    ("paircorr.guard_recount.s", "s"),
    ("paircorr.f_stat.s", "s"),
    ("paircorr.f_stat.unattributed_s", "s"),
    ("paircorr.per_point_counts.s", "s"),
    ("paircorr.pair_count_naive.s", "s"),
    ("numutil.threshold_from.s", "s"),
    ("numutil.threshold_from.calls", "count"),
    ("threegap.gap_census.s", "s"),
    ("threegap.predict_gaps.s", "s"),
    ("cf.cf_expand.s", "s"),
    ("cli.write_points_csv.s", "s"),
    ("cli.read_points_csv.s", "s"),
    ("cli.write_points_binary.s", "s"),
    ("cli.read_points_binary.s", "s"),
    ("verify.oracle.s", "s"),
    ("verify.thm7.s", "s"),
    ("verify.threegap.s", "s"),
    ("sequences.generate.peak_mb", "MB"),
    ("paircorr.pair_count_fast.peak_mb", "MB"),
    ("trace.wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
)


def _size(args, kwargs):
    return {"size": len(args[0])}


def _generate(args, kwargs):
    return {"size": args[1]}


def _pair_count(args, kwargs):
    points = kwargs.get("presorted")
    if points is None:
        points = args[0]
    modulus = args[2] if len(args) > 2 else kwargs.get("modulus")
    if modulus is None:  # a batch: FixedBatch has a modulus, RationalBatch a denominator
        modulus = getattr(points, "modulus", None) or points.denominator
    # moduli the uint64 sweep cannot hold take the pure-Python bisect path
    kernel = "p128" if modulus > 1 << 63 and modulus != 1 << 64 else "p64"
    return {"size": len(points), "kernel": kernel}


def _suite(args, kwargs):
    return {"suite": args[0]}


def _nothing(args, kwargs):
    return {}


# (module, function, attributes recorded per call, which calls to keep)
LAYERS = (
    ("sequences", "generate", _generate, "largest"),
    ("paircorr", "sorted_raw", _size, None),
    ("paircorr", "pair_count_fast", _pair_count, "largest"),
    ("paircorr", "f_stat", _size, "all"),
    ("paircorr", "pair_count_naive", _size, None),
    ("numutil", "threshold_from", _nothing, None),
    ("threegap", "gap_census", _size, None),
    ("threegap", "predict_gaps", _nothing, None),
    ("cf", "cf_expand", _nothing, None),
    ("cli", "write_points_csv", _nothing, None),
    ("cli", "read_points_csv", _nothing, None),
    ("cli", "write_points_binary", _nothing, None),
    ("cli", "read_points_binary", _nothing, None),
    ("verify", "run_suite", _suite, None),
)


class Tracer:
    """Spans of one workload, kept in memory, plus the calls kept for replay."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans = []
        self._open = []       # indices of the spans still running, innermost last
        self.calls = defaultdict(list)   # name -> [(args, kwargs, result)]
        self.largest = {}                # name -> (size, args, kwargs)

    @contextlib.contextmanager
    def span(self, name, **attrs):
        span = {"name": name, "start": time.perf_counter(), "end": None,
                "parent": self._open[-1] if self._open else None,
                "workload": self.workload, **attrs}
        self.spans.append(span)
        self._open.append(len(self.spans) - 1)
        try:
            yield span
        finally:
            span["end"] = time.perf_counter()
            self._open.pop()

    def wrap(self, name, fn, describe, keep):
        def traced(*args, **kwargs):
            attrs = describe(args, kwargs)
            with self.span(name, **attrs):
                result = fn(*args, **kwargs)
            if keep == "all":
                self.calls[name].append((args, kwargs, result))
            elif keep == "largest" and attrs["size"] > self.largest.get(name, (-1,))[0]:
                self.largest[name] = (attrs["size"], args, kwargs)
            return result
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Replace each layer function by its traced wrapper wherever it is bound."""
        modules = [importlib.import_module("circlecorr")]
        modules += [importlib.import_module(f"circlecorr.{m}") for m in MODULES]
        undo = []
        try:
            for module, attr, describe, keep in LAYERS:
                fn = getattr(importlib.import_module(f"circlecorr.{module}"), attr)
                wrapper = self.wrap(f"{module}.{attr}", fn, describe, keep)
                for mod in modules:
                    for name, value in list(vars(mod).items()):
                        if value is fn:
                            setattr(mod, name, wrapper)
                            undo.append((mod, name, fn))
            yield self
        finally:
            for mod, name, fn in undo:
                setattr(mod, name, fn)


def traced_pass(tracer: Tracer, steps, work):
    """Run each step through cli.main in this process; (step, exit code, stdout)."""
    from circlecorr import cli
    outputs = []
    cwd = os.getcwd()
    os.chdir(work)  # where the CLI children run, for relative point files
    try:
        for i, step in enumerate(steps):
            path = work / f"traced{i}.out"
            with open(path, "w") as out, contextlib.redirect_stdout(out), \
                    tracer.span("cli.main", argv=" ".join(step.argv)):
                try:
                    code = cli.main(list(step.argv))
                except SystemExit as exc:  # argparse rejects its arguments
                    code = exc.code if isinstance(exc.code, int) else 2
            outputs.append((step, code, path.read_text()))
    finally:
        os.chdir(cwd)
    return outputs


def _exact(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(str(x))


def exact_numerator(s, n: int, alpha, den: int) -> int:
    """Largest d with d/den <= s/N^alpha: an mpmath estimate settled by exact powers."""
    import mpmath
    s, alpha = _exact(s), _exact(alpha)
    p, q = alpha.numerator, alpha.denominator
    lhs = n ** p * s.denominator ** q
    rhs = s.numerator ** q * den ** q

    def ok(d):
        return d ** q * lhs <= rhs

    with mpmath.workdps(60):
        d = int(mpmath.floor(mpmath.mpf(s.numerator) / s.denominator * den
                             / mpmath.power(n, mpmath.mpf(p) / q)))
    while d > 0 and not ok(d):
        d -= 1
    while ok(d + 1):
        d += 1
    return d


def replay(tracer: Tracer, per_point: bool):
    """Recount every traced f_stat cell from its parts; the cells that disagree."""
    from circlecorr.numutil import threshold_from
    from circlecorr.paircorr import pair_count_fast, per_point_counts, sorted_raw
    from circlecorr.sequences import RationalBatch
    mismatches = []
    for args, kwargs, result in tracer.calls["paircorr.f_stat"]:
        points, s, alpha = args[:3]
        n = len(points)
        with tracer.span("replay.cell", size=n):
            a, modulus = sorted_raw(points)
            if isinstance(points, RationalBatch):
                t = min(exact_numerator(s, n, alpha, modulus), modulus // 2)
            else:
                t = threshold_from(s, n, alpha, precision=points.precision).distance.value
            count = pair_count_fast(a, t, modulus, presorted=a)
            if per_point:
                with tracer.span("paircorr.per_point_counts", size=n):
                    shares = per_point_counts(a, t, modulus)
                if int(shares.sum()) != count:
                    mismatches.append(f"N={n} alpha={alpha} s={s}: per-point sum differs")
        if count != result.ordered_pair_count:
            mismatches.append(f"N={n} alpha={alpha} s={s}: replayed {count}, "
                              f"f_stat {result.ordered_pair_count}")
    return mismatches


def peak_mb(tracer: Tracer):
    """tracemalloc peak of the largest generate and pair_count_fast calls, in MB."""
    from circlecorr.paircorr import pair_count_fast
    from circlecorr.sequences import generate
    peaks = {}
    for name, fn in (("sequences.generate", generate),
                     ("paircorr.pair_count_fast", pair_count_fast)):
        peaks[name] = 0.0
        if name not in tracer.largest:
            continue
        _, args, kwargs = tracer.largest[name]
        tracemalloc.start()
        try:
            fn(*args, **kwargs)
            peaks[name] = tracemalloc.get_traced_memory()[1] / 2 ** 20
        finally:
            tracemalloc.stop()
    return peaks


def layer_metrics(spans, peaks, untraced_wall):
    """Per-layer metrics from one workload's spans, as {name: value}."""
    by_name = defaultdict(list)
    child_time = defaultdict(float)
    pair_counts_in = defaultdict(int)    # f_stat span index -> pair_count_fast children seen
    for i, sp in enumerate(spans):
        sp["guard"] = False
        parent = sp["parent"]
        if parent is not None:
            child_time[parent] += sp["end"] - sp["start"]
            if sp["name"] == "paircorr.pair_count_fast" \
                    and spans[parent]["name"] == "paircorr.f_stat":
                pair_counts_in[parent] += 1
                # f_stat counts at t first, then recounts at t + g and t - g - 1
                sp["guard"] = pair_counts_in[parent] > 1
        by_name[sp["name"]].append(sp)

    def seconds(sel):
        return sum((sp["end"] - sp["start"] for sp in sel), 0.0)

    def ns_per_point(sel):
        points = sum(sp["size"] for sp in sel)
        return seconds(sel) / points * 1e9 if points else 0.0

    counts = by_name["paircorr.pair_count_fast"]
    p64 = [sp for sp in counts if not sp["guard"] and sp["kernel"] == "p64"]
    p128 = [sp for sp in counts if not sp["guard"] and sp["kernel"] == "p128"]
    f_stats = [i for i, sp in enumerate(spans) if sp["name"] == "paircorr.f_stat"]
    suites = defaultdict(float)
    for sp in by_name["verify.run_suite"]:
        suites[sp["suite"]] += sp["end"] - sp["start"]
    m = {
        "sequences.generate.s": seconds(by_name["sequences.generate"]),
        "sequences.generate.ns_per_point": ns_per_point(by_name["sequences.generate"]),
        "paircorr.sorted_raw.s": seconds(by_name["paircorr.sorted_raw"]),
        "paircorr.sorted_raw.ns_per_point": ns_per_point(by_name["paircorr.sorted_raw"]),
        "paircorr.pair_count_fast.p64.s": seconds(p64),
        "paircorr.pair_count_fast.p64.ns_per_point": ns_per_point(p64),
        "paircorr.pair_count_fast.p128.s": seconds(p128),
        "paircorr.pair_count_fast.p128.ns_per_point": ns_per_point(p128),
        "paircorr.guard_recount.s": seconds(sp for sp in counts if sp["guard"]),
        "paircorr.f_stat.s": seconds(spans[i] for i in f_stats),
        "paircorr.f_stat.unattributed_s": sum(
            spans[i]["end"] - spans[i]["start"] - child_time[i] for i in f_stats),
        "paircorr.per_point_counts.s": seconds(by_name["paircorr.per_point_counts"]),
        "paircorr.pair_count_naive.s": seconds(by_name["paircorr.pair_count_naive"]),
        "numutil.threshold_from.s": seconds(by_name["numutil.threshold_from"]),
        "numutil.threshold_from.calls": len(by_name["numutil.threshold_from"]),
        "threegap.gap_census.s": seconds(by_name["threegap.gap_census"]),
        "threegap.predict_gaps.s": seconds(by_name["threegap.predict_gaps"]),
        "cf.cf_expand.s": seconds(by_name["cf.cf_expand"]),
        "sequences.generate.peak_mb": peaks["sequences.generate"],
        "paircorr.pair_count_fast.peak_mb": peaks["paircorr.pair_count_fast"],
        "trace.wall_s": seconds(by_name["cli.main"]),
        "trace.untraced_wall_s": untraced_wall,
    }
    for fn in ("write_points_csv", "read_points_csv", "write_points_binary", "read_points_binary"):
        m[f"cli.{fn}.s"] = seconds(by_name[f"cli.{fn}"])
    for suite in ("oracle", "thm7", "threegap"):
        m[f"verify.{suite}.s"] = suites[suite]
    return m
