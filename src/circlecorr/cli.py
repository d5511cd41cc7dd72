"""Command-line front end.

Subcommands: gen (write points), fstat (F statistic sweeps), gaps
(three-gap census and prediction), cf (continued fraction expansion),
ostrowski (digit representations), verify (named check suites).
Exit codes: 0 success, 1 verification failure, 2 usage error, 141 when
the reader closes stdout early (as for a tool stopped by SIGPIPE).

Each subcommand imports only what it runs: fstat paircorr, gaps threegap,
cf and ostrowski cf, verify the suites, and the point-file forwarders pointio.
numpy runs only once points are built: never in fstat on a rotation or a
van der Corput sequence, cf, ostrowski or verify thm7.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import math
import os
import sys
from fractions import Fraction

from .numutil import _decimal_fraction
from .sequences import RationalBatch, SequenceSpec, generate, kronecker_orbit

DEFAULT_MAX_POINTS = 1 << 27
# the last golden convergent numerator F_(terms+1) keeps <= 4300 digits, the
# longest int Python prints by default
GOLDEN_MAX_TERMS = 20576
# the largest N whose pair counts, below N^2, keep within those 4300 digits
FSTAT_MAX_N = 10 ** 2150
# the keys of verify.SUITES, kept here so that parsing loads no suite
SUITE_NAMES = ("iid-mean", "lemma10", "lemma11", "lemma12", "lemma9", "oracle", "performance",
               "thm6", "thm7", "threegap")


class UsageError(Exception):
    pass


def _forward(module, name):
    def call(*args, **kwargs):
        return getattr(importlib.import_module(module, __package__), name)(*args, **kwargs)
    return call


# functions bound here (the bench tracer wraps them) that import their module on first call
format_point = _forward(".pointio", "format_point")
read_points_binary = _forward(".pointio", "read_points_binary")
read_points_csv = _forward(".pointio", "read_points_csv")
write_points_binary = _forward(".pointio", "write_points_binary")
write_points_csv = _forward(".pointio", "write_points_csv")
run_suite = _forward(".verify", "run_suite")


# --- argument plumbing -------------------------------------------------------


def _nonnegative(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


_FLAGS = {  # shared flags: each subcommand registers, by _flags, only those it reads
    "--precision": dict(type=int, choices=(64, 128), default=64, help="grid bits (default 64)"),
    "--out": dict(metavar="PATH", help="output path (default stdout)"),
    "--format": dict(choices=("csv", "text"), default="csv", help="report format"),
    "--max-points": dict(type=_nonnegative, default=DEFAULT_MAX_POINTS, metavar="CAP",
                         help="refuse point counts beyond CAP"),
}


def _flags(parser, *names):
    for name in names:
        parser.add_argument(name, **_FLAGS[name])


def _sequence_flags(parser):
    parser.add_argument("--seq", choices=("vdc", "kronecker", "sqrt_frac", "iid"),
                        default="kronecker", help="point family")
    parser.add_argument("--base", type=int, default=2, help="vdc base")
    parser.add_argument("--z", default="golden",
                        help="rotation: 'golden', p/q, or a long decimal")
    parser.add_argument("--seed", type=int, default=0, help="iid seed")
    parser.add_argument("--skip-zero", action="store_true",
                        help="start vdc at n=1 instead of n=0")


def _fraction(text) -> Fraction:
    """p/q, or a decimal, as a Fraction; a zero denominator is a usage error."""
    try:
        return _decimal_fraction(text)
    except ZeroDivisionError:
        raise UsageError(f"{text!r} has a zero denominator") from None


def _parse_z(text):
    if text == "golden":
        return "golden"
    if "/" in text:
        return _fraction(text)
    return text  # decimal literal; resolve_z validates digit count


def _spec_from_args(args) -> SequenceSpec:
    return SequenceSpec(args.seq, base=args.base, include_zero=not args.skip_zero,
                        z_spec=_parse_z(args.z), seed=args.seed,
                        precision=args.precision)


def _spec_label(spec: SequenceSpec) -> str:
    if spec.kind == "vdc":
        return f"b={spec.base};zero={int(spec.include_zero)}"
    if spec.kind == "kronecker":
        return f"z={spec.z_spec}"
    if spec.kind == "iid":
        return f"seed={spec.seed}"
    return ""


def _check_cap(n, cap):
    if n > cap:
        raise UsageError(f"{n} points exceeds the cap {cap}; raise --max-points")


@contextlib.contextmanager
def _open_out(args):
    if not args.out:
        yield sys.stdout
        return
    with open(args.out, "w", newline="") as stream:
        yield stream


def _parse_list(text, conv):
    return [conv(part) for part in text.split(",") if part]


def _exact(text) -> Fraction:
    """An --alpha or --s item as the exact value of its decimal text: 0.9 is 9/10."""
    if not math.isfinite(float(text)):  # F is a float
        raise UsageError("--alpha and --s values must be finite")
    return _decimal_fraction(text)


# --- subcommands -------------------------------------------------------------


def cmd_gen(args):
    _check_cap(args.n, args.max_points)
    batch = generate(_spec_from_args(args), args.n)
    if isinstance(batch, RationalBatch):  # exact vdc points, written on the --precision grid
        batch = batch.to_fixed(args.precision)
    if args.binary:
        path = args.out
        if not path:
            raise UsageError("--binary requires --out")
        with open(path, "wb") as stream:
            write_points_binary(batch, stream)
        return 0
    with _open_out(args) as stream:
        write_points_csv(batch, stream)
    return 0


def cmd_fstat(args):
    from .paircorr import f_stat_profile
    alphas, svals = _parse_list(args.alpha, _exact), _parse_list(args.s, _exact)
    n_list = sorted(_parse_list(args.n, int))
    if not (alphas and svals and n_list):
        raise UsageError("need non-empty --n, --alpha and --s lists")
    if n_list[-1] > FSTAT_MAX_N:
        raise UsageError("N above 10^2150 has pair counts longer than the 4300 digits "
                         "Python prints")
    if args.points or args.seq not in ("kronecker", "vdc"):  # both are counted with no points
        _check_cap(n_list[-1], args.max_points)
    if args.points:
        binary = args.points_format == "binary"
        with open(args.points, "rb" if binary else "r") as stream:
            batch = (read_points_binary if binary else read_points_csv)(stream, args.precision)
        over = [n for n in n_list if n > len(batch)]
        if over:
            raise UsageError(f"file holds {len(batch)} points, N={over[0]} requested")
        label, params = "file", args.points
    else:
        spec = _spec_from_args(args)
        batch = generate(spec, n_list[-1])
        label, params = spec.kind, _spec_label(spec)
    results = f_stat_profile(batch, n_list, alphas, svals)
    with _open_out(args) as stream:
        if args.format == "csv":
            stream.write("sequence,params,N,alpha,s,threshold,count,F,"
                         "abs_err_vs_2s,ambiguous\n")
            for r in results:
                thr = float(r.threshold.distance)
                stream.write(f"{label},{params},{r.n},{r.alpha:.17g},{r.s:.17g},"
                             f"{thr:.17g},{r.ordered_pair_count},{r.f_value:.17g},"
                             f"{abs(r.f_value - 2 * r.s):.17g},{r.ambiguous_pairs}\n")
        else:
            for r in results:
                stream.write(f"N={r.n} alpha={r.alpha} s={r.s}: "
                             f"count={r.ordered_pair_count} F={r.f_value:.6f} "
                             f"ambiguous={r.ambiguous_pairs}\n")
    for r in results:
        if r.ambiguous_pairs:  # the points' own error puts pairs on both sides of the threshold
            print(f"warning: N={r.n} alpha={r.alpha} s={r.s}: the count is certain only to within "
                  f"{r.ambiguous_pairs} pairs; --precision 128 narrows that", file=sys.stderr)
    return 0


def cmd_gaps(args):
    from .threegap import gap_census, predict_gaps
    _check_cap(args.n, args.max_points)
    z = _parse_z(args.z)
    orbit = kronecker_orbit(z, args.n, precision=args.precision)
    census = gap_census(orbit)
    pred = predict_gaps(z, args.n, precision=args.precision)
    with _open_out(args) as stream:
        if args.format == "csv":
            stream.write("length_decimal,length_raw_units,multiplicity\n")
            for length, mult in census.entries:
                stream.write(f"{format_point(length, args.precision)},{length},{mult}\n")
            stream.write("\npredicted_length_decimal,predicted_length_raw_units,label\n")
            for label, length in zip(("L1", "L2", "L3"), pred.lengths):
                stream.write(f"{format_point(length, args.precision)},{length},{label}\n")
        else:
            stream.write(f"census of {{n z}}, n = 1..{args.n} (z = {args.z}):\n")
            for length, mult in census.entries:
                stream.write(f"  length {format_point(length, args.precision)} "
                             f"({length} raw) x {mult}\n")
            stream.write(f"predicted L1={pred.l1} L2={pred.l2} L3={pred.l3} "
                         f"(k={pred.k}, m={pred.m}, r={pred.r})\n")
    return 0


def cmd_cf(args):
    from . import cf as cfmod
    if args.value == "golden":
        if args.terms > GOLDEN_MAX_TERMS:
            raise UsageError(f"cf golden prints at most {GOLDEN_MAX_TERMS} terms: the "
                             "convergents of more exceed Python's 4300-digit int limit")
        cf = cfmod.golden_cf(args.terms)
    else:
        cf = cfmod.cf_expand(_fraction(args.value), max_terms=args.terms)
    with _open_out(args) as stream:
        if args.format == "csv":
            stream.write("i,a_i,p_i,q_i\n")
            for i, (a, (p, q)) in enumerate(zip(cf.quotients, cf.convergents())):
                stream.write(f"{i},{a},{p},{q}\n")
        else:
            stream.write(str(cf) + ("\n" if cf.exact else "  (truncated)\n"))
            for i, (p, q) in enumerate(cf.convergents()):
                stream.write(f"  p_{i}/q_{i} = {p}/{q}\n")
    return 0


def cmd_ostrowski(args):
    from . import cf as cfmod
    if args.z == "golden":
        rep = cfmod.golden_ostrowski(args.n)
    else:
        rep = cfmod.ostrowski(args.n, cfmod.cf_expand(_fraction(args.z)))
    with _open_out(args) as stream:
        if args.format == "csv":
            stream.write("index,digit,weight\n")
            for j in range(len(rep.coeffs)):
                stream.write(f"{rep.indices[j]},{rep.coeffs[j]},{rep.weights[j]}\n")
        else:
            terms = " + ".join(f"{rep.coeffs[j]}*{rep.weights[j]}"
                               for j in reversed(range(len(rep.coeffs))) if rep.coeffs[j])
            stream.write(f"{args.n} = {terms}  (digits {rep})\n")
    return 0


def cmd_verify(args):
    failures = 0
    names = SUITE_NAMES if args.suite == "all" else [args.suite]
    with _open_out(args) as stream:
        for name in names:
            report = run_suite(name)
            stream.write("\n".join(report.lines()) + "\n")
            failures += not report.passed
    return 1 if failures else 0


# --- entry point -------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="circlecorr",
        description="pair correlations, gap structure and number-theoretic "
                    "tools for sequences on the unit circle")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="write points of a sequence")
    _flags(p, "--precision", "--out", "--max-points")
    _sequence_flags(p)
    p.add_argument("--n", type=int, required=True, help="number of points")
    p.add_argument("--binary", action="store_true",
                   help="raw little-endian fixed-point integers instead of CSV")
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("fstat", help="pair correlation statistic sweep")
    _flags(p, "--precision", "--out", "--format", "--max-points")
    _sequence_flags(p)
    p.add_argument("--n", required=True, help="comma-separated N list")
    p.add_argument("--alpha", default="1", help="comma-separated alpha list (exact decimals)")
    p.add_argument("--s", default="1", help="comma-separated s list (exact decimals)")
    p.add_argument("--points", metavar="FILE",
                   help="read points from a file written by gen")
    p.add_argument("--points-format", choices=("csv", "binary"), default="csv")
    p.set_defaults(fn=cmd_fstat)

    p = sub.add_parser("gaps", help="gap census and three-gap prediction")
    _flags(p, "--precision", "--out", "--format", "--max-points")
    p.add_argument("--z", default="golden", help="rotation number")
    p.add_argument("--n", type=int, required=True, help="orbit length")
    p.set_defaults(fn=cmd_gaps)

    p = sub.add_parser("cf", help="continued fraction expansion")
    _flags(p, "--out", "--format")
    p.add_argument("value", help="'golden', p/q, integer, or decimal")
    p.add_argument("--terms", type=int, default=32, help="maximum quotients")
    p.set_defaults(fn=cmd_cf)

    p = sub.add_parser("ostrowski", help="digit representation of an integer")
    _flags(p, "--out", "--format")
    p.add_argument("n", type=int, help="integer to expand")
    p.add_argument("--z", default="golden", help="rotation defining the ladder")
    p.set_defaults(fn=cmd_ostrowski)

    p = sub.add_parser("verify", help="run a named verification suite")
    _flags(p, "--out")
    p.add_argument("suite", choices=[*SUITE_NAMES, "all"])
    p.set_defaults(fn=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except BrokenPipeError:  # the reader closed stdout: stop quietly, as on SIGPIPE
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # for the exit flush
        return 141
    except (UsageError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory; lower --n, or --max-points to refuse such N", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
