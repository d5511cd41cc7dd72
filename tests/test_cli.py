import hashlib
import io
import math
import random
import shlex
import subprocess
import sys
import time
import tracemalloc
from decimal import Context, Decimal
from fractions import Fraction
from pathlib import Path

import pytest

from circlecorr import cli, pointio, sequences
from circlecorr.cf import fibonacci, golden_cf
from circlecorr.cli import main
from circlecorr.numutil import threshold_from
from circlecorr.paircorr import f_stat, f_stat_profile, pair_count_naive
from circlecorr.pointio import (format_point, parse_point, read_points_binary,
                                read_points_csv, write_points_binary, write_points_csv)
from circlecorr.sequences import FixedBatch, SequenceSpec, generate, iid_uniform
from circlecorr.verify import VerificationReport


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


_WORK, _SHOWN = Context(prec=60), Context(prec=20)


def reference_format_point(raw, precision):
    """The former Decimal writer: raw/2^P at 60 digits, then rounded to 20."""
    shown = _SHOWN.plus(_WORK.divide(Decimal(raw), Decimal(1 << precision)))
    return "0" if shown == 1 else str(shown)


def reference_read(text, precision):
    """The former line-by-line reader: parse_point on every stripped line."""
    values = []
    for i, line in enumerate(io.StringIO(text, newline="")):
        line = line.strip()
        if not line or (i == 0 and line == "value"):
            continue
        try:
            values.append(parse_point(line, precision))
        except ArithmeticError:
            raise ValueError(f"line {i + 1}: {line!r} is not a point value") from None
        except ValueError as exc:
            raise ValueError(f"line {i + 1}: {exc}") from None
    return values


def writer_cases(precision):
    rng = random.Random(precision)
    top = 1 << precision
    values = [0, 1, 2, top - 1, top - 2, top // 2]
    values += [rng.getrandbits(precision) for _ in range(1500)]
    values += [rng.getrandbits(precision) >> rng.randrange(precision) for _ in range(1500)]
    values += [rng.randrange(top // 10 ** 6) for _ in range(300)]  # exponent form
    values += [k << (precision - j) for j in range(1, precision + 1) for k in (1, 3, 5, 7)
               if k < 1 << j]  # exact dyadics k / 2^j: 0.5, 0.25, 0.375, ...
    for j in range(1, 40):  # next to the decimal fractions k / 10^j
        for k in (1, 3, 5, 9, 10 ** 6 - 1, 10 ** 19 - 1):
            at = top * k // 10 ** j
            values += [v for v in (at - 1, at, at + 1) if 0 <= v < top]
    for j in range(20, 59):  # next to the midpoints of 20-digit values
        for digits in (rng.randrange(10 ** 19, 10 ** 20) for _ in range(4)):
            at = top * (2 * digits + 1) // (2 * 10 ** j)
            values += [v for v in (at, at + 1) if 0 < v < top]
    return values


def written_lines(values, precision):
    buf = io.StringIO()
    write_points_csv(FixedBatch(precision, values), buf)
    lines = buf.getvalue().split("\n")
    assert lines[0] == "value" and lines[-1] == ""
    return lines[1:-1]


@pytest.mark.parametrize("precision", [64, 128])
def test_csv_writer_matches_the_decimal_reference(precision, monkeypatch):
    values = writer_cases(precision)
    expect = [reference_format_point(v, precision) for v in values]
    assert written_lines(values, precision) == expect
    assert [format_point(v, precision) for v in values[:300]] == expect[:300]
    assert {"0.5", "0.25", "0"} <= set(expect)
    assert any("E-" in text for text in expect)
    for block in (1, 2, 3):  # values spread across block boundaries
        monkeypatch.setattr(pointio, "_IO_BLOCK", block)
        assert written_lines(values[:40], precision) == expect[:40]


def test_csv_writer_top_values():
    # 1 - 2^-128 rounds to 1 at 20 digits and is written 0, the same point;
    # 1 - 2^-64 is 0.99999999999999999995 at 20 digits
    assert written_lines([(1 << 128) - 1, (1 << 128) - 2], 128) == ["0", "0"]
    assert written_lines([(1 << 64) - 1], 64) == ["0.99999999999999999995"]


def reader_texts():
    rng = random.Random(11)
    pieces = ["value", "", " ", "\t", "0", "-0", "+0.5", "0.5", " 0.25 ", "5E-7", "1e-30",
              "4.76837158203125E-7", "0.", ".5", "00.5", "0.000", "0.5\r", "\u0660.\u0665",
              "0.\uff15", "0." + "1" * 30, "0." + "9" * 27, "0." + "9" * 25,
              "0." + "0" * 26 + "1", "0." + "3" * 21, "0." + "3" * 20,
              "0.99999999999999999999999", "2.9387358770557187699E-39"]
    pieces += [format_point(rng.getrandbits(128) >> rng.randrange(128), 128)
               for _ in range(20)]
    pieces += [format_point(rng.getrandbits(64), 64) for _ in range(20)]
    pieces += ["0." + str(rng.getrandbits(90)).zfill(27)[:rng.randrange(1, 28)]
               for _ in range(40)]  # up to 27 digits, all significant
    for precision in (64, 128):  # just above and below a midpoint of the grid
        for _ in range(10):
            mid = Fraction(2 * rng.getrandbits(precision) + 1, 2 << precision)
            for width in (27, 28):
                near = mid * 10 ** width
                pieces += [f"0.{math.floor(near):0{width}d}", f"0.{math.ceil(near):0{width}d}"]
    texts = ["", "value\n", "value", "\n\n", "value\r\n0.5\r\n"]
    for _ in range(150):
        lines = [rng.choice(pieces) for _ in range(rng.randrange(1, 12))]
        end = rng.choice(["\n", "\r\n"])
        texts.append(end.join(lines) + rng.choice([end, ""]))
    return texts


def outcome(read, text, precision):
    """The values read, or the error's message."""
    try:
        return [int(v) for v in read(text, precision)]
    except ValueError as exc:
        return str(exc)


@pytest.mark.parametrize("precision", [64, 128])
def test_csv_reader_matches_parse_point_on_every_line(precision, monkeypatch):
    texts = reader_texts()
    expect = [outcome(reference_read, text, precision) for text in texts]
    assert sum(isinstance(e, list) for e in expect) > 100  # most texts are valid
    for block in (1, 2, 3, 1 << 12):
        monkeypatch.setattr(pointio, "_IO_BLOCK", block)
        for text, values in zip(texts, expect):
            block_read = outcome(
                lambda t, p: read_points_csv(io.StringIO(t, newline=""), p).raw, text, precision)
            assert block_read == values, text


@pytest.mark.parametrize("precision", [64, 128])
def test_csv_reader_round_trips_the_writer(precision):
    values = writer_cases(precision)
    buf = io.StringIO()
    write_points_csv(FixedBatch(precision, values), buf)
    text = buf.getvalue()
    back = read_points_csv(io.StringIO(text), precision)
    assert [int(v) for v in back.raw] == reference_read(text, precision)
    if precision == 64:  # 20 digits pin a 64-bit value
        assert [int(v) for v in back.raw] == values


def test_csv_reader_names_the_line_in_a_later_block(monkeypatch):
    monkeypatch.setattr(pointio, "_IO_BLOCK", 3)
    text = "value\n" + "0.5\n" * 6 + "\n0.25\n1.5\n0.75\n"
    with pytest.raises(ValueError, match="^line 10: '1.5' is outside"):
        read_points_csv(io.StringIO(text), 64)
    with pytest.raises(ValueError, match="^line 9: 'x' is not a point value"):
        read_points_csv(io.StringIO(text.replace("0.25", "x")), 64)


def test_csv_io_memory_is_bounded_by_the_blocks():
    batch = iid_uniform(200_000, seed=3)
    buf = io.StringIO()
    write_points_csv(batch, buf)
    source = io.StringIO(buf.getvalue())

    class Sink:
        def write(self, text):
            pass

    tracemalloc.start()
    try:
        write_points_csv(batch, Sink())
        write_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        back = read_points_csv(source, 64)
        read_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (back.raw == batch.raw).all()
    assert write_peak <= 2e6 and read_peak <= 5e6, (write_peak, read_peak)


def test_point_round_trip_64():
    for raw in (0, 1, (1 << 64) - 1, 123456789123456789, 1 << 63):
        assert parse_point(format_point(raw, 64), 64) == raw


def test_points_csv_round_trip():
    batch = iid_uniform(200, seed=9)
    buf = io.StringIO()
    write_points_csv(batch, buf)
    buf.seek(0)
    back = read_points_csv(buf, 64)
    assert [int(v) for v in back.raw] == [int(v) for v in batch.raw]


@pytest.mark.parametrize("precision", [64, 128])
def test_points_binary_layout_and_round_trip(precision):
    # each point is precision/8 little-endian bytes, low limb first
    top = 1 << precision
    vals = [0, 1, top - 1, top // 2, (1 << 64) - 1, 1 << 63] + \
        [int(v) for v in iid_uniform(500, seed=3, precision=precision).raw]
    vals = [v % top for v in vals]
    buf = io.BytesIO()
    write_points_binary(FixedBatch(precision, vals), buf)
    width = precision // 8
    assert buf.getvalue() == b"".join(v.to_bytes(width, "little") for v in vals)
    back = read_points_binary(io.BytesIO(buf.getvalue()), precision)
    assert [int(v) for v in back.raw] == vals
    assert len(read_points_binary(io.BytesIO(b""), precision)) == 0


def test_gen_vdc_grid(capsys):
    code, out, _ = run_cli(["gen", "--seq", "vdc", "--base", "2", "--n", "8"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "value"
    assert sorted(lines[1:]) == sorted(
        ["0", "0.5", "0.25", "0.75", "0.125", "0.625", "0.375", "0.875"])


def test_gen_deterministic(tmp_path, capsys):
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    for p in (p1, p2):
        code, _, _ = run_cli(["gen", "--seq", "iid", "--seed", "1", "--n", "5",
                              "--out", str(p)], capsys)
        assert code == 0
    assert p1.read_bytes() == p2.read_bytes()


def test_gen_binary_round_trip(tmp_path, capsys):
    csv_path, bin_path = tmp_path / "p.csv", tmp_path / "p.bin"
    run_cli(["gen", "--seq", "kronecker", "--n", "300", "--out", str(csv_path)], capsys)
    run_cli(["gen", "--seq", "kronecker", "--n", "300", "--binary",
             "--out", str(bin_path)], capsys)
    code1, out1, _ = run_cli(["fstat", "--points", str(csv_path), "--n", "300",
                              "--alpha", "0.5", "--s", "1"], capsys)
    code2, out2, _ = run_cli(["fstat", "--points", str(bin_path),
                              "--points-format", "binary", "--n", "300",
                              "--alpha", "0.5", "--s", "1"], capsys)
    assert code1 == code2 == 0
    count1 = out1.splitlines()[1].split(",")[6]
    count2 = out2.splitlines()[1].split(",")[6]
    assert count1 == count2


@pytest.mark.parametrize("n_arg", [["--n", "-5"], ["--n=-5,100"], ["--n", "1"]])
def test_fstat_points_refuses_n_outside_the_file(n_arg, tmp_path, capsys):
    # raw[:n] once counted the first 295 of 300 points for --n -5, and exited 0
    path = tmp_path / "p.csv"
    run_cli(["gen", "--seq", "iid", "--n", "300", "--out", str(path)], capsys)
    code, out, err = run_cli(["fstat", "--points", str(path), *n_arg,
                              "--alpha", "0.5", "--s", "1"], capsys)
    assert code == 2 and out == "" and "outside" in err


def test_fstat_header_and_known_zero(capsys):
    code, out, _ = run_cli(["fstat", "--seq", "kronecker", "--n", "987",
                            "--alpha", "1", "--s", "0.5"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == ("sequence,params,N,alpha,s,threshold,count,F,"
                        "abs_err_vs_2s,ambiguous")
    fields = lines[1].split(",")
    assert fields[0] == "kronecker"
    assert fields[6] == "0"  # count


def test_fstat_vdc_bound(capsys):
    code, out, _ = run_cli(["fstat", "--seq", "vdc", "--base", "2", "--n", "1024",
                            "--alpha", "0.5", "--s", "1"], capsys)
    f_value = float(out.strip().splitlines()[1].split(",")[7])
    assert 2 - 2 / 32 <= f_value <= 2


def test_fstat_vdc_counts_any_base_exactly_from_digits(capsys):
    # b = 2^130: the N = 100 points n/2^130 lie within 99/2^130 < 10^-37 of
    # each other, so all 9900 pairs count, with no bracket and no warning
    code, out, err = run_cli(["fstat", "--seq", "vdc", "--base", str(2 ** 130), "--n", "100",
                              "--alpha", "0", "--s", "1e-37"], capsys)
    assert code == 0 and err == ""
    row = out.splitlines()[1].split(",")
    assert (row[6], row[9]) == ("9900", "0")
    # b = 2^61, N = 2^62: counted from N's digits, with no point built
    start = time.perf_counter()
    code, out, _ = run_cli(["fstat", "--seq", "vdc", "--base", str(2 ** 61), "--n", str(2 ** 62),
                            "--max-points", str(2 ** 63), "--alpha", "0.5,1"], capsys)
    assert time.perf_counter() - start < 2
    assert code == 0 and len(out.splitlines()) == 3


def test_fstat_vdc_builds_no_points_so_no_cap_applies(capsys):
    start = time.perf_counter()
    code, out, _ = run_cli(["fstat", "--seq", "vdc", "--n", "200000000", "--alpha", "0.5"], capsys)
    assert time.perf_counter() - start < 2
    assert code == 0 and out.splitlines()[1].split(",")[6] == "5656743211008"
    code, out, err = run_cli(["gen", "--seq", "vdc", "--n", "200000000"], capsys)
    assert code == 2 and out == "" and "cap" in err
    # the count is linear in N's digits: 7143 in base 2 at the largest N fstat takes
    start = time.perf_counter()
    code, out, _ = run_cli(["fstat", "--seq", "vdc", "--n", str(10 ** 2150)], capsys)
    assert time.perf_counter() - start < 3 and code == 0 and len(out.splitlines()) == 2


def test_fstat_vdc_reports_its_threshold_on_the_precision_grid(capsys):
    # 10^-37 is 34 ulps of 2^-128, and 0 ulps of 2^-64; the count is exact either way
    code, out, err = run_cli(["fstat", "--seq", "vdc", "--base", str(2 ** 130), "--n", "100",
                              "--alpha", "0", "--s", "1e-37", "--precision", "128"], capsys)
    row = out.splitlines()[1].split(",")
    assert code == 0 and err == "" and (row[6], row[9]) == ("9900", "0")
    assert float(row[5]) == 34 / 2 ** 128


def test_fstat_vdc_float_alpha_is_fast(capsys):
    # the decimal 0.3333333333333333 is read as 3333333333333333/10^16, so the
    # exact threshold may not cost O(alpha's denominator)
    start = time.perf_counter()
    code, out, _ = run_cli(["fstat", "--seq", "vdc", "--base", "10", "--n", "10000",
                            "--alpha", "0.3333333333333333"], capsys)
    assert time.perf_counter() - start < 1.0
    assert code == 0
    assert out.splitlines()[1].split(",")[6] == "9280000"


@pytest.mark.parametrize("alpha, above_third", [("0.3333333333333333", False),
                                                ("0.33333333333333337", True)])
def test_fstat_vdc_alpha_next_to_a_tie(alpha, above_third, capsys):
    # at N = den = 1000, alpha = 1/3 and s = 1 the threshold 1/10 is a tie
    # d/den, d = 100: the largest d passing the former bisection's exact test
    # d^q N^p <= den^q.  These decimals lie 3e-17 below and 4e-17 above 1/3, so
    # 1000^(1 - alpha) is just above 100, or just below it: d = 100, or 99
    d = max(d for d in range(1001) if d ** 3 * 1000 <= 1000 ** 3) - above_third
    code, out, _ = run_cli(["fstat", "--seq", "vdc", "--base", "10", "--n", "1000",
                            "--alpha", alpha], capsys)
    assert code == 0
    count = int(out.splitlines()[1].split(",")[6])
    assert count == pair_count_naive(generate(SequenceSpec("vdc", base=10), 1000), d)


def test_gaps_csv(capsys):
    code, out, _ = run_cli(["gaps", "--n", "55"], capsys)
    assert code == 0
    assert out.startswith("length_decimal,length_raw_units,multiplicity\n")
    assert "predicted_length_decimal" in out


def test_cf_text(capsys):
    code, out, _ = run_cli(["cf", "355/113", "--format", "text"], capsys)
    assert code == 0
    assert out.splitlines()[0] == "[3; 7, 16]"


def test_ostrowski_text(capsys):
    code, out, _ = run_cli(["ostrowski", "12", "--format", "text"], capsys)
    assert code == 0
    assert "8" in out and "3" in out and "1" in out


@pytest.mark.parametrize("precision", ["64", "128"])
def test_gaps_of_a_rational_z_lands_on_the_prediction(precision, capsys):
    code, out, err = run_cli(["gaps", "--z", "7/19", "--n", "100", "--precision", precision],
                             capsys)
    assert code == 0 and err == ""
    census = [int(line.split(",")[1]) for line in out.split("\n\n")[0].splitlines()[1:]]
    predicted = [int(line.split(",")[1]) for line in out.split("\n\n")[1].splitlines()[1:]]
    assert set(census) <= set(predicted) and predicted[2] == predicted[0] + predicted[1]


def test_gaps_past_a_rational_z_ladder_is_usage_error(capsys):
    # 3 points of the step 1/2 repeat one: its exact ladder 1, 2 ends below N
    code, out, err = run_cli(["gaps", "--z", "1/2", "--n", "3"], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert "Traceback" not in err


def test_ostrowski_expands_z_in_full(capsys):
    # F_199/F_200 has 199 partial quotients, past any fixed cap on terms
    n = 10 ** 30
    z = f"{fibonacci(199)}/{fibonacci(200)}"
    code, out, _ = run_cli(["ostrowski", str(n), "--z", z], capsys)
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert sum(int(digit) * int(weight) for _, digit, weight in rows) == n


def readme_usage_lines():
    """The `circlecorr ...` lines of README's command-line block, as argv lists."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("circlecorr ")]


def test_readme_usage_lines_exit_0(tmp_path, monkeypatch, capsys):
    # `verify all` is left out: test_acceptance already runs every suite
    lines = [argv for argv in readme_usage_lines() if argv != ["verify", "all"]]
    assert {argv[0] for argv in lines} == {"gen", "fstat", "gaps", "cf", "ostrowski", "verify"}
    monkeypatch.chdir(tmp_path)  # later lines read the files earlier ones write
    for argv in lines:
        assert main(argv) == 0, argv
        capsys.readouterr()


def test_verify_suite_exit_codes(capsys):
    code, out, _ = run_cli(["verify", "lemma12"], capsys)
    assert code == 0
    assert "suite lemma12: PASS" in out
    code, out, _ = run_cli(["verify", "iid-mean"], capsys)
    assert code == 0
    assert out.startswith("suite iid-mean: PASS")


def test_verify_writes_its_report_to_out(tmp_path, monkeypatch, capsys):
    path = tmp_path / "report.txt"
    code, out, _ = run_cli(["verify", "lemma12", "--out", str(path)], capsys)
    assert code == 0 and out == ""
    assert path.read_text().startswith("suite lemma12: PASS")
    failed = VerificationReport("lemma12")
    failed.add("a check that fails", "1", "0", "exact", False)
    monkeypatch.setattr(cli, "run_suite", lambda name: failed)
    code, out, _ = run_cli(["verify", "lemma12", "--out", str(path)], capsys)
    assert code == 1 and out == ""
    assert path.read_text().startswith("suite lemma12: FAIL")


def test_cap_enforced(capsys):
    code, _, err = run_cli(["gen", "--seq", "iid", "--n", "100",
                            "--max-points", "10"], capsys)
    assert code == 2
    assert "cap" in err


def test_negative_cap_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--n", "10", "--max-points", "-1"])
    assert exc.value.code == 2
    assert "--max-points" in capsys.readouterr().err
    code, _, err = run_cli(["gen", "--n", "10", "--max-points", "0"], capsys)
    assert code == 2 and "cap 0" in err


@pytest.mark.parametrize("bad", ["abc", "Infinity", "NaN"])
def test_malformed_points_csv_is_usage_error(bad, tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(f"value\n0.25\n{bad}\n0.5\n")
    proc = subprocess.run([sys.executable, "-m", "circlecorr.cli", "fstat",
                           "--points", str(path), "--n", "3"],
                          capture_output=True, text=True)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "line 3" in proc.stderr and bad in proc.stderr


@pytest.mark.parametrize("bad", ["1.25", "-0.5", "1"])
def test_points_outside_the_circle_are_usage_errors(bad, tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(f"value\n0.25\n{bad}\n0.5\n")
    proc = subprocess.run([sys.executable, "-m", "circlecorr.cli", "fstat",
                           "--points", str(path), "--n", "3"],
                          capture_output=True, text=True)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "line 3" in proc.stderr and bad in proc.stderr


@pytest.mark.parametrize("precision", [64, 128])
def test_points_that_round_up_to_one_are_zero(precision):
    assert parse_point("0." + "9" * 60, precision) == 0
    assert parse_point("-0", precision) == 0
    # the top grid value is 1 - 2^-P: at P = 128 it rounds to 1 at 20
    # digits and is written as 0, the same point of the circle
    top = (1 << precision) - 1
    buf = io.StringIO()
    write_points_csv(FixedBatch(precision, [top]), buf)
    assert (buf.getvalue() == "value\n0\n") == (precision == 128)
    buf.seek(0)
    assert int(read_points_csv(buf, precision).raw[0]) == (top if precision == 64 else 0)


@pytest.mark.parametrize("seq", ["kronecker", "iid", "vdc"])
def test_fstat_extreme_alpha_gives_a_number(seq, capsys):
    # N^(2 - alpha) underflows (no pair is that close) or overflows (every
    # pair counts): F is 0 either way, with no traceback
    for alpha, count in (("400", "0"), ("-400", str(1000 * 999))):
        code, out, _ = run_cli(["fstat", "--seq", seq, "--n", "1000", f"--alpha={alpha}"], capsys)
        assert code == 0
        row = out.splitlines()[1].split(",")
        assert (row[6], row[7]) == (count, "0")


@pytest.mark.parametrize("flag", ["--alpha=nan", "--alpha=inf", "--alpha=0.5,-inf",
                                  "--s=1e400", "--s=nan"])
def test_fstat_non_finite_alpha_or_s_is_usage_error(flag, capsys):
    code, out, err = run_cli(["fstat", "--n", "100", flag], capsys)
    assert code == 2
    assert "finite" in err and out == ""


def test_fstat_reads_a_decimal_alpha_exactly(capsys):
    # 0.9 is 9/10, not the float 0.90000000000000002220..., whose threshold
    # at N = 987 lies 6 ulps away
    code, out, _ = run_cli("fstat --n 987 --alpha 0.9 --s 1".split(), capsys)
    assert code == 0
    thr = threshold_from(1, 987, Fraction(9, 10)).distance
    assert thr.value - threshold_from(1, 987, 0.9).distance.value == 6
    assert out.splitlines()[1].split(",")[5] == f"{float(thr):.17g}"


def test_a_float_alpha_means_its_binary_value_on_every_batch(capsys):
    # N = 1024 = 2^10 in base 2: at alpha = 1/10 and s = 1/2 the threshold
    # is 1/4 = 256/1024, a distance the grid holds; the float 0.1 lies just
    # above 1/10, so its threshold lies just below and drops those 2N pairs
    batch = generate(SequenceSpec("vdc", base=2), 1024)
    count = f_stat(batch, Fraction(1, 2), 0.1).ordered_pair_count
    assert count == f_stat(batch, Fraction(1, 2), Fraction(0.1)).ordered_pair_count
    assert count == 1024 ** 2 // 2 - 2 * 1024
    # the CLI reads the text 0.1 as 1/10
    code, out, _ = run_cli("fstat --seq vdc --base 2 --n 1024 --alpha 0.1 --s 0.5".split(),
                           capsys)
    assert code == 0 and out.splitlines()[1].split(",")[6] == str(1024 ** 2 // 2)


def test_a_decimal_exponent_past_4300_is_usage_error(capsys):
    # 10^-40000 would be built in full, and its floor near 1 would need
    # exact powers with a 10^40000-th power
    code, out, err = run_cli(["fstat", "--n", "987", "--alpha=1e-40000"], capsys)
    assert code == 2 and out == "" and "4300" in err


@pytest.mark.parametrize("argv", [["cf", "1.0e-100000000"],
                                  ["gen", "--n", "3", "--z", "0.1234567890123456789012e-100000000"],
                                  ["fstat", "--n", "3", "--z", "0.1234567890123456789012e100000000"]])
def test_a_huge_decimal_exponent_fails_fast(argv, capsys):
    # 10^(10^8) would take minutes to build
    start = time.perf_counter()
    code, out, err = run_cli(argv, capsys)
    assert time.perf_counter() - start < 2
    assert code == 2 and out == "" and "4300" in err


def test_fstat_kronecker_never_builds_its_orbit(capsys):
    # building the 3 10^6-point uint64 orbit takes 22.9 MB of tracemalloc
    # peak; counting from the step measured 0.06-0.23 MB
    argv = ["fstat", "--seq", "kronecker", "--n", "100000,1000000,3000000",
            "--alpha", "0.5,0.9", "--s", "1"]
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and len(capsys.readouterr().out.splitlines()) == 7
    assert peak < 2 * 2 ** 20


def test_fstat_caps_the_points_it_builds_but_not_a_rotation(capsys):
    # a rotation is counted from its step, so no --max-points applies to it
    # (nor to vdc: test_fstat_vdc_builds_no_points_so_no_cap_applies)
    code, out, _ = run_cli(["fstat", "--seq", "kronecker", "--n", "10,3000000",
                            "--max-points", "2999999"], capsys)
    assert code == 0 and len(out.splitlines()) == 3
    for seq in ("sqrt_frac", "iid"):
        code, out, err = run_cli(["fstat", "--seq", seq, "--n", "10,3000000",
                                  "--max-points", "2999999"], capsys)
        assert code == 2 and out == "" and "cap" in err
    code, out, err = run_cli(["gen", "--seq", "kronecker", "--n", "3000000",
                              "--max-points", "2999999"], capsys)
    assert code == 2 and out == "" and "cap" in err


def test_running_out_of_memory_is_a_usage_error(monkeypatch, capsys):
    def exhausted(*_):
        raise MemoryError
    monkeypatch.setattr(cli, "generate", exhausted)
    code, out, err = run_cli(["gen", "--seq", "iid", "--n", "100"], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "--n" in err and "--max-points" in err


def test_fstat_on_a_rotation_of_any_size_ends_without_a_traceback(capsys):
    # N past 2^63 is no len(); N past 10^2150 has counts longer than Python prints
    code, out, _ = run_cli(["fstat", "--seq", "kronecker", "--n", str(10 ** 30),
                            "--alpha", "0.5,1"], capsys)
    assert code == 0 and len(out.splitlines()) == 3
    # at N = 10^250, N^1.5 and the counts are past the float range, but each F is not
    code, out, _ = run_cli(["fstat", "--seq", "kronecker", "--n", str(10 ** 250),
                            "--alpha", "0.5,1"], capsys)
    assert code == 0
    assert all(0 < float(row.split(",")[7]) < math.inf for row in out.splitlines()[1:3])
    start = time.perf_counter()
    code, out, err = run_cli(["fstat", "--seq", "kronecker", "--n", str(10 ** 3999)], capsys)
    assert time.perf_counter() - start < 2
    assert code == 2 and out == "" and "10^2150" in err


def test_f_stat_on_a_p128_binary_file_never_joins_its_limbs(tmp_path, monkeypatch, capsys):
    path = str(tmp_path / "pts128.bin")
    assert main(["gen", "--seq", "iid", "--seed", "6", "--precision", "128", "--n", "400",
                 "--binary", "--out", path]) == 0
    with open(path, "rb") as stream:
        batch = read_points_binary(stream, 128)
    eager = FixedBatch(128, [int(h) << 64 | int(l) for h, l in zip(*batch.split())])

    def refuse(*_):
        raise AssertionError("raw was built")

    monkeypatch.setattr(sequences, "join_limbs", refuse)
    args = [200, 400], [Fraction(1, 2), 1], [1]
    lazy = f_stat_profile(batch, *args)
    assert batch._raw is None
    code, out, _ = run_cli(["fstat", "--points", path, "--points-format", "binary",
                            "--precision", "128", "--n", "200,400"], capsys)
    assert code == 0 and len(out.splitlines()) == 3
    monkeypatch.undo()
    counts = [r.ordered_pair_count for r in f_stat_profile(eager, *args)]
    assert [r.ordered_pair_count for r in lazy] == counts


def test_gen_vdc_at_p128_writes_p128_points(tmp_path):
    fixed = generate(SequenceSpec("vdc", base=3), 6).to_fixed(128)
    expect = [int(v) for v in fixed.raw]
    binary, text = str(tmp_path / "v.bin"), str(tmp_path / "v.csv")
    argv = ["gen", "--seq", "vdc", "--base", "3", "--n", "6", "--precision", "128"]
    assert main(argv + ["--binary", "--out", binary]) == 0
    with open(binary, "rb") as stream:
        assert [int(v) for v in read_points_binary(stream, 128).raw] == expect
    assert main(argv + ["--out", text]) == 0
    buf = io.StringIO()
    write_points_csv(fixed, buf)
    assert Path(text).read_text() == buf.getvalue()
    # a CSV point keeps 20 significant digits, at P = 128 as for any batch
    with open(text) as stream:
        assert [int(v) for v in read_points_csv(stream, 128).raw] == \
            [parse_point(format_point(v, 128), 128) for v in expect]


def test_cf_golden_refuses_terms_whose_convergents_cannot_print(capsys):
    start = time.perf_counter()
    code, out, err = run_cli(["cf", "golden", "--terms", "100000000"], capsys)
    assert time.perf_counter() - start < 2
    assert code == 2 and out == "" and str(cli.GOLDEN_MAX_TERMS) in err
    # the last of n golden convergents is F_(n+1)/F_n; at the cap it has 4300 digits
    cf = golden_cf(10)
    assert (cf.p[9], cf.q[9]) == (fibonacci(11), fibonacci(10))
    assert fibonacci(cli.GOLDEN_MAX_TERMS + 1) < 10 ** 4300 <= fibonacci(cli.GOLDEN_MAX_TERMS + 2)
    assert run_cli(["cf", "golden", "--terms", str(cli.GOLDEN_MAX_TERMS + 1)], capsys)[0] == 2
    # an exact fraction's expansion ends on its own, whatever --terms says
    code, out, _ = run_cli(["cf", "1/3", "--terms", "100000000"], capsys)
    assert code == 0 and out.splitlines()[-1] == "1,3,1,3"


def test_each_subcommand_takes_only_the_flags_it_reads(capsys):
    for argv in ("cf 1/2 --guard-band 3", "gen --n 3 --guard-band 3", "gen --n 3 --format text",
                 "gaps --n 3 --guard-band 3", "cf 1/2 --precision 128", "cf 1/2 --max-points 5",
                 "ostrowski 5 --precision 128", "ostrowski 5 --guard-band 3",
                 "ostrowski 5 --max-points 5", "verify oracle --precision 128",
                 "verify oracle --guard-band 3", "verify oracle --format text",
                 "verify oracle --max-points 5"):
        with pytest.raises(SystemExit) as exc:
            main(argv.split())
        assert exc.value.code == 2, argv
        assert "unrecognized arguments" in capsys.readouterr().err


def test_guard_band_flag_is_gone(capsys):
    # the band comes from each batch's own point error, so no flag sets it
    with pytest.raises(SystemExit) as exc:
        main("fstat --n 100 --guard-band 4".split())
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_a_wide_bracket_warns_on_stderr(capsys, monkeypatch):
    # at P = 64 the golden orbit's own drift, N/2 ulps, puts pairs on both
    # sides of the threshold at N = 10^10; P = 128 holds the count to one point
    def build(self):
        raise AssertionError("built the orbit")

    monkeypatch.setattr(sequences.RotationBatch, "_build", build)
    argv = "fstat --seq kronecker --n 10000000000 --alpha 1".split()
    code, out, err = run_cli(argv, capsys)
    ambiguous = int(out.splitlines()[1].split(",")[-1])
    assert code == 0 and ambiguous > 0
    assert err.count("warning") == 1 and f"{ambiguous} pairs" in err and "--precision 128" in err
    code, out, err = run_cli(argv + ["--precision", "128"], capsys)
    assert code == 0 and out.splitlines()[1].endswith(",0") and err == ""


@pytest.mark.parametrize("precision", [64, 128])
def test_parse_point_is_the_nearest_grid_value(precision):
    # the definition: round half to even of value * 2^P, with 2^P itself at 0
    import random
    from fractions import Fraction
    rng = random.Random(precision)
    texts = ["0", "-0", "0.5", "0." + "9" * 25, "0." + "0" * 30 + "1"]
    texts += [format_point(rng.getrandbits(precision), precision) for _ in range(300)]
    texts += [f"0.{rng.getrandbits(60):018d}" for _ in range(300)]
    for text in texts:
        expect = round(Fraction(text) * (1 << precision)) % (1 << precision)
        assert parse_point(text, precision) == expect


@pytest.mark.parametrize("argv", ["gen --n 3 --z 1/0", "fstat --n 3 --z 1/0",
                                  "gaps --n 3 --z 1/0", "ostrowski 5 --z 1/0", "cf 1/0",
                                  "cf 0/0"])
def test_zero_denominator_is_usage_error(argv, capsys):
    code, out, err = run_cli(argv.split(), capsys)
    assert code == 2 and out == ""
    assert "zero denominator" in err


@pytest.mark.parametrize("value, same_as", [("1e3", "1000"), ("1e-3", "0.001"), ("1E2", "100")])
def test_cf_reads_an_exponent_without_a_point(value, same_as, capsys):
    code, out, err = run_cli(["cf", value], capsys)
    assert code == 0 and err == ""
    assert out == run_cli(["cf", same_as], capsys)[1]


def test_a_decimal_z_in_exponent_form_needs_its_fractional_digits(capsys):
    code, out, err = run_cli(["fstat", "--n", "5", "--z", "5e-1"], capsys)
    assert code == 2 and out == ""
    assert "decimal z needs >= 22 fractional digits" in err
    # a signed integer z is still {z} = 0
    assert run_cli(["fstat", "--n", "5", "--z=-3"], capsys)[0] == 0


def test_unknown_suite_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "nonsense"])
    assert exc.value.code == 2


def test_verify_choices_are_the_suites():
    from circlecorr import verify
    sub = next(a for a in cli.build_parser()._actions if a.dest == "command")
    suite = next(a for a in sub.choices["verify"]._actions if a.dest == "suite")
    assert list(suite.choices) == sorted(verify.SUITES) + ["all"]


def modules_after(argv, cwd):
    """The circlecorr modules and mpmath loaded by a fresh child after cli.main(argv).

    "numpy" is among them if numpy executed: a lazily bound numpy sits in
    sys.modules unexecuted, and only its submodules show that it ran.
    """
    code = ("import sys\n"
            "from circlecorr import cli\n"
            f"assert cli.main({argv!r}) == 0\n"
            "print(*sorted(m for m in sys.modules if m == 'mpmath' or m.startswith('circlecorr.')),\n"
            "      *['numpy'] * any(m.startswith('numpy.') for m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, cwd=cwd)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def test_each_subcommand_imports_only_what_it_runs(tmp_path):
    unused = {"mpmath", "circlecorr.verify", "circlecorr.threegap", "circlecorr.cf"}
    # alpha = 0.9 is 9/10, whose floor is one integer root
    for argv in ("fstat --seq vdc --base 2 --n 16384 --alpha 0.25 --s 1 --out v.csv",
                 "fstat --n 987 --alpha 0.9 --out g.csv",
                 "gen --seq iid --n 1000 --out F", "fstat --points F --n 1000 --out f.csv"):
        loaded = modules_after(argv.split(), tmp_path)
        assert "circlecorr.paircorr" in loaded or argv.startswith("gen")
        assert loaded & unused == set(), argv
    loaded = modules_after(["cf", "1/2", "--out", "cf.csv"], tmp_path)
    assert "circlecorr.cf" in loaded
    assert loaded & {"mpmath", "circlecorr.verify", "circlecorr.threegap"} == set()
    # alpha = 0.33333 is 33333/10^5: its floor needs the interval bracket
    loaded = modules_after("fstat --n 987 --alpha 0.33333 --out g.csv".split(), tmp_path)
    assert "mpmath" in loaded and "circlecorr.verify" not in loaded
    # only the lemma12 suite needs mpmath
    loaded = modules_after(["verify", "threegap", "--out", "r.txt"], tmp_path)
    assert "circlecorr.verify" in loaded and "mpmath" not in loaded


def test_only_commands_that_build_points_execute_numpy(tmp_path):
    for argv in ("fstat --seq kronecker --n 100000,1000000 --alpha 0.5,0.9 --s 1 --out k.csv",
                 "fstat --seq kronecker --precision 128 --n 987,3000 --alpha 0.5,1 --out k.csv",
                 "fstat --seq vdc --n 100 --out v.csv",
                 f"fstat --seq vdc --base {2 ** 130} --n 100 --out v.csv",
                 "cf golden --out c.csv", "cf 355/113 --out c.csv", "ostrowski 1000 --out o.csv",
                 "verify thm7 --out r.txt"):
        assert "numpy" not in modules_after(argv.split(), tmp_path), argv
    for argv in ("gen --n 100 --out F", "fstat --points F --n 100 --out f.csv",
                 "gaps --n 100 --out g.csv"):
        assert "numpy" in modules_after(argv.split(), tmp_path), argv


@pytest.mark.parametrize("argv", ["gen --n 1000000", "cf golden --terms 3000"])
def test_a_closed_stdout_exits_141_quietly(argv):
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "circlecorr.cli", *argv.split()],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline()
    proc.stdout.close()  # as `| head -1` does
    assert proc.wait(timeout=10) == 141
    assert proc.stderr.read() == b""
    proc.stderr.close()
    assert time.perf_counter() - start < 2


def test_entry_point_installed():
    proc = subprocess.run([sys.executable, "-m", "circlecorr.cli", "cf", "7/3"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.startswith("i,a_i,p_i,q_i")


# SHA-256 of each command's --out file, recorded before the counting kernel
# and the batch type were unified (the last five: before CSV point I/O moved
# from Decimal to limb arithmetic); any drift in counts, thresholds, F
# formatting or point serialization changes a digest
OUTPUT_DIGESTS = {
    "gen-vdc3-csv": ("gen --seq vdc --base 3 --n 100",
        "5bb091ee1230f570abe50d637f2e09c4412849fe138e4835f4ed3baeb061b9fe"),
    "gen-vdc3-bin": ("gen --seq vdc --base 3 --n 100 --binary",
        "793952eda2b123705a958519410db407a4f48d085e9768ae081352560a85f419"),
    "gen-golden-csv": ("gen --seq kronecker --n 100",
        "76f3945c4d76d5174e5b8690d2eb53d8f0f18e15e53aca69daafa2bd4b4ed8ab"),
    "gen-golden-bin": ("gen --seq kronecker --n 100 --binary",
        "ecb395b1b888790b7bbccbb8a6f44bae9bddff1091082062b8ffba00f32f2038"),
    "gen-iid128-csv": ("gen --seq iid --seed 4 --precision 128 --n 100",
        "f1e57f6b1774486138427afb7ad140eba087a85a356fbc8e44cd9d13eee01388"),
    "gen-iid128-bin": ("gen --seq iid --seed 4 --precision 128 --n 100 --binary",
        "6d6a87dc16780a457c7722b4e057d29897ab541e6c923fa10cc6ac56e2fc7b31"),
    "fstat-vdc10-csv": ("fstat --seq vdc --base 10 --n 100,1000 --alpha 0.5,1 --s 0.5,1",
        "eb4bee16c8b53e4b3fe7558dea00b3ad99657a7073da334f61031d5e7a072fc6"),
    "fstat-vdc10-text": ("fstat --seq vdc --base 10 --n 100,1000 --alpha 0.5,1 --s 0.5,1 --format text",
        "dc1a4ed54704dec0b74e005c154ab18d19e82067bc667a83b6420580627a9b37"),
    "fstat-golden64-csv": ("fstat --seq kronecker --n 987,5000 --alpha 0.5,0.9,1 --s 0.5,1",
        "2c74bb61e8e866c98d903f305cb11f4e2710d6fc665d240f177ed39980a7b8f5"),
    "fstat-golden64-text": ("fstat --seq kronecker --n 987,5000 --alpha 0.5,0.9,1 --s 0.5,1 --format text",
        "ad640ee65f4c07376866cf6c9083dd6be20acea42cee9004d5a8e4e63f6abfca"),
    "fstat-golden128-csv": ("fstat --seq kronecker --precision 128 --n 987,3000 --alpha 0.5,1 --s 0.5,1",
        "abb9985f6a4fb1d727af6ecbc138f043af8c5c2fed4da64685ffbd82578ee752"),
    "fstat-golden128-text": ("fstat --seq kronecker --precision 128 --n 987,3000 --alpha 0.5,1 --s 0.5,1 --format text",
        "bb6b3b65e3d5f71577677e3bc945d9ec1719cf2417dfaf3b763b56431c930664"),
    "fstat-sqrt-csv": ("fstat --seq sqrt_frac --n 500,2000 --alpha 0.5,1 --s 1",
        "f666733f9af2234cf5abb8005f9a24d809e4b98cef16f2c59682c0094444b4b3"),
    "fstat-sqrt-text": ("fstat --seq sqrt_frac --n 500,2000 --alpha 0.5,1 --s 1 --format text",
        "b8a131c81bd5d8efa136cd4cbe9129e2110fe531cc7773e2f7997e85e312d50e"),
    "fstat-points-csv": ("fstat --points pts.csv --n 100,300 --alpha 0.5,1 --s 1,2",
        "416355702c38246963c7b25f899d97b60c11c16c66ce0f61eb407ca0fa13de4d"),
    "fstat-points-text": ("fstat --points pts.csv --n 100,300 --alpha 0.5,1 --s 1,2 --format text",
        "91430e8681ec072347b5f0a38263f41fae5880b431df16b229a49b9975fa49fa"),
    "gaps-csv": ("gaps --n 100",
        "3e4b362e3fed65ae711a552b92159d292a43fcb1634e762ed89485f7d916ce04"),
    "gaps-text": ("gaps --n 100 --format text",
        "c47fefdb55cab19728d5d1b8a8f84be58cd002c501f3225c5da243c92e588cbe"),
    "fstat-points128-bin": ("fstat --points pts128.bin --points-format binary --precision 128 --n 200,400 --alpha 0.5,1 --s 1",
        "0665e3c68a754d5899be008f50b5c57d0d1fa433d62298f94406a80b7f4dae75"),
    "gen-iid-200k-csv": ("gen --seq iid --seed 3 --n 200000",
        "34304cd5e57fd5a5eb020a9cd7a052345c9603d3d755fa64e677d44ae5766620"),
    "gen-vdc2-csv": ("gen --seq vdc --base 2 --n 4096",
        "ac876836133c9bd5d53b0fa613889a16b539e45646c9a16d11d212d8322ced22"),
    "gen-iid128-20k-csv": ("gen --seq iid --seed 4 --precision 128 --n 20000",
        "2c2ec603ca0701f2370365664214c6fb6b702bf7722155e3d5216d169f5eea29"),
    "gaps128-csv": ("gaps --n 1000 --precision 128",
        "84681066acf08a2ca546be365c85ec2dcecc88508fb00f6099444dfb37cddbfa"),
    "fstat-points128-csv": ("fstat --points pts128.csv --precision 128 --n 200,400 --alpha 0.5,1 --s 1",
        "b8b88bcea097b21ed4cd27071eac23562469d93459c56a435aa4544600acf9d9"),
    "gen-vdc3-128-csv": ("gen --seq vdc --base 3 --precision 128 --n 500",
        "a53d0b9405681ed5bd759bb558472903384f0a14ca0083cf9a98a98de6a5f339"),
    # b^K above 2^120, recorded while generate still rounded such batches to the grid
    "gen-vdc-2pow130-csv": (f"gen --seq vdc --base {2 ** 130} --n 50",
        "85623d86b6428613dfed7df417f0b67595b5532e0c6aad50141f6dcb9490b5b5"),
    "gen-vdc-10pow39-128-bin": (f"gen --seq vdc --base {10 ** 39 + 1} --precision 128 --n 500 "
                               "--skip-zero --binary",
        "8c834dc8727cc7ffba4fa2f5591dfb06b314873b27e724fc8db24fbbc4bf7214"),
    # recorded before the golden Ostrowski ladder was built in one pass
    "cf-golden-csv": ("cf golden --terms 40",
        "a245bf7af549ad1402707206b4d1fe79217eec236f79ed76a7ec62a1eadd613a"),
    "cf-355-113-text": ("cf 355/113 --format text",
        "8f7194427c7f765b4baddbadd255f73c46754f2339b5eb0220d51f06d7ef373b"),
    "ostrowski-golden-csv": ("ostrowski 1000000",
        "3b183bf7ba430d22af97e4a09149a3b816cf7da250ff22840b7fb766ee0276ca"),
    "ostrowski-355-113-text": ("ostrowski 100 --z 355/113 --format text",
        "d8756c0b884952d4f0ad9d46bb36279c80f6ce4cad29ba66c5a070de9bfe5516"),
    "gaps-7-19-text": ("gaps --z 7/19 --n 100 --format text",
        "c5cdb991ec4ad7a1c3c2068f534506bacb060d273446e5fedafee0f0a095e003"),
}


@pytest.mark.parametrize("name", sorted(OUTPUT_DIGESTS))
def test_cli_output_bytes_unchanged(name, tmp_path, monkeypatch):
    argv, digest = OUTPUT_DIGESTS[name]
    monkeypatch.chdir(tmp_path)  # fstat --points echoes the file name
    assert main("gen --seq iid --seed 5 --n 300 --out pts.csv".split()) == 0
    assert main("gen --seq iid --seed 6 --precision 128 --n 400 --binary "
                "--out pts128.bin".split()) == 0
    assert main("gen --seq iid --seed 6 --precision 128 --n 400 --out pts128.csv".split()) == 0
    assert main(argv.split() + ["--out", "out"]) == 0
    assert hashlib.sha256(Path("out").read_bytes()).hexdigest() == digest
