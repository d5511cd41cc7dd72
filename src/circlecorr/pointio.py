"""Point files: CSV text and binary limbs, exact in both directions.

A CSV file is a "value" header and one point raw/2^P per line, written
with 20 significant digits (fewer when they hold the value exactly) and
read back as the nearest grid value.  A binary file holds each point as
P/8 little-endian bytes, its uint64 limbs, low limb first.  Malformed
input is a ValueError that names the line.  The writers take a batch on
the 2^P grid: convert an exact batch with ``RationalBatch.to_fixed(P)``.
"""

from __future__ import annotations

from decimal import ROUND_HALF_EVEN, Context, Decimal
from itertools import islice

import numpy as np

from .sequences import FixedBatch

_WORK = Context(prec=60)  # working precision of parse_point
_GRID = {precision: Decimal(1 << precision) for precision in (64, 128)}
_ZERO, _ONE = Decimal(0), Decimal(1)
_IO_BLOCK = 1 << 12  # points (lines) converted at once, which bounds the temporaries

# Point text <-> raw/2^P, exactly, on 32-bit limbs held in uint64 arrays (low
# limb first): a limb times 10^9 plus a carry stays inside 64 bits
_MASK32, _MASK64 = np.uint64(0xFFFFFFFF), (1 << 64) - 1
_POW10 = np.array([10 ** k for k in range(10)], dtype=np.uint64)
_PLAIN_ZEROS = 5  # a point below 10^-6 is written in exponent form
_READ_DIGITS = 27  # digits after "0." read as three 9-digit chunks; gen writes <= 25
_ZERO_CHAR, _DOT, _NEWLINE = b"0.\n"


def _decade_words(precision):
    """ceil(2^P / 10^k) for k >= 1 while it exceeds 1, as uint64 words, low word first.

    raw < ceil(2^P / 10^k) iff raw / 2^P < 10^-k.
    """
    bounds = [-(-(1 << precision) // 10 ** k) for k in range(1, precision)
              if 10 ** k < 1 << precision]
    return [np.array([b >> shift & _MASK64 for b in bounds], dtype=np.uint64)
            for shift in range(0, precision, 64)]


def _ascii_rows(texts, width):
    """One uint8 row per text, padded with 0 bytes, which the output drops."""
    rows = np.zeros((len(texts), width), dtype=np.uint8)
    for row, text in zip(rows, texts):
        row[:len(text)] = np.frombuffer(text.encode(), dtype=np.uint8)
    return rows


_DECADES = {precision: _decade_words(precision) for precision in (64, 128)}
_DIGITS2 = _ascii_rows([f"{k:02d}" for k in range(100)], 2)
_DIGITS4 = np.hstack([np.repeat(_DIGITS2, 100, axis=0), np.tile(_DIGITS2, (100, 1))]
                     ).view(np.uint32).ravel()  # the 4 digits of k as 4 bytes
# row e <= 5: "0." and e zeros; the last row: nothing (exponent form, or "0")
_PREFIX = _ascii_rows(["0." + "0" * e for e in range(_PLAIN_ZEROS + 1)] + [""],
                      8).view(np.uint32)
_EXPONENT = _ascii_rows([f"E-{k}" for k in range(40)], 4).view(np.uint32).ravel()


def _mul_small(limbs, factor, carry=0):
    """limbs = limbs * factor + carry in place (factor, carry < 2^32); the carry out."""
    for j, limb in enumerate(limbs):
        wide = limb * factor + carry
        limbs[j], carry = wide & _MASK32, wide >> 32
    return carry


def _div_small(limbs, divisor):
    """limbs //= divisor in place (divisor < 2^32)."""
    rest = np.zeros_like(limbs[0])
    for j in reversed(range(len(limbs))):
        wide = rest << 32 | limbs[j]
        limbs[j] = wide // divisor
        rest = wide - limbs[j] * divisor  # faster than %


def _format_block(words, precision: int) -> str:
    """One line per point raw/2^P, raw given as uint64 words, low word first.

    The text is Decimal's: 20 significant digits rounded half to even, or
    fewer when they hold the value exactly; exponent form below 10^-6; "0"
    for zero and for a P = 128 point that rounds to 1, the same point.
    """
    bounds = _DECADES[precision]
    below = words[0][:, None] < bounds[0]
    for word, bound in zip(words[1:], bounds[1:]):  # compared up to the high word
        below = (word[:, None] < bound) | (word[:, None] == bound) & below
    zeros = np.count_nonzero(below, axis=1)  # zero digits after the point
    limbs = [part for word in words for part in (word & _MASK32, word >> 32)]
    for done in range(0, zeros.max(initial=0), 9):  # raw * 10^zeros stays below 2^P
        _mul_small(limbs, _POW10[np.clip(zeros - done, 0, 9)])
    # 20 digits, 4 at a time, the first nonzero unless raw is 0; what is left
    # in limbs is the rest of the value, in units of 2^-P of the 20th digit
    groups = [_mul_small(limbs, 10 ** 4) for _ in range(5)]
    high, low = limbs[-1], np.logical_or.reduce(limbs[:-1])
    exact = (high == 0) & ~low
    half = np.uint64(1 << 31)
    groups[4] += (high >= half) & (low | (high > half) | (groups[4] & 1 == 1))  # half to even
    for k in range(4, 0, -1):
        groups[k - 1] += groups[k] // 10 ** 4
        groups[k] %= 10 ** 4
    carried = groups[0] == 10 ** 4  # rounded up to a power of ten
    groups[0][carried], zeros = 1000, zeros - carried
    zero = (groups[0] == 0) | (zeros < 0)  # zero, or (P = 128) rounded up to 1
    exponent = (zeros > _PLAIN_ZEROS) & ~zero
    # bytes: "0." and zeros 0-6, first digit 7 (exponent form) or 8 (plain),
    # point 8 (exponent form), digits 9-27, exponent 28-31, newline 32
    rows = np.zeros((len(zeros), 9), dtype=np.uint32)
    rows[:, :2] = _PREFIX[np.where(exponent | zero, -1, zeros)]
    for k, group in enumerate(groups):
        rows[:, 2 + k] = _DIGITS4[group]
    rows[exponent, 7] = _EXPONENT[zeros[exponent] + 1]
    chars = rows.view(np.uint8)
    chars[:, 32] = _NEWLINE
    ends = chars[exact, 9:28]  # an exact value is written without its trailing zeros
    ends[np.logical_and.accumulate(ends[:, ::-1] == _ZERO_CHAR, axis=1)[:, ::-1]] = 0
    chars[exact, 9:28] = ends
    chars[zero, 8:28] = 0
    chars[zero, 8] = _ZERO_CHAR
    chars[exponent, 7] = chars[exponent, 8]
    chars[exponent, 8] = np.where(chars[exponent, 9:28].any(axis=1), _DOT, 0)
    text = chars.ravel()
    return text[text != 0].tobytes().decode("ascii")


def _parse_block(lines, first: int, precision: int) -> np.ndarray:
    """The points on lines (the first is line first + 1) as uint64 words, low word first.

    Lines in gen's form, "0" or "0." and up to 27 digits, are rounded here,
    exactly.  parse_point gives the same: its 60-digit product is within
    10^-21 of the exact one, whose fraction is a multiple of 5^-27, so never
    within 6e-20 of 1/2.  Every other line goes through parse_point, and
    blank lines and a header are skipped.
    """
    sizes = np.fromiter(map(len, lines), dtype=np.int64, count=len(lines))
    starts = np.cumsum(sizes) - sizes
    width = 2 + _READ_DIGITS
    # "replace" makes each non-ASCII character one "?", so offsets stay in step
    text = np.frombuffer(("".join(lines) + "\0" * width).encode("ascii", "replace"),
                         dtype=np.uint8)
    chars = np.lib.stride_tricks.sliding_window_view(text, width)[starts]  # each line's start
    count = sizes - (text[starts + sizes - 1] == _NEWLINE) - 2  # digits after "0."
    digits = chars[:, 2:] - _ZERO_CHAR  # a non-digit wraps to 10 or more
    digits *= np.arange(_READ_DIGITS) < count[:, None]
    ours = (chars[:, 0] == _ZERO_CHAR) & ((count == -1) | (chars[:, 1] == _DOT) & (
        count <= _READ_DIGITS) & (digits < 10).all(axis=1))
    digits[~ours] = 0
    # m < 10^27 < 2^90, the point m / 10^27, from three 9-digit chunks, each
    # summed digit by digit, exactly, in uint32 (a chunk stays below 10^9 < 2^32)
    chunks = np.zeros(3 * len(digits), dtype=np.uint32)
    for column in digits.reshape(-1, 9).T:
        chunks = chunks * 10 + column
    chunks = chunks.astype(np.uint64).reshape(-1, 3)
    limbs = [chunks[:, 0], np.zeros_like(chunks[:, 0]), np.zeros_like(chunks[:, 0])]
    _mul_small(limbs, 10 ** 9, chunks[:, 1])
    _mul_small(limbs, 10 ** 9, chunks[:, 2])
    # x = m 2^P / 10^27 = m 2^(P - 27) / 5^27 is never k + 1/2, as m 2^(P - 26)
    # is even and (2k + 1) 5^27 odd, so x rounds half to even as floor(2x + 1) / 2
    whole, bits = divmod(precision - 26, 32)
    _mul_small(limbs, 1 << bits)  # m 2^bits < 2^96: still three limbs
    limbs = [np.zeros_like(limbs[0])] * whole + limbs
    for _ in range(3):
        _div_small(limbs, 5 ** 9)
    _mul_small(limbs, 1, 1)
    # 2^P (limb P/32 set) is dropped: it is the point 0
    raw = [limbs[j] >> 1 | (limbs[j + 1] & 1) << 31 for j in range(precision // 32)]
    words = np.column_stack([raw[j] | raw[j + 1] << 32 for j in range(0, len(raw), 2)])
    keep = np.ones(len(lines), dtype=bool)
    for i in np.flatnonzero(~ours):
        line = lines[i].strip()
        if not line or (first + i == 0 and line == "value"):
            keep[i] = False
            continue
        try:
            value = parse_point(line, precision)
        except ArithmeticError:  # decimal.InvalidOperation: not a number, or NaN
            raise ValueError(f"line {first + i + 1}: {line!r} is not a point value") from None
        except ValueError as exc:  # a number outside [0, 1), Infinity among them
            raise ValueError(f"line {first + i + 1}: {exc}") from None
        words[i] = [value >> shift & _MASK64 for shift in range(0, precision, 64)]
    return words[keep]


def _words(batch) -> tuple:
    """The points' uint64 words, low word first."""
    return (batch.raw,) if batch.precision == 64 else batch.split()[::-1]


def format_point(raw: int, precision: int) -> str:
    """raw/2^precision as write_points_csv writes it."""
    return _format_block([np.array([raw >> shift & _MASK64], dtype=np.uint64)
                          for shift in range(0, precision, 64)], precision)[:-1]


def parse_point(text: str, precision: int) -> int:
    """Invert format_point: nearest grid value (exact for P=64 at 20 digits).

    A value outside [0, 1) is a ValueError; one that rounds up to 2^P maps to 0.
    """
    value = Decimal(text)
    if not _ZERO <= value < _ONE:
        raise ValueError(f"{text!r} is outside [0, 1)")
    raw = int(_WORK.multiply(value, _GRID[precision]).to_integral_value(ROUND_HALF_EVEN, _WORK))
    return 0 if raw >> precision else raw  # only 2^P itself reaches past the grid


def write_points_csv(batch, stream):
    words = _words(batch)
    stream.write("value\n")
    for i in range(0, len(batch), _IO_BLOCK):
        stream.write(_format_block([word[i:i + _IO_BLOCK] for word in words],
                                   batch.precision))


def write_points_binary(batch, stream):
    """Each point as precision/8 little-endian bytes: its uint64 limbs, low limb first."""
    words = _words(batch)
    for i in range(0, len(batch), _IO_BLOCK):
        block = np.column_stack([word[i:i + _IO_BLOCK] for word in words])
        stream.write(block.astype("<u8", copy=False).tobytes())


def read_points_csv(stream, precision: int) -> FixedBatch:
    """Each point rounded half to even to the 2^-P grid, 2^P taken as 0.

    A line that is no point in [0, 1) is a ValueError that names it.
    """
    blocks, first = [np.empty((0, precision // 64), dtype=np.uint64)], 0
    while lines := list(islice(stream, _IO_BLOCK)):
        blocks.append(_parse_block(lines, first, precision))
        first += len(lines)
    return FixedBatch.from_limbs(precision, np.concatenate(blocks))


def read_points_binary(stream, precision: int) -> FixedBatch:
    data = stream.read()
    width = precision // 8
    if len(data) % width:
        raise ValueError(f"binary point file length is not a multiple of {width}")
    return FixedBatch.from_limbs(precision, np.frombuffer(data, dtype="<u8")
                                 .reshape(-1, precision // 64))
