"""CSV text of float64 columns, byte for byte as format(v, ".17g").

The writers format blocks of rows with whole-array numpy passes instead of
one dtoa call per value.  The fast path has an exact fallback, after Grisu
(Loitsch, "Printing floating-point numbers quickly and accurately with
integers", PLDI 2010).  A block of float cells takes these passes:

- digits: floor(log10 |v|) picks a row of the exponent tables; |v| times
  10^(16 - e10) in double-double arithmetic (Dekker's exact product plus the
  table's rounded rest) is known to about 1e-14 absolute, and one rounding
  to the nearest integer gives the 17 digits and the rest left over;
- groups: `//` by a constant and a multiply-subtract split the integer into
  the lead digit and four 4-digit groups, and one gather per group from a
  table of all 10^4 groups gives their ASCII, two groups to a 64-bit word;
- layout: the count of trailing zero digits comes from the last group, and
  with the decimal exponent gives a layout key; gathers from 1-D tables by
  key and by exponent give each word's byte masks, so a cell is four
  64-bit words with fields at fixed bytes, their unused bytes zero;
- one bytes.translate per block deletes those zero bytes.

Fix-ups run only in blocks that need them, each found by a reduction over
the block: cells off the fast range (zeros, non-finite values and |v|
outside [1e-280, 1e280], where the split products of the scaling would
leave the normal range), a log10 that missed by one next to a power of
ten, a round-up that carries to 10^17, a last digit group of 0000, and a
rest within 1e-6 of 1/2, which includes every exact tie.  A cell that the
fast path cannot prove (non-finite, out of range or near a tie) takes
"%.17g" % v; zeros stay on the fast path.

The kernel serves tables whose columns are all float arrays.  A table
with any other column holds config values (ints, strings, bools or floats),
a few rows of them, and bypasses the kernel: its rows are joined one by
one, each cell format(v, ".17g") for floats, a list or an object as JSON
quoted as RFC 4180 quotes a field, and str(v) otherwise.
"""

from __future__ import annotations

import json
from functools import cache
from typing import NamedTuple

import numpy as np

#: Rows formatted per block; the peak memory of a write scales with it.
BLOCK_ROWS = 512

_FAST_MIN, _FAST_MAX = 1e-280, 1e280
_TIE_MARGIN = 1e-6
_E_MIN, _E_MAX = -282, 281  # decimal exponents the tables cover
_SPLIT = 134217729.0  # 2^27 + 1, Veltkamp's splitting constant
_LOW, _HIGH = 10 ** 16, 10 ** 17  # the range of a 17-digit integer

#: Bytes of a cell's layout (see _float_cells); the last holds the separator.
_CELL = 32
_POSITIONS = 18  # of the digit string: 17 digits and a point


class _Tables(NamedTuple):
    # by decimal exponent, index e10 - _E_MIN
    hi: np.ndarray       # 10^(16 - e10) rounded to a double ...
    lo: np.ndarray       # ... and the rounded rest
    hi_head: np.ndarray  # hi split into two 26-bit halves
    hi_tail: np.ndarray
    full_key: np.ndarray  # the layout key of 17 significant digits; trailing zeros lower it
    prefix: np.ndarray   # word 0: the "0.", "0.0", ... of fixed notation below 1
    exponent: np.ndarray  # word 3: "e", sign and exponent digits, or nothing
    # by digit group 0..9999
    quad: np.ndarray       # the group's 4 ASCII digits, little-endian in a uint64 ...
    quad_high: np.ndarray  # ... and shifted to its upper half
    trailing: np.ndarray  # its trailing zero digits (4 for 0000)
    # by layout key, whole * _POSITIONS + significant digits (whole is the
    # count of digits before the point, 0 below 1 in fixed notation): the
    # bytes of words 1 and 2 taken from the digit string, from the string
    # shifted on by one byte, and the point; and whether word 3 holds an
    # 18th character.  Rows of each 2-D table are words 1 and 2.
    digit: np.ndarray    # (2, keys) masks
    shifted: np.ndarray  # (2, keys) masks
    point: np.ndarray    # (2, keys) "." bytes
    last: np.ndarray     # (keys,) mask of word 3's first byte


_NONE, _DIGIT, _SHIFTED, _POINT = range(4)


def _string_sources(whole: int, significant: int) -> list[int]:
    """What each position of a cell's digit string shows: _DIGIT j, the
    _SHIFTED digit j - 1, the _POINT, or _NONE past the end."""
    point = 0 < whole < significant
    length = max(significant, whole) + point
    return [_NONE if j >= length else
            _DIGIT if not point or j < whole else
            _POINT if j == whole else _SHIFTED
            for j in range(_POSITIONS)]


@cache
def _tables() -> _Tables:
    """Build the lookup tables on first use, so importing costs nothing."""
    hi, lo, whole, prefix, exponent = [], [], [], [], []
    for e10 in range(_E_MIN, _E_MAX + 1):
        num, den = 10 ** max(16 - e10, 0), 10 ** max(e10 - 16, 0)
        head = num / den  # integer true division rounds correctly
        head_num, head_den = head.as_integer_ratio()
        hi.append(head)
        lo.append((num * head_den - head_num * den) / (den * head_den))
        fixed = -4 <= e10 <= 16
        whole.append(max(e10 + 1, 0) if fixed else 1)
        leading = b"0." + b"0" * (-e10 - 1) if fixed and e10 < 0 else b""
        prefix.append(int.from_bytes(b"\0" + leading, "little"))
        text = b"" if fixed else f"e{e10:+03d}".encode()
        exponent.append(int.from_bytes(b"\0" + text, "little"))
    hi = np.array(hi)
    scaled = _SPLIT * hi
    hi_head = scaled - (scaled - hi)

    group = np.arange(10000)
    quad = sum((ord("0") + group // 10 ** (3 - b) % 10).astype(np.uint64) << np.uint64(8 * b)
               for b in range(4))
    trailing = np.sum([group % 10 ** z == 0 for z in range(1, 5)], axis=0)

    # row whole * _POSITIONS + significant; positions 1-16 are words 1-2
    sources = np.array([_string_sources(w, s)
                        for w in range(_POSITIONS) for s in range(_POSITIONS)])
    shifts = np.uint64(8) * np.arange(8, dtype=np.uint64)

    def words(source, byte):
        hit = sources[:, 1:17].reshape(-1, 2, 8) == source
        placed = np.where(hit, np.uint64(byte) << shifts, np.uint64(0))
        return np.bitwise_or.reduce(placed, axis=2).T.copy()

    last = np.where(sources[:, 17] == _SHIFTED, np.uint64(0xFF), np.uint64(0))
    tables = _Tables(hi, np.array(lo), hi_head, hi - hi_head,
                     np.array(whole) * _POSITIONS + 17,
                     np.array(prefix, dtype=np.uint64),
                     np.array(exponent, dtype=np.uint64),
                     quad, quad << np.uint64(32), trailing,
                     words(_DIGIT, 0xFF), words(_SHIFTED, 0xFF),
                     words(_POINT, ord(".")), last)
    for table in tables:
        table.setflags(write=False)
    return tables


def _rounded(a, i, t: _Tables):
    """|v| 10^(16 - e10) rounded to an integer, and the signed rest in
    [-1/2, 1/2], for i = e10 - _E_MIN.

    The product is p + q: p the rounded a * hi, q what it left out.  Dekker's
    exact product gives a * hi = p + err; adding a * lo brings the table's
    error to about 2^-106 relative.  p is an integer from 2^53 on, so the
    sum of the two integer parts is exact there.
    """
    p = a * t.hi.take(i)
    scaled = _SPLIT * a
    a_head = scaled - (scaled - a)
    a_tail = a - a_head
    head, tail = t.hi_head.take(i), t.hi_tail.take(i)
    q = a_head * head - p
    q += a_head * tail
    q += a_tail * head
    q += a_tail * tail
    q += a * t.lo.take(i)
    whole = np.rint(q)
    q -= whole
    return p.astype(np.int64) + whole.astype(np.int64), q


def _digits(a, t: _Tables):
    """17-digit integers of a = |v| rounded to nearest, the table index
    e10 - _E_MIN of each, and the cells they do not prove (None if every
    cell is proven).  Zeros give 0 at e10 = 0; cells that are not proven
    give the placeholder 10^16."""
    zero = slow = None
    if not (a.min() >= _FAST_MIN and a.max() <= _FAST_MAX):  # NaN fails too
        fast = (a >= _FAST_MIN) & (a <= _FAST_MAX)
        zero = a == 0.0
        slow = ~(fast | zero)
        a = np.where(fast, a, 1.0)
    # floor(log10 a) - _E_MIN truncates a positive number
    i = (np.log10(a) - _E_MIN).astype(np.intp)
    digits, rest = _rounded(a, i, t)
    low, high = digits.min(), digits.max()
    # log10 may miss by one next to a power of ten.  Rounded up to 10^17 is
    # a carry whichever way it missed; 10^16 from below is a miss.
    if low < _LOW or high > _HIGH or (low == _LOW and (rest[digits == _LOW] < 0).any()):
        i += digits > _HIGH
        i -= (digits < _LOW) | ((digits == _LOW) & (rest < 0))
        digits, rest = _rounded(a, i, t)
        bad = (digits < _LOW) | (digits > _HIGH) | ((digits == _LOW) & (rest < 0))
        slow = bad if slow is None else slow | bad
        high = _HIGH
    np.abs(rest, out=rest)
    if rest.max() > 0.5 - _TIE_MARGIN:
        tie = rest > 0.5 - _TIE_MARGIN
        slow = tie if slow is None else slow | tie
    if high == _HIGH:
        carry = digits == _HIGH
        digits[carry] = _LOW
        i += carry
    if zero is not None:
        digits[zero] = 0
    if slow is not None:
        digits[slow] = _LOW
    return digits, i, slow


def _split(x, unit):
    """x // unit and x % unit, with one division."""
    quotient = x // unit
    return quotient, x - quotient * unit


def _float_cells(x: np.ndarray, separator: np.ndarray) -> np.ndarray:
    """Bytes of format(v, ".17g") for each v of a float64 vector.

    Returns a (len(x), _CELL) uint8 array whose nonzero bytes, in order,
    are the cell's text.  A cell is four little-endian words with fields at
    fixed bytes, their unused bytes zero: 0 the sign, 1-5 the "0.000" of
    fixed notation below 1, 7-24 the digit string (the 17 digits, with the
    point put in), 25-29 "e", the exponent's sign and its digits, and 31
    the cell's separator.  `separator` holds one uint64 word per cell, its
    word 3 with the separator in byte 31 and zeros elsewhere.
    """
    t = _tables()
    digits, i, slow = _digits(np.abs(x), t)
    lead, rest = _split(digits.view(np.uint64), _LOW)  # unsigned divides faster
    high, low = _split(rest, 10 ** 8)
    groups = [group.view(np.int64)  # take wants intp
              for group in (*_split(high, 10000), *_split(low, 10000))]

    trailing = t.trailing.take(groups[3])
    if groups[3].min() == 0:
        run = groups[3] == 0
        for group in groups[2::-1]:
            trailing += run * t.trailing.take(group)
            run &= group == 0
    key = t.full_key.take(i)
    key -= trailing

    head = t.quad.take(groups[0])
    head |= t.quad_high.take(groups[1])  # digits 1-8
    tail = t.quad.take(groups[2])
    tail |= t.quad_high.take(groups[3])  # digits 9-16
    lead += ord("0")

    words = np.empty((x.size, 4), dtype="<u8")
    word = lead << 56
    word |= t.prefix.take(i)
    np.bitwise_or(word, np.signbit(x) * np.uint64(ord("-")), out=words[:, 0])
    for k, (digit, shifted) in enumerate(((head, head << 8 | lead),
                                          (tail, tail << 8 | head >> 56))):
        word = digit & t.digit[k].take(key)
        shifted &= t.shifted[k].take(key)
        word |= shifted
        np.bitwise_or(word, t.point[k].take(key), out=words[:, 1 + k])
    word = tail >> 56
    word &= t.last.take(key)
    word |= t.exponent.take(i)
    np.bitwise_or(word, separator, out=words[:, 3])

    cells = words.view(np.uint8)
    if slow is not None:
        text = np.array(["%.17g" % v for v in x[slow].tolist()], dtype="S")
        cells[slow, :_CELL - 1] = 0
        cells[slow, :text.itemsize] = text.view(np.uint8).reshape(-1, text.itemsize)
    return cells


def _config_text(v) -> str:
    if isinstance(v, (float, np.floating)):
        return format(float(v), ".17g")
    if isinstance(v, (list, dict)):  # its commas and quotes stay in one cell
        return '"' + json.dumps(v).replace('"', '""') + '"'
    return str(v)


def csv_text(header, columns):
    """Yield the bytes of a CSV table: the header line, then its rows.

    A table has one of two shapes.  If every column is an array of a
    floating dtype, blocks of BLOCK_ROWS rows go through the kernel.  Any
    other table holds config values, a few rows of them, and is written row
    by row: its cells read as format(v, ".17g") for floats, quoted JSON for
    lists and objects, and str(v) otherwise.
    """
    n_rows = len(columns[0])
    if any(len(column) != n_rows for column in columns):
        raise ValueError("CSV columns differ in length")
    yield (",".join(header) + "\n").encode()
    if not all(isinstance(column, np.ndarray) and column.dtype.kind == "f"
               for column in columns):
        yield "".join(",".join(map(_config_text, row)) + "\n"
                      for row in zip(*columns)).encode()
        return
    values = np.column_stack([np.asarray(column, dtype=np.float64) for column in columns])
    separator = np.full((min(n_rows, BLOCK_ROWS), len(columns)), ord(","), dtype=np.uint64)
    separator[:, -1] = ord("\n")
    separator = (separator << np.uint64(56)).ravel()
    for start in range(0, n_rows, BLOCK_ROWS):
        x = values[start:start + BLOCK_ROWS].ravel()
        yield _float_cells(x, separator[:x.size]).tobytes().translate(None, b"\0")
