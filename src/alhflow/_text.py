"""CSV text of float64 columns, byte for byte as format(v, ".17g").

The writers format blocks of rows with array operations instead of one
dtoa call per value.  This is the fast path with an exact fallback of Grisu
(Loitsch, "Printing floating-point numbers quickly and accurately with
integers", PLDI 2010):

- |v| is scaled by 10^(16 - e10) in double-double arithmetic, so the scaled
  value is known to about 1e-14 absolute, and rounded to a 17-digit
  integer; e10 is corrected where the scaled value falls outside
  [1e16, 1e17);
- the digits become ASCII through a table of all 4-digit groups;
- each cell is laid out in four 64-bit words whose byte masks come from
  tables keyed by the decimal exponent and by the count of digits before
  the point and of significant digits; the sign, the notation and the
  exponent's width follow from these;
- one boolean compress per block drops the bytes the cells do not use.

A cell takes "%.17g" % v where the fast path cannot prove its digits: v not
finite, |v| outside [1e-280, 1e280] (where the split products of the
scaling would leave the normal range), or a rounding fraction within 1e-6
of 1/2, which includes every exact tie.  Zeros stay on the fast path.

Other columns hold config values (ints, strings, bools or floats); their
cells keep the rule of format(v, ".17g") for floats and str(v) otherwise.
"""

from __future__ import annotations

from functools import cache
from typing import NamedTuple

import numpy as np

#: Rows formatted per block; the peak memory of a write scales with it.
BLOCK_ROWS = 512

_FAST_MIN, _FAST_MAX = 1e-280, 1e280
_TIE_MARGIN = 1e-6
_E_MIN, _E_MAX = -282, 281  # decimal exponents the tables cover
_SPLIT = 134217729.0  # 2^27 + 1, Veltkamp's splitting constant
_TWO_53 = 2.0 ** 53

#: Bytes of a cell's layout (see _float_cells); the last holds the separator.
_CELL = 32
_POSITIONS = 18  # of the digit string: 17 digits and a point


class _Tables(NamedTuple):
    # by decimal exponent, index e10 - _E_MIN
    hi: np.ndarray       # 10^(16 - e10) rounded to a double ...
    lo: np.ndarray       # ... and the rounded rest
    hi_head: np.ndarray  # hi split into two 26-bit halves
    hi_tail: np.ndarray
    whole: np.ndarray    # digits before the point (0 below 1 in fixed notation)
    prefix: np.ndarray   # word 0: the "0.", "0.0", ... of fixed notation below 1
    exponent: np.ndarray  # word 3: "e", sign and exponent digits, or nothing
    # by digit group 0..9999
    quad: np.ndarray      # the group's 4 ASCII digits, little-endian in a uint64
    trailing: np.ndarray  # its trailing zero digits (4 for 0000)
    # by whole * _POSITIONS + significant digits: the bytes of words 1-2
    # taken from the digit string, from the string shifted on by one byte,
    # and the point; and whether word 3 holds an 18th character
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
                     np.array(whole), np.array(prefix, dtype=np.uint64),
                     np.array(exponent, dtype=np.uint64), quad, trailing,
                     words(_DIGIT, 0xFF), words(_SHIFTED, 0xFF),
                     words(_POINT, ord(".")), last)
    for table in tables:
        table.setflags(write=False)
    return tables


def _scaled(a, e10, t: _Tables):
    """|v| 10^(16 - e10) as p + q: p the rounded product, q what it left out.

    Dekker's exact product gives a * hi = p + err; adding a * lo brings the
    table's error to about 2^-106 relative.
    """
    i = e10 - _E_MIN
    hi, head, tail = t.hi[i], t.hi_head[i], t.hi_tail[i]
    p = a * hi
    scaled = _SPLIT * a
    a_head = scaled - (scaled - a)
    a_tail = a - a_head
    err = ((a_head * head - p) + a_head * tail + a_tail * head) + a_tail * tail
    return p, err + a * t.lo[i]


def _integer_part(p, q):
    """floor(p + q) and the fraction left, exact where p >= 2^53."""
    floor_q = np.floor(q)
    return p.astype(np.int64) + floor_q.astype(np.int64), q - floor_q


def _digits(a, t: _Tables):
    """17-digit integers and decimal exponents of a = |v|, and where they are
    proven.  Zeros give 0 and 0; cells off the fast path give placeholders."""
    zero = a == 0.0
    fast = zero | ((a >= _FAST_MIN) & (a <= _FAST_MAX))
    a = np.where(fast & ~zero, a, 1.0)
    e10 = np.floor(np.log10(a)).astype(np.int64)
    p, q = _scaled(a, e10, t)
    integer, frac = _integer_part(p, q)
    # log10 may miss by one next to a power of ten
    fix = (integer >= 10 ** 17).astype(np.int64) - (integer < 10 ** 16)
    if fix.any():
        e10 += fix
        p, q = _scaled(a, e10, t)
        integer, frac = _integer_part(p, q)
    fast &= (p >= _TWO_53) & (integer >= 10 ** 16) & (integer < 10 ** 17)
    fast &= np.abs(frac - 0.5) >= _TIE_MARGIN
    digits = integer + (frac > 0.5)
    carry = digits == 10 ** 17
    digits[carry] = 10 ** 16
    e10 += carry
    digits[zero] = 0
    e10[zero] = 0
    return digits, e10, fast


def _float_cells(x: np.ndarray) -> np.ndarray:
    """Bytes of format(v, ".17g") for each v of a float64 vector.

    Returns a (len(x), _CELL) uint8 array whose nonzero bytes, in order,
    are the cell's text.  A cell is four little-endian words with fields at
    fixed bytes, their unused bytes zero: 0 the sign, 1-5 the "0.000" of
    fixed notation below 1, 7-24 the digit string (the 17 digits, with the
    point put in), 25-29 "e", the exponent's sign and its digits.
    """
    t = _tables()
    n = x.size
    digits, e10, fast = _digits(np.abs(x), t)
    lead, rest = np.divmod(digits, 10 ** 16)
    high, low = np.divmod(rest, 10 ** 8)
    groups = (*np.divmod(high, 10000), *np.divmod(low, 10000))
    trailing = t.trailing[groups[3]]
    run = groups[3] == 0
    for group in groups[2::-1]:
        trailing += run * t.trailing[group]
        run &= group == 0

    i = e10 - _E_MIN
    key = t.whole[i] * _POSITIONS + (17 - trailing)
    lead = (lead + ord("0")).astype(np.uint64)
    head = t.quad[groups[0]] | t.quad[groups[1]] << 32  # digits 1-8
    tail = t.quad[groups[2]] | t.quad[groups[3]] << 32  # digits 9-16
    shifted = (head << 8 | lead, tail << 8 | head >> 56)

    words = np.empty((n, 4), dtype="<u8")
    words[:, 0] = np.signbit(x) * np.uint64(ord("-")) | t.prefix[i] | lead << 56
    for k, word in enumerate((head, tail)):
        words[:, 1 + k] = (word & t.digit[k, key] | shifted[k] & t.shifted[k, key]
                           | t.point[k, key])
    words[:, 3] = tail >> 56 & t.last[key] | t.exponent[i]

    cells = words.view(np.uint8)
    slow = ~fast
    if slow.any():
        text = np.array(["%.17g" % v for v in x[slow].tolist()], dtype="S")
        cells[slow] = 0
        cells[slow, :text.itemsize] = text.view(np.uint8).reshape(-1, text.itemsize)
    return cells


def _config_text(v) -> str:
    if isinstance(v, (float, np.floating)):
        return format(float(v), ".17g")
    return str(v)


def _block(columns, floats, values, start, stop) -> bytes:
    """CSV bytes of rows start..stop; `values` holds the float columns.

    Every cell gets a slot of equal width with its separator in the last
    byte; one compress then keeps the used bytes.
    """
    rows = stop - start
    literals = {k: [_config_text(v).encode() for v in column[start:stop]]
                for k, column in enumerate(columns) if k not in floats}
    if floats:
        cells = _float_cells(values[start:stop].ravel()).reshape(rows, len(floats), _CELL)
    if literals:
        width = max([_CELL] + [len(s) + 1 for texts in literals.values() for s in texts])
        out = np.zeros((rows, len(columns), width), dtype=np.uint8)
        if floats:
            out[:, floats, :_CELL] = cells
    else:
        out = cells
    out[:, :, -1] = ord(",")
    out[:, -1, -1] = ord("\n")
    keep = out != 0
    for k, texts in literals.items():
        # lengths, not nonzero bytes: a config string may hold a NUL
        text = np.array(texts)
        out[:, k, :text.itemsize] = text.view(np.uint8).reshape(rows, text.itemsize)
        keep[:, k, :-1] = np.arange(width - 1) < np.array([len(s) for s in texts])[:, None]
    return np.compress(keep.ravel(), out.ravel()).tobytes()


def csv_text(header, columns):
    """Yield the bytes of a CSV table: the header line, then blocks of rows.

    Arrays of a floating dtype go through the kernel.  Any other column
    holds config values, whose cells read as format(v, ".17g") for floats
    and str(v) otherwise.
    """
    n_rows = len(columns[0])
    if any(len(column) != n_rows for column in columns):
        raise ValueError("CSV columns differ in length")
    floats = [k for k, column in enumerate(columns)
              if isinstance(column, np.ndarray) and column.dtype.kind == "f"]
    values = np.column_stack([np.asarray(columns[k], dtype=np.float64)
                              for k in floats]) if floats else None
    yield (",".join(header) + "\n").encode()
    for start in range(0, n_rows, BLOCK_ROWS):
        yield _block(columns, floats, values, start, min(start + BLOCK_ROWS, n_rows))
