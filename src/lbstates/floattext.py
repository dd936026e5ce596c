"""Exact decimal text of float64 arrays, computed with numpy.

`cells(values, style)` gives, for every element v, the bytes of
``'%.17g' % v`` (style "g17", the CSV layout) or of ``repr(v)`` (style
"repr", the JSON layout) in a row of WIDTH bytes, with NUL (0) bytes
standing for nothing; `pack` drops them.

Each |v| is scaled to S = |v| 10^(16 - X), X = floor(log10 |v|), as a
double-double: a table of 10^s as hi + lo and Dekker's exact product
(numpy has no fma), so S is known to about 1e-14 absolute and lies in
[1e16, 1e17).  The 17 significant digits are S rounded to an integer.
The shortest round-trip digits (repr) are S rounded to the fewest digits
whose value stays strictly inside v's rounding interval, half an ulp
either side (the interval test of Grisu, Loitsch 2010, and Ryu, Adams
2018).  The digits are cut into 4-digit chunks, printed through a lookup
table and placed into a byte frame chosen by X.

An element that this cannot decide is formatted by Python itself: a zero,
a subnormal, |v| outside [1e-290, 1e290), in repr style an exact power of
two (its rounding interval is lopsided), and any element whose rounding
remainder or interval distance lies within 2^-30 of a tie.  So every
element's bytes are Python's.
"""

from __future__ import annotations

import functools

import numpy as np

WIDTH = 29  # a sign, "0.000", 17 digits and a point, "e-308"
_MARGIN = 2.0 ** -30  # the computed S is within 1e-14 of the exact one
_RANGE = (1e-290, 1e290)  # the fast path's magnitudes
_XMIN, _XMAX = -292, 291  # decimal exponents the fast path can meet
_SPLIT = 2.0 ** 27 + 1  # Dekker's splitter: 26 significant bits each side
_P16, _P17 = 10 ** 16, 10 ** 17
_UNITS = 10 ** np.arange(17, dtype=np.int64)
# cell layout: sign, lead ("0." and zeros), digits with their point, exponent
_LEAD, _DIGITS, _EXP = slice(1, 6), slice(6, 24), slice(24, 29)


@functools.cache
def _pow10() -> np.ndarray:
    """Row X - _XMIN: 10^(16 - X) as hi + lo, with hi cut into a 26-bit head
    and a tail of at most 27 bits, so that every partial product with a
    26-bit half of |v| is exact; columns hi, head, tail, lo."""
    table = np.empty((_XMAX - _XMIN + 1, 4))
    for k, s in enumerate(range(16 - _XMIN, 15 - _XMAX, -1)):
        # int / int is correctly rounded, and hi = num / den exactly
        hi = 10 ** s / 1 if s >= 0 else 1 / 10 ** -s
        num, den = hi.as_integer_ratio()
        scale = 10 ** max(-s, 0)
        table[k, 0] = hi
        table[k, 3] = (10 ** max(s, 0) * den - num * scale) / (den * scale)
    hi = table[:, 0]
    table[:, 1] = (hi.view(np.uint64) & ~np.uint64(2 ** 27 - 1)).view(np.float64)
    table[:, 2] = hi - table[:, 1]
    return table


@functools.cache
def _chunk_text() -> np.ndarray:
    """The four ASCII digits of 0..9999, one little-endian uint32 each."""
    k = np.arange(10 ** 4)
    digits = np.stack([k // 1000, k // 100 % 10, k // 10 % 10, k % 10], -1) + ord("0")
    return digits.astype(np.uint8).view("<u4").ravel()


@functools.cache
def _frames(style: str) -> tuple:
    """Row 2 (X - _XMIN) + dotted: the cell with the lead, point and
    exponent bytes of exponent X, with the point (dotted = 1) or without;
    and row X - _XMIN: the fewest digits shown (the integer digits of a
    fixed layout, and repr's ".0") and the digit column of the point (18:
    none)."""
    top = 17 if style == "g17" else 16  # the first exponent laid out as d.ddde+XX
    frame = np.zeros((_XMAX - _XMIN + 1, 2, WIDTH), dtype=np.uint8)
    shape = np.zeros((_XMAX - _XMIN + 1, 2), dtype=np.int64)
    for k, x in enumerate(range(_XMIN, _XMAX + 1)):
        if -4 <= x < 0:
            lead = b"0." + b"0" * (-x - 1)
            frame[k, :, _LEAD][:, :len(lead)] = np.frombuffer(lead, np.uint8)
            shape[k] = 0, 18
        elif 0 <= x < top:
            shape[k] = x + 1 if style == "g17" else x + 2, x + 1
        else:
            exp = b"e%+03d" % x
            frame[k, :, _EXP][:, :len(exp)] = np.frombuffer(exp, np.uint8)
            shape[k] = 0, 1
        if shape[k, 1] < 18:
            frame[k, 1, _DIGITS.start + shape[k, 1]] = ord(".")
    return frame.reshape(-1, WIDTH), shape


@functools.cache
def _masks() -> tuple:
    """Row 18 point + keep: 1 in the cell columns that take digit c and in
    those that take digit c - 1 of the digit area, when the first `keep`
    digits are shown with the point at digit column `point`."""
    left = np.zeros((19, 18, WIDTH), dtype=np.uint8)
    right = np.zeros((19, 18, WIDTH), dtype=np.uint8)
    for point in range(19):
        for keep in range(18):
            left[point, keep, _DIGITS][:min(point, keep)] = 1
            right[point, keep, _DIGITS][point + 1:keep + 1] = 1
    return left.reshape(-1, WIDTH), right.reshape(-1, WIDTH)


def _scaled(a: np.ndarray, x: np.ndarray) -> tuple:
    """floor(S) as int64 and S - floor(S), for S = a 10^(16 - x), a > 0."""
    pow10 = np.take(_pow10(), x - _XMIN, axis=0)
    hi, head, tail, lo = pow10.T
    c = a * _SPLIT
    ah = c - (c - a)
    al = a - ah
    p = a * hi
    err = ((ah * head - p) + ah * tail + al * head) + al * tail
    p_int = np.floor(p)
    r = (p - p_int) + (err + a * lo)
    r_int = np.floor(r)
    return p_int.astype(np.int64) + r_int.astype(np.int64), r - r_int


def _decimal(a: np.ndarray, shortest: bool) -> tuple:
    """(digits as a 17-digit int64, exponent X, number of significant
    digits, undecided mask) of each a > 0 within the fast range."""
    x = np.floor(np.log10(a)).astype(np.int64)
    f, frac = _scaled(a, x)
    d = f + (frac > 0.5)
    # log10 may be one off next to a power of ten: S is then below 1e16
    # (also when it rounds to exactly 1e16 from below) or above 1e17
    off = np.flatnonzero((d < _P16) | (d > _P17) | ((d == _P16) & (f < _P16)))
    if off.size:
        x[off] += np.where(d[off] > _P17, 1, -1)
        f[off], frac[off] = _scaled(a[off], x[off])
        d[off] = f[off] + (frac[off] > 0.5)
    undecided = np.abs(frac - 0.5) < _MARGIN
    drop = np.zeros(a.size, dtype=np.int64)  # trailing digits not shown
    if shortest:
        # k digits can go when the nearest multiple of 10^k is strictly
        # within half an ulp of a (true for k = 0); that holds for a prefix
        # of k, so the largest k is found on a shrinking set
        m, e = np.frexp(a)
        undecided |= m == 0.5  # a power of two: its interval is lopsided
        half_ulp = np.ldexp(np.take(_pow10()[:, 0], x - _XMIN), e - 54)
        live, f_k, frac_k, half_k = np.arange(a.size), f, frac, half_ulp
        for k in range(1, 17):
            rem = f_k - f_k // 10 ** k * 10 ** k
            near = np.minimum(rem + frac_k, (10 ** k - rem) - frac_k)
            unsure = np.abs(near - half_k) < _MARGIN
            if unsure.any():
                undecided[live[unsure]] = True
            ok = near < half_k
            live, f_k, frac_k, half_k = live[ok], f_k[ok], frac_k[ok], half_k[ok]
            if not live.size:
                break
            drop[live] = k
        # round S to the kept digits
        cut = np.flatnonzero(drop)
        unit = np.take(_UNITS, drop[cut])
        rem = f[cut] % unit
        down = rem + frac[cut]
        up = (unit - rem) - frac[cut]
        undecided[cut] |= np.abs(down - up) < _MARGIN
        d[cut] = f[cut] - rem + np.where(down > up, unit, 0)
    top = d == _P17
    d[top] = _P16
    x[top] += 1
    drop[top] = 16
    if not shortest:
        # %.17g drops the trailing zeros of the 17 digits
        live = np.arange(a.size)
        for k in range(1, 17):
            live = live[d[live] // 10 ** k * 10 ** k == d[live]]
            if not live.size:
                break
            drop[live] = k
    return d, x, 17 - drop, undecided


def _digits(d: np.ndarray) -> tuple:
    """Two cells for each d in [1e16, 1e17): its 17 ASCII digits from the
    first column of the digit area on, and from the second, NUL bytes
    elsewhere."""
    text = _chunk_text()
    first = np.zeros((d.size, WIDTH), dtype=np.uint8)
    lead = d // 10 ** 16
    first[:, _DIGITS.start] = lead + ord("0")
    rest = d - lead * 10 ** 16
    chunks = first[:, _DIGITS.start + 1:_DIGITS.start + 17].view("<u4")
    for k in range(4):
        unit = 10 ** (12 - 4 * k)
        chunk = rest // unit
        chunks[:, k] = np.take(text, chunk)
        rest -= chunk * unit
    # one byte later in the flat buffer: a cell's last byte is never a digit
    second = np.zeros_like(first)
    second.ravel()[1:] = first.ravel()[:-1]
    return first, second


def cells(values: np.ndarray, style: str) -> np.ndarray:
    """Rows of WIDTH bytes holding the text of each value of the flattened
    float64 array, ``'%.17g' % v`` (style "g17") or ``repr(v)`` (style
    "repr"), with NUL bytes for nothing: pack(cells(v, s)[k]) is that
    text.  Values outside the fast range, non-finite ones included, are
    formatted by Python."""
    v = np.ascontiguousarray(values, dtype=np.float64).ravel()
    a = np.abs(v)
    in_range = (a >= _RANGE[0]) & (a < _RANGE[1])
    fast = np.flatnonzero(in_range)
    d, x, shown, undecided = _decimal(a[fast], style == "repr")
    frame, shape = _frames(style)
    least, point = np.take(shape, x - _XMIN, axis=0).T
    keep = np.maximum(shown, least)
    text = np.take(frame, 2 * (x - _XMIN) + (keep > point), axis=0)
    left, right = (np.take(t, 18 * point + keep, axis=0) for t in _masks())
    first, second = _digits(d)
    text += first * left
    text += second * right
    text[:, 0] = np.signbit(v[fast]) * np.uint8(ord("-"))
    if fast.size == v.size:
        out = text
    else:
        out = np.zeros((v.size, WIDTH), dtype=np.uint8)
        out[fast] = text
    slow = ~in_range
    slow[fast[undecided]] = True
    slow = np.flatnonzero(slow)
    if slow.size:
        fmt = "%.17g".__mod__ if style == "g17" else float.__repr__
        raw = b"".join(fmt(t).encode().ljust(WIDTH, b"\0") for t in v[slow].tolist())
        out[slow] = np.frombuffer(raw, np.uint8).reshape(-1, WIDTH)
    return out


def pack(rows: np.ndarray) -> bytes:
    """The bytes of rows in order, NUL bytes dropped."""
    return rows[rows != 0].tobytes()


def texts(values: np.ndarray, style: str) -> list:
    """The text of each value of the flattened array, as bytes."""
    rows = cells(values, style)
    return pack(np.concatenate([rows, np.full((len(rows), 1), ord("\n"), np.uint8)], 1)
                ).split(b"\n")[:-1]
