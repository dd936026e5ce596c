"""Exact decimal text of float64 arrays, computed with numpy.

`Texts(values, style, after)` finds, for every element v, the bytes of
``'%.17g' % v`` (style "g17", the CSV layout) or of ``repr(v)`` (style
"repr", the JSON layout), each followed by one byte (its separator):
`length` holds their byte counts, and `write(out, at)` puts each into a
byte buffer at its offset, which the caller takes from a cumulative sum
of the lengths.

Each |v| is scaled to S = |v| 10^(16 - X), X = floor(log10 |v|), as a
double-double: a table of 10^s as hi + lo and Dekker's exact product
(numpy has no fma), so S is known to about 1e-14 absolute and lies in
[1e16, 1e17).  The 17 significant digits are S rounded to an integer.
The shortest round-trip digits (repr) are S rounded to the fewest digits
whose value stays strictly inside v's rounding interval, half an ulp
either side (the interval test of Grisu, Loitsch 2010, and Ryu, Adams
2018).

A text is a sign, a lead ("0." and zeros, in fixed notation below 1),
the shown digits with their point, and an exponent; its length follows
from the sign, X and the number of digits shown.  It is written as
8-byte words that each lie inside the text, every later word over the
bytes an earlier one holds past its part: the lead, the first and next 8
bytes from the first digit (the digits, 4 at a time through a lookup
table, and the point), and the last 8 bytes, which end with the
exponent and the byte after.

An element that this cannot decide is formatted by Python itself: a zero,
a subnormal, |v| outside [1e-290, 1e290), in repr style an exact power of
two (its rounding interval is lopsided), and any element whose rounding
remainder or interval distance lies within 2^-30 of a tie.  So every
element's bytes are Python's.  Python also formats the texts shorter
than a word (8 bytes) from their first digit through their separator.
"""

from __future__ import annotations

import functools

import numpy as np

_MARGIN = 2.0 ** -30  # the computed S is within 1e-14 of the exact one
_RANGE = (1e-290, 1e290)  # the fast path's magnitudes
_XMIN, _XMAX = -292, 291  # decimal exponents the fast path can meet
_SPLIT = 2.0 ** 27 + 1  # Dekker's splitter: 26 significant bits each side
_P16, _P17 = 10 ** 16, 10 ** 17
_UNITS = 10 ** np.arange(17, dtype=np.int64)
_LOW = np.array([(1 << 8 * k) - 1 for k in range(9)], dtype=np.uint64)  # the low k bytes
# the lead of fixed notation below 1 ("0." and zeros) as a word, zeros after
_LEAD = np.frombuffer(b"0.000000", dtype="<u8")[0]


@functools.cache
def _pow10() -> np.ndarray:
    """Column X - _XMIN: 10^(16 - X) as hi + lo, with hi cut into a 26-bit
    head and a tail of at most 27 bits, so that every partial product with
    a 26-bit half of |v| is exact; rows hi, head, tail, lo, built once and
    read only."""
    table = np.empty((4, _XMAX - _XMIN + 1))
    for k, s in enumerate(range(16 - _XMIN, 15 - _XMAX, -1)):  # s = 16 - X
        # int / int is correctly rounded, and hi = num / den exactly
        hi = 10 ** s / 1 if s >= 0 else 1 / 10 ** -s
        num, den = hi.as_integer_ratio()
        scale = 10 ** max(-s, 0)
        table[[0, 3], k] = hi, (10 ** max(s, 0) * den - num * scale) / (den * scale)
    table[1] = (table[0].view(np.uint64) & ~np.uint64(2 ** 27 - 1)).view(np.float64)
    table[2] = table[0] - table[1]
    table.setflags(write=False)
    return table


@functools.cache
def _chunk_text() -> np.ndarray:
    """The four ASCII digits of 0..9999, as the low half of a
    little-endian uint64 each."""
    k = np.arange(100, dtype=np.uint64)
    pair = k // 10 + ord("0") | (k % 10 + ord("0")) << 8
    text = (pair[:, None] | pair << 16).ravel()
    text.setflags(write=False)
    return text


@functools.cache
def _layout(style: str) -> tuple:
    """Per exponent X (index X - _XMIN): the bytes of the lead ("0." and
    zeros, in fixed notation below 1), the digits before the point (18:
    none), the fewest digits shown (the integer digits of fixed notation
    and repr's ".0"), and the exponent "e%+03d" % X of exponent notation:
    its byte count, and its bytes at the top of a little-endian uint64,
    below the last byte (the separator's)."""
    x = np.arange(_XMIN, _XMAX + 1)
    expo = (x < -4) | (x >= (17 if style == "g17" else 16))
    fixed = ~expo & (x >= 0)
    lead = np.where(expo | fixed, 0, 1 - x)
    point = np.where(expo, 1, np.where(fixed, x + 1, 18))
    least = np.where(fixed, x + 1 + (style == "repr"), 0)
    big = np.abs(x) >= 100
    sign = np.where(x < 0, ord("-"), ord("+"))
    text = np.zeros((x.size, 8), dtype=np.uint8)
    text[:, 4:7] = np.abs(x)[:, None] // np.array([100, 10, 1]) % 10 + ord("0")
    text[:, 4] = np.where(big, text[:, 4], sign)
    text[:, 3] = np.where(big, sign, ord("e"))
    text[:, 2] = np.where(big, ord("e"), 0)
    text[~expo] = 0
    counts = (lead, point, least, np.where(expo, 4 + big, 0))
    out = (*(t.astype(np.int8) for t in counts), text.view("<u8").ravel())
    for t in out:
        t.setflags(write=False)
    return out


def _scaled(a: np.ndarray, x: np.ndarray) -> tuple:
    """floor(S) as int64 and S - floor(S), for S = a 10^(16 - x), a > 0."""
    hi, head, tail, lo = _pow10().take(x - _XMIN, axis=1)
    ah = a * _SPLIT
    ah -= ah - a
    al = a - ah
    p = a * hi
    # the rounding error of p, exactly: every partial product is exact
    err = ah * head - p
    err += ah * tail
    err += al * head
    err += al * tail
    err += a * lo
    del hi, head, tail, lo, ah, al
    p_int = np.floor(p)
    p -= p_int
    p += err  # S - p_int, to about 1e-14
    r_int = np.floor(p)
    p -= r_int
    return p_int.astype(np.int64) + r_int.astype(np.int64), p


def _near(f: np.ndarray, frac: np.ndarray, k: int) -> np.ndarray:
    """The distance from f + frac to the nearest multiple of 10^k."""
    rem = f - f // 10 ** k * 10 ** k
    return np.minimum(rem + frac, (10 ** k - rem) - frac)


def _decimal(a: np.ndarray, shortest: bool) -> tuple:
    """(digits as a 17-digit int64, exponent X, number of significant
    digits, undecided mask) of each a > 0 within the fast range."""
    x = np.floor(np.log10(a)).astype(np.int64)
    f, frac = _scaled(a, x)
    d = f + (frac > 0.5)
    # log10 may be one off next to a power of ten: S is then below 1e16
    # (d may round up to exactly 1e16) or rounds to above 1e17
    off = ((f < _P16) | (d > _P17)).nonzero()[0]
    if off.size:
        x[off] += np.where(d[off] > _P17, 1, -1)
        f[off], frac[off] = _scaled(a[off], x[off])
        d[off] = f[off] + (frac[off] > 0.5)
    undecided = np.abs(frac - 0.5) < _MARGIN
    drop = np.zeros(a.size, dtype=np.int64)  # trailing digits not shown
    if shortest:
        # k digits can go when the nearest multiple of 10^k is strictly
        # within half an ulp of a (true for k = 0); that holds for a prefix
        # of k, so drop counts the steps passed.  Most elements stop within
        # two steps, taken on all of them; the few left go on alone.
        m, e = np.frexp(a)
        undecided |= m == 0.5  # a power of two: its interval is lopsided
        half = np.ldexp(_pow10()[0].take(x - _XMIN), e - 54)
        alive = np.ones(a.size, dtype=bool)
        for k in (1, 2):
            near = _near(f, frac, k)
            undecided |= alive & (np.abs(near - half) < _MARGIN)
            alive &= near < half
            drop += alive
        live = alive.nonzero()[0]
        for k in range(3, 17):
            if not live.size:
                break
            near = _near(f[live], frac[live], k)
            undecided[live[np.abs(near - half[live]) < _MARGIN]] = True
            live = live[near < half[live]]
            drop[live] = k
        # round S to the kept digits (for drop = 0 this is d as above, and
        # its tie test is the one made above)
        unit = _UNITS[drop]
        rem = f - f // unit * unit
        down = rem + frac
        up = (unit - rem) - frac
        undecided |= np.abs(down - up) < _MARGIN
        d = f - rem + np.where(down > up, unit, 0)
    top = (d == _P17).nonzero()[0]
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


def _text_words(d, point, size, exp, tail, after) -> tuple:
    """The three words that write each text from its first digit on, and
    their offsets: the first 8 bytes, the next 8 (or the last 8 again when
    there are fewer than 16) and the last 8, with the digits' end, the
    exponent and the byte after.  The 17 digits of d in [1e16, 1e17) have
    a point after the first `point` of them (18: none)."""
    text = _chunk_text()
    # exponent notation (and fixed below 10) has the point after the first
    # digit: the 4-digit chunks then start one byte later
    dot1 = point == 1
    at = 8 + 8 * dot1.astype(np.uint64)
    lead = d // 10 ** 16
    rest = d - lead * 10 ** 16
    words = [(lead + ord("0")).astype(np.uint64) | dot1 * np.uint64(ord(".") << 8)]
    for k in range(4):
        unit = 10 ** (12 - 4 * k)
        chunk = rest // unit
        rest -= chunk * unit
        chunk = text[chunk]
        if k % 2:
            # the chunk at bit at + 32 runs on into the next word
            words[-1] |= chunk << at + 32
            words.append(chunk >> 32 - at)
        else:
            words[-1] |= chunk << at
    # the build's temporaries go before the point shift, so that the rows
    # it gathers fit in their place
    del at, lead, rest, chunk, dot1
    inner = (point > 1) & (point < 18)
    for p in np.unique(point[inner]).tolist():
        # fixed notation from 10 up: the point goes after the p integer
        # digits, and the bytes from there on move up one
        rows = (inner & (point == p)).nonzero()[0]
        k, low = p // 8, np.uint64((1 << 8 * (p % 8)) - 1)
        for j in range(2, k, -1):
            words[j][rows] = words[j][rows] << 8 | words[j - 1][rows] >> 56
        w = words[k][rows]
        words[k][rows] = w & low | np.uint64(ord(".")) << 8 * (p % 8) | (w & ~low) << 8
    w0, w1, w2 = words
    del words, inner  # a block's memory peaks here
    last = size - 8
    in0, in1 = last < 8, last < 16  # the last 8 bytes start in word 0, or 0 or 1
    shift = (last & 7).astype(np.uint64) * 8
    end = np.where(in0, w0, np.where(in1, w1, w2))
    end >>= shift
    shift = 64 - shift
    end |= np.where(in0, w1, np.where(in1, w2, 0)) << shift
    end &= _LOW.take(7 - exp)
    end |= tail | after.astype(np.uint64) << 56
    return ((w0, np.where(in0, end, w1), end),
            (0, np.minimum(last, 8).astype(np.int8), last.astype(np.int8)))


class Texts:
    """The text of each element of the flattened float64 array,
    ``'%.17g' % v`` (style "g17") or ``repr(v)`` (style "repr"), followed
    by the byte `after` (broadcast against the array): `length` holds the
    byte count of each and `write` puts them into a buffer.  Non-finite
    values, and the others the module docstring names, are formatted by
    Python."""

    def __init__(self, values: np.ndarray, style: str, after):
        v = np.ascontiguousarray(values, dtype=np.float64).ravel()
        after = np.broadcast_to(np.asarray(after, dtype=np.uint8), np.shape(values)).ravel()
        a = np.abs(v)
        fast = (a >= _RANGE[0]) & (a < _RANGE[1])
        fast = slice(None) if fast.all() else fast.nonzero()[0]
        d, x, shown, undecided = _decimal(a[fast], style == "repr")
        del a  # each array held here counts in the block's memory peak
        lead, point, least, exp, tail = (t.take(x - _XMIN) for t in _layout(style))
        size = np.maximum(shown, least)
        size += (size > point) + exp + 1  # from the first digit to the byte after
        del x, shown, least
        done = ~undecided & (size >= 8)
        if not done.all():
            fast = np.arange(v.size)[fast][done]
            d, lead, point, exp, tail, size = (t[done] for t in (d, lead, point, exp, tail, size))
        slow = np.ones(v.size, dtype=bool)
        slow[fast] = False
        self.slow = slow.nonzero()[0]
        fmt = "%.17g".__mod__ if style == "g17" else float.__repr__
        self.slow_text = [fmt(t).encode() + bytes((b,))
                          for t, b in zip(v[self.slow].tolist(), after[self.slow].tolist())]
        self.words, self.offsets = _text_words(d, point, size, exp, tail, after[fast])
        self.fast, self.neg, self.lead = fast, np.signbit(v[fast]), lead
        self.below = lead.nonzero()[0]
        self.length = np.empty(v.size, dtype=np.int64)
        self.length[fast] = self.neg + lead + size
        self.length[self.slow] = [len(t) for t in self.slow_text]

    def write(self, out: np.ndarray, at: np.ndarray) -> None:
        """Write text k and its byte after into the uint8 buffer out at
        offset at[k]."""
        s = at[self.fast]
        out[s[self.neg]] = ord("-")
        s = s + self.neg
        slots = words(out)
        # each word lies inside its own text, and each later one writes over
        # the bytes an earlier one holds past its part: the lead "0." and
        # zeros, then the digits, then the digits' end with the exponent
        slots[s[self.below]] = _LEAD
        s += self.lead
        for word, offset in zip(self.words, self.offsets):
            slots[s + offset] = word
        for k, t in zip(at[self.slow].tolist(), self.slow_text):
            out[k:k + len(t)] = np.frombuffer(t, dtype=np.uint8)


def words(buf: np.ndarray) -> np.ndarray:
    """The uint8 buffer buf as little-endian uint64 words starting at
    every byte: words(buf)[k] is buf[k:k + 8]."""
    return np.ndarray((max(buf.size - 7, 0),), dtype="<u8", buffer=buf, strides=(1,))

