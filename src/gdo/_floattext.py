"""Exact "%.17g" text of float64 arrays, vectorized, for the CSV artifacts.

"%.17g" % v prints the 17 significant digits of v, correctly rounded (Gay,
"Correctly rounded binary-decimal and decimal-binary conversions", 1990),
laid out by the %g rules.  csv_text computes the same bytes with numpy and
returns them as ASCII bytes, ready to write:

* Digits.  For 1e-279 <= |v| < 1e16 with decimal exponent e =
  floor(log10|v|) and k = 16 - e, the digits are D = round(|v| 10^k).
  10^k = H + L, with H the double nearest it and L the double nearest the
  rest, so |v| 10^k = p + r: p = fl(|v| H) is an integer (p >= 2^53) and r is
  the exact error of that product (Dekker's TwoProduct, Numer. Math. 18
  (1971) 224) plus |v| L, off by about 1e-14.  D = p + round(r).
* Fallback.  D is used only when r lies more than 1e-9 from a half-integer,
  p + r >= 10^16 (else e was one too large) and D < 10^17 (else one too
  small).  Every other value, and every nan, inf and out-of-range value, is
  written by "%.17g" % v itself, which stays the reference.
* Layout.  Fixed notation for -4 <= e < 17, else d.ddde-XX with 2 or 3
  exponent digits; trailing zeros are dropped, and the point with them when
  no fraction is left.  Each value fills a slot of four 64-bit words with
  fixed places for the sign, the "0.000" lead of fixed notation below 1,
  the first digit, the point, the other 16 digits, the exponent and the
  separator.  Only values of 10 or more, whose point follows a later
  digit, move the digits before it down one byte.  Absent characters are
  NUL, and one bytes.translate per pass removes them.
"""

from __future__ import annotations

import collections
import functools

import numpy as np

REFERENCE = "%.17g"
_MIN, _MAX = 1e-279, 1e16
# floor(log10|v|) of the values in range, 16 when log10 rounds up below 1e16
_E_MIN, _E_MAX = -280, 16
# the exponent row of +-0: its text is the first digit, 0, alone
_E_ZERO = _E_MAX + 1
# 2^27 + 1, Veltkamp's splitter: x = hi + lo with 26-bit halves
_SPLIT = 134217729.0
# rows formatted per pass: at 5 columns each array holds 20 kB, which keeps
# the peak memory of a CSV near that of the text itself
_ROWS = 512
# a value's slot is four little-endian words, 32 bytes: sign, the lead
# "0.000" and a NUL (bytes 0-6), the first digit (7), the point (8), the
# other 16 digits (9-24), the exponent (25-29), a NUL and the separator (31)
_WORDS = 4
# the 17 (e, trailing zeros) rows of each exponent e in the layout tables
_ZEROS = 17
# shifts by one, three, five and seven bytes
_BYTE, _THREE, _FIVE, _SEVEN = (np.uint64(8 * n) for n in (1, 3, 5, 7))

_Tables = collections.namedtuple(
    "_Tables",
    "group_text group_zeros high high_hi high_lo low first_text affix keep keep_last moves at down point stay",
)


def _split(x):
    c = _SPLIT * x
    hi = c - (c - x)
    return hi, x - hi


def _words(table) -> np.ndarray:
    """Native uint64 words of a table of little-endian byte rows, one array per word."""
    return np.ascontiguousarray(table, dtype=np.uint8).view("<u8").astype(np.uint64).T.copy()


@functools.cache
def _tables() -> _Tables:
    """Digit groups, their trailing zeros, the powers of ten, and the word masks."""
    # group g = 1000 a + 100 b + 10 c + d sits at [a, b, c, d] of 10x10x10x10 tables:
    # its 4 digit characters as the low half of a word, and its trailing
    # zeros (4 for g = 0)
    digit = [np.arange(10, dtype=np.uint8).reshape([10 if i == j else 1 for i in range(4)]) for j in range(4)]
    groups = sum((d.astype(np.uint64) + np.uint64(48)) << np.uint64(8 * j) for j, d in enumerate(digit)).ravel()
    group_zeros = np.zeros((10,) * 4, np.uint8)
    for d in digit:
        group_zeros = (d == 0) * (group_zeros + np.uint8(1))
    group_zeros = group_zeros.ravel()
    powers, power = [], 1
    for _ in range(16 - _E_MIN + 1):
        powers.append(power)
        power *= 10
    high = np.array([float(power) for power in powers])
    low = np.array([float(power - int(h)) for power, h in zip(powers, high)])
    # by exponent: the lead of fixed notation below 1 (bytes 1-5 of word 0)
    # and the exponent of exponent notation (bytes 1-5 of word 3)
    e = np.arange(_E_MIN, _E_ZERO + 1)
    affix = np.zeros((e.size, 16), np.uint8)
    lead = (e >= -4) & (e < 0)
    affix[lead, 1] = ord("0")
    affix[lead, 2] = ord(".")
    for j in (3, 4, 5):
        affix[lead & (j - 2 < -e), j] = ord("0")
    sci = e < -4
    mag = -e[sci]
    three = mag >= 100
    affix[sci, 9] = ord("e")
    affix[sci, 10] = ord("-")
    affix[sci, 11] = np.where(three, mag // 100, mag // 10 % 10) + 48
    affix[sci, 12] = np.where(three, mag // 10 % 10, mag % 10) + 48
    affix[sci, 13] = np.where(three, mag % 10 + 48, 0)
    # by (e, trailing zeros), row (e - _E_MIN) * _ZEROS + zeros: fixed
    # notation shows every digit before the point, which follows digit e
    # there and digit 0 in exponent notation; at = 16 stands for no point,
    # also when no digit is shown after it
    zeros = np.tile(np.arange(_ZEROS), e.size)[:, None]
    e = np.repeat(e, _ZEROS)[:, None]
    shown = np.where(e == _E_ZERO, 1, np.maximum(_ZEROS - zeros, e + 1))
    at = np.where(e >= 0, e, np.where(e < -4, 0, 16))
    at = np.where(at < shown - 1, at, 16)
    # bytes 8-24 (b = 0-16): the point at byte 8 when it follows digit 0,
    # then digit b where b < shown
    b = np.arange(17)
    keep = (np.where(b == 0, at == 0, b < shown)) * 255
    # a point after digit 1 to 15 moves the digits before it down one byte
    # from bytes 9-23: the ones it moves, the point, and the ones it leaves
    at = at.ravel()
    b, p = np.arange(8, 24), np.arange(17)[:, None]
    down = (b < 8 + p) * 255
    point = (b == 8 + p) * ord(".")
    stay = (b > 8 + p) * 255
    return _Tables(
        groups, group_zeros, high, *_split(high), low,
        # the first digit's character, byte 7 of word 0
        (np.arange(10, dtype=np.uint64) + np.uint64(48)) << _SEVEN,
        _words(affix), _words(keep[:, :16]), (keep[:, 16] > 0) * np.uint64(255),
        (at > 0) & (at < 16), at, _words(down), _words(point), _words(stay),
    )


def _digits(v: np.ndarray):
    """The 17 digits D and the exponent e of each |v|, and which of them are exact."""
    t = _tables()
    a = np.abs(v)
    zero = a == 0
    exact = (a >= _MIN) & (a < _MAX)
    # out-of-range values take a stand-in that keeps the arithmetic finite and quiet
    a = np.where(exact, a, 1.0)
    e = np.floor(np.log10(a)).astype(np.int64)
    k = 16 - e
    p = a * t.high[k]
    a_hi, a_lo = _split(a)
    h_hi, h_lo = t.high_hi[k], t.high_lo[k]
    err = ((a_hi * h_hi - p) + a_hi * h_lo + a_lo * h_hi) + a_lo * h_lo
    tail = a * t.low[k]
    r = err + tail
    nearest = np.rint(r)
    digits = p.astype(np.int64) + nearest.astype(np.int64)
    # |r| is below about 20, so r - nearest is exact and at most 1/2
    exact &= np.abs(r - nearest) < 0.5 - 1e-9
    # |v| 10^k >= 10^16 holds for sure, or exactly: |v| is a power of ten
    exact &= ((p - 1e16) + r > 1e-9) | ((p == 1e16) & (err == 0) & (tail == 0))
    exact &= digits < 10**17
    # a zero's digits 00...01 end in no zero, so its row alone sets its text
    digits[zero] = 1
    e[zero] = _E_ZERO
    return digits, e, exact | zero


def _slots(v: np.ndarray, separators: np.ndarray):
    """(len(v), 4) uint64 slots of the values' text and separators, and the fallback indices."""
    t = _tables()
    digits, e, exact = _digits(v)
    # digit 0, then four groups of four
    top = digits // 10**8
    low8 = digits - top * 10**8
    first = top // 10**8
    high8 = top - first * 10**8
    groups = [high8 // 10**4, None, low8 // 10**4, None]
    groups[1] = high8 - groups[0] * 10**4
    groups[3] = low8 - groups[2] * 10**4
    # trailing zero digits: the last group's, and only where it is 0000 (4)
    # those of the groups before it, walked for those values alone
    zeros = t.group_zeros[groups[3]]
    walk = np.flatnonzero(zeros == 4)
    for g in groups[2::-1]:
        if not walk.size:
            break
        z = t.group_zeros[g[walk]]
        zeros[walk] += z
        walk = walk[z == 4]
    ends = e - _E_MIN
    row = ends * _ZEROS + zeros

    # the groups' characters from byte 9 on: digits 1-7 in word 1 after the
    # point, 8-15 in word 2 and 16 in byte 0 of word 3
    text = [t.group_text[g] for g in groups]
    out = np.empty((v.size, 4), np.uint64)
    out[:, 0] = t.affix[0][ends] | np.signbit(v) * np.uint64(ord("-")) | t.first_text[first]
    out[:, 1] = (text[0] << _BYTE | text[1] << _FIVE | np.uint64(ord("."))) & t.keep[0][row]
    out[:, 2] = (text[1] >> _THREE | text[2] << _BYTE | text[3] << _FIVE) & t.keep[1][row]
    out[:, 3] = t.affix[1][ends] | text[3] >> _THREE & t.keep_last[row] | separators
    moving = np.flatnonzero(t.moves[row])
    if moving.size:
        p = t.at[row[moving]]
        word = [out[moving, 1], out[moving, 2]]
        shifted = [word[0] >> _BYTE | word[1] << _SEVEN, word[1] >> _BYTE]
        for j in (0, 1):
            out[moving, j + 1] = shifted[j] & t.down[j][p] | t.point[j][p] | word[j] & t.stay[j][p]
    return out, np.flatnonzero(~exact)


def csv_text(header: str, table: np.ndarray) -> tuple:
    """CSV bytes: the header, then a line per row of a float64 table, each value as "%.17g" % v.

    Returns the ASCII bytes and the count of values "%.17g" % v wrote itself.
    """
    table = np.asarray(table, dtype=np.float64)
    rows, columns = table.shape
    # the separator after each value, in the last byte of its slot
    separators = np.array([ord(",")] * (columns - 1) + [ord("\n")], np.uint64) << np.uint64(56)
    separators = np.tile(separators, min(rows, _ROWS))
    parts, fallbacks = [header.encode("ascii")], 0
    for start in range(0, rows, _ROWS):
        values = table[start:start + _ROWS]
        slots, slow = _slots(values.ravel(), separators[:values.size])
        text = slots.astype("<u8", copy=False).view(np.uint8).reshape(-1, 8 * _WORDS)
        for i in slow:
            reference = (REFERENCE % values.flat[i]).encode()
            text[i, :-1] = 0
            text[i, :len(reference)] = np.frombuffer(reference, np.uint8)
        fallbacks += slow.size
        parts.append(text.tobytes().translate(None, b"\0"))
    return b"".join(parts), fallbacks
