"""Exact "%.17g" text of float64 arrays, vectorized, for the CSV artifacts.

"%.17g" % v prints the 17 significant digits of v, correctly rounded (Gay,
"Correctly rounded binary-decimal and decimal-binary conversions", 1990),
laid out by the %g rules.  csv_text computes the same bytes with numpy:

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
  the digits (the point goes in by moving the digits after it up one
  byte), the exponent and the separator.  Absent characters are NUL, and
  one pass over the whole buffer removes them.
"""

from __future__ import annotations

import functools

import numpy as np

REFERENCE = "%.17g"
_MIN, _MAX = 1e-279, 1e16
# floor(log10|v|) of the values in range, 16 when log10 rounds up below 1e16
_E_MIN, _E_MAX = -280, 16
# 2^27 + 1, Veltkamp's splitter: x = hi + lo with 26-bit halves
_SPLIT = 134217729.0
# rows formatted per pass: at 5 columns each array holds 20 kB, which keeps
# the peak memory of a CSV near that of the text itself
_ROWS = 512
# a value's slot is four little-endian words, 32 bytes: sign, the lead
# "0.000" and a NUL (bytes 0-6), the 17 digits (7-23) with room for the
# point after any of them (one more byte), the exponent (25-29), a NUL and
# the separator (31)
_WORDS = 4


def _split(x):
    c = _SPLIT * x
    hi = c - (c - x)
    return hi, x - hi


def _words(table) -> np.ndarray:
    """Native uint64 words of a table of little-endian byte rows, one array per word."""
    return np.ascontiguousarray(table, dtype=np.uint8).view("<u8").astype(np.uint64).T.copy()


@functools.cache
def _tables():
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
    # digits 1-16 sit at bytes 8-23, words 1 and 2: keep[s] keeps the first s - 1
    keep = (np.arange(16) < np.arange(18)[:, None] - 1) * 255
    # the point after digit p goes to byte 8 + p and the bytes from there
    # move up one; p = 16 stands for no point
    byte = np.arange(8, 24)
    p = np.arange(17)[:, None]
    unmoved = (byte < 8 + p) * 255
    point = ((byte == 8 + p) & (p < 16)) * ord(".")
    moved = (byte > 8 + p) * 255
    # by exponent: the lead of fixed notation below 1 (bytes 1-5 of word 0)
    # and the exponent of exponent notation (bytes 1-5 of word 3)
    e = np.arange(_E_MIN, _E_MAX + 1)
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
    return (
        groups, group_zeros, high, *_split(high), low,
        _words(keep), _words(unmoved), _words(point), _words(moved), _words(affix),
    )


def _digits(v: np.ndarray):
    """The 17 digits D and the exponent e of each |v|, and which of them are exact."""
    _, _, high, high_hi, high_lo, low, *_ = _tables()
    a = np.abs(v)
    zero = a == 0
    exact = (a >= _MIN) & (a < _MAX)
    # out-of-range values take a stand-in that keeps the arithmetic finite and quiet
    a = np.where(exact, a, 1.0)
    e = np.floor(np.log10(a)).astype(np.int64)
    k = 16 - e
    p = a * high[k]
    a_hi, a_lo = _split(a)
    h_hi, h_lo = high_hi[k], high_lo[k]
    err = ((a_hi * h_hi - p) + a_hi * h_lo + a_lo * h_hi) + a_lo * h_lo
    tail = a * low[k]
    r = err + tail
    nearest = np.rint(r)
    digits = p.astype(np.int64) + nearest.astype(np.int64)
    exact &= np.abs(np.abs(r - nearest) - 0.5) > 1e-9
    # |v| 10^k >= 10^16 holds for sure, or exactly: |v| is a power of ten
    exact &= ((p - 1e16) + r > 1e-9) | ((p == 1e16) & (err == 0) & (tail == 0))
    exact &= digits < 10**17
    digits[zero] = 0
    return digits, e, exact | zero


def _slots(v: np.ndarray, separators: np.ndarray):
    """(len(v), 4) uint64 slots of the values' text and separators, and the fallback indices."""
    group_text, group_zeros, *_, keep, unmoved, point, moved, affix = _tables()
    digits, e, exact = _digits(v)
    # digit 0, then four groups of four
    top = digits // 10**8
    low8 = digits - top * 10**8
    first = top // 10**8
    high8 = top - first * 10**8
    groups = [high8 // 10**4, None, low8 // 10**4, None]
    groups[1] = high8 - groups[0] * 10**4
    groups[3] = low8 - groups[2] * 10**4
    # trailing zero digits: the last nonzero group's, plus those of the
    # groups before it when it is 0 (a zero group has 4)
    zeros = 0
    for g in groups:
        z = group_zeros[g]
        zeros = z + (z == 4) * zeros
    # fixed notation shows every digit before the point
    shown = np.maximum(17 - zeros, e + 1)
    # the point follows digit e in fixed notation, digit 0 in exponent notation
    at = np.where(e >= 0, e, np.where(e < -4, 0, 16))
    at = np.where(at < shown - 1, at, 16)

    body = [
        (group_text[groups[0]] | group_text[groups[1]] << np.uint64(32)) & keep[0][shown],
        (group_text[groups[2]] | group_text[groups[3]] << np.uint64(32)) & keep[1][shown],
    ]
    moving = [body[0] << np.uint64(8), body[1] << np.uint64(8) | body[0] >> np.uint64(56)]
    ends = e - _E_MIN
    out = np.empty((v.size, 4), np.uint64)
    out[:, 0] = affix[0][ends] | np.signbit(v) * np.uint64(ord("-")) | (first.astype(np.uint64) + np.uint64(48)) << np.uint64(56)
    for j in (0, 1):
        out[:, j + 1] = body[j] & unmoved[j][at] | moving[j] & moved[j][at] | point[j][at]
    out[:, 3] = affix[1][ends] | np.where(at < 16, body[1] >> np.uint64(56), 0) | separators
    return out, np.flatnonzero(~exact)


def csv_text(header: str, table: np.ndarray) -> tuple:
    """CSV text: the header, then a line per row of a float64 table, each value as "%.17g" % v.

    Returns the text and the count of values "%.17g" % v wrote itself.
    """
    table = np.asarray(table, dtype=np.float64)
    rows, columns = table.shape
    # the separator after each value, in the last byte of its slot
    separators = np.array([ord(",")] * (columns - 1) + [ord("\n")], np.uint64) << np.uint64(56)
    parts, fallbacks = [header], 0
    for start in range(0, rows, _ROWS):
        values = table[start:start + _ROWS]
        slots, slow = _slots(values.ravel(), np.tile(separators, len(values)))
        text = slots.astype("<u8", copy=False).view(np.uint8).reshape(-1, 8 * _WORDS)
        for i in slow:
            reference = (REFERENCE % values.flat[i]).encode()
            text[i, :-1] = 0
            text[i, :len(reference)] = np.frombuffer(reference, np.uint8)
        fallbacks += slow.size
        flat = text.ravel()
        parts.append(flat[flat != 0].tobytes().decode("ascii"))
    return "".join(parts), fallbacks
