"""The vectorized CSV formatter against "%.17g" % v, value by value."""

import math
import struct
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gdo import CotInteraction, Grid, MorseInteraction, analytic_spinor
from gdo import _floattext
from gdo._floattext import csv_text


def _reference(table) -> bytes:
    """The CSV lines written the plain way: every value through format(v, ".17g")."""
    return "".join(",".join(format(float(v), ".17g") for v in row) + "\n" for row in table).encode()


def _column(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float64).reshape(-1, 1)


def _assert_matches(table):
    data, fallbacks = csv_text("", table)
    got, want = data.splitlines(), _reference(table).splitlines()
    assert len(got) == len(want)
    assert [(i, g) for i, (g, w) in enumerate(zip(got, want)) if g != w] == []
    return fallbacks


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=2**64 - 1), min_size=1, max_size=64))
def test_any_bit_pattern_matches_the_reference(patterns):
    values = [struct.unpack("<d", struct.pack("<Q", bits))[0] for bits in patterns]
    _assert_matches(_column(values))


def _with_neighbours(values):
    values = np.asarray(values, dtype=np.float64)
    # the neighbours of the largest double are +-inf
    with np.errstate(over="ignore"):
        values = np.concatenate([values, np.nextafter(values, -np.inf), np.nextafter(values, np.inf)])
    return np.concatenate([values, -values])


def test_powers_of_ten_and_their_neighbours():
    # every power of ten a float64 holds, both as the nearest double of the
    # decimal literal and as 10.0**k, with each one's next doubles down and up
    powers = [float(f"1e{k}") for k in range(-323, 309)] + [10.0**k for k in range(-300, 309)]
    _assert_matches(_column(_with_neighbours(powers)))


def _near_ties():
    """Doubles v = n 2^-j whose remainder after the 17th digit lies t/2^m from one half.

    With k = 16 - floor(log10 v) and m = j - k, n in [2^52, 2^53) solves
    n 5^k = 2^(m-1) + t (mod 2^m), so v 10^k = n 5^k / 2^m is an integer plus
    1/2 + t/2^m; the offsets reach from 2^-52 past both sides of the
    formatter's 1e-9 margin.
    """
    offsets = (1e-13, -1e-12, 1e-11, -3e-10, 9e-10, -1.1e-9, 5e-9)
    values = []
    for j in range(40, 76):
        for k in range(10, 40):
            m = j - k
            if not 30 <= m <= 52:
                continue
            inverse = pow(5**k, -1, 2**m)
            for t in {1, -1, 3, -7, *(round(d * 2**m) for d in offsets)} - {0}:
                n0 = (2 ** (m - 1) + t) * inverse % 2**m
                n = n0 + 2**m * -(-(2**52 - n0) // 2**m)
                v = Fraction(n, 2**j)
                # log10 of a double may round across a power of ten
                e = math.floor(math.log10(n * 2.0**-j))
                e += (v >= Fraction(10) ** (e + 1)) - (v < Fraction(10) ** e)
                if 16 - e == k:
                    scaled = v * 10**k
                    assert scaled - math.floor(scaled) - Fraction(1, 2) == Fraction(t, 2**m)
                    values.append(float(v))
    return sorted(values)


def test_near_ties_inside_the_margin_fall_back():
    # a remainder less than 1e-9 from one half after the 17th digit may
    # round either way in the computed r, so "%.17g" % v writes it; the
    # others, 1.05e-9 or more from one half here, take the vector path.  The
    # bytes match either way, so only the path shows the margin
    values = _near_ties()
    _, _, vector = _floattext._digits(np.array(values))
    inside, outside = [], []
    for v, vectorized in zip(values, vector.tolist()):
        # no value of the set lies next to a power of ten, where log10 rounds
        scaled = Fraction(v) * 10 ** (16 - math.floor(math.log10(v)))
        distance = abs(scaled - math.floor(scaled) - Fraction(1, 2))
        (inside if distance < Fraction(1, 10**9) else outside).append(vectorized)
    assert inside and not any(inside)
    assert outside and all(outside)


@pytest.mark.parametrize(
    "values",
    [
        # 1e16 is the last fixed-notation power, 1e17 the first in exponent notation
        [1e16, 1e17, 12345678901234567.0, 99999999999999999.0, 123456789012345678.0],
        # the switch from exponent to fixed notation between 1e-5 and 1e-4
        [1e-5, 9.9999999999999991e-5, 1e-4, 1.0000000000000001e-4, 0.00012345678901234567, 1.5e-5],
        # three-digit exponents, and subnormals down to the smallest
        [1e-100, 1.2345678901234567e-101, 3e-200, 2.2250738585072014e-308, 1e-310, 5e-324, 1.7976931348623157e308],
        [0.0, -0.0, float("nan"), float("inf"), float("-inf")],
        # exact values whose digits end in zeros, and halves at the 17th digit
        [1.0, 10.0, 20.0, 0.5, 0.25, 0.125, 1.5, 100.5, 2.0**53, 2.0**54 + 2.0, 0.1, 0.2, 0.3, 1 / 3],
        # remainders just off a half at the 17th digit, inside and outside the margin
        _near_ties(),
    ],
    ids=["fixed-to-exponent", "exponent-to-fixed", "three-digit-exponents", "zeros-and-non-finite", "short", "near-ties"],
)
def test_explicit_cases(values):
    _assert_matches(_column(_with_neighbours(values)))


# the first artifacts cycle of perfbench/workloads.py at seed 7: each config
# with the levels it writes, every value an exact decimal of the stream
_SEED7_CYCLE = [
    (MorseInteraction(D=2.5471511903701916, A=0.9811871521080981, B=-0.47559034892778473, alpha=1.0043120631191194),
     Grid(-5.974238705612712, 19.91412901870904, 4000), [-1, 1]),
    (CotInteraction(A=0.8758229472484242, alpha=1.0035313446745777, a=0.4914990293561572, b=0.18196052661284745),
     Grid(0.490769484495314, 3.6193071306398297, 4000), [-1, 1, 2, 3]),
    (MorseInteraction(D=4.455529030517383, A=1.2572095947568012, B=-0.7511931940964589, alpha=1.0105042734793037),
     Grid(-5.937629515747799, 19.792098385825998, 4000), [-1, 1, 2, 3]),
    (CotInteraction(A=2.648110209987012, alpha=1.0121490126742403, a=-0.01252226594689626, b=0.3771194621612596),
     Grid(-0.011371958861878122, 3.0905115743436355, 4000), [-1, 1, 2, 3]),
]


@pytest.mark.parametrize("model", ["GDO", "GJC"])
@pytest.mark.parametrize("spec, grid, levels", _SEED7_CYCLE, ids=["morse", "cot", "morse3", "cot-strong"])
def test_wavefunction_columns_match_without_fallback(spec, grid, levels, model):
    for level in levels:
        sample = analytic_spinor(spec, level, grid, model=model)
        table = np.stack([grid.points, sample.psi1.real, sample.psi1.imag, sample.psi2.real, sample.psi2.imag], axis=1)
        # every real value takes the vector path; a fallback would cost the time it saves
        assert _assert_matches(table) == 0


def test_fallback_count_and_row_layout():
    table = np.array([[0.5, float("nan"), -0.0], [1e300, 2.5e-7, float("-inf")]])
    data, fallbacks = csv_text("a,b,c\n", table)
    # the ASCII bytes an artifact writes, not text
    assert type(data) is bytes
    assert data == b"a,b,c\n0.5,nan,-0\n1.0000000000000001e+300,2.4999999999999999e-07,-inf\n"
    assert fallbacks == 3


def test_ties_at_the_17th_digit_fall_back():
    # odd multiples of 2^-18 in [0.1, 1) have 18 significant digits, the last a 5
    values = [(2 * j + 1) * 2.0**-18 for j in range(13107, 13207)]
    assert _assert_matches(_column(values)) == len(values)


def _trailing_zeros(v: float) -> int:
    mantissa = format(v, ".16e").split("e")[0].replace(".", "").lstrip("-")
    return len(mantissa) - len(mantissa.rstrip("0"))


def test_trailing_zero_walk_over_several_passes():
    # a trailing-zero count is read from the last 4-digit group and walks the
    # groups before it only when that group is 0000: exact values with 4, 8,
    # 12 and 16 trailing zeros stop the walk after one, two, three and four
    # groups, and 13-15 zeros end it inside a group
    walked = {
        4: 1.000244140625, 8: 1.00390625, 12: 1.0625, 16: 0.5,
        13: 1.125, 14: 1.25, 15: 1.5,
    }
    assert {zeros: _trailing_zeros(v) for zeros, v in walked.items()} == {zeros: zeros for zeros in walked}
    # exact multiples keep the digits, and values of 10 and more move the
    # digits before their point; 2^-15 to 2^-17 have 5 to 7 trailing zeros in
    # exponent notation
    special = [v * s for v in walked.values() for s in (1.0, -10.0, 1e3, 1e6)]
    special = np.array(special + [0.0, -0.0, 2.0, 12345.0, 2.0**-15, -(2.0**-16), 2.0**-17])
    rng = np.random.default_rng(2028)
    ordinary = rng.normal(size=20000) * 10.0 ** rng.integers(-8, 8, size=20000)
    # ordinary values show all 17 digits, so no walk starts on them
    ordinary = np.array([v for v in ordinary if _trailing_zeros(v) == 0])
    rows = _floattext._ROWS
    columns = 3
    table = ordinary[: 4 * rows * columns].reshape(4 * rows, columns).copy()
    # chunks 0, 2 and 3 take the exact values at spread positions; chunk 1 none
    for chunk in (0, 2, 3):
        cells = table[chunk * rows:(chunk + 1) * rows].reshape(-1)
        cells[rng.choice(cells.size, special.size, replace=False)] = special
    assert not any(_trailing_zeros(v) for v in table[rows:2 * rows].ravel())
    assert _assert_matches(table) == 0
