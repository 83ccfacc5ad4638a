import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gdo.polynomials import jacobi, laguerre
from oracles import binomial_general, jacobi_series, laguerre_series


class TestLaguerre:
    def test_degree_zero_is_one(self):
        assert laguerre(0, 3.7, 2.0 + 5.0j) == 1.0

    def test_degree_one_closed_form(self):
        # L_1^k(z) = 1 + k - z
        assert laguerre(1, 2.0, 1.0 + 1.0j) == pytest.approx(2.0 - 1.0j)

    def test_degree_three_against_series(self):
        value = laguerre(3, 0.5, 2.0)
        oracle = laguerre_series(3, 0.5, 2.0)
        assert value == pytest.approx(oracle, rel=1e-12)

    @pytest.mark.parametrize("n,k", [(0, 2), (2, 3), (4, 1), (5, 7)])
    def test_value_at_origin_is_binomial(self, n, k):
        assert laguerre(n, k, 0.0) == pytest.approx(math.comb(n + k, n))

    def test_array_argument(self):
        z = np.linspace(0, 4, 5).astype(complex)
        values = laguerre(2, 1.0, z)
        assert values.shape == (5,)
        assert values[0] == pytest.approx(laguerre(2, 1.0, 0.0))

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            laguerre(-1, 0.0, 1.0)


class TestJacobi:
    def test_degree_zero_is_one(self):
        assert jacobi(0, -2.0, -2.0, 0.5j) == 1.0

    def test_degree_one_closed_form(self):
        # P_1^(a,b)(y) = (a-b)/2 + (1+(a+b)/2) y
        assert jacobi(1, -2.0, -2.0, 0.5j) == pytest.approx(-0.5j)

    def test_degree_two_against_series(self):
        y = 1j / math.tan(1.0)
        value = jacobi(2, -3.5, -3.5, y)
        oracle = jacobi_series(2, -3.5, -3.5, y)
        assert value == pytest.approx(oracle, rel=1e-12)

    def test_legendre_special_case(self):
        # a = b = 0 reduces to Legendre: P_2 = (3y^2 - 1)/2
        y = 0.3
        assert jacobi(2, 0.0, 0.0, y) == pytest.approx((3 * y * y - 1) / 2)

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 5])
    def test_symmetric_parameter_parity(self, n):
        rng = np.random.default_rng(n + 5)
        a = rng.uniform(1.0, 4.0)
        y = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        left = jacobi(n, a, a, -y)
        right = (-1) ** n * jacobi(n, a, a, y)
        assert left == pytest.approx(right, abs=1e-12 * max(1.0, abs(right)))


def _jacobi_scale(n, a, b, y, *values):
    # the series term-magnitude sum, the natural conditioning measure near roots
    lo, hi = (y - 1) / 2, (y + 1) / 2
    terms = sum(
        abs(binomial_general(n + a, n - j) * binomial_general(n + b, j) * lo**j * hi ** (n - j))
        for j in range(n + 1)
    )
    return max(terms, *(abs(v) for v in values))


def _leading_factors(n, a, b):
    # |m+1+a+b| and |2m+a+b| of every recurrence step m = 1..n-1
    return [abs(f) for m in range(1, n) for f in (m + 1 + (a + b), 2 * m + a + b)]


class TestRecurrenceVsSeries:
    def test_randomized_agreement(self):
        # smaller rehearsal of the acceptance sweep; scale is the series
        # term-magnitude sum.  Jacobi draws with a leading factor below 0.5,
        # where the recurrence's division loses the 1e-10 target, are left out
        rng = np.random.default_rng(1234)
        excluded = 0
        for _ in range(300):
            n = int(rng.integers(0, 11))
            k = rng.uniform(-10, 10)
            z = complex(rng.uniform(-10, 10), rng.uniform(-10, 10))
            rec, ser = laguerre(n, k, z), laguerre_series(n, k, z)
            scale = max(
                abs(rec),
                abs(ser),
                sum(abs(binomial_general(n + k, n - j) * z**j) / math.factorial(j) for j in range(n + 1)),
            )
            assert abs(rec - ser) <= 1e-10 * scale
            a, b = rng.uniform(-10, 10), rng.uniform(-10, 10)
            y = complex(rng.uniform(-10, 10), rng.uniform(-10, 10))
            if min(_leading_factors(n, a, b), default=math.inf) < 0.5:
                excluded += 1
                continue
            rec, ser = jacobi(n, a, b, y), jacobi_series(n, a, b, y)
            assert abs(rec - ser) <= 1e-10 * _jacobi_scale(n, a, b, y, rec, ser)
        assert excluded < 150

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(
        s=st.floats(0.01, 6.0),
        n=st.integers(0, 7),
        upper=st.booleans(),
        y=st.complex_numbers(max_magnitude=10.0),
    )
    def test_cot_parameters_stay_well_conditioned(self, s, n, upper, y):
        # the cot eigenfunctions evaluate P_n^(a,a) with a = -s - n (lower
        # partner) or a = -s - 1 - n (upper partner, A -> A + hbar alpha), s > 0:
        # every leading factor of the recurrence stays at 2 or more, and the
        # recurrence agrees with the series
        a = -s - n - (1 if upper else 0)
        assert min(_leading_factors(n, a, a), default=math.inf) >= 2.0
        rec, ser = jacobi(n, a, a, y), jacobi_series(n, a, a, y)
        assert abs(rec - ser) <= 1e-10 * _jacobi_scale(n, a, a, y, rec, ser)
