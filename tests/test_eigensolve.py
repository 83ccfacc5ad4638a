import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gdo import (
    ConvergenceError,
    DimensionError,
    DomainError,
    Grid,
    OperatorMatrix,
    assemble_schrodinger,
    inverse_iteration,
    rayleigh_quotient,
    symtridiag_eigenvalues,
)
from gdo import eigensolve
from gdo.eigensolve import (
    _cyclic_reduction_factor,
    _cyclic_reduction_solve,
    _guarded_counts,
    _sturm_counts,
)


def _dense_eigenvalues(d, e):
    return np.linalg.eigvalsh(np.diag(d) + np.diag(e, 1) + np.diag(e, -1))


def _complex_normal(rng, size):
    return rng.normal(size=size) + 1j * rng.normal(size=size)


def _norm_bound(d, e):
    radius = np.abs(np.append(e, 0.0)) + np.abs(np.append(0.0, e))
    return float(np.max(np.abs(d) + radius))


def _blocked_and_guarded_counts(d, e, shifts):
    d = np.asarray(d, dtype=float)
    e2 = np.append(0.0, np.asarray(e, dtype=float) ** 2)
    shifts = np.asarray(shifts, dtype=float)
    pivmin = float(np.finfo(float).tiny) * max(1.0, float(np.max(e2)))
    reference = np.zeros(shifts.size, dtype=np.int64)
    _guarded_counts(d, e2, pivmin, shifts, np.full(shifts.size, np.inf), reference)
    return _sturm_counts(d, e2, pivmin, shifts), reference


@pytest.fixture
def guarded_blocks(monkeypatch):
    """Counts the blocks that _sturm_counts hands to the guarded loop."""
    calls = []

    def counting(d, *args):
        calls.append(d.size)
        return _guarded_counts(d, *args)

    monkeypatch.setattr(eigensolve, "_guarded_counts", counting)
    return calls


class TestSturmCounts:
    @pytest.mark.parametrize("n", [1, 2, 127, 128, 129, 300])
    def test_blocked_matches_guarded(self, n):
        rng = np.random.default_rng(n)
        d = rng.normal(size=n)
        e = rng.normal(size=n - 1)
        bound = _norm_bound(d, e)
        shifts = np.concatenate([np.linspace(-bound, bound, 200), d[:56]])
        blocked, reference = _blocked_and_guarded_counts(d, e, shifts)
        np.testing.assert_array_equal(blocked, reference)
        assert reference[0] == 0 and reference[199] == n

    @pytest.mark.parametrize("n", [2, 129, 300])
    def test_split_matrix_nan_pivot(self, n, guarded_blocks):
        # a shift equal to d[i] with e[i] = 0 makes the pivot of row i zero
        # and the unguarded recurrence divide 0 by 0 at row i + 1
        rng = np.random.default_rng(7 + n)
        d = rng.integers(-3, 4, size=n).astype(float)
        e = rng.normal(size=n - 1)
        e[::3] = 0.0
        shifts = np.unique(np.concatenate([d, d + 0.5]))
        blocked, reference = _blocked_and_guarded_counts(d, e, shifts)
        np.testing.assert_array_equal(blocked, reference)
        assert guarded_blocks

    def test_tiny_positive_pivot_counts_negative(self, guarded_blocks):
        # pivots in (0, pivmin] count as negative in the guarded recurrence,
        # so a block holding one must not be counted by sign
        d = np.array([1e-310, 5e-311, 1.0])
        blocked, reference = _blocked_and_guarded_counts(d, np.zeros(2), [0.0, 0.5])
        np.testing.assert_array_equal(reference, [2, 2])
        np.testing.assert_array_equal(blocked, reference)
        assert guarded_blocks == [3]

    def test_laplacian_zero_pivots_mid_block(self, guarded_blocks):
        # constant diagonal: the shifts 1 and 3 of the first bisection pass
        # over the Gershgorin interval [0, 4] give exact zero pivots every
        # third row, inside the blocks
        n = 300
        d = np.full(n, 2.0)
        e = np.full(n - 1, -1.0)
        shifts = 4.0 * np.arange(1, 256) / 256
        blocked, reference = _blocked_and_guarded_counts(d, e, shifts)
        np.testing.assert_array_equal(blocked, reference)
        assert len(guarded_blocks) >= 3
        values = symtridiag_eigenvalues(d, e, count=5)
        np.testing.assert_allclose(values, _dense_eigenvalues(d, e)[:5], rtol=0, atol=1e-14)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 300),
        log_scale=st.floats(-6.0, 6.0),
        split=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_blocked_matches_guarded_property(self, n, log_scale, split, seed):
        rng = np.random.default_rng(seed)
        scale = 10.0**log_scale
        d = scale * rng.integers(-4, 5, size=n) / 4
        e = scale * rng.normal(size=n - 1)
        if split:
            e[rng.random(n - 1) < 0.3] = 0.0
        bound = _norm_bound(d, e)
        shifts = np.concatenate([rng.uniform(-bound, bound, 100), rng.choice(d, 28)])
        blocked, reference = _blocked_and_guarded_counts(d, e, shifts)
        np.testing.assert_array_equal(blocked, reference)


class TestSymtridiag:
    def test_three_point_laplacian(self):
        values = symtridiag_eigenvalues([2.0, 2.0, 2.0], [-1.0, -1.0])
        np.testing.assert_allclose(values, [2 - math.sqrt(2), 2.0, 2 + math.sqrt(2)], atol=1e-14)

    def test_identity_multiplicity(self):
        values = symtridiag_eigenvalues(np.ones(7), np.zeros(6))
        np.testing.assert_array_equal(values, np.ones(7))

    def test_harmonic_oscillator(self):
        grid = Grid(-10.0, 10.0, 2000)
        x = grid.points
        op = assemble_schrodinger((x * x).astype(complex), grid)
        sub, diag, sup = op.bands
        values = symtridiag_eigenvalues(diag.real, sup.real, count=4)
        np.testing.assert_allclose(values, [1.0, 3.0, 5.0, 7.0], rtol=1e-4)

    def test_matches_lapack_on_random_matrices(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            n = int(rng.integers(2, 60))
            d = rng.normal(size=n)
            e = rng.normal(size=n - 1)
            mine = symtridiag_eigenvalues(d, e)
            lapack = _dense_eigenvalues(d, e)
            np.testing.assert_allclose(mine, lapack, atol=1e-11 * max(1, np.max(np.abs(d))))

    def test_lowest_levels_match_lapack_on_random_matrices(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(2, 200))
            count = int(rng.integers(1, min(n, 8) + 1))
            d = rng.normal(size=n)
            e = rng.normal(size=n - 1)
            mine = symtridiag_eigenvalues(d, e, count=count)
            lapack = _dense_eigenvalues(d, e)[:count]
            np.testing.assert_allclose(mine, lapack, rtol=0, atol=1e-13 * _norm_bound(d, e))

    def test_split_matrices_match_lapack(self):
        # zero off-diagonals split the matrix into blocks that share eigenvalues
        rng = np.random.default_rng(11)
        block = np.array([1.0, 2.0, 1.0])
        block_off = np.array([0.5, 0.5])
        d = np.concatenate([block, block, [3.0, 3.0], block])
        e = np.concatenate([block_off, [0.0], block_off, [0.0, 0.0, 0.0], block_off])
        lapack = _dense_eigenvalues(d, e)
        for count in (None, 1, 3, 6, d.size):
            mine = symtridiag_eigenvalues(d, e, count=count)
            np.testing.assert_allclose(mine, lapack[: mine.size], rtol=0, atol=1e-14 * _norm_bound(d, e))
        diagonal = rng.integers(-3, 4, size=40).astype(float)
        np.testing.assert_allclose(
            symtridiag_eigenvalues(diagonal, np.zeros(39), count=10), np.sort(diagonal)[:10], atol=1e-14
        )

    def test_zero_pivot_at_a_split_point(self):
        # the first bisection pass puts a shift exactly on the zero diagonal,
        # so the leading pivot vanishes and the tiny-pivot guard must act
        values = symtridiag_eigenvalues(np.zeros(3), np.ones(2))
        np.testing.assert_allclose(values, [-math.sqrt(2), 0.0, math.sqrt(2)], atol=1e-15)

    def test_morse_like_matrix_matches_lapack(self):
        # hbar^2/h^2 about 1.5e3: the stiff second-difference scale of the
        # sweep configurations, far above the well depth
        grid = Grid(-6.0, 20.0, 1001)
        x = grid.points
        d = 2.5**2 * (np.exp(-2 * x) - 2 * np.exp(-x))
        k = 1.0 / grid.spacing**2
        assert 1.4e3 < k < 1.6e3
        diag = 2 * k + d
        off = np.full(grid.n_points - 1, -k)
        mine = symtridiag_eigenvalues(diag, off, count=4)
        lapack = _dense_eigenvalues(diag, off)[:4]
        np.testing.assert_allclose(mine, lapack, rtol=0, atol=1e-13 * _norm_bound(diag, off))

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 40),
        data=st.data(),
        log_scale=st.floats(-6.0, 6.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_lowest_levels_property(self, n, data, log_scale, seed):
        count = data.draw(st.integers(0, n), label="count")
        rng = np.random.default_rng(seed)
        scale = 10.0**log_scale
        d = scale * rng.normal(size=n)
        e = scale * rng.normal(size=n - 1)
        values = symtridiag_eigenvalues(d, e, count=count)
        assert values.shape == (count,)
        assert np.all(np.diff(values) >= 0)
        lapack = _dense_eigenvalues(d, e)[:count]
        np.testing.assert_allclose(values, lapack, rtol=0, atol=1e-13 * _norm_bound(d, e))

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        d = rng.normal(size=50)
        e = rng.normal(size=49)
        first = symtridiag_eigenvalues(d, e)
        second = symtridiag_eigenvalues(d, e)
        np.testing.assert_array_equal(first, second)
        np.testing.assert_array_equal(
            symtridiag_eigenvalues(d, e, count=5), symtridiag_eigenvalues(d, e, count=5)
        )

    def test_count_preserved(self):
        rng = np.random.default_rng(5)
        d = rng.normal(size=33)
        e = rng.normal(size=32)
        assert symtridiag_eigenvalues(d, e).shape == (33,)
        assert symtridiag_eigenvalues(d, e, count=4).shape == (4,)
        assert symtridiag_eigenvalues(d, e, count=0).shape == (0,)

    @pytest.mark.parametrize("count", [-1, 4])
    def test_count_out_of_range(self, count):
        with pytest.raises(DimensionError):
            symtridiag_eigenvalues([1.0, 2.0, 3.0], [0.5, 0.5], count=count)

    def test_nonfinite_entry_raises(self):
        with pytest.raises(DomainError):
            symtridiag_eigenvalues([1.0, np.nan, 3.0], [0.5, 0.5])
        with pytest.raises(DomainError):
            symtridiag_eigenvalues([1.0, 2.0, 3.0], [np.inf, 0.5], count=1)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            symtridiag_eigenvalues([1.0, 2.0], [1.0, 1.0])

    def test_input_not_mutated(self):
        d = np.array([2.0, 2.0, 2.0])
        e = np.array([-1.0, -1.0])
        symtridiag_eigenvalues(d, e)
        symtridiag_eigenvalues(d, e, count=1)
        np.testing.assert_array_equal(d, [2.0, 2.0, 2.0])
        np.testing.assert_array_equal(e, [-1.0, -1.0])


class TestCyclicReduction:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 9, 16, 17, 1001])
    @pytest.mark.parametrize("dominant", [True, False])
    def test_matches_dense_solve(self, n, dominant):
        # sizes just below, at and above 2^k - 1 give levels of both parities
        rng = np.random.default_rng(n)
        sub = _complex_normal(rng, n - 1)
        sup = _complex_normal(rng, n - 1)
        diag = _complex_normal(rng, n)
        if dominant:
            diag += np.where(rng.random(n) < 0.5, -6.0, 6.0)
        rhs = _complex_normal(rng, n)
        dense = np.diag(diag) + np.diag(sub, -1) + np.diag(sup, 1)
        expected = np.linalg.solve(dense, rhs)
        x = _cyclic_reduction_solve(_cyclic_reduction_factor(sub, diag, sup), rhs)
        assert x.shape == (n,)
        assert np.linalg.norm(x - expected) <= 1e-12 * np.linalg.norm(expected)

    @settings(max_examples=80, deadline=None)
    @given(
        n=st.integers(1, 300),
        shift_re=st.floats(-4.0, 4.0),
        shift_im=st.floats(0.05, 4.0),
        flip=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_residual_property(self, n, shift_re, shift_im, flip, seed):
        # a real symmetric matrix minus a shift off the real axis keeps every
        # Schur complement's imaginary part of one sign, so no pivot can vanish
        rng = np.random.default_rng(seed)
        d = rng.normal(size=n)
        e = rng.normal(size=n - 1)
        m = OperatorMatrix.tridiagonal(e.astype(complex), d.astype(complex), e.astype(complex))
        sigma = complex(shift_re, -shift_im if flip else shift_im)
        rhs = _complex_normal(rng, n)
        sub, diag, sup = m.bands
        x = _cyclic_reduction_solve(_cyclic_reduction_factor(sub, diag - sigma, sup), rhs)
        residual = np.linalg.norm(m.matvec(x) - sigma * x - rhs)
        bound = _norm_bound(d - shift_re, e) + shift_im
        assert residual <= 1e-14 * (bound * np.linalg.norm(x) + np.linalg.norm(rhs))

    def test_zero_pivot_on_a_deeper_level(self):
        # every pivot of the first two levels is +-1 and the single pivot of
        # the third is exactly 0: the shift 0 is an eigenvalue
        d = np.array([1.0, 1.0, 1.0, 2.0, 1.0, 3.0, 1.0], dtype=complex)
        e = np.ones(6, dtype=complex)
        assert _cyclic_reduction_factor(e, d, e) is None
        assert len(_cyclic_reduction_factor(e, d - 1e-12, e)) == 3
        m = OperatorMatrix.tridiagonal(e, d, e)
        assert abs(np.linalg.det(m.to_dense())) < 1e-12
        result = inverse_iteration(m, 0.0, tol=1e-10)
        assert result.converged
        assert abs(result.eigenvalue) <= 1e-10


class TestInverseIteration:
    def test_diagonal_complex_matrix(self):
        m = OperatorMatrix.tridiagonal(
            np.zeros(2, complex), np.array([1 + 1j, 2.0, 3.0]), np.zeros(2, complex)
        )
        result = inverse_iteration(m, 2.1, tol=1e-12)
        assert result.converged
        assert result.eigenvalue == pytest.approx(2.0, abs=1e-10)
        weights = np.abs(result.eigenvector)
        assert weights[1] == pytest.approx(1.0, abs=1e-8)

    def test_cross_oracle_with_bisection(self):
        rng = np.random.default_rng(9)
        d = rng.normal(size=40)
        e = rng.normal(size=39)
        targets = symtridiag_eigenvalues(d, e)
        m = OperatorMatrix.tridiagonal(e.astype(complex), d.astype(complex), e.astype(complex))
        scale = max(1.0, float(np.max(np.abs(targets))))
        for target in targets:
            # seeding exactly at the eigenvalue also exercises the
            # pivot-perturbation retry path
            result = inverse_iteration(m, complex(target), tol=1e-10)
            assert result.converged
            assert abs(result.eigenvalue - target) <= 1e-10 * scale

    def test_residual_certificate(self):
        rng = np.random.default_rng(21)
        d = rng.normal(size=30)
        e = rng.normal(size=29)
        m = OperatorMatrix.tridiagonal(e.astype(complex), d.astype(complex), e.astype(complex))
        result = inverse_iteration(m, 0.1 + 0j, tol=1e-9)
        v = result.eigenvector
        direct = float(np.linalg.norm(m.matvec(v) - result.eigenvalue * v))
        assert result.residual_norm == pytest.approx(direct, rel=1e-9)
        assert result.residual_norm <= 1e-9

    def test_unconverged_raises(self):
        m = OperatorMatrix.tridiagonal(
            np.full(9, 0.5 + 0j), np.zeros(10, complex), np.full(9, -0.5 + 0j)
        )
        with pytest.raises(ConvergenceError):
            inverse_iteration(m, 100.0, tol=1e-30, max_iter=3)

    def test_deterministic(self):
        # shift below the diagonal range keeps the shifted elimination
        # diagonally dominant, the regime the unpivoted solver is built for
        d = np.linspace(2, 8, 25)
        m = OperatorMatrix.tridiagonal(
            np.full(24, 0.3 + 0.1j), d.astype(complex), np.full(24, 0.3 + 0.1j)
        )
        r1 = inverse_iteration(m, 0.5, tol=1e-10)
        r2 = inverse_iteration(m, 0.5, tol=1e-10)
        assert r1.eigenvalue == r2.eigenvalue
        np.testing.assert_array_equal(r1.eigenvector, r2.eigenvector)


class TestRayleighQuotient:
    @staticmethod
    def _diagonal(values):
        zeros = np.zeros(len(values) - 1)
        return OperatorMatrix.tridiagonal(zeros, values, zeros)

    def test_identity(self):
        m = self._diagonal(np.ones(4))
        rng = np.random.default_rng(2)
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        assert rayleigh_quotient(m, v) == pytest.approx(1.0)

    def test_basis_vector_picks_diagonal(self):
        m = self._diagonal([1.0, 2.0])
        assert rayleigh_quotient(m, np.array([1.0, 0.0])) == pytest.approx(1.0)

    def test_dimension_check(self):
        m = self._diagonal(np.ones(3))
        with pytest.raises(DimensionError):
            rayleigh_quotient(m, np.ones(4))
