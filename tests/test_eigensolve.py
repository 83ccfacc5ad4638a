import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gdo.eigensolve
from gdo import (
    ConvergenceError,
    CotInteraction,
    DimensionError,
    DomainError,
    Grid,
    MorseInteraction,
    OperatorMatrix,
    SingularPivotError,
    UnsupportedError,
    assemble_dirac,
    assemble_schrodinger,
    closed_form_potentials,
    inverse_iteration,
    symtridiag_eigenvalues,
)
from gdo.eigensolve import (
    _cyclic_reduction_factor,
    _cyclic_reduction_solve,
    _plan,
    _start_vector,
    _sturm_counts,
    stacked_inverse_iteration,
)
from oracles import cyclic_reduction_solve, dense, full_sturm_counts, rayleigh_quotient


def _dense_eigenvalues(d, e):
    return np.linalg.eigvalsh(np.diag(d) + np.diag(e, 1) + np.diag(e, -1))


def _complex_normal(rng, size):
    return rng.normal(size=size) + 1j * rng.normal(size=size)


def _norm_bound(d, e):
    radius = np.abs(np.append(e, 0.0)) + np.abs(np.append(0.0, e))
    return float(np.max(np.abs(d) + radius))


def _counts(d, e, shifts):
    d = np.asarray(d, dtype=float)
    e2 = np.append(0.0, np.asarray(e, dtype=float) ** 2)
    pivmin = float(np.finfo(float).tiny) * max(1.0, float(np.max(e2)))
    return _sturm_counts(d, e2, pivmin, np.asarray(shifts, dtype=float))


def _stack_solve(sub, diag, sup, shifts, rhs):
    """Solve (T - shifts[k] I) x_k = rhs[k] for every k in the solve's flat padded layout."""
    plan = _plan(_cyclic_reduction_factor(sub, diag, sup, np.asarray(shifts)))
    count, n = rhs.shape
    width = 1 << n.bit_length()
    plan.rhs[: count * width].reshape(count, width)[:, :n] = rhs
    x = _cyclic_reduction_solve(plan)
    assert x.shape == plan.rhs.shape
    blocks = x[: count * width].reshape(count, width)
    # pad rows and the entries past the last block solve to zero
    assert not np.any(blocks[:, n:]) and not np.any(x[count * width :])
    return blocks[:, :n]


def _record_stacked_calls(monkeypatch):
    """The shifts of every stacked_inverse_iteration call that inverse_iteration makes."""
    calls = []

    def recording(bands, shifts, *args):
        calls.append(np.asarray(shifts).tolist())
        return stacked_inverse_iteration(bands, shifts, *args)

    monkeypatch.setattr(gdo.eigensolve, "stacked_inverse_iteration", recording)
    return calls


def _assert_unit_eigenvector(result):
    assert result.converged
    assert np.all(np.isfinite(result.eigenvector))
    assert abs(np.linalg.norm(result.eigenvector) - 1.0) <= 1e-12


def _dense_counts(d, e, shifts):
    """Eigenvalues <= each shift, from dense eigenvalues block by block.

    A zero coupling splits the matrix, and a one-row block's eigenvalue is
    its diagonal entry exactly, so a shift on it counts it.
    """
    cuts = np.flatnonzero(np.asarray(e) == 0) + 1
    values = np.concatenate(
        [
            _dense_eigenvalues(block, couplings[: block.size - 1])
            for block, couplings in zip(np.split(d, cuts), np.split(e, cuts))
        ]
    )
    return np.searchsorted(np.sort(values), shifts, side="right")


class TestSturmCounts:
    @pytest.mark.parametrize("n", [2, 129, 300])
    def test_split_matrix_nan_pivot(self, n):
        # a shift equal to d[i] with e[i - 1] = 0 makes the pivot of row i
        # exactly zero, where an unguarded recurrence would divide 0 by 0 at
        # row i + 1.  Two-row blocks keep every eigenvalue off the shifts but
        # those of the one-row block of row 0, which the shift d[0] must count
        rng = np.random.default_rng(7 + n)
        d = rng.integers(-3, 4, size=n).astype(float)
        e = rng.normal(size=n - 1)
        e[::2] = 0.0
        shifts = np.unique(np.concatenate([d, d + 0.5]))
        np.testing.assert_array_equal(_counts(d, e, shifts), _dense_counts(d, e, shifts))

    def test_tiny_positive_pivot_counts_negative(self):
        # pivots in (0, pivmin] count as negative in the stebz recurrence,
        # although the eigenvalues 1e-310 and 5e-311 lie above the shift 0
        d = np.array([1e-310, 5e-311, 1.0])
        np.testing.assert_array_equal(_counts(d, np.zeros(2), [0.0, 0.5]), [2, 2])

    def test_laplacian_zero_pivots_mid_block(self):
        # constant diagonal: the shifts 1 and 3 over the Gershgorin interval
        # [0, 4] give exact zero pivots every third row
        n = 300
        d = np.full(n, 2.0)
        e = np.full(n - 1, -1.0)
        shifts = 4.0 * np.arange(1, 256) / 256
        np.testing.assert_array_equal(_counts(d, e, shifts), _dense_counts(d, e, shifts))
        values = symtridiag_eigenvalues(d, e, count=5)
        np.testing.assert_allclose(values, _dense_eigenvalues(d, e)[:5], rtol=0, atol=1e-14)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        n=st.integers(1, 60),
        log_scale=st.floats(-6.0, 6.0),
        split=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_counts_match_dense_property(self, n, log_scale, split, seed):
        # an oracle that shares nothing with the Sturm loop: dense
        # eigenvalues, with every shift kept clear of them by far more than
        # the rounding of either route, so the counts are exact
        rng = np.random.default_rng(seed)
        scale = 10.0**log_scale
        d = scale * rng.integers(-4, 5, size=n) / 4
        e = scale * rng.normal(size=n - 1)
        if split:
            e[rng.random(n - 1) < 0.3] = 0.0
        values = _dense_eigenvalues(d, e)
        bound = _norm_bound(d, e)
        clearance = 1e-8 * bound
        candidates = np.concatenate(
            [rng.uniform(-bound, bound, 40), 0.5 * (values[1:] + values[:-1]), [-bound, bound]]
        )
        gaps = np.abs(candidates[:, None] - values[None, :]).min(axis=1)
        shifts = candidates[gaps > clearance]
        expected = np.searchsorted(values, shifts, side="right")
        np.testing.assert_array_equal(_counts(d, e, shifts), expected)

    def test_tail_margin_covers_the_rounding_of_the_last_pivot(self):
        # the slack of row 1, d_1 - |e_1|, exceeds the shift by one ulp and
        # the pivot of row 0 is |e_1| to rounding, so a tail without the
        # margin would stop after row 0; the pivot of row 1 rounds to 0 and
        # counts, so a stop there would lose that count
        d = np.array([0.9563395438460718, 0.9563395438460719])
        e = np.array([0.8276976499486952])
        shift = [0.12864189389737657]
        e2 = np.append(0.0, e * e)
        tiny = float(np.finfo(float).tiny)
        assert full_sturm_counts(d, e2, tiny, shift).tolist() == [1]
        np.testing.assert_array_equal(_counts(d, e, shift), [1])

    @pytest.mark.parametrize(
        "spec, grid, tail",
        [
            # s = 0.87 < 1: attractive pole wells end the lattice, so the row
            # before the last has a negative slack and no shift has a tail
            (CotInteraction(A=0.87574, alpha=1.00745, a=0.05072, b=0.15153), Grid(0.0, 1.0, 201), False),
            # the plateau V -> D^2 ends the Morse window: a tail below it
            (MorseInteraction(D=2.5, A=1.0, B=0.5, alpha=1.0), Grid(-6.0, 20.0, 201), True),
        ],
        ids=["cot-weak-no-tail", "morse-tail"],
    )
    def test_tail_set_up_only_where_a_shift_has_one(self, monkeypatch, spec, grid, tail):
        # the lattice numeric_epsilons solves; shifts on and within 8 atol
        # of its lowest levels, where the certificate and bisection count
        real_spec, solve_grid = spec.real_problem(grid)
        v = closed_form_potentials(real_spec, solve_grid).v_minus
        off, d, _ = assemble_schrodinger(v, solve_grid).bands
        d, e = d.real.copy(), off.real.copy()
        e2 = np.append(0.0, e * e)
        pivmin = float(np.finfo(float).tiny) * max(1.0, float(np.max(e2)))
        atol = float(np.finfo(float).eps) * _norm_bound(d, e)
        values = _dense_eigenvalues(d, e)[:6]
        shifts = (values[None, :] + atol * np.arange(-8, 9)[:, None]).ravel()
        searches = []
        search = np.searchsorted
        monkeypatch.setattr(
            gdo.eigensolve.np,
            "searchsorted",
            lambda *args, **kwargs: searches.append(args) or search(*args, **kwargs),
        )
        counts = _sturm_counts(d, e2, pivmin, shifts)
        monkeypatch.undo()
        assert len(searches) == tail
        np.testing.assert_array_equal(counts, full_sturm_counts(d, e2, pivmin, shifts))

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        n=st.integers(2, 80),
        log_scale=st.floats(-6.0, 6.0),
        wall=st.floats(0.0, 40.0),
        split=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_tail_stop_matches_full_pass_property(self, n, log_scale, wall, split, seed):
        # rows past a random cut climb a wall, so their tail is strictly
        # diagonally dominant for every shift below it; the shifts sit on
        # the eigenvalues, within a few atol of them, on the diagonal and on
        # the slacks d_i - |e_i| - |e_{i+1}| where a tail starts, and the
        # tail-stopped counts must equal the stebz pass over every row
        rng = np.random.default_rng(seed)
        scale = 10.0**log_scale
        d = scale * rng.normal(size=n)
        e = scale * rng.normal(size=n - 1)
        cut = int(rng.integers(0, n))
        d[cut:] += scale * wall * np.linspace(0.0, 1.0, n - cut) ** rng.uniform(0.3, 3.0)
        if split:
            e[rng.random(n - 1) < 0.2] = 0.0
        e2 = np.append(0.0, e * e)
        pivmin = float(np.finfo(float).tiny) * max(1.0, float(np.max(e2)))
        atol = float(np.finfo(float).eps) * _norm_bound(d, e)
        values = _dense_eigenvalues(d, e)
        a = np.abs(np.append(0.0, e))
        slack = d - a - np.append(a[1:], 0.0)
        shifts = np.concatenate([
            values,
            values + atol * rng.uniform(-4.0, 4.0, size=n),
            values + atol * rng.integers(-8, 9, size=n),
            d,
            slack,
            np.nextafter(slack, -np.inf),
            slack * (1.0 - 1e-15),
        ])
        expected = full_sturm_counts(d, e2, pivmin, shifts)
        np.testing.assert_array_equal(_sturm_counts(d, e2, pivmin, shifts), expected)


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

    @settings(max_examples=60, deadline=None, derandomize=True)
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
        [x] = _stack_solve(sub, diag, sup, [0.0], rhs[None, :])
        assert np.linalg.norm(x - expected) <= 1e-12 * np.linalg.norm(expected)

    @settings(max_examples=80, deadline=None, derandomize=True)
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
        [x] = _stack_solve(sub, diag, sup, [sigma], rhs[None, :])
        residual = np.linalg.norm(m.matvec(x) - sigma * x - rhs)
        bound = _norm_bound(d - shift_re, e) + shift_im
        assert residual <= 1e-14 * (bound * np.linalg.norm(x) + np.linalg.norm(rhs))

    def test_zero_pivot_on_a_deeper_level(self, monkeypatch):
        # every pivot of the first two levels is +-1 and the single pivot of
        # the third is exactly 0: the shift 0 is an eigenvalue
        d = np.array([1.0, 1.0, 1.0, 2.0, 1.0, 3.0, 1.0], dtype=complex)
        e = np.ones(6, dtype=complex)
        assert _cyclic_reduction_factor(e, d, e, np.array([0.0])) is None
        assert len(_cyclic_reduction_factor(e, d, e, np.array([1e-12]))) == 3
        m = OperatorMatrix.tridiagonal(e, d, e)
        assert abs(np.linalg.det(dense(m))) < 1e-12
        calls = _record_stacked_calls(monkeypatch)
        with pytest.raises(SingularPivotError, match=r"broke down at shift 0\.0$"):
            inverse_iteration(m, 0.0, tol=1e-10)
        assert calls == [[0.0]]

    @pytest.mark.parametrize("tiny", [1e-301, 1e-310])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_tiny_pivot_on_the_deepest_level(self, tiny, dtype):
        # row 3 has no couplings, so its pivot reaches the third and last
        # level as d[3] itself, while every other pivot is +-1.  The pivots
        # are checked once, after the last level: 1e-301 passes every level
        # without a floating-point exception and is refused by that check,
        # and the subnormal 1e-310 overflows its reciprocal.  Neither warns
        e = np.array([1.0, 1.0, 0.0, 0.0, 1.0, 1.0], dtype=dtype)
        d = np.array([1.0, 1.0, 1.0, 0.5, 1.0, 3.0, 1.0], dtype=dtype)
        levels = _cyclic_reduction_factor(e, d, e, np.array([0.0]))
        assert len(levels) == 3 and levels[2][0].tolist() == [2.0]
        d[3] = tiny
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _cyclic_reduction_factor(e, d, e, np.array([0.0])) is None

    @pytest.mark.parametrize("n", [1, 2, 5, 8, 17, 300])
    def test_three_blocks_match_their_own_dense_solves(self, n):
        # three blocks of 2^m rows fill 4 2^m - 1 rows: an identity block
        # follows them.  Shifts in both half-planes keep every pivot of the
        # real symmetric T - s I away from zero
        rng = np.random.default_rng(100 + n)
        d = rng.normal(size=n)
        e = rng.normal(size=n - 1)
        shifts = np.array([0.3 + 0.5j, -1.0 - 0.7j, 2.0 + 1.0j])
        rhs = _complex_normal(rng, (3, n))
        x = _stack_solve(e, d, e, shifts, rhs)
        dense = np.diag(d) + np.diag(e, -1) + np.diag(e, 1)
        for shift, block, f in zip(shifts, x, rhs):
            expected = np.linalg.solve(dense - shift * np.eye(n), f)
            assert np.linalg.norm(block - expected) <= 1e-12 * np.linalg.norm(expected)


class TestPlannedSolve:
    """The solve planned once per factorization against the per-level reference solve."""

    # entries planted in the bands: pivots that are zero, tiny, subnormal or
    # not finite, and couplings that overflow a product
    SPECIAL = (0.0, 1e-295, 1e-300, 1e-310, 1e-320, np.nan, np.inf, -np.inf, 1e200, -1e200)

    @staticmethod
    def _assert_matches_reference(rng, sub, diag, sup, shifts):
        levels = _cyclic_reduction_factor(sub, diag, sup, shifts)
        if levels is None:
            return False
        n, count = diag.size, shifts.size
        width = 1 << n.bit_length()
        f = np.zeros(2 * levels[0][0].size, dtype=levels[0][0].dtype)
        rhs = rng.normal(size=(count, n))
        f[: count * width].reshape(count, width)[:, :n] = rhs if f.dtype == float else rhs + 1j
        # three chained solves, each solving for the last one's solution,
        # each factorization through its own plan
        other = _cyclic_reduction_factor(sub, diag, sup, shifts + 0.5)
        for factors in (levels, other or levels, levels):
            expected = cyclic_reduction_solve(factors, f)
            plan = _plan(factors)
            plan.rhs[...] = f
            x = _cyclic_reduction_solve(plan)
            assert x.dtype == expected.dtype
            assert x.tobytes() == expected.tobytes()
            f = expected.copy()
        return True

    @staticmethod
    def _bands(rng, n, count, complex_bands):
        def draw(*shape):
            v = rng.normal(size=shape)
            return v + 1j * rng.normal(size=shape) if complex_bands else v

        return draw(n - 1), 3.0 * draw(n), draw(n - 1), draw(count)

    @pytest.mark.parametrize("complex_bands", [False, True])
    def test_bit_identical_on_small_stacks(self, complex_bands):
        rng = np.random.default_rng(2024 + complex_bands)
        solved = 0
        for _ in range(300):
            n, count = int(rng.integers(1, 40)), int(rng.integers(1, 6))
            sub, diag, sup, shifts = self._bands(rng, n, count, complex_bands)
            for band in (sub, diag, sup):
                for _ in range(int(rng.integers(0, 2)) if band.size else 0):
                    band[rng.integers(band.size)] = rng.choice(self.SPECIAL)
            with np.errstate(invalid="ignore"):
                solved += self._assert_matches_reference(rng, sub, diag, sup, shifts)
        # a planted entry refuses many stacks; most still solve
        assert solved >= 150

    @pytest.mark.parametrize("n", [1000, 2047, 4000])
    @pytest.mark.parametrize("count", [1, 5])
    @pytest.mark.parametrize("complex_bands", [False, True])
    def test_bit_identical_on_large_stacks(self, n, count, complex_bands):
        rng = np.random.default_rng(n + count)
        sub, diag, sup, shifts = self._bands(rng, n, count, complex_bands)
        # one tiny and one overflowing coupling that the stack still factors
        sub[n // 3], sup[n // 2] = 1e-300, 1e200
        sup[n // 3] = sub[n // 2] = 0.0
        assert self._assert_matches_reference(rng, sub, diag, sup, shifts)


class TestInverseIteration:
    def test_two_component_matrix_rejected(self, morse_spec):
        with pytest.raises(UnsupportedError):
            inverse_iteration(assemble_dirac(morse_spec, Grid(-2.0, 2.0, 21)), 1.0)

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
            # seeded exactly at the eigenvalue: no pivot of these matrices
            # rounds to zero there, so every shift converges as given
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
        stall = f"after {gdo.eigensolve.ITERATION_MAX} iterations"
        with pytest.raises(ConvergenceError, match=stall):
            inverse_iteration(m, 100.0, tol=1e-30)

    def test_breakdown_raises_after_one_stacked_call(self, monkeypatch):
        # the pivot 0 stops the factorization at shift 0; the shift is
        # reported as given, never perturbed and solved again
        m = OperatorMatrix.tridiagonal(np.array([1.0]), np.array([0.0, 1.0]), np.array([1e300]))
        calls = _record_stacked_calls(monkeypatch)
        with pytest.raises(SingularPivotError, match=r"broke down at shift 0\.0$"):
            inverse_iteration(m, 0.0)
        assert calls == [[0.0]]

    def test_underflowing_norm_is_a_breakdown(self, monkeypatch):
        # zero couplings and a diagonal near 1e170: the iterate is about
        # 1e-170 and its squared norm underflows to exactly 0, which must not
        # be divided by
        bands = (np.zeros(1), np.array([1e170, 2e170]), np.zeros(1))
        assert stacked_inverse_iteration(bands, np.array([0.0])) is None
        m = OperatorMatrix.tridiagonal(*bands)
        calls = _record_stacked_calls(monkeypatch)
        with pytest.raises(SingularPivotError, match=r"broke down at shift 0\.0$"):
            inverse_iteration(m, 0.0)
        assert calls == [[0.0]]

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


class TestStackedInverseIteration:
    @pytest.mark.parametrize("n", [401, 1001])
    def test_start_vector_meets_both_parities(self, n):
        # a symmetric harmonic well: its levels alternate even and odd about
        # the centre, and a start vector nearly orthogonal to the odd ones,
        # as a nearly constant one is, leaves them to grow out of rounding
        # noise
        grid = Grid(-8.0, 8.0, n)
        x = grid.points
        _, diag, sup = assemble_schrodinger((x * x).astype(complex), grid).bands
        t = np.diag(diag.real) + np.diag(sup.real, 1) + np.diag(sup.real, -1)
        _, vectors = np.linalg.eigh(t)
        overlaps = np.abs(vectors[:, :8].T @ _start_vector(n))
        assert overlaps.min() >= 1e-5
        assert abs(np.linalg.norm(_start_vector(n)) - 1.0) <= 1e-15

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        # sizes 2^m - 1 fill their blocks; the rest leave identity rows
        n=st.integers(2, 40).filter(lambda n: n & (n + 1)),
        complex_bands=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
        fractions=st.lists(st.floats(-0.4, 0.4), min_size=0, max_size=5),
        on_eigenvalue=st.booleans(),
    )
    def test_matches_one_shift_calls(self, n, complex_bands, seed, fractions, on_eigenvalue):
        rng = np.random.default_rng(seed)
        d = 3.0 * rng.normal(size=n)
        e = rng.normal(size=n - 1)
        if complex_bands:
            d = d + 0.5j * rng.normal(size=n)
            e = e + 0.2j * rng.normal(size=n - 1)
        dense = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
        exact = np.linalg.eigvals(dense)
        exact = exact[np.argsort(exact.real)]
        # shift k moves from eigenvalue k by a fraction of its nearest gap
        shifts = []
        for k, fraction in enumerate(fractions[:n]):
            gap = np.min(np.abs(np.delete(exact, k) - exact[k]))
            shifts.append(exact[k] + fraction * gap)
        if on_eigenvalue:
            # with row 0 split off, d[0] is an exact eigenvalue: the shift
            # d[0] makes a pivot exactly zero and the stacked factorization
            # break down, next to the good shifts
            e[0] = 0.0
            shifts.insert(len(shifts) // 2, d[0])
            shifts = shifts[:5]
        shifts = np.array(shifts, dtype=complex if complex_bands else float)
        if not complex_bands:
            shifts = shifts.real

        stacked = stacked_inverse_iteration((e, d, e), shifts)
        # each block meets the arithmetic it would meet alone, so the stack
        # breaks down exactly when one of its shifts breaks down alone
        alone = [stacked_inverse_iteration((e, d, e), [shift]) for shift in shifts.tolist()]
        assert (stacked is None) == any(result is None for result in alone)
        if on_eigenvalue:
            assert stacked is None
        if stacked is None:
            return

        matrix = OperatorMatrix.tridiagonal(e, d, e)
        norm = _norm_bound(np.abs(d), np.abs(e))
        assert len(stacked) == shifts.size
        for shift, result in zip(shifts.tolist(), stacked):
            try:
                single = inverse_iteration(matrix, shift)
            except ConvergenceError:
                assert not result.converged
                continue
            _assert_unit_eigenvector(result)
            _assert_unit_eigenvector(single)
            assert result.iterations == single.iterations
            assert abs(result.eigenvalue - single.eigenvalue) <= 8 * np.finfo(float).eps * norm
            v = result.eigenvector
            assert v.dtype == shifts.dtype
            direct = np.linalg.norm(matrix.matvec(v) - result.eigenvalue * v)
            assert result.residual_norm <= 1e-8
            assert direct == pytest.approx(result.residual_norm, rel=1e-6, abs=1e-14)

    def test_overflowing_iterate_is_a_breakdown(self, monkeypatch):
        # row 2 of T - 0 I keeps the pivot 1e-300, which passes the pivot
        # check, but its back-substitution weight 1e9 / 1e-300 overflows: the
        # factorization refuses the stack without a warning, and the one-shift
        # call at 0 raises after that one attempt
        sub, diag, sup = np.array([1.0, 1e9]), np.array([2.0, 1.0, 1e-300]), np.array([1.0, 0.0])
        assert _cyclic_reduction_factor(sub, diag, sup, np.array([0.0])) is None
        assert stacked_inverse_iteration((sub, diag, sup), [0.0, 2.5]) is None
        matrix = OperatorMatrix.tridiagonal(sub, diag, sup)
        [alone] = stacked_inverse_iteration(matrix.bands, [2.5])
        calls = _record_stacked_calls(monkeypatch)
        with pytest.raises(SingularPivotError, match=r"broke down at shift 0\.0$"):
            inverse_iteration(matrix, 0.0)
        single = inverse_iteration(matrix, 2.5)
        assert calls == [[0.0], [2.5]]
        _assert_unit_eigenvector(alone)
        _assert_unit_eigenvector(single)
        assert alone.iterations == single.iterations
        assert alone.eigenvalue == single.eigenvalue

    def test_overflowing_norm_is_a_breakdown(self, monkeypatch):
        # at shift 0 the pivot 1e-300 passes and the iterate, about 1e300, is
        # finite, but its squared norm overflows.  That counts as a
        # breakdown, not as convergence to a zero vector.  The shift 4.9
        # beside it factors and converges alone
        sub, diag, sup = np.zeros(1), np.array([1e-300, 5.0]), np.zeros(1)
        assert _cyclic_reduction_factor(sub, diag, sup, np.array([0.0, 4.9])) is not None
        assert stacked_inverse_iteration((sub, diag, sup), [0.0, 4.9]) is None
        matrix = OperatorMatrix.tridiagonal(sub, diag, sup)
        calls = _record_stacked_calls(monkeypatch)
        with pytest.raises(SingularPivotError, match=r"broke down at shift 0\.0$"):
            inverse_iteration(matrix, 0.0)
        result = inverse_iteration(matrix, 4.9)
        assert calls == [[0.0], [4.9]]
        _assert_unit_eigenvector(result)
        assert abs(result.eigenvalue - 5.0) <= 1e-10

    def test_no_shifts(self, monkeypatch):
        def never(*args):
            raise AssertionError("an empty stack was factored")

        monkeypatch.setattr(gdo.eigensolve, "_cyclic_reduction_factor", never)
        d = np.array([1.0, 2.0])
        assert stacked_inverse_iteration((np.ones(1), d, np.ones(1)), []) == []


class TestRayleighQuotient:
    # the test oracle that tests/test_spectra.py measures eigenfunctions with
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
