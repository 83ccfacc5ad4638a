import dataclasses
import math

import numpy as np
import pytest

from gdo import (
    CotInteraction,
    DimensionError,
    Grid,
    LinearInteraction,
    MorseInteraction,
    OperatorMatrix,
    PhysicalConstants,
    PoleError,
    assemble_dirac,
    assemble_ladder,
    assemble_schrodinger,
    closed_form_potentials,
    effective_potentials,
    factorization_check,
    hermitian_equivalent_interaction,
    momentum_operator,
    symtridiag_eigenvalues,
)

# D = A = B = 0 makes the Morse coupling vanish identically
ZERO_COUPLING = MorseInteraction(D=0.0, A=0.0, B=0.0, alpha=1.0)


def adjoint(m):
    return m.to_dense().conj().T


def hermiticity_defect(m):
    dense = m.to_dense()
    return float(np.max(np.abs(dense - dense.conj().T)))


class TestOperatorMatrix:
    def test_tridiagonal_round_trip(self):
        m = OperatorMatrix.tridiagonal([1j, 2j], [1.0, 2.0, 3.0], [4.0, 5.0])
        dense = m.to_dense()
        expected = np.array([[1, 4, 0], [1j, 2, 5], [0, 2j, 3]], dtype=complex)
        np.testing.assert_array_equal(dense, expected)
        assert m.dim == 3

    def test_matvec_matches_dense(self):
        rng = np.random.default_rng(7)
        m = OperatorMatrix.tridiagonal(rng.normal(size=9), rng.normal(size=10), rng.normal(size=9))
        v = rng.normal(size=10) + 1j * rng.normal(size=10)
        np.testing.assert_allclose(m.matvec(v), m.to_dense() @ v, atol=1e-14)

    def test_block_matvec_matches_dense(self, morse_spec):
        grid = Grid(-2.0, 2.0, 21)
        h = assemble_dirac(morse_spec, grid)
        rng = np.random.default_rng(11)
        v = rng.normal(size=42) + 1j * rng.normal(size=42)
        np.testing.assert_allclose(h.matvec(v), h.to_dense() @ v, atol=1e-12)

    def test_two_level_needs_equal_tridiagonal_blocks(self, morse_spec):
        p = momentum_operator(Grid(-1.0, 1.0, 10))
        with pytest.raises(DimensionError):
            OperatorMatrix.two_level(1.0, p, momentum_operator(Grid(-1.0, 1.0, 11)))
        # a two-level block of the same dimension is still rejected
        nested = assemble_dirac(morse_spec, Grid(-1.0, 1.0, 5))
        assert nested.dim == p.dim
        for upper, lower in ((nested, p), (p, nested)):
            with pytest.raises(DimensionError):
                OperatorMatrix.two_level(1.0, upper, lower)

    def test_dimension_mismatch(self):
        m = OperatorMatrix.tridiagonal([0.0], [1.0, 1.0], [0.0])
        with pytest.raises(DimensionError):
            m.matvec(np.ones(3))


class TestEffectivePotentials:
    def test_linear_oscillator(self):
        grid = Grid(-2.0, 2.0, 5)
        sample = effective_potentials(LinearInteraction(omega=1.0), grid)
        x = grid.points
        np.testing.assert_allclose(sample.v_minus, x * x - 1.0, atol=1e-14)
        np.testing.assert_allclose(sample.v_plus, x * x + 1.0, atol=1e-14)

    def test_morse_value_at_origin(self):
        grid = Grid(-1.0, 1.0, 3)
        spec = MorseInteraction(D=2.5, A=1.0, B=0.0, alpha=1.0)
        sample = effective_potentials(spec, grid)
        assert sample.v_minus[1] == pytest.approx(1.25)

    def test_cot_at_half_period(self):
        grid = Grid(math.pi / 2 - 0.5, math.pi / 2 + 0.5, 3)
        spec = CotInteraction(A=1.0, alpha=1.0, a=0.0, b=0.0)
        sample = closed_form_potentials(spec, grid)
        assert sample.v_minus[1] == pytest.approx(-1.0)

    def test_cot_pole_raises(self):
        spec = CotInteraction(A=1.0, alpha=1.0, a=0.0, b=0.0)
        with pytest.raises(PoleError):
            closed_form_potentials(spec, Grid(0.0, 1.0, 11))

    @pytest.mark.parametrize(
        "spec, grid",
        [
            (MorseInteraction(D=2.5, A=1.0, B=0.5, alpha=1.0), Grid(-6.0, 20.0, 301)),
            (CotInteraction(A=1.0, alpha=1.0, a=0.0, b=0.3), Grid(1e-3, math.pi - 1e-3, 301)),
            (LinearInteraction(omega=1.0), Grid(-5.0, 5.0, 301)),
        ],
    )
    def test_generic_matches_closed_form(self, spec, grid):
        generic = effective_potentials(spec, grid)
        closed = closed_form_potentials(spec, grid)
        scale = np.maximum(1.0, np.abs(closed.v_minus))
        assert np.max(np.abs(generic.v_minus - closed.v_minus) / scale) <= 1e-12
        scale = np.maximum(1.0, np.abs(closed.v_plus))
        assert np.max(np.abs(generic.v_plus - closed.v_plus) / scale) <= 1e-12

    def test_hermitian_equivalent_potentials_real(self, morse_spec):
        from gdo import hermitian_equivalent_interaction

        grid = Grid(-4.0, 10.0, 201)
        sample = effective_potentials(hermitian_equivalent_interaction(morse_spec), grid)
        assert np.max(np.abs(sample.v_minus.imag)) <= 1e-12
        assert np.max(np.abs(sample.v_plus.imag)) <= 1e-12


class TestLadderAndDirac:
    def test_momentum_is_hermitian(self):
        p = momentum_operator(Grid(-1.0, 1.0, 41))
        assert hermiticity_defect(p) == 0.0

    def test_zero_coupling_ladders_equal_momentum(self):
        grid = Grid(-1.0, 1.0, 11)
        lower, raise_ = assemble_ladder(ZERO_COUPLING, grid)
        p = momentum_operator(grid)
        assert lower.max_abs_diff(p) == 0.0
        assert raise_.max_abs_diff(p) == 0.0

    def test_real_coupling_adjoint_pair(self):
        grid = Grid(-2.0, 2.0, 31)
        spec = MorseInteraction(D=2.5, A=1.0, B=0.0, alpha=1.0)
        lower, raise_ = assemble_ladder(spec, grid)
        np.testing.assert_allclose(raise_.to_dense(), adjoint(lower), atol=1e-14)

    def test_complex_coupling_breaks_plain_adjoint(self, morse_spec):
        grid = Grid(-2.0, 2.0, 31)
        lower, raise_ = assemble_ladder(morse_spec, grid)
        assert np.max(np.abs(raise_.to_dense() - adjoint(lower))) > 0.1

    def test_explicit_six_by_six(self):
        # three points on [0, 2], zero coupling, unit constants: spacing 1,
        # so the momentum entries are -+ i/2 and the structure is [[I, p], [p, -I]]
        grid = Grid(0.0, 2.0, 3)
        h = assemble_dirac(ZERO_COUPLING, grid).to_dense()
        q = 0.5j
        expected = np.array(
            [
                [1, 0, 0, 0, -q, 0],
                [0, 1, 0, q, 0, -q],
                [0, 0, 1, 0, q, 0],
                [0, -q, 0, -1, 0, 0],
                [q, 0, -q, 0, -1, 0],
                [0, q, 0, 0, 0, -1],
            ],
            dtype=complex,
        )
        np.testing.assert_array_equal(h, expected)

    def test_free_dispersion(self):
        # spectrum of [[I, p], [p, -I]] is +/- sqrt(1 + k^2) over momentum
        # eigenvalues k = (hbar/h) cos(j pi / (N+1))
        grid = Grid(-1.0, 1.0, 25)
        h = assemble_dirac(ZERO_COUPLING, grid).to_dense()
        found = np.sort(np.linalg.eigvals(h).real)
        n = grid.n_points
        k = (1.0 / grid.spacing) * np.cos(np.arange(1, n + 1) * np.pi / (n + 1))
        expected = np.sort(np.concatenate([np.sqrt(1 + k * k), -np.sqrt(1 + k * k)]))
        np.testing.assert_allclose(found, expected, atol=1e-9)

    def test_dagger_equals_conjugated_coupling(self, morse_spec):
        grid = Grid(-2.0, 2.0, 31)
        h = assemble_dirac(morse_spec, grid)
        conj_spec = dataclasses.replace(morse_spec, B=-morse_spec.B)
        h_conj = assemble_dirac(conj_spec, grid)
        np.testing.assert_allclose(adjoint(h), h_conj.to_dense(), atol=1e-14)

    def test_cot_dagger_flips_offset_sign(self, cot_spec):
        grid = Grid(0.3, 2.8, 31)
        h = assemble_dirac(cot_spec, grid)
        h_conj = assemble_dirac(dataclasses.replace(cot_spec, b=-cot_spec.b), grid)
        np.testing.assert_allclose(adjoint(h), h_conj.to_dense(), atol=1e-14)


class TestSchrodinger:
    def test_particle_in_a_box(self):
        grid = Grid(0.0, math.pi, 2001)
        op = assemble_schrodinger(np.zeros(grid.n_points), grid)
        sub, diag, sup = op.bands
        levels = symtridiag_eigenvalues(diag.real, sup.real, count=3)
        np.testing.assert_allclose(levels, [1.0, 4.0, 9.0], rtol=2e-3)

    def test_constant_shift(self):
        grid = Grid(0.0, math.pi, 501)
        base = assemble_schrodinger(np.zeros(grid.n_points), grid)
        shifted = assemble_schrodinger(np.full(grid.n_points, 7.0), grid)
        _, d0, s0 = base.bands
        _, d7, _ = shifted.bands
        lev0 = symtridiag_eigenvalues(d0.real, s0.real)
        lev7 = symtridiag_eigenvalues(d7.real, s0.real)
        np.testing.assert_allclose(lev7, lev0 + 7.0, atol=1e-10)

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            assemble_schrodinger(np.zeros(5), Grid(0.0, 1.0, 6))


class TestHermitianEquivalentAssembly:
    def test_exactly_hermitian(self, morse_spec, cot_spec):
        for spec, grid in ((morse_spec, Grid(-4.0, 10.0, 201)), (cot_spec, Grid(0.3, 2.8, 201))):
            h = assemble_dirac(hermitian_equivalent_interaction(spec), grid)
            assert hermiticity_defect(h) <= 1e-14

    def test_equals_assembly_of_rotated_coupling(self):
        spec = MorseInteraction(D=2.5, A=3.0, B=4.0, alpha=1.0)
        rotated = MorseInteraction(D=2.5, A=5.0, B=0.0, alpha=1.0)
        grid = Grid(-2.0, 6.0, 101)
        assert assemble_dirac(hermitian_equivalent_interaction(spec), grid).max_abs_diff(
            assemble_dirac(rotated, grid)
        ) <= 1e-12

    def test_linear_already_hermitian(self):
        spec = LinearInteraction(omega=1.0)
        grid = Grid(-3.0, 3.0, 101)
        assert assemble_dirac(hermitian_equivalent_interaction(spec), grid).max_abs_diff(
            assemble_dirac(spec, grid)
        ) == 0.0


FACTORIZATION_CASES = [
    (MorseInteraction(D=2.5, A=1.0, B=0.5, alpha=1.0), Grid(-2.0, 2.0, 201)),
    (LinearInteraction(omega=1.0), Grid(-3.0, 3.0, 201)),
    (CotInteraction(A=1.0, alpha=1.0, a=0.0, b=0.3), Grid(0.3, 2.8, 201)),
]
CONSTANT_COUPLING = MorseInteraction(D=3.0, A=0.0, B=0.0, alpha=1.0)


class TestFactorization:
    @pytest.mark.parametrize("spec, grid", FACTORIZATION_CASES)
    def test_identity_and_convergence(self, spec, grid):
        report = factorization_check(spec, grid)
        assert report.overall
        assert check_named(report, "ladder_product_identity").measured <= 1e-12

    @pytest.mark.parametrize(
        "spec, grid", FACTORIZATION_CASES + [(CONSTANT_COUPLING, Grid(-1.0, 1.0, 101))]
    )
    def test_band_residual_matches_dense(self, spec, grid):
        # the dense products the band form replaces, as the reference
        lower, raise_ = assemble_ladder(spec, grid)
        p = momentum_operator(grid).to_dense()
        f = np.diag(eval_f_vec(spec, grid))
        product = raise_.to_dense() @ lower.to_dense()
        expanded = p @ p + f @ f + 1j * (f @ p - p @ f)
        dense_residual = float(np.max(np.abs(product - expanded)))
        report = factorization_check(spec, grid)
        measured = check_named(report, "ladder_product_identity").measured
        assert abs(measured - dense_residual) <= 1e-13

    def test_constant_coupling_commutes(self):
        spec = CONSTANT_COUPLING
        grid = Grid(-1.0, 1.0, 101)
        p = momentum_operator(grid)
        f = np.full(grid.n_points, 3.0, dtype=complex)
        psi = np.sin(grid.points).astype(complex)
        commutator = f * p.matvec(psi) - p.matvec(f * psi)
        # zero up to multiplication-order roundoff
        assert np.max(np.abs(commutator)) <= 1e-13
        assert factorization_check(spec, grid).overall

    def test_product_difference_is_twice_commutator(self, morse_spec):
        # A A# - A# A = -2i [f, p] as an exact matrix identity
        grid = Grid(-2.0, 2.0, 101)
        lower, raise_ = assemble_ladder(morse_spec, grid)
        p = momentum_operator(grid).to_dense()
        f = np.diag(eval_f_vec(morse_spec, grid))
        left = lower.to_dense() @ raise_.to_dense() - raise_.to_dense() @ lower.to_dense()
        right = -2j * (f @ p - p @ f)
        assert np.max(np.abs(left - right)) <= 1e-12


def check_named(report, name):
    (check,) = [c for c in report.checks if c.name == name]
    return check


def eval_f_vec(spec, grid):
    from gdo import eval_f

    return eval_f(spec, grid.points.astype(complex))
