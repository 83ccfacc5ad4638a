import cmath
import math

import numpy as np
import pytest

from gdo import (
    DEFAULT_CONSTANTS,
    CotInteraction,
    DomainError,
    Grid,
    LinearInteraction,
    MorseInteraction,
    ParameterError,
    PhysicalConstants,
    PoleError,
    check_pseudo_hermiticity_condition,
    default_condition_grid,
    epsilon_minus,
    eval_f,
)
from oracles import ComplexDepthMorse, ComplexOmegaLinear


def f_prime(spec, z, consts=DEFAULT_CONSTANTS):
    """f'(z) at a real point, as the family's coupling method gives it."""
    return complex(spec.coupling(np.asarray(z, dtype=float), 0.0, consts, True)[1])


class TestEvalF:
    def test_morse_at_origin(self):
        spec = MorseInteraction(D=2.5, A=1.0, B=0.0, alpha=1.0)
        assert eval_f(spec, 0.0) == pytest.approx(1.5)

    def test_morse_large_x_limit(self):
        spec = MorseInteraction(D=2.5, A=1.0, B=0.7, alpha=1.0)
        assert eval_f(spec, 40.0) == pytest.approx(2.5, abs=1e-12)

    def test_cot_against_exponential_form(self):
        spec = CotInteraction(A=1.0, alpha=1.0, a=0.0, b=0.3)
        z = math.pi / 2
        w = z - 0.3j
        expected = -(
            (cmath.exp(1j * w) + cmath.exp(-1j * w))
            / (cmath.exp(1j * w) - cmath.exp(-1j * w))
            * 1j
        )
        assert eval_f(spec, z) == pytest.approx(expected, rel=1e-14)

    def test_linear_uses_mass(self):
        spec = LinearInteraction(omega=2.0)
        consts = PhysicalConstants(mass=3.0)
        assert eval_f(spec, 1.5, consts) == pytest.approx(9.0)

    def test_array_evaluation(self):
        spec = MorseInteraction(D=2.5, A=1.0, B=0.5, alpha=1.0)
        x = np.linspace(-1, 1, 7)
        values = eval_f(spec, x.astype(complex))
        assert values.shape == (7,)
        assert values[3] == pytest.approx(eval_f(spec, 0.0))

    def test_cot_pole_raises(self):
        spec = CotInteraction(A=1.0, alpha=1.0, a=0.0, b=0.0)
        with pytest.raises(PoleError):
            eval_f(spec, 0.0)

    def test_nonfinite_point_raises(self):
        spec = LinearInteraction(omega=1.0)
        with pytest.raises(DomainError):
            eval_f(spec, float("nan"))


class TestEvalFPrime:
    def test_linear_constant(self):
        assert f_prime(LinearInteraction(omega=1.0), 17.3) == pytest.approx(1.0)

    def test_morse_complex_amplitude(self):
        spec = MorseInteraction(D=2.5, A=1.0, B=0.5, alpha=1.0)
        assert f_prime(spec, 0.0) == pytest.approx(1.0 + 0.5j)

    @pytest.mark.parametrize(
        "spec, points",
        [
            (MorseInteraction(D=2.5, A=1.0, B=0.5, alpha=1.0), np.linspace(-2, 4, 9)),
            (CotInteraction(A=1.0, alpha=1.0, a=0.0, b=0.3), np.linspace(0.3, 2.8, 9)),
            (LinearInteraction(omega=1.3), np.linspace(-3, 3, 9)),
        ],
    )
    def test_matches_central_difference(self, spec, points):
        step = 1e-6
        for x in points:
            numeric = (eval_f(spec, x + step) - eval_f(spec, x - step)) / (2 * step)
            analytic = f_prime(spec, x)
            assert analytic == pytest.approx(numeric, rel=1e-6)


class TestMetricTheta:
    def test_real_morse_is_hermitian(self):
        assert MorseInteraction(D=2.5, A=1.0, B=0.0, alpha=1.0).theta(DEFAULT_CONSTANTS) == 0.0

    def test_morse_value(self):
        spec = MorseInteraction(D=2.5, A=1.0, B=0.5, alpha=1.0)
        assert spec.theta(DEFAULT_CONSTANTS) == pytest.approx(0.9272952180016122, abs=1e-12)

    def test_cot_value(self):
        assert CotInteraction(A=1.0, alpha=1.0, a=0.0, b=0.3).theta(DEFAULT_CONSTANTS) == pytest.approx(0.6)

    def test_linear_is_zero(self):
        assert LinearInteraction(omega=4.0).theta(DEFAULT_CONSTANTS) == 0.0

    def test_morse_zero_amplitude_rejected(self):
        spec = MorseInteraction(D=2.5, A=0.0, B=0.5, alpha=1.0)
        with pytest.raises(ParameterError):
            spec.theta(DEFAULT_CONSTANTS)


class TestConditionCheck:
    @pytest.mark.parametrize(
        "spec",
        [
            MorseInteraction(D=2.5, A=1.0, B=0.5, alpha=1.0),
            CotInteraction(A=1.0, alpha=1.0, a=0.0, b=0.3),
        ],
    )
    def test_identity_holds_at_the_right_theta(self, spec):
        theta = spec.theta(DEFAULT_CONSTANTS)
        report = check_pseudo_hermiticity_condition(spec, theta, default_condition_grid(spec))
        assert report.passed
        assert report.max_deviation <= 1e-12

    @pytest.mark.parametrize("factor", [0.5, 2.0, -1.0])
    @pytest.mark.parametrize(
        "spec",
        [
            MorseInteraction(D=2.5, A=1.0, B=0.5, alpha=1.0),
            CotInteraction(A=1.0, alpha=1.0, a=0.0, b=0.3),
        ],
    )
    def test_wrong_theta_fails(self, spec, factor):
        theta = spec.theta(DEFAULT_CONSTANTS) * factor
        report = check_pseudo_hermiticity_condition(spec, theta, default_condition_grid(spec))
        assert not report.passed
        assert report.max_deviation > 1e-3

    def test_linear_trivially_real(self):
        spec = LinearInteraction(omega=1.0)
        report = check_pseudo_hermiticity_condition(spec, 0.0, default_condition_grid(spec))
        assert report.passed
        assert report.max_deviation == 0.0

    def test_report_invariant(self, morse_spec):
        report = check_pseudo_hermiticity_condition(
            morse_spec, morse_spec.theta(DEFAULT_CONSTANTS), default_condition_grid(morse_spec)
        )
        assert report.passed == (report.max_deviation <= report.tolerance)

    def test_default_grid_shape(self, cot_spec):
        grid = default_condition_grid(cot_spec)
        assert grid.n_points == 401
        center = (grid.x_min + grid.x_max) / 2
        assert center == pytest.approx(cot_spec.a / cot_spec.alpha + math.pi / 2)
        assert grid.x_max - grid.x_min == pytest.approx(4.0 / cot_spec.alpha)

    @pytest.mark.parametrize("omega,half_width", [(4.0, 0.5), (-4.0, 0.5), (0.0, 2.0)])
    def test_linear_window_spans_two_oscillator_lengths(self, omega, half_width):
        # sqrt(hbar / (m |omega|)) = 1/4 here; omega = 0 keeps the unit window
        consts = PhysicalConstants(hbar=0.5, c=1.0, mass=2.0)
        grid = default_condition_grid(LinearInteraction(omega=omega), consts)
        assert (grid.x_min, grid.x_max, grid.n_points) == (-half_width, half_width, 401)


class TestUpperPartner:
    CONSTS = PhysicalConstants(hbar=0.5, c=1.0, mass=2.0)

    def test_morse_depth_drops_by_hbar_alpha(self):
        spec = MorseInteraction(D=2.5, A=1.0, B=0.5, alpha=2.0)
        assert spec.upper_partner(self.CONSTS) == MorseInteraction(D=1.5, A=1.0, B=0.5, alpha=2.0)

    def test_cot_amplitude_grows_by_hbar_alpha(self):
        spec = CotInteraction(A=1.0, alpha=2.0, a=0.2, b=0.3)
        assert spec.upper_partner(self.CONSTS) == CotInteraction(A=2.0, alpha=2.0, a=0.2, b=0.3)

    def test_linear_is_its_own_partner(self):
        spec = LinearInteraction(omega=1.5)
        assert spec.upper_partner(self.CONSTS) is spec


class TestHermitianEquivalent:
    def test_morse_pythagorean_amplitude(self):
        spec = MorseInteraction(D=2.5, A=3.0, B=4.0, alpha=1.0)
        real_spec = spec.hermitian_equivalent()
        assert real_spec.A == pytest.approx(5.0)
        assert real_spec.B == 0.0
        assert real_spec.D == spec.D

    def test_cot_drops_imaginary_offset(self):
        spec = CotInteraction(A=1.0, alpha=1.0, a=0.2, b=0.3)
        real_spec = spec.hermitian_equivalent()
        assert real_spec.b == 0.0
        assert real_spec.a == spec.a

    def test_linear_unchanged(self):
        spec = LinearInteraction(omega=1.0)
        assert spec.hermitian_equivalent() is spec

    @pytest.mark.parametrize(
        "spec, grid",
        [
            (MorseInteraction(D=2.5, A=1.0, B=0.5, alpha=1.0), Grid(-2.0, 2.0, 101)),
            (CotInteraction(A=1.0, alpha=1.0, a=0.2, b=0.3), Grid(0.4, 2.8, 101)),
        ],
    )
    def test_matches_half_shift_and_is_real(self, spec, grid):
        real_spec = spec.hermitian_equivalent()
        theta = spec.theta(DEFAULT_CONSTANTS)
        x = grid.points
        half_shifted = eval_f(spec, x + 0.5j * theta)
        direct = eval_f(real_spec, x.astype(complex))
        np.testing.assert_allclose(half_shifted, direct, atol=1e-10)
        assert np.max(np.abs(direct.imag)) <= 1e-12


class TestNegation:
    def test_families_negate_pointwise(self, morse_spec, cot_spec):
        for spec, x in ((morse_spec, 0.7), (cot_spec, 1.1), (LinearInteraction(omega=2.0), 0.4)):
            assert eval_f(spec.negated(), x) == pytest.approx(-eval_f(spec, x))
            assert f_prime(spec.negated(), x) == pytest.approx(-f_prime(spec, x))


class TestValidation:
    def test_constants_must_be_positive(self):
        with pytest.raises(ParameterError):
            PhysicalConstants(hbar=0.0)
        with pytest.raises(ParameterError):
            PhysicalConstants(mass=-1.0)

    def test_grid_ordering(self):
        with pytest.raises(ParameterError):
            Grid(1.0, 1.0, 10)
        with pytest.raises(ParameterError):
            Grid(0.0, 1.0, 2)

    def test_grid_spacing_uniform(self):
        grid = Grid(0.0, 1.0, 5)
        assert grid.spacing == pytest.approx(0.25)
        np.testing.assert_allclose(np.diff(grid.points), 0.25)

    @pytest.mark.parametrize(
        "bounds", [(0.0, 1.0, 5), (-6.0, 20.0, 4000), (-1.0, -0.0, 7), (0.001, 3.14, 1001)]
    )
    def test_grid_points_are_computed_once_and_read_only(self, bounds):
        grid = Grid(*bounds)
        points = grid.points
        # bit for bit what np.linspace gives, signed zeros included
        expected = np.linspace(*bounds)
        assert points.tobytes() == expected.tobytes()
        assert grid.points is points
        with pytest.raises(ValueError, match="read-only"):
            points[0] = 1.0
        # equal grids share no state: a new instance computes its own array
        assert Grid(*bounds).points is not points

    def test_morse_fields_are_keyword_only(self):
        # B has a default, so positional calls could swap alpha and B
        with pytest.raises(TypeError):
            MorseInteraction(2.5, 1.0, 0.5, 1.0)
        assert MorseInteraction(D=2.5, A=1.0, alpha=1.0).B == 0.0

    def test_morse_needs_positive_alpha(self):
        with pytest.raises(ParameterError):
            MorseInteraction(D=1.0, A=1.0, B=0.0, alpha=0.0)

    def test_linear_needs_positive_omega(self):
        # a negative omega is the spin-flipped coupling: it evaluates, but
        # has no closed-form levels
        spec = LinearInteraction(omega=-2.0)
        assert spec == LinearInteraction(omega=2.0).negated()
        assert eval_f(spec, 1.5) == pytest.approx(-3.0)
        with pytest.raises(ParameterError, match="linear levels need omega > 0"):
            spec.level_count(DEFAULT_CONSTANTS)
        with pytest.raises(ParameterError, match="linear levels need omega > 0"):
            epsilon_minus(spec, 0)
        with pytest.raises(ParameterError, match="'omega' must be finite"):
            LinearInteraction(omega=math.inf)

    @pytest.mark.parametrize(
        "make, field",
        [
            # outside the paper's class: no real theta conjugates f, and the
            # first level question used to raise a bare TypeError
            (lambda: MorseInteraction(D=2.5 + 0.3j, A=1.0, B=0.5, alpha=1.0), "D"),
            (lambda: LinearInteraction(omega=1.0 + 0.2j), "omega"),
            (lambda: CotInteraction(A=1.0, alpha=1.0, b=np.complex128(0.3)), "b"),
        ],
        ids=["morse-complex-D", "linear-complex-omega", "cot-numpy-complex"],
    )
    def test_complex_parameter_is_refused_by_name(self, make, field):
        with pytest.raises(ParameterError, match=rf"parameter '{field}' must be real, got "):
            make()


@pytest.mark.parametrize(
    "spec, deviation",
    [
        # f(x + i hbar theta) - conj f(x) = 2i Im D at every point
        (ComplexDepthMorse(D=2.5 + 0.3j, A=1.0, B=0.5, alpha=1.0), 0.6),
        (ComplexDepthMorse(D=2.5 + 0.01j, A=1.0, B=0.5, alpha=1.0), 0.02),
        # 2 m |Im omega| |x| at the window's ends x = -+2/k, k = sqrt(m |omega| / hbar)
        (ComplexOmegaLinear(omega=1.0 + 0.2j), 0.8 / abs(1.0 + 0.2j) ** 0.5),
    ],
    ids=["morse-D-0.3i", "morse-D-0.01i", "linear-omega-0.2i"],
)
def test_negative_control_fails_the_condition(spec, deviation):
    # a coupling one parameter outside the paper's class fails the
    # conjugation-shift check at its family's theta
    consts = DEFAULT_CONSTANTS
    report = check_pseudo_hermiticity_condition(
        spec, spec.theta(consts), default_condition_grid(spec, consts), consts
    )
    assert not report.passed
    assert report.max_deviation == pytest.approx(deviation, rel=1e-12)
