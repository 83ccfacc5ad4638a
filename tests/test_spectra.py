import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gdo import (
    DEFAULT_CONSTANTS,
    BranchError,
    CotInteraction,
    Grid,
    LevelOutOfRangeError,
    LinearInteraction,
    MorseInteraction,
    ParameterError,
    PhysicalConstants,
    UNBOUNDED,
    analytic_spinor,
    assemble_dirac,
    assemble_schrodinger,
    closed_form_potentials,
    dirac_spectrum,
    epsilon_minus,
    load_config,
    spinor_coefficients,
)
from gdo.spectra import _partner_functions, singlet_layout
from oracles import analytic_phi, phi_raw, rayleigh_quotient


class TestLevels:
    def test_morse_ground_is_zero(self, morse_spec):
        assert epsilon_minus(morse_spec, 0) == 0.0

    def test_morse_first_excited(self, morse_spec):
        assert epsilon_minus(morse_spec, 1) == pytest.approx(4.0)

    def test_cot_levels(self, cot_spec):
        assert [epsilon_minus(cot_spec, n) for n in range(4)] == [0.0, 3.0, 8.0, 15.0]

    def test_plus_equals_shifted_minus(self, morse_spec, cot_spec):
        # spectrum pair n holds the upper-partner level n, which is lower level n + 1
        def plus_levels(spec, count):
            return [line.epsilon for line in dirac_spectrum(spec, max_levels=count + 1)[1:]]

        assert plus_levels(morse_spec, 1) == [epsilon_minus(morse_spec, 1)]
        assert plus_levels(cot_spec, 6) == [epsilon_minus(cot_spec, n + 1) for n in range(6)]
        lin = LinearInteraction(omega=1.3)
        assert plus_levels(lin, 6) == [epsilon_minus(lin, n + 1) for n in range(6)]

    def test_linear_levels(self):
        lin = LinearInteraction(omega=2.0)
        consts = PhysicalConstants(mass=3.0)
        assert epsilon_minus(lin, 5, consts) == pytest.approx(60.0)

    def test_bound_counts(self, morse_spec, cot_spec):
        # lower-partner levels only: floor(D/(hbar alpha)) = floor(2.5) for Morse
        assert morse_spec.level_count(DEFAULT_CONSTANTS) == 2
        assert cot_spec.level_count(DEFAULT_CONSTANTS) is UNBOUNDED
        assert LinearInteraction(omega=1.0).level_count(DEFAULT_CONSTANTS) is UNBOUNDED

    def test_morse_level_range_enforced(self, morse_spec):
        with pytest.raises(LevelOutOfRangeError):
            epsilon_minus(morse_spec, 2)
        with pytest.raises(LevelOutOfRangeError):
            # the upper partner's level 1 is the second component of spinor level 2
            _partner_functions(morse_spec, 2, np.zeros(3), DEFAULT_CONSTANTS)

    def test_negated_morse_rejected(self, morse_spec):
        with pytest.raises(ParameterError):
            epsilon_minus(morse_spec.negated(), 0)

    def test_cot_without_closed_form_levels_rejected(self):
        # A <= 0 has no closed-form levels: epsilon_minus would read -1 here,
        # and the singlet sin^{-1}(w) would blow up at the poles
        spec = CotInteraction(A=-1.0, alpha=1.0, b=0.3)
        for call in (
            lambda: spec.level_count(DEFAULT_CONSTANTS),
            lambda: epsilon_minus(spec, 1),
            lambda: analytic_spinor(spec, -1, Grid(0.5, 2.5, 11)),
        ):
            with pytest.raises(ParameterError, match="cot levels need A > 0"):
                call()


class TestDiracSpectrum:
    def test_singlet_line(self, morse_spec):
        line = dirac_spectrum(morse_spec)[0]
        assert line.n == -1
        assert line.energy_plus == -1.0
        assert line.epsilon == 0.0

    def test_morse_lines_and_truncation(self, morse_spec):
        lines = dirac_spectrum(morse_spec, max_levels=5)
        assert len(lines) == 2
        assert lines[1].energy_plus == pytest.approx(math.sqrt(5.0))
        assert lines[1].energy_minus == pytest.approx(-math.sqrt(5.0))

    def test_cot_lines(self, cot_spec):
        lines = dirac_spectrum(cot_spec, max_levels=3)
        assert [line.energy_plus for line in lines] == pytest.approx([-1.0, 2.0, 3.0])

    def test_max_levels_cap(self, cot_spec):
        assert len(dirac_spectrum(cot_spec, max_levels=7)) == 7

    def test_energy_epsilon_consistency(self, morse_spec, cot_spec):
        consts = PhysicalConstants(c=2.0, mass=1.5)
        for spec in (morse_spec, cot_spec):
            for line in dirac_spectrum(spec, consts, max_levels=5):
                lhs = consts.c**2 * line.epsilon + (consts.mass * consts.c**2) ** 2
                assert lhs == pytest.approx(line.energy_plus**2, rel=1e-12)

    def test_pair_branches_mirror(self, cot_spec):
        for line in dirac_spectrum(cot_spec, max_levels=5)[1:]:
            assert line.energy_plus == -line.energy_minus


class TestSpinorCoefficients:
    def test_sqrt_five(self):
        coeffs = spinor_coefficients(math.sqrt(5.0))
        assert coeffs.a == pytest.approx(0.85065080835204, abs=1e-10)
        assert coeffs.b == pytest.approx(0.52573111211913, abs=1e-10)

    def test_energy_two(self):
        coeffs = spinor_coefficients(2.0)
        assert coeffs.a == pytest.approx(math.sqrt(0.75))
        assert coeffs.b == pytest.approx(0.5)

    def test_unit_circle(self):
        for energy in (1.0 + 1e-12, 1.5, 2.0, 10.0, 1e6):
            coeffs = spinor_coefficients(energy)
            assert coeffs.a**2 + coeffs.b**2 == pytest.approx(1.0, abs=1e-12)

    def test_rest_energy_limit(self):
        coeffs = spinor_coefficients(1.0 + 1e-12)
        assert coeffs.a == pytest.approx(1.0, abs=1e-6)
        assert coeffs.b == pytest.approx(0.0, abs=1e-6)

    def test_branch_guard(self):
        with pytest.raises(BranchError):
            spinor_coefficients(1.0)
        with pytest.raises(BranchError):
            spinor_coefficients(-2.0)


class TestAnalyticPhi:
    def test_morse_ground_shape(self, morse_spec, morse_grid):
        # degree-zero polynomial factor: phi ~ z^s exp(-z/2)
        phi = analytic_phi(morse_spec, "minus", 0, morse_grid)
        s = morse_spec.D / morse_spec.alpha
        z = 2.0 * (morse_spec.A + 1j * morse_spec.B) * np.exp(-morse_grid.points)
        raw = z**s * np.exp(-z / 2.0)
        ratio = phi / raw
        keep = np.abs(raw) > 1e-12 * np.max(np.abs(raw))
        spread = np.max(np.abs(ratio[keep] - ratio[keep][0]))
        assert spread <= 1e-9 * abs(ratio[keep][0])

    def test_normalization(self, morse_spec, morse_grid):
        phi = analytic_phi(morse_spec, "minus", 1, morse_grid)
        assert np.sum(np.abs(phi) ** 2) * morse_grid.spacing == pytest.approx(1.0)

    def test_real_morse_first_excited_has_one_node(self):
        spec = MorseInteraction(D=2.5, A=1.0, B=0.0, alpha=1.0)
        grid = Grid(-6.0, 20.0, 4000)
        phi = analytic_phi(spec, "minus", 1, grid)
        values = phi.real
        crossings = int(np.sum(np.abs(np.diff(np.sign(values))) > 1))
        assert crossings == 1

    def test_cot_ground_shape(self, cot_spec, cot_grid):
        phi = analytic_phi(cot_spec, "minus", 0, cot_grid)
        w = cot_grid.points - cot_spec.a - 1j * cot_spec.b
        raw = np.sin(w) ** (cot_spec.A / cot_spec.alpha)
        ratio = phi / raw
        assert np.max(np.abs(ratio - ratio[0])) <= 1e-9 * abs(ratio[0])

    def test_level_out_of_range(self, morse_spec, morse_grid):
        with pytest.raises(LevelOutOfRangeError):
            analytic_phi(morse_spec, "plus", 1, morse_grid)
        with pytest.raises(LevelOutOfRangeError):
            analytic_phi(morse_spec, "plus", -1, morse_grid)

    def test_linear_phi_is_a_hermite_function(self):
        # level n of either partner well is H_n(xi) exp(-xi^2/2), with
        # xi = sqrt(m omega / hbar) x; numpy's physicists' Hermite series is
        # the reference for the Laguerre form, sign included
        consts = PhysicalConstants(hbar=0.8, c=1.5, mass=1.3)
        spec = LinearInteraction(omega=1.7)
        grid = Grid(-5.0, 5.0, 1001)
        xi = math.sqrt(1.3 * 1.7 / 0.8) * grid.points
        for n in range(8):
            reference = np.polynomial.hermite.hermval(xi, np.eye(n + 1)[n]) * np.exp(-0.5 * xi**2)
            reference /= math.sqrt(np.sum(reference**2) * grid.spacing)
            for branch in ("minus", "plus"):
                phi = analytic_phi(spec, branch, n, grid, consts)
                np.testing.assert_allclose(phi, reference, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("branch,n,expected", [("minus", 1, 4.0), ("plus", 0, 4.0)])
    def test_morse_phi_solves_its_partner_problem(self, morse_spec, branch, n, expected):
        # finite-difference Rayleigh quotient pins the eigenvalue each branch
        # function belongs to, guarding the branch-index bookkeeping
        grid = Grid(-6.0, 20.0, 4000)
        sample = closed_form_potentials(morse_spec, grid)
        v = sample.v_minus if branch == "minus" else sample.v_plus
        op = assemble_schrodinger(v, grid)
        phi = analytic_phi(morse_spec, branch, n, grid)
        rq = rayleigh_quotient(op, phi)
        assert rq.real == pytest.approx(expected, abs=2e-3)
        assert abs(rq.imag) <= 1e-6

    @pytest.mark.parametrize("branch,n", [("minus", 1), ("minus", 2), ("plus", 0), ("plus", 1)])
    def test_cot_phi_solves_its_partner_problem(self, branch, n):
        # real offset-free family: its states vanish at the period ends, so
        # the clipped second-order operator sees them cleanly; the index
        # pairing under test is the same for every offset
        spec = CotInteraction(A=1.0, alpha=1.0, a=0.0, b=0.0)
        grid = Grid(1e-3, math.pi - 1e-3, 4000)
        sample = closed_form_potentials(spec, grid)
        v = sample.v_minus if branch == "minus" else sample.v_plus
        op = assemble_schrodinger(v, grid)
        phi = analytic_phi(spec, branch, n, grid)
        rq = rayleigh_quotient(op, phi)
        expected = epsilon_minus(spec, n if branch == "minus" else n + 1)
        assert rq.real == pytest.approx(expected, abs=5e-3)
        assert abs(rq.imag) <= 1e-9


class TestAnalyticSpinor:
    def test_gdo_singlet_upper_only(self, morse_spec, morse_grid):
        sample = analytic_spinor(morse_spec, -1, morse_grid, model="GDO")
        assert np.max(np.abs(sample.psi2)) == 0.0
        assert np.max(np.abs(sample.psi1)) > 0.0

    def test_gjc_singlet_lower_only(self, morse_spec, morse_grid):
        sample = analytic_spinor(morse_spec, -1, morse_grid, model="GJC")
        assert np.max(np.abs(sample.psi1)) == 0.0

    def test_whole_spinor_normalized(self, morse_spec, morse_grid):
        sample = analytic_spinor(morse_spec, 1, morse_grid)
        total = np.sum(np.abs(sample.psi1) ** 2 + np.abs(sample.psi2) ** 2) * morse_grid.spacing
        assert total == pytest.approx(1.0, rel=1e-12)

    def test_real_morse_component_weights(self):
        # for a real coupling the component norms are exactly the closed-form
        # coefficient pair, and the components are the partner functions
        spec = MorseInteraction(D=2.5, A=1.0, B=0.0, alpha=1.0)
        grid = Grid(-6.0, 20.0, 4000)
        sample = analytic_spinor(spec, 1, grid)
        coeffs = spinor_coefficients(math.sqrt(5.0))
        h = grid.spacing
        upper_norm = math.sqrt(float(np.sum(np.abs(sample.psi1) ** 2)) * h)
        lower_norm = math.sqrt(float(np.sum(np.abs(sample.psi2) ** 2)) * h)
        assert upper_norm == pytest.approx(coeffs.a, abs=2e-4)
        assert lower_norm == pytest.approx(coeffs.b, abs=2e-4)
        phi_minus = analytic_phi(spec, "minus", 1, grid)
        ratio = sample.psi1 / phi_minus
        assert np.max(np.abs(ratio - ratio[0])) <= 1e-8 * abs(ratio[0])

    def test_gdo_spinor_is_discrete_eigenvector_morse(self, morse_spec):
        errors = []
        for n_points in (2000, 4000):
            grid = Grid(-6.0, 20.0, n_points)
            sample = analytic_spinor(morse_spec, 1, grid)
            matrix = assemble_dirac(morse_spec, grid)
            v = np.concatenate([sample.psi1, sample.psi2])
            errors.append(abs(rayleigh_quotient(matrix, v) - math.sqrt(5.0)))
        ratio = errors[0] / errors[1]
        assert 3.5 <= ratio <= 4.5

    def test_gjc_spinor_is_discrete_eigenvector(self, morse_spec):
        from gdo import ModelSpec, assemble_model

        grid = Grid(-6.0, 20.0, 4000)
        sample = analytic_spinor(morse_spec, 1, grid, model="GJC")
        matrix = assemble_model(ModelSpec("gjc", 1.0, 1.0, morse_spec), grid)
        v = np.concatenate([sample.psi1, sample.psi2])
        assert rayleigh_quotient(matrix, v).real == pytest.approx(math.sqrt(5.0), abs=1e-3)

    def test_linear_spinor_rayleigh(self):
        # the GAJC layout of the assembled model is the oscillator matrix
        consts = PhysicalConstants(hbar=0.8, c=1.5, mass=1.3)
        spec = LinearInteraction(omega=1.7)
        grid = Grid(-8.0, 8.0, 4001)
        matrix = assemble_dirac(spec, grid, consts)
        for level in range(1, 5):
            sample = analytic_spinor(spec, level, grid, consts)
            energy = math.sqrt(1.3**2 * 1.5**4 + 1.5**2 * epsilon_minus(spec, level, consts))
            v = np.concatenate([sample.psi1, sample.psi2])
            # O(h^2): 1.1e-5 at level 1 to 1.1e-4 at level 4
            assert rayleigh_quotient(matrix, v) == pytest.approx(energy, abs=2e-4)

    def test_cot_spinor_rayleigh(self, cot_spec):
        grid = Grid(1e-3, math.pi - 1e-3, 4000)
        sample = analytic_spinor(cot_spec, 1, grid)
        matrix = assemble_dirac(cot_spec, grid)
        v = np.concatenate([sample.psi1, sample.psi2])
        assert rayleigh_quotient(matrix, v).real == pytest.approx(2.0, abs=1e-3)

    def test_level_bookkeeping(self, morse_spec, morse_grid):
        with pytest.raises(LevelOutOfRangeError):
            analytic_spinor(morse_spec, 0, morse_grid)
        with pytest.raises(LevelOutOfRangeError):
            analytic_spinor(morse_spec, 2, morse_grid)

    def test_model_name_recorded(self, morse_spec, morse_grid):
        assert analytic_spinor(morse_spec, -1, morse_grid, model="GJC").model == "GJC"


@pytest.mark.parametrize("name", ["morse.json", "cot.json", "linear.json"])
def test_swapped_singlet_is_the_gjc_singlet_bit_for_bit(name):
    config = load_config(Path(__file__).resolve().parents[1] / "configs" / name)
    args = (config.interaction, -1, config.grid, config.constants)
    gdo_layout = analytic_spinor(*args)
    gjc = analytic_spinor(*args, model="GJC")
    swapped = singlet_layout(gdo_layout, "GJC")
    assert (swapped.level, swapped.model, swapped.grid) == (-1, "GJC", config.grid)
    for component in ("psi1", "psi2"):
        assert getattr(swapped, component).tobytes() == getattr(gjc, component).tobytes()
    # the GJC singlet is the GDO one with its components exchanged: +0.0 on top
    assert gjc.psi2.tobytes() == gdo_layout.psi1.tobytes()
    assert gjc.psi1.tobytes() == np.zeros(config.grid.n_points, dtype=complex).tobytes()
    assert singlet_layout(swapped, "GDO").psi1.tobytes() == gdo_layout.psi1.tobytes()


_SCALED = PhysicalConstants(hbar=0.8, c=1.5, mass=1.3)
_SHARED_PAIR_CASES = [
    # D or A and alpha where s' -+ (k - 1) of upper_partner differs from
    # s -+ k in the last bit at each level; Morse s = 5.69 and 5.73, B != 0
    (MorseInteraction(D=5.641351481464853, A=0.9811871521080981, B=-0.47559034892778473, alpha=0.9918240813887417),
     PhysicalConstants(), Grid(-5.974238705612712, 19.91412901870904, 1001)),
    (MorseInteraction(D=4.5837291986162265, A=1.2572095947568012, B=-0.7511931940964589, alpha=0.9994935626221347),
     _SCALED, Grid(-5.937629515747799, 19.792098385825998, 1001)),
    # cot s = 0.89 and s = 3.24, inside one period
    (CotInteraction(A=0.8899939763027477, alpha=1.0052120441677017, a=0.4914990293561572, b=0.18196052661284745),
     PhysicalConstants(), Grid(0.4895, 3.6137, 1001)),
    (CotInteraction(A=2.636788073891152, alpha=1.018530689435874, a=-0.01252226594689626, b=0.3771194621612596),
     _SCALED, Grid(-0.0113, 3.0594, 1001)),
    (LinearInteraction(omega=1.7), _SCALED, Grid(-8.0, 8.0, 1001)),
]


@pytest.mark.parametrize(
    "spec, consts, grid", _SHARED_PAIR_CASES, ids=["morse", "morse-scaled", "cot-weak", "cot-strong", "linear"]
)
def test_shared_pair_matches_the_per_partner_route(spec, consts, grid):
    # a level's two components share one prefactor; the oracle samples the
    # upper one as the lower-partner function of upper_partner(spec).  The
    # shared prefactor is taken relative to its largest value, so the pair
    # matches the oracle's up to one constant, fitted on the lower component
    x, h = grid.points, grid.spacing
    mc2 = consts.mass * consts.c**2
    for level in range(1, 5):
        lower = phi_raw(spec, "minus", level, x, consts)
        upper = phi_raw(spec, "plus", level - 1, x, consts)
        pair = _partner_functions(spec, level, x, consts)
        scale = np.vdot(lower, pair[0]) / np.vdot(lower, lower)
        for got, want in zip(pair, (scale * lower, scale * upper)):
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
        energy = math.sqrt(mc2 * mc2 + consts.c**2 * epsilon_minus(spec, level, consts))
        coupled = consts.c * spec.ladder_constant(level - 1, consts) * upper
        for model, pair in (("GDO", (lower, coupled / (energy + mc2))), ("GJC", (coupled / (energy - mc2), lower))):
            norm = math.sqrt(float(np.sum(np.abs(pair[0]) ** 2 + np.abs(pair[1]) ** 2)) * h)
            sample = analytic_spinor(spec, level, grid, consts, model=model)
            for got, want in zip((sample.psi1, sample.psi2), pair):
                assert np.max(np.abs(got - want / norm)) <= 1e-13 * np.max(np.abs(want / norm))


@st.composite
def _far_windows(draw):
    # a coupling and a window shifted away from its well: the Morse right
    # tail, the far side of the linear well, or anywhere inside one cot period
    def unit(lo, hi):
        return draw(st.floats(lo, hi, allow_nan=False, allow_infinity=False))

    kind = draw(st.sampled_from(["morse", "linear", "cot"]))
    if kind == "morse":
        spec = MorseInteraction(D=unit(0.5, 400.0), A=unit(0.1, 3.0), B=unit(-3.0, 3.0), alpha=unit(0.3, 3.0))
        # starting up to 1200 decay lengths right of the well
        start = unit(0.0, 1200.0) / spec.alpha
        return spec, Grid(start, start + unit(2.0, 100.0) / spec.alpha, 201)
    if kind == "linear":
        spec = LinearInteraction(omega=unit(0.2, 5.0))
        # 5 to 100 oscillator lengths from the origin, on either side
        length = 1.0 / math.sqrt(spec.omega)
        near, far = unit(5.0, 100.0) * length, unit(2.0, 50.0) * length
        if draw(st.booleans()):
            return spec, Grid(near, near + far, 201)
        return spec, Grid(-near - far, -near, 201)
    spec = CotInteraction(A=unit(0.3, 6.0), alpha=unit(0.3, 3.0), a=unit(-1.0, 1.0), b=unit(0.0, 1.5))
    # a sub-window of the period (a/alpha, (a + pi)/alpha), clear of its poles
    start = unit(1e-3, 0.9)
    stop = start + unit(0.05, 1.0) * (0.999 - start)
    return spec, Grid((spec.a + math.pi * start) / spec.alpha, (spec.a + math.pi * stop) / spec.alpha, 201)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(window=_far_windows(), level=st.sampled_from([-1, 1, 2, 3]), model=st.sampled_from(["GDO", "GJC"]))
def test_far_windows_sample_finite_levels_or_raise_a_named_error(window, level, model):
    # every drawn level is representable on its window once its prefactor is
    # taken relative to its largest value, so the one named error is a level
    # the closed form does not have
    spec, grid = window
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            sample = analytic_spinor(spec, level, grid, model=model)
        except LevelOutOfRangeError:
            return
    assert np.isfinite(sample.psi1).all() and np.isfinite(sample.psi2).all()
    total = np.sum(np.abs(sample.psi1) ** 2 + np.abs(sample.psi2) ** 2) * grid.spacing
    assert total == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("x_min", [-250.0, -300.0])
def test_deep_morse_level_whose_polynomial_overflows_in_the_wall(x_min):
    # D = 400: far into the wall z reaches 1e108 or more, so L_3(z) ~ z^3
    # overflows where the prefactor is exactly 0, and 0 * inf = nan made the
    # sample's norm nan.  The level is 0 there, so it is the level sampled on
    # the part of the window right of x = -20, where nothing overflows
    spec = MorseInteraction(D=400.0, A=1.0, B=0.5, alpha=1.0)
    grid = Grid(x_min, 20.0, 4000)
    cut = int(np.searchsorted(grid.points, -20.0))
    inner = Grid(float(grid.points[cut]), 20.0, grid.n_points - cut)
    np.testing.assert_allclose(inner.points, grid.points[cut:], rtol=0, atol=1e-12)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sample = analytic_spinor(spec, 3, grid)
        reference = analytic_spinor(spec, 3, inner)
    for full, part in ((sample.psi1, reference.psi1), (sample.psi2, reference.psi2)):
        assert not np.any(full[:cut])
        np.testing.assert_allclose(full[cut:], part, rtol=1e-9, atol=1e-12)
