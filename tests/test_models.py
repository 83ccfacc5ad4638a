import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gdo import (
    CotInteraction,
    Grid,
    LinearInteraction,
    ModelSpec,
    MorseInteraction,
    ParameterError,
    assemble_dirac,
    assemble_model,
    eval_f,
    ground_state_structure,
    oscillator_preset,
    spin_flip,
)
from oracles import dense


class TestAssembly:
    def test_anti_rotating_equals_oscillator(self, morse_spec, morse_grid):
        preset = oscillator_preset(morse_spec)
        assert preset.omega_coupling == 1.0 and preset.delta == 1.0
        diff = assemble_model(preset, morse_grid).max_abs_diff(
            assemble_dirac(morse_spec, morse_grid)
        )
        assert diff <= 1e-14

    def test_rotating_layout_swaps_ladders(self, morse_spec):
        grid = Grid(-2.0, 2.0, 41)
        gajc = dense(assemble_model(ModelSpec("gajc", 1.0, 1.0, morse_spec), grid))
        gjc = dense(assemble_model(ModelSpec("gjc", 1.0, 1.0, morse_spec), grid))
        n = grid.n_points
        np.testing.assert_array_equal(gajc[:n, n:], gjc[n:, :n])
        np.testing.assert_array_equal(gajc[n:, :n], gjc[:n, n:])

    def test_duality_under_negation(self, morse_spec, cot_spec):
        grid = Grid(0.3, 2.8, 101)
        for spec in (morse_spec, cot_spec, LinearInteraction(omega=1.0)):
            gjc = ModelSpec("gjc", 1.3, 0.7, spec)
            dual = ModelSpec("gajc", 1.3, 0.7, spec.negated())
            assert assemble_model(gjc, grid).max_abs_diff(assemble_model(dual, grid)) <= 1e-14

    def test_zero_coupling_decouples(self, morse_spec):
        grid = Grid(-1.0, 1.0, 21)
        matrix = dense(assemble_model(ModelSpec("gajc", 0.0, 2.0, morse_spec), grid))
        expected = np.diag(np.concatenate([np.full(21, 2.0), np.full(21, -2.0)]))
        np.testing.assert_array_equal(matrix, expected)

    def test_detuning_difference(self, morse_spec):
        grid = Grid(-2.0, 2.0, 41)
        a = assemble_model(ModelSpec("gjc", 1.3, 1.0, morse_spec), grid)
        b = assemble_model(ModelSpec("gjc", 1.3, 1.5, morse_spec), grid)
        assert a.max_abs_diff(b) == 0.5

    def test_negative_coupling_rejected(self, morse_spec):
        with pytest.raises(ParameterError):
            ModelSpec("gajc", -1.0, 1.0, morse_spec)


class TestSpinFlip:
    def test_involution(self, morse_spec, cot_spec):
        for spec in (morse_spec, cot_spec, LinearInteraction(omega=2.0)):
            ms = ModelSpec("gajc", 1.0, 1.0, spec)
            assert spin_flip(spin_flip(ms)) == ms

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        kind=st.sampled_from(["gajc", "gjc"]),
        omega_coupling=st.floats(0.0, 1e6),
        delta=st.floats(allow_nan=False, allow_infinity=False),
        interaction=st.one_of(
            st.builds(
                MorseInteraction,
                D=st.floats(allow_nan=False, allow_infinity=False),
                A=st.floats(allow_nan=False, allow_infinity=False),
                B=st.floats(allow_nan=False, allow_infinity=False),
                alpha=st.floats(1e-6, 1e6),
            ),
            st.builds(
                CotInteraction,
                A=st.floats(allow_nan=False, allow_infinity=False),
                alpha=st.floats(1e-6, 1e6),
                a=st.floats(allow_nan=False, allow_infinity=False),
                b=st.floats(allow_nan=False, allow_infinity=False),
            ),
            st.builds(LinearInteraction, omega=st.floats(allow_nan=False, allow_infinity=False)),
        ),
    )
    def test_involution_over_random_parameters(self, kind, omega_coupling, delta, interaction):
        ms = ModelSpec(kind, omega_coupling, delta, interaction)
        flipped = spin_flip(ms)
        assert flipped.kind != ms.kind
        assert flipped.interaction == interaction.negated()
        assert spin_flip(flipped) == ms

    def test_flip_assembles_identically(self, morse_spec):
        grid = Grid(-2.0, 2.0, 51)
        ms = ModelSpec("gajc", 1.0, 1.0, morse_spec)
        assert assemble_model(ms, grid).max_abs_diff(
            assemble_model(spin_flip(ms), grid)
        ) <= 1e-14

    def test_flipped_morse_coupling_form(self, morse_spec):
        # -f for the exponential family: -D + (A + iB) exp(-alpha x)
        flipped = morse_spec.negated()
        x = 0.8
        expected = -morse_spec.D + (morse_spec.A + 1j * morse_spec.B) * math.exp(-x)
        assert eval_f(flipped, x) == pytest.approx(expected)
        assert eval_f(flipped, x) == pytest.approx(-eval_f(morse_spec, x))

    def test_flip_toggles_kind(self, morse_spec):
        ms = ModelSpec("gjc", 2.0, 3.0, morse_spec)
        assert spin_flip(ms).kind == "gajc"


class TestGroundState:
    def test_anti_rotating_report(self, morse_spec, morse_grid):
        report = ground_state_structure(oscillator_preset(morse_spec), morse_grid)
        assert report.ground_energy == -1.0
        assert report.singlet_spin == "up"
        assert report.occupied_component == "upper"
        assert report.rayleigh_quotient == pytest.approx(1.0, abs=1e-12)
        assert report.empty_component_zero

    def test_rotating_report(self, morse_spec, morse_grid):
        report = ground_state_structure(ModelSpec("gjc", 1.0, 1.0, morse_spec), morse_grid)
        assert report.ground_energy == 1.0
        assert report.singlet_spin == "down"
        assert report.occupied_component == "lower"
        assert report.rayleigh_quotient == pytest.approx(-1.0, abs=1e-12)
        assert report.empty_component_zero

    def test_quotient_magnitude_matches_detuning(self, cot_spec, cot_grid):
        report = ground_state_structure(ModelSpec("gajc", 1.0, 2.5, cot_spec), cot_grid)
        assert abs(report.rayleigh_quotient) == pytest.approx(2.5, abs=1e-12)

    def test_residual_is_second_order(self, morse_spec):
        residuals = []
        for n_points in (2000, 4000):
            grid = Grid(-6.0, 20.0, n_points)
            report = ground_state_structure(oscillator_preset(morse_spec), grid)
            residuals.append(report.residual)
        assert residuals[1] <= 1e-3
        ratio = residuals[0] / residuals[1]
        assert 3.5 <= ratio <= 4.5

    def test_linear_report(self):
        # the Gaussian singlet of the ordinary oscillator, in both layouts
        grid = Grid(-8.0, 8.0, 801)
        for kind, quotient in (("gajc", 1.0), ("gjc", -1.0)):
            ms = ModelSpec(kind, 1.0, 1.0, LinearInteraction(omega=1.0))
            report = ground_state_structure(ms, grid)
            assert report.ground_energy == -quotient
            assert report.rayleigh_quotient == pytest.approx(quotient, abs=1e-12)
            assert report.empty_component_zero
            # the O(h^2) eigen-residual reads 9.1e-5 at h = 0.02
            assert report.residual <= 2e-4

    def test_flipped_parameters_rejected(self, morse_spec, morse_grid):
        ms = ModelSpec("gjc", 1.0, 1.0, morse_spec.negated())
        with pytest.raises(ParameterError):
            ground_state_structure(ms, morse_grid)


class TestSpectrumIdentity:
    def test_rotating_levels_equal_anti_rotating(self, morse_spec, cot_spec):
        # the paired levels of both layouts come from the same partner
        # eigenvalues, so the closed-form tables coincide
        from gdo import dirac_spectrum

        for spec in (morse_spec, cot_spec):
            lines = dirac_spectrum(spec, max_levels=4)
            for line in lines[1:]:
                assert line.energy_plus == -line.energy_minus
