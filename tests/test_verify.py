import dataclasses
import json
import logging
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gdo.eigensolve
import gdo.interactions
import gdo.models
import gdo.operators
import gdo.verify
from gdo import (
    CotInteraction,
    DimensionError,
    EigenResult,
    Grid,
    LinearInteraction,
    MorseInteraction,
    ParameterError,
    PhysicalConstants,
    assemble_schrodinger,
    effective_potentials,
    factorization_check,
    load_config,
    numeric_epsilons,
    real_line_probe,
    spectrum_rows,
    verify_all,
)
from gdo.eigensolve import (
    _sturm_counts,
    stacked_inverse_iteration,
    sturm_window_counts,
    symtridiag_eigenvalues,
)
from gdo.cli import EXIT_FAILED, main
from gdo.config import config_from_dict
from gdo.verify import (
    _algebra_grid,
    _shape_invariance_check,
    eigen_deviation,
    seeded_eigenvalues,
)
from oracles import dense

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def _probe_shifts(monkeypatch, config):
    """Probes of config at n = 400 checked against dense eigenvalues; returns their shifts."""
    grid = dataclasses.replace(config.grid, n_points=400)
    tol = config.tolerances.residual
    seeds = [row["epsilon"] for row in spectrum_rows(config)]
    probe = gdo.verify.inverse_iteration
    shifts = []

    def recording(*args, **kwargs):
        result = probe(*args, **kwargs)
        shifts.append(result.shift)
        return result

    monkeypatch.setattr(gdo.verify, "inverse_iteration", recording)
    probes = real_line_probe(config.interaction, grid, config.constants, seeds, tol=tol)
    assert [p["seed"] for p in probes] == seeds
    assert real_line_probe(config.interaction, grid, config.constants, seeds, tol=tol) == probes
    sample = effective_potentials(config.interaction, grid, config.constants)
    levels = np.linalg.eigvals(dense(assemble_schrodinger(sample.v_minus, grid, config.constants)))
    assert all(p.get("converged") for p in probes)
    for seed, probe in zip(seeds, probes):
        assert probe["residual"] <= tol
        # the level the probe finds is the one nearest its seed
        value = complex(probe["eigenvalue_re"], probe["eigenvalue_im"])
        nearest = levels[np.argmin(np.abs(levels - seed))]
        assert abs(value - nearest) <= 1e-8 * max(1.0, abs(nearest))
    return seeds, shifts[: len(seeds)]


def test_real_line_probe_matches_dense_eigenvalues(monkeypatch):
    seeds, shifts = _probe_shifts(monkeypatch, load_config(CONFIGS / "cot.json"))
    assert shifts == seeds


def test_refreshed_real_line_probe_matches_dense_eigenvalues(monkeypatch):
    # strong coupling, s = A/(hbar alpha) = 2.8: most probes converge slowly
    # enough from their seeds to move their shift to a Rayleigh value
    config = load_config(CONFIGS / "cot.json")
    config = dataclasses.replace(config, interaction=dataclasses.replace(config.interaction, A=2.8))
    seeds, shifts = _probe_shifts(monkeypatch, config)
    assert sum(shift != seed for seed, shift in zip(seeds, shifts)) >= 2


class BisectionSpy:
    """Wraps symtridiag_eigenvalues and records each call's arguments and result."""

    def __init__(self):
        self.calls = []

    def __call__(self, *args, **kwargs):
        result = symtridiag_eigenvalues(*args, **kwargs)
        self.calls.append((args, kwargs, result))
        return result


@pytest.fixture
def bisection(monkeypatch):
    spy = BisectionSpy()
    monkeypatch.setattr(gdo.verify, "symtridiag_eigenvalues", spy)
    return spy


def _dense(d, e):
    return np.linalg.eigvalsh(np.diag(d) + np.diag(e, 1) + np.diag(e, -1))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    n=st.integers(2, 40),
    matrix_seed=st.integers(0, 2**32 - 1),
    scale=st.sampled_from([1.0, 10.0, 1e3]),
    fractions=st.lists(st.floats(-1.5, 1.5), min_size=1, max_size=5),
)
# seeded exactly at the eigenvalue: residual 5.4e-15, 1.8 atol, and a window
# of only atol miscounts
@example(n=2, matrix_seed=5, scale=10.0, fractions=[0.0])
# seeded exactly at the eigenvalue, where a pivot rounds to 0
@example(n=2, matrix_seed=1, scale=1.0, fractions=[0.0])
def test_seeded_levels_match_dense_eigenvalues(n, matrix_seed, scale, fractions):
    rng = np.random.default_rng(matrix_seed)
    d = scale * rng.normal(size=n)
    e = rng.normal(size=n - 1)
    exact = _dense(d, e)
    count = min(len(fractions), n - 1)
    # seed k moves from level k towards its upper neighbour (down for negative
    # fractions) by the given fraction of the gap to that neighbour
    seeds = []
    for k, fraction in enumerate(fractions[:count]):
        gap = exact[k + 1] - exact[k] if fraction >= 0 or k == 0 else exact[k] - exact[k - 1]
        seeds.append(exact[k] + fraction * gap)
    spy = BisectionSpy()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gdo.verify, "symtridiag_eigenvalues", spy)
        values = seeded_eigenvalues(d, e, seeds)

    norm = float(np.max(np.abs(exact)))
    # a certified value lies within max(residual, 4 atol) <= max(1e-8, 4 atol)
    # of its level; dense eigvalsh itself is good to a few eps * norm
    np.testing.assert_allclose(values, exact[:count], rtol=0, atol=1e-8 + 1e-12 * norm)
    if spy.calls:
        # never a mix: on fallback every level is the bisection value
        assert np.array_equal(values, symtridiag_eigenvalues(d, e, count=count))
    distance = np.abs(exact[None, :] - np.asarray(seeds)[:, None])
    own = distance[np.arange(count), np.arange(count)]
    others = np.where(np.arange(n)[None, :] == np.arange(count)[:, None], np.inf, distance)
    if np.any(others.min(axis=1) < 0.5 * own):
        # some seed sits clearly nearer another level: iteration finds that
        # level and the index test must reject it
        assert len(spy.calls) == 1
    gaps = np.diff(exact[: count + 1])
    nearest_gap = np.minimum(gaps, np.append(np.inf, gaps[:-1]))
    if np.all(own <= 0.25 * nearest_gap) and gaps.min() > 1e-6 * norm:
        # near seeds are certified unless the stacked factorization breaks
        # down, as it can on a seed at an eigenvalue when a pivot rounds to 0
        assert len(spy.calls) == (stacked_inverse_iteration((e, d, e), seeds) is None)


def _morse_levels(monkeypatch, seed_levels):
    """numeric_epsilons on configs/morse.json, seeding level k at closed-form level seed_levels[k]."""
    config = load_config(CONFIGS / "morse.json")
    closed_form = gdo.verify.epsilon_minus
    monkeypatch.setattr(
        gdo.verify,
        "epsilon_minus",
        lambda spec, level, consts: closed_form(spec, seed_levels[level], consts),
    )
    return numeric_epsilons(config.interaction, config.grid, config.constants, len(seed_levels))


def test_shipped_morse_levels_are_certified(monkeypatch, bisection, caplog):
    caplog.set_level(logging.INFO, logger="gdo")
    values = _morse_levels(monkeypatch, [0, 1])
    assert not bisection.calls
    np.testing.assert_allclose(values, [0.0, 4.0], rtol=0, atol=1e-4)
    lines = [r.getMessage() for r in caplog.records if r.name == "gdo.verify"]
    assert len(lines) == 2
    for level, line in enumerate(lines):
        assert line.startswith(f"level {level} n=4000 seed=")
        assert "radius=" in line and "iterations=" in line
        assert line.endswith("route=certified")


def test_wrong_seed_falls_back_to_bisection(monkeypatch, bisection, caplog):
    caplog.set_level(logging.INFO, logger="gdo")
    # level 1's closed-form value seeds level 0 as well
    values = _morse_levels(monkeypatch, [1, 1])
    assert len(bisection.calls) == 1
    args, kwargs, result = bisection.calls[0]
    assert kwargs == {"count": 2}
    assert np.array_equal(values, result)
    assert np.array_equal(values, symtridiag_eigenvalues(*args, count=2))
    lines = [r.getMessage() for r in caplog.records if r.name == "gdo.verify"]
    assert len(lines) == 2
    assert all("route=bisection" in line for line in lines)
    # the log names the failing level and the index its window really held
    assert lines[0].startswith("level 0 n=4000 seed=4 ")
    assert lines[0].endswith("(Sturm counts 1 and 2, expected 0 and 1)")
    assert "Sturm counts" not in lines[1]


def test_residual_below_rounding_still_certifies(monkeypatch, bisection):
    # [[2, 1], [1, 2]] has the exact eigenvalues 1 and 3; a converged vector
    # reporting residual 0 gives a zero-width window whose ends sit on the
    # eigenvalue, where the count includes it
    d, e = np.array([2.0, 2.0]), np.array([1.0])
    e2 = np.array([0.0, 1.0])
    pivmin = float(np.finfo(float).tiny)
    assert _sturm_counts(d, e2, pivmin, np.array([1.0, 3.0])).tolist() == [1, 2]

    rho, lower, upper = sturm_window_counts(d, e, [1.0, 3.0], [0.0, 0.0])
    assert np.all(rho > 0)
    assert lower.tolist() == [0, 1] and upper.tolist() == [1, 2]

    def exact_pairs(bands, shifts):
        results = []
        for shift in shifts:
            value = 1.0 if shift < 2.0 else 3.0
            vector = np.array([1.0, -1.0 if value == 1.0 else 1.0]) / np.sqrt(2.0)
            results.append(EigenResult(complex(value), vector, 0.0, 1, True, complex(shift)))
        return results

    monkeypatch.setattr(gdo.verify, "stacked_inverse_iteration", exact_pairs)
    values = seeded_eigenvalues(d, e, [1.1, 2.9])
    assert not bisection.calls
    assert values.tolist() == [1.0, 3.0]


def test_weak_coupling_cot_stream_config_is_certified(bisection):
    # a sweep-stream parameter set with s = A/(hbar alpha) = 0.87 < 1: the
    # cosec^2 term is attractive, but with the Dirichlet ghosts on the poles
    # the pole wells hold no spurious level, so every seed is certified
    spec = CotInteraction(A=0.87574, alpha=1.00745, a=0.05072, b=0.15153)
    consts = load_config(CONFIGS / "cot.json").constants
    values = numeric_epsilons(spec, Grid(0.0, 1.0, 1001), consts, 4)
    assert not bisection.calls
    assert values[0] >= 0.0
    np.testing.assert_allclose(values, [0.00114, 2.7837, 7.5977, 14.443], rtol=1e-4, atol=1e-5)


def test_bisection_matches_dense_on_weak_coupling_cot_lattice(monkeypatch):
    # bisection, the fallback of numeric_epsilons, on the pole lattice of the
    # config above: stiff (hbar^2/h^2 about 1e5) with an attractive cosec^2
    # term next to each pole
    matrices = []
    monkeypatch.setattr(
        gdo.verify, "seeded_eigenvalues", lambda d, e, seeds: matrices.append((d, e)) or seeds
    )
    spec = CotInteraction(A=0.87574, alpha=1.00745, a=0.05072, b=0.15153)
    numeric_epsilons(spec, Grid(0.0, 1.0, 1001), load_config(CONFIGS / "cot.json").constants, 4)
    [(d, e)] = matrices
    atol = np.finfo(float).eps * float(np.max(np.abs(d)) + 2.0 * np.max(np.abs(e)))
    values = symtridiag_eigenvalues(d, e, count=4)
    np.testing.assert_allclose(values, _dense(d, e)[:4], rtol=0, atol=10 * atol)


def _cot_deviation(s: float, n_points: int) -> float:
    """eigenvalues_numeric's deviation for cot A = s at alpha = hbar = 1."""
    config = load_config(CONFIGS / "cot.json")
    config = dataclasses.replace(
        config,
        interaction=dataclasses.replace(config.interaction, A=s),
        grid=dataclasses.replace(config.grid, n_points=n_points),
    )
    return eigen_deviation(spectrum_rows(config, numeric=True))


# n -> 2n + 1 halves the lattice spacing pi/(alpha (n + 1))
@pytest.mark.parametrize("s, order", [(1.7, 2.0), (3.0, 2.0), (0.9, 0.8), (1.2, 1.4)])
def test_cot_levels_converge_at_order_min_2_and_2s_minus_1(s, order):
    deviations = [_cot_deviation(s, n) for n in (1000, 2001, 4003)]
    observed = np.log2(np.array(deviations[:-1]) / np.array(deviations[1:]))
    np.testing.assert_allclose(observed, order, rtol=0, atol=0.1)


def test_count_beyond_the_matrix_raises_before_iterating(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("inverse iteration ran")

    monkeypatch.setattr(gdo.verify, "stacked_inverse_iteration", never)
    spec = CotInteraction(A=1.0, alpha=1.0, b=0.3)
    with pytest.raises(DimensionError, match="requested 4 eigenvalues of a 3x3 matrix"):
        numeric_epsilons(spec, Grid(0.0, 1.0, 3), load_config(CONFIGS / "cot.json").constants, 4)


def test_inverse_iteration_error_falls_back(monkeypatch, bisection, caplog):
    caplog.set_level(logging.INFO, logger="gdo")
    real = gdo.verify.stacked_inverse_iteration

    def stalls_on_level_1(bands, shifts):
        results = real(bands, shifts)
        results[1] = dataclasses.replace(
            results[1], residual_norm=2.5e-3, iterations=100, converged=False
        )
        return results

    monkeypatch.setattr(gdo.verify, "stacked_inverse_iteration", stalls_on_level_1)
    values = _morse_levels(monkeypatch, [0, 1])
    assert len(bisection.calls) == 1
    assert np.array_equal(values, bisection.calls[0][2])
    lines = [r.getMessage() for r in caplog.records if r.name == "gdo.verify"]
    assert lines[0].endswith("route=bisection")
    assert lines[1].endswith("route=bisection (stalled: residual 2.500e-03 after 100 iterations)")


def test_stacked_breakdown_goes_straight_to_bisection(monkeypatch, bisection, caplog):
    # with row 0 split off (e[0] = 0), d[0] is an exact eigenvalue, the
    # lowest; seeded exactly there, the stacked factorization meets a zero
    # pivot and breaks down
    caplog.set_level(logging.INFO, logger="gdo")
    d, e = np.array([-1.0, 2.0, 3.0, 4.0]), np.array([0.0, 0.5, 0.5])
    factor = gdo.eigensolve._cyclic_reduction_factor
    factored = []
    monkeypatch.setattr(
        gdo.eigensolve,
        "_cyclic_reduction_factor",
        lambda *args: factored.append(args[3]) or factor(*args),
    )
    values = seeded_eigenvalues(d, e, [d[0], 1.8])
    # one stacked factorization, no shift solved again alone, one bisection
    assert len(factored) == 1
    assert factor(e, d, e, factored[0]) is None
    assert len(bisection.calls) == 1
    assert np.array_equal(values, symtridiag_eigenvalues(d, e, count=2))
    lines = [r.getMessage() for r in caplog.records if r.name == "gdo.verify"]
    assert len(lines) == 2
    for line in lines:
        assert line.endswith("route=bisection (stacked factorization broke down)")


def test_levels_beyond_the_closed_form_go_to_bisection(monkeypatch, bisection):
    def never(*args, **kwargs):
        raise AssertionError("inverse iteration ran")

    monkeypatch.setattr(gdo.verify, "stacked_inverse_iteration", never)
    # morse D=2.5 has two bound levels, so level 2 has no seed
    config = load_config(CONFIGS / "morse.json")
    grid = dataclasses.replace(config.grid, n_points=1001)
    values = numeric_epsilons(config.interaction, grid, config.constants, 3)
    assert len(bisection.calls) == 1
    assert np.array_equal(values, bisection.calls[0][2])


@pytest.mark.parametrize(
    "spec, message",
    [
        (MorseInteraction(D=-1.0, A=1.0, alpha=1.0), "morse levels need D > 0 and A > 0"),
        (LinearInteraction(omega=-1.0), "linear levels need omega > 0"),
    ],
    ids=["morse", "linear"],
)
def test_coupling_without_closed_form_levels_raises(bisection, spec, message):
    # only a level beyond the bound ones goes to bisection; a coupling with
    # no closed-form levels has nothing to check its box levels against
    with pytest.raises(ParameterError, match=message):
        numeric_epsilons(spec, Grid(-6.0, 6.0, 201), PhysicalConstants(), 2)
    assert not bisection.calls


def _never(*args, **kwargs):
    raise AssertionError("inverse_iteration ran")


@pytest.mark.parametrize("name", ["morse.json", "cot.json", "linear.json"])
def test_numeric_levels_come_from_one_factorization(monkeypatch, bisection, name):
    # one factorization: no seeded level refreshes its shift
    factor = gdo.eigensolve._cyclic_reduction_factor
    shifts = []
    monkeypatch.setattr(
        gdo.eigensolve,
        "_cyclic_reduction_factor",
        lambda sub, diag, sup, s: shifts.append(np.asarray(s)) or factor(sub, diag, sup, s),
    )
    monkeypatch.setattr(gdo.verify, "inverse_iteration", _never)
    rows = spectrum_rows(load_config(CONFIGS / name), numeric=True)
    assert not bisection.calls
    [levels] = shifts
    assert levels.dtype == np.float64
    assert levels.size == len(rows)


def test_real_line_probe_calls_inverse_iteration_per_seed(monkeypatch):
    config = load_config(CONFIGS / "cot.json")
    grid = dataclasses.replace(config.grid, n_points=400)
    seeds = [row["epsilon"] for row in spectrum_rows(config)]
    assert len(seeds) == 4
    real = gdo.verify.inverse_iteration
    shifts = []
    monkeypatch.setattr(
        gdo.verify,
        "inverse_iteration",
        lambda matrix, shift, **kw: shifts.append(shift) or real(matrix, shift, **kw),
    )
    probes = real_line_probe(config.interaction, grid, config.constants, seeds)
    assert shifts == [complex(seed) for seed in seeds]
    assert all(probe["converged"] for probe in probes)
    assert [probe["iterations"] for probe in probes] == [4, 5, 5, 5]


def test_probe_breakdown_is_reported_per_seed(monkeypatch):
    # gdo.verify keeps its own name for the seeded levels' stacked solve, so
    # only the one-shift probes meet the breakdown
    shifts = []

    def breaks_down(bands, shift, *args):
        shifts.append(np.asarray(shift).tolist())
        return None

    monkeypatch.setattr(gdo.eigensolve, "stacked_inverse_iteration", breaks_down)
    config = load_config(CONFIGS / "cot.json")
    seeds = [row["epsilon"] for row in spectrum_rows(config)][:2]
    probes = real_line_probe(config.interaction, config.grid, config.constants, seeds)
    assert shifts == [[complex(seed)] for seed in seeds]
    assert [sorted(probe) for probe in probes] == [["error", "seed"]] * 2
    for seed, probe in zip(seeds, probes):
        assert probe["seed"] == seed
        assert probe["error"].endswith(f"broke down at shift {complex(seed)}")


def _rescaled(spec, lam):
    """The same coupling in a unit of length lam times smaller: x -> lam x."""
    if isinstance(spec, MorseInteraction):
        return dataclasses.replace(
            spec, D=spec.D / lam, A=spec.A / lam, B=spec.B / lam, alpha=spec.alpha / lam
        )
    if isinstance(spec, LinearInteraction):
        return dataclasses.replace(spec, omega=spec.omega / lam**2)
    return dataclasses.replace(spec, A=spec.A / lam, alpha=spec.alpha / lam)


SHIPPED = ["morse.json", "cot.json", "linear.json"]
# powers of two, so every grid point, coupling value and potential scales exactly
UNIT_SCALES = (0.125, 0.5, 2.0, 16.0)


@pytest.mark.parametrize("name", SHIPPED)
def test_ladder_gate_does_not_depend_on_the_unit_of_length(name):
    # a power-of-two rescale scales every grid point, f and hbar/h exactly,
    # so the residual and its rounding scale move together
    config = load_config(CONFIGS / name)

    def ladder_ratio(spec):
        report = factorization_check(
            spec, _algebra_grid(spec, config.constants), config.constants
        )
        assert report.overall
        ladder = report.checks[0]
        return ladder.measured / ladder.threshold

    reference = ladder_ratio(config.interaction)
    assert 0.1 < reference < 1.0
    for lam in (0.125, 16.0):
        assert ladder_ratio(_rescaled(config.interaction, lam)) == pytest.approx(
            reference, rel=4 * np.finfo(float).eps
        )


@pytest.mark.parametrize("name", SHIPPED)
def test_shape_invariance_does_not_depend_on_the_unit_of_length(name):
    # both wells scale by exactly lam^-2 and so does their gap, so the
    # relative spread is the same number at every power-of-two rescale
    config = load_config(CONFIGS / name)
    grid, consts = config.grid, config.constants
    v_plus = effective_potentials(config.interaction, grid, consts).v_plus
    reference = _shape_invariance_check(config.interaction, v_plus, grid, consts)
    assert reference.passed
    for lam in UNIT_SCALES:
        rescaled_grid = Grid(grid.x_min * lam, grid.x_max * lam, grid.n_points)
        rescaled = _rescaled(config.interaction, lam)
        v_plus = effective_potentials(rescaled, rescaled_grid, consts).v_plus
        check = _shape_invariance_check(rescaled, v_plus, rescaled_grid, consts)
        assert check.measured == reference.measured


def _wrong_partner(spec, consts):
    # each family's shift with the wrong sign, and linear at twice omega
    shift = consts.hbar * getattr(spec, "alpha", 0.0)
    if isinstance(spec, MorseInteraction):
        return dataclasses.replace(spec, D=spec.D + shift)
    if isinstance(spec, CotInteraction):
        return dataclasses.replace(spec, A=spec.A - shift)
    return dataclasses.replace(spec, omega=2.0 * spec.omega)


@pytest.mark.parametrize("name", SHIPPED)
def test_shape_invariance_fails_on_a_wrong_partner(monkeypatch, name):
    monkeypatch.setattr(gdo.verify, "upper_partner", _wrong_partner)
    verdicts = {c.name: c for c in verify_all(load_config(CONFIGS / name)).checks}
    assert not verdicts["shape_invariance"].passed
    assert verdicts["shape_invariance"].measured > 1e-3


@pytest.mark.parametrize(
    "spec,message",
    [
        (CotInteraction(A=0.0, alpha=1.0, b=0.3), "cot levels need A > 0"),
        (LinearInteraction(omega=0.0), "linear levels need omega > 0"),
    ],
)
def test_zero_coupling_passes_shape_invariance_to_the_level_check(spec, message):
    # V+ vanishes everywhere, so check 4 must not divide 0 by 0; the run
    # stops at the closed-form levels with their named error
    config = dataclasses.replace(load_config(CONFIGS / f"{spec.kind}.json"), interaction=spec)
    with pytest.raises(ParameterError, match=message):
        verify_all(config)


def test_partner_function_error_propagates(monkeypatch, tmp_path, capsys):
    # a partner that shape_invariance cannot build fails the run by name,
    # never passes without a measurement
    def unavailable(*args, **kwargs):
        raise ParameterError("partner function unavailable")

    monkeypatch.setattr(gdo.verify, "upper_partner", unavailable)
    with pytest.raises(ParameterError, match="partner function unavailable"):
        verify_all(load_config(CONFIGS / "morse.json"))
    out = tmp_path / "verify.json"
    argv = ["verify", "--config", str(CONFIGS / "morse.json"), "--out", str(out)]
    assert main(argv) == EXIT_FAILED
    assert capsys.readouterr().err.splitlines() == ["gdo: partner function unavailable"]
    assert not out.exists()


def test_verify_samples_each_singlet_once(monkeypatch):
    sampled = []
    for module in (gdo.models, gdo.verify):
        real = module.analytic_spinor
        monkeypatch.setattr(
            module,
            "analytic_spinor",
            lambda spec, level, *args, real=real, **kw: (
                sampled.append(level) or real(spec, level, *args, **kw)
            ),
        )
    report = verify_all(load_config(CONFIGS / "morse.json"))
    # one sample serves both models, laid out for GJC by swapping its components
    assert sampled == [-1]
    assert {c.name: c.passed for c in report.checks}["singlet_structure"]


@pytest.mark.parametrize("name", SHIPPED)
def test_verify_samples_each_coupling_and_ladder_once_per_grid(monkeypatch, name):
    # every coupling sample goes through gdo.interactions._coupling and every
    # ladder pair through ladder_pair, under gdo.operators' or gdo.verify's name
    samples, ladders = [], []
    coupling = gdo.interactions._coupling
    monkeypatch.setattr(
        gdo.interactions,
        "_coupling",
        lambda spec, zz, consts, derivative: (
            samples.append((spec.kind, zz.size, derivative)) or coupling(spec, zz, consts, derivative)
        ),
    )
    for module in (gdo.operators, gdo.verify):
        real = module.ladder_pair
        monkeypatch.setattr(
            module,
            "ladder_pair",
            lambda f, grid, *args, real=real: ladders.append(grid.n_points) or real(f, grid, *args),
        )
    config = load_config(CONFIGS / name)
    verify_all(config)
    n = config.grid.n_points
    # factorization's algebra grid, then the config grid's coupling and its negation
    assert ladders == [201, n, n]
    kind = config.interaction.kind
    assert samples == [
        (kind, 401, False),  # condition_shift: f shifted by i hbar theta
        (kind, 401, False),  # and f on the real window
        (kind, n, True),  # f and f' on the config grid: checks 2, 4 and 7-9
        (kind, 201, True),  # factorization: ladder, band product and coarse commutator
        (kind, 401, True),  # factorization: commutator on the refined grid
        (kind, n, True),  # shape_invariance: V- of the upper partner
        (kind, n, False),  # model_duality: the negated coupling's ladder
    ]


# the first cycle of the sweep stream of perfbench/workloads.py at seed 7,
# n = 1001, written out so that a change to the stream cannot move the pins
_SWEEP_SEED_7 = [
    {"kind": "morse", "D": 2.5471511903701916, "A": 0.9811871521080981,
     "B": -0.47559034892778473, "alpha": 1.0043120631191194},
    {"kind": "cot", "A": 0.8758229472484242, "alpha": 1.0035313446745777,
     "a": 0.4914990293561572, "b": 0.18196052661284745},
    {"kind": "morse", "D": 4.455529030517383, "A": 1.2572095947568012,
     "B": -0.7511931940964589, "alpha": 1.0105042734793037},
    {"kind": "cot", "A": 2.648110209987012, "alpha": 1.0121490126742403,
     "a": -0.01252226594689626, "b": 0.3771194621612596},
]
_SWEEP_GRIDS = [
    (-5.974238705612712, 19.91412901870904),
    (0.490769484495314, 3.6193071306398297),
    (-5.937629515747799, 19.792098385825998),
    (-0.011371958861878122, 3.0905115743436355),
]

# (name, measured, threshold, passed) of every check: the reports must not
# move by one bit when a change only reorganizes how the checks are computed
_PINNED_REPORTS = {
    "morse.json": [
        ("condition_shift", 1.2560739669470201e-15, 1e-10, True),
        ("potential_closed_form", 6.20082089333322e-16, 1e-12, True),
        ("factorization", 0.40353846374023816, 1.0, True),
        ("shape_invariance", 1.612170902345601e-16, 1e-08, True),
        ("eigenvalues_numeric", 1.8713957813376127e-05, 0.001, True),
        ("spinor_coefficients", 2.220446049250313e-16, 1e-12, True),
        ("model_identification", 0.0, 1e-14, True),
        ("model_duality", 0.0, 1e-14, True),
        ("singlet_structure", 0.00015807944552188643, 0.001, True),
    ],
    "cot.json": [
        ("condition_shift", 0.0, 1e-10, True),
        ("potential_closed_form", 4.577566798522235e-16, 1e-12, True),
        ("factorization", 0.40768031059697674, 1.0, True),
        ("shape_invariance", 1.3462242402708402e-15, 1e-08, True),
        ("eigenvalues_numeric", 8.76859206281703e-07, 0.001, True),
        ("spinor_coefficients", 1.1102230246251565e-16, 1e-12, True),
        ("model_identification", 0.0, 1e-14, True),
        ("model_duality", 0.0, 1e-14, True),
        ("singlet_structure", 1.0264799873100783e-07, 0.001, True),
    ],
    "linear.json": [
        ("condition_shift", 0.0, 1e-10, True),
        ("potential_closed_form", 0.0, 1e-12, True),
        ("factorization", 0.40894568690095845, 1.0, True),
        ("shape_invariance", 1.0931426704001542e-16, 1e-08, True),
        ("eigenvalues_numeric", 0.00010417614805927992, 0.001, True),
        ("spinor_coefficients", 2.220446049250313e-16, 1e-12, True),
        ("model_identification", 0.0, 1e-14, True),
        ("model_duality", 0.0, 1e-14, True),
        ("singlet_structure", 9.128070315885783e-05, 0.001, True),
    ],
    "sweep0": [
        ("condition_shift", 1.831026719408895e-15, 1e-10, True),
        ("potential_closed_form", 8.354490551925467e-16, 1e-12, True),
        ("factorization", 0.40061447759306895, 1.0, True),
        ("shape_invariance", 1.6428987882231732e-16, 1e-08, True),
        ("eigenvalues_numeric", 0.00031019112188549077, 0.001, True),
        ("spinor_coefficients", 0.0, 1e-12, True),
        ("model_identification", 0.0, 1e-14, True),
        ("model_duality", 0.0, 1e-14, True),
        ("singlet_structure", 0.0024894643531313564, 0.001, False),
    ],
    "sweep1": [
        ("condition_shift", 1.2560739669470201e-15, 1e-10, True),
        ("potential_closed_form", 4.559241321490142e-16, 1e-12, True),
        ("factorization", 0.40294231155516214, 1.0, True),
        ("shape_invariance", 1.7844029995862904e-15, 1e-08, True),
        ("eigenvalues_numeric", 0.0014276067120287052, 0.001, False),
        ("spinor_coefficients", 0.0, 1e-12, True),
        ("model_identification", 0.0, 1e-14, True),
        ("model_duality", 0.0, 1e-14, True),
        ("singlet_structure", 3.405720749261231e-06, 0.001, True),
    ],
    "sweep2": [
        ("condition_shift", 1.9860273225978185e-15, 1e-10, True),
        ("potential_closed_form", 9.906076369394386e-16, 1e-12, True),
        ("factorization", 0.3927924668781066, 1.0, True),
        ("shape_invariance", 1.851419228512405e-16, 1e-08, True),
        ("eigenvalues_numeric", 0.0009023510930533768, 0.001, True),
        ("spinor_coefficients", 2.220446049250313e-16, 1e-12, True),
        ("model_identification", 0.0, 1e-14, True),
        ("model_duality", 0.0, 1e-14, True),
        ("singlet_structure", 0.010029548705620178, 0.001, False),
    ],
    "sweep3": [
        ("condition_shift", 0.0, 1e-10, True),
        ("potential_closed_form", 1.3697481007220793e-15, 1e-12, True),
        ("factorization", 0.39156797580109787, 1.0, True),
        ("shape_invariance", 9.75677048647413e-16, 1e-08, True),
        ("eigenvalues_numeric", 1.7385403568711436e-05, 0.001, True),
        ("spinor_coefficients", 1.1102230246251565e-16, 1e-12, True),
        ("model_identification", 0.0, 1e-14, True),
        ("model_duality", 0.0, 1e-14, True),
        ("singlet_structure", 1.8123564325969312e-05, 0.001, True),
    ],
}


def _pinned_config(name):
    if name.endswith(".json"):
        return load_config(CONFIGS / name)
    index = int(name[len("sweep"):])
    x_min, x_max = _SWEEP_GRIDS[index]
    return config_from_dict(
        {
            "interaction": _SWEEP_SEED_7[index],
            "grid": {"x_min": x_min, "x_max": x_max, "n_points": 1001},
        }
    )


@pytest.mark.parametrize("name", sorted(_PINNED_REPORTS))
def test_reports_are_pinned_bit_for_bit(name):
    report = verify_all(_pinned_config(name))
    observed = [(c.name, c.measured, c.threshold, c.passed) for c in report.checks]
    assert observed == _PINNED_REPORTS[name]
