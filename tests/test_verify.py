import dataclasses
import json
import logging
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gdo.eigensolve
import gdo.models
import gdo.operators
import gdo.verify
from gdo import (
    CotInteraction,
    DimensionError,
    EigenResult,
    Grid,
    LevelOutOfRangeError,
    LinearInteraction,
    MorseInteraction,
    ParameterError,
    PhysicalConstants,
    ResolutionError,
    UnsupportedError,
    assemble_schrodinger,
    check_pseudo_hermiticity_condition,
    default_condition_grid,
    effective_potentials,
    eval_f,
    factorization_check,
    load_config,
    numeric_epsilons,
    real_line_probe,
    spectrum_rows,
    verify_all,
)
from gdo.eigensolve import _stebz_bounds, _sturm_counts, symtridiag_eigenvalues
from gdo.cli import EXIT_FAILED, main
from gdo.config import config_from_dict
from gdo.verify import (
    COUNT_MARGIN,
    _algebra_grid,
    _boundaries,
    _shape_invariance_check,
    eigen_deviation,
    seeded_eigenvalues,
)
import host
from oracles import ComplexDepthMorse, ComplexOmegaLinear, dense, exact_count

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def _probe_shifts(monkeypatch, config):
    """Probes of config at n = 400 checked against dense eigenvalues.

    Returns the seeds and the shift of every factorization the first run of
    the probes made.
    """
    grid = dataclasses.replace(config.grid, n_points=400)
    tol = config.tolerances.residual
    seeds = [row["epsilon"] for row in spectrum_rows(config)]
    factor = gdo.eigensolve._cyclic_reduction_factor
    shifts = []

    def recording(sub, diag, sup, stack):
        shifts.extend(stack.tolist())
        return factor(sub, diag, sup, stack)

    monkeypatch.setattr(gdo.eigensolve, "_cyclic_reduction_factor", recording)
    probes = real_line_probe(config.interaction, grid, config.constants, seeds, tol=tol)
    first = list(shifts)
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
    return seeds, first


def test_real_line_probe_matches_dense_eigenvalues(monkeypatch):
    seeds, shifts = _probe_shifts(monkeypatch, load_config(CONFIGS / "cot.json"))
    assert shifts == seeds


def test_strong_coupling_probe_keeps_its_seed_shifts(monkeypatch):
    # strong coupling, s = A/(hbar alpha) = 2.8: the probes converge slowly
    # from their seeds, and each still iterates at its seed from one
    # factorization to the level nearest that seed
    config = load_config(CONFIGS / "cot.json")
    config = dataclasses.replace(config, interaction=dataclasses.replace(config.interaction, A=2.8))
    seeds, shifts = _probe_shifts(monkeypatch, config)
    assert shifts == seeds


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
    stacked = []
    iterate = gdo.verify.stacked_inverse_iteration
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gdo.verify, "symtridiag_eigenvalues", spy)
        mp.setattr(
            gdo.verify,
            "stacked_inverse_iteration",
            lambda *args: stacked.append(iterate(*args)) or stacked[-1],
        )
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
    # with two levels or more, the top boundary lies a quarter of the
    # smallest gap between them above the last: the next level must lie beyond
    top_clear = count == 1 or gaps[-1] > 0.25 * gaps[:-1].min() + 1e-6 * norm
    if np.all(own <= 0.25 * nearest_gap) and gaps.min() > 1e-6 * norm and top_clear:
        # near seeds are certified unless the stacked factorization breaks
        # down, as it can on a seed at an eigenvalue when a pivot rounds to 0
        [results] = stacked
        assert len(spy.calls) == (results is None)


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


def test_weak_coupling_cot_levels_are_certified_at_their_seeds(monkeypatch, bisection, caplog):
    # s = A/(hbar alpha) = 0.45 < 1/2: the seeds, the closed-form levels,
    # lie off the Dirichlet lattice's levels (the Friedrichs extension's),
    # so each level converges slowly from its seed, and still at that seed
    caplog.set_level(logging.INFO, logger="gdo")
    config = load_config(CONFIGS / "cot.json")
    config = dataclasses.replace(config, interaction=dataclasses.replace(config.interaction, A=0.45))
    factor = gdo.eigensolve._cyclic_reduction_factor
    stacks = []

    def recording(sub, diag, sup, shifts):
        stacks.append((sub, diag, shifts.tolist()))
        return factor(sub, diag, sup, shifts)

    monkeypatch.setattr(gdo.eigensolve, "_cyclic_reduction_factor", recording)
    values = numeric_epsilons(config.interaction, config.grid, config.constants, 4)
    assert not bisection.calls
    # one factorization, at the seeds
    [(e, d, shifts)] = stacks
    lines = [r.getMessage() for r in caplog.records if r.name == "gdo.verify"]
    assert [float(line.split("seed=")[1].split()[0]) for line in lines] == pytest.approx(shifts, rel=1e-10)
    assert all(line.endswith("route=certified") for line in lines)
    radius = [float(line.split("radius=")[1].split()[0]) for line in lines]
    exact = _dense(d, e)[:4]
    assert np.all(np.abs(values - exact) <= radius)


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
    assert lines[0].startswith("level 0 n=4000 seed=4 ")
    # both levels find level 1, so the three boundaries coincide there and
    # level 0's window leaves its empty interval; each line names that one
    # reason
    reason = lines[0].split("route=bisection (")[1]
    assert re.fullmatch(r"level 0 window (3\.9999\d+) -\+ \S+ leaves \[\1, \1\]\)", reason)
    assert lines[1].endswith(f"route=bisection ({reason}")


def test_unseeded_level_inside_the_top_boundary_falls_back(bisection, caplog):
    # levels near 0, 1, 1.1 and 5: the seeds find the first two, whose gap
    # puts the top boundary a quarter of it above level 1, beyond the
    # unseeded level near 1.1, so the top count is 3, not 2
    caplog.set_level(logging.INFO, logger="gdo")
    d, e = np.array([0.0, 1.0, 1.1, 5.0]), np.full(3, 0.01)
    values = seeded_eigenvalues(d, e, [0.02, 0.98])
    assert len(bisection.calls) == 1
    assert np.array_equal(values, symtridiag_eigenvalues(d, e, count=2))
    np.testing.assert_allclose(values, _dense(d, e)[:2], rtol=0, atol=1e-14)
    lines = [r.getMessage() for r in caplog.records if r.name == "gdo.verify"]
    assert len(lines) == 2
    for line in lines:
        assert "radius=-" in line
        assert re.search(r"route=bisection \(Sturm count 3 at 1\.24\d+, expected 2\)$", line)


def _exact_pairs(bands, shifts, tol):
    """The exact eigenpairs of [[2, 1], [1, 2]] nearest the shifts, with residual 0."""
    results = []
    for shift in shifts:
        value = 1.0 if shift < 2.0 else 3.0
        vector = np.array([1.0, -1.0 if value == 1.0 else 1.0]) / np.sqrt(2.0)
        results.append(EigenResult(complex(value), vector, 0.0, 1, True))
    return results


def test_residual_below_rounding_still_certifies(monkeypatch, bisection, caplog):
    # [[2, 1], [1, 2]] has the exact eigenvalues 1 and 3; a converged vector
    # reporting residual 0 gives a zero-width window whose ends sit on the
    # eigenvalue, where the count includes it
    caplog.set_level(logging.INFO, logger="gdo")
    d, e = np.array([2.0, 2.0]), np.array([1.0])
    e2 = np.array([0.0, 1.0])
    pivmin = float(np.finfo(float).tiny)
    assert _sturm_counts(d, e2, pivmin, np.array([1.0, 3.0])).tolist() == [1, 2]

    # one level keeps a window of 4 atol; two levels are certified at the
    # boundaries 0.5, 2 and 3.5, with the rounding floor 4 atol as radius
    monkeypatch.setattr(gdo.verify, "stacked_inverse_iteration", _exact_pairs)
    assert seeded_eigenvalues(d, e, [1.1]).tolist() == [1.0]
    assert seeded_eigenvalues(d, e, [1.1, 2.9]).tolist() == [1.0, 3.0]
    assert not bisection.calls
    floor = f"radius={4.0 * _stebz_bounds(d, e)[-1]:.2e} "
    lines = [r.getMessage() for r in caplog.records if r.name == "gdo.verify"]
    assert len(lines) == 3 and all(floor in line for line in lines)
    # alone, level 1's value is not the lowest eigenvalue
    seeded_eigenvalues(d, e, [2.9])
    assert len(bisection.calls) == 1
    assert caplog.records[-1].getMessage().endswith("(Sturm count 2 at 3, expected 1)")


def _every_count_rule(d, e, values, residuals):
    """The certificate from the counts at all K + 1 boundaries: (radius, levels certified).

    Level k is certified when the counts at the ends of its interval are k
    and k + 1 and its window rho_k -+ (r_k + 4 atol) lies inside it; with
    K = 1 the interval is rho -+ max(r, 4 atol).  The counts come from
    gdo.eigensolve._sturm_counts.
    """
    e2, pivmin, _, _, atol = _stebz_bounds(d, e)
    rho, r = np.asarray(values), np.asarray(residuals)
    margin = COUNT_MARGIN * atol
    if rho.size == 1:
        half = max(float(r[0]), margin)
        boundaries, inside, radius = np.array([rho[0] - half, rho[0] + half]), [True], [half]
    else:
        boundaries, distance = _boundaries(rho)
        delta = distance - margin
        inside = (r < delta).tolist()
        radius = np.maximum(np.minimum(r, r * r / delta), margin).tolist() if all(inside) else None
    counts = _sturm_counts(d, e2, pivmin, boundaries).tolist()
    return radius, [
        counts[k] == k and counts[k + 1] == k + 1 and inside[k] for k in range(rho.size)
    ]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    n=st.integers(2, 40),
    matrix_seed=st.integers(0, 2**32 - 1),
    scale=st.sampled_from([1.0, 10.0, 1e3]),
    count=st.integers(1, 5),
    noise=st.sampled_from([0.0, 1e-14, 1e-10, 1e-6, 1e-3]),
    control=st.sampled_from(["near", "near", "near", "on-level-1", "doubled", "skipped"]),
)
def test_one_count_certifies_exactly_when_every_count_does(
    n, matrix_seed, scale, count, noise, control
):
    # Rayleigh values and residuals of unit vectors near the eigenvectors of
    # the lowest levels, or, as negative controls, of one value on level 1,
    # two values on level 0, and the values of levels 0 and 2 with level 1
    # unseeded below the top boundary; none of the controls may be certified
    rng = np.random.default_rng(matrix_seed)
    d = scale * rng.normal(size=n)
    e = rng.normal(size=n - 1)
    matrix = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
    vectors = np.linalg.eigh(matrix)[1]
    levels = {
        "near": list(range(min(count, n))),
        "on-level-1": [1],
        "doubled": [0, 0],
        "skipped": [0, 2] if n > 2 else [1, 1],
    }[control]
    values, residuals = [], []
    for level in levels:
        v = vectors[:, level] + noise * rng.normal(size=n)
        v /= np.linalg.norm(v)
        tv = matrix @ v
        values.append(float(v @ tv))
        residuals.append(float(np.linalg.norm(tv - values[-1] * v)))

    bisection = BisectionSpy()
    lines = _LevelLines()
    pairs = [EigenResult(complex(v), np.zeros(n), r, 1, True) for v, r in zip(values, residuals)]
    with pytest.MonkeyPatch.context() as mp, lines:
        mp.setattr(gdo.verify, "symtridiag_eigenvalues", bisection)
        mp.setattr(gdo.verify, "stacked_inverse_iteration", lambda bands, shifts, tol: pairs)
        got = seeded_eigenvalues(d, e, values)
    radius, certified = _every_count_rule(d, e, values, residuals)
    if len(levels) > 1:
        # the one count at the top boundary certifies exactly when every
        # count does
        assert (not bisection.calls) == all(certified)
    else:
        # one count at the top of the window, and no count at its foot
        assert bisection.calls or certified[0]
    if control != "near":
        assert bisection.calls
    if not bisection.calls:
        assert got.tolist() == values
        assert [line.split("radius=")[1].split()[0] for line in lines.messages] == [
            f"{level_radius:.2e}" for level_radius in radius
        ]
        # eigvalsh's own error reaches 4.2 and 8.9 atol (n = 29, matrix_seed
        # = 0 and n = 31, matrix_seed = 31, scale = 1e3, against 40 digits),
        # past the radius floor of 4 atol, so each level is the long-double
        # Rayleigh quotient of eigh's vector, within 1e-3 atol of 40 digits
        # there; eigvalsh confirms only that it is the right level
        norm = float(np.max(np.abs(np.linalg.eigvalsh(matrix))))
        wide = matrix.astype(np.longdouble)
        for value, level_radius, level in zip(values, radius, levels):
            v = vectors[:, level].astype(np.longdouble)
            exact = float(v @ (wide @ v) / (v @ v))
            assert abs(exact - np.linalg.eigvalsh(matrix)[level]) <= 1e-12 * norm
            assert abs(value - exact) <= level_radius


class _LevelLines(logging.Handler):
    """The messages of gdo.verify's level lines while in a with block, at INFO level."""

    def __init__(self):
        super().__init__(logging.INFO)
        self.messages = []

    def emit(self, record):
        if record.msg.startswith("level "):
            self.messages.append(record.getMessage())

    def __enter__(self):
        logger = logging.getLogger("gdo.verify")
        self.saved = logger.level
        logger.addHandler(self)
        logger.setLevel(logging.INFO)
        return self

    def __exit__(self, *exc):
        logger = logging.getLogger("gdo.verify")
        logger.removeHandler(self)
        logger.setLevel(self.saved)


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
        gdo.verify,
        "seeded_eigenvalues",
        lambda d, e, seeds: matrices.append((d, e)) or seeds,
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

    def stalls_on_level_1(bands, shifts, tol):
        results = real(bands, shifts, tol)
        results[1] = dataclasses.replace(
            results[1], residual_norm=2.5e-3, iterations=100, converged=False
        )
        return results

    monkeypatch.setattr(gdo.verify, "stacked_inverse_iteration", stalls_on_level_1)
    values = _morse_levels(monkeypatch, [0, 1])
    assert len(bisection.calls) == 1
    assert np.array_equal(values, bisection.calls[0][2])
    lines = [r.getMessage() for r in caplog.records if r.name == "gdo.verify"]
    for line in lines:
        assert line.endswith("route=bisection (level 1 stalled: residual 2.500e-03 after 100 iterations)")


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


def test_levels_beyond_the_closed_form_raise_by_name(monkeypatch, bisection):
    def never(*args, **kwargs):
        raise AssertionError("inverse iteration ran")

    monkeypatch.setattr(gdo.verify, "stacked_inverse_iteration", never)
    # morse D=2.5 has two bound levels, so level 2 has no seed; spectrum_rows
    # never asks for more than the closed form has
    config = load_config(CONFIGS / "morse.json")
    grid = dataclasses.replace(config.grid, n_points=1001)
    with pytest.raises(LevelOutOfRangeError, match="level 2 out of range: only 2 bound levels"):
        numeric_epsilons(config.interaction, grid, config.constants, 3)
    assert not bisection.calls


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


@pytest.mark.parametrize(
    "spec",
    [ComplexDepthMorse(D=2.5 + 0.3j, A=1.0, B=0.5, alpha=1.0), ComplexOmegaLinear(omega=1.0 + 0.2j)],
    ids=["morse-complex-D", "linear-complex-omega"],
)
def test_complex_well_of_the_real_problem_is_refused(bisection, spec):
    # the real problem of either negative control keeps its complex
    # parameter, so its well is complex; its imaginary part must not be
    # dropped on the way to the real solve
    with pytest.raises(UnsupportedError, match=rf"real problem of this {spec.kind} coupling has a complex well"):
        numeric_epsilons(spec, Grid(-6.0, 6.0, 201), PhysicalConstants(), 2)
    assert not bisection.calls


@pytest.mark.parametrize(
    "name, spec, field",
    [
        ("morse.json", ComplexDepthMorse(D=2.5 + 0.3j, A=1.0, B=0.5, alpha=1.0), "D"),
        ("linear.json", ComplexOmegaLinear(omega=1.0 + 0.2j), "omega"),
    ],
    ids=["morse-complex-D", "linear-complex-omega"],
)
def test_verify_refuses_a_complex_control_by_name(name, spec, field):
    # the level count of either negative control compared a complex
    # parameter with 0, a bare TypeError; verify names the field instead
    config = dataclasses.replace(load_config(CONFIGS / name), interaction=spec)
    with pytest.raises(ParameterError, match=rf"{spec.kind} parameter '{field}' must be real, got "):
        verify_all(config)


def _never(*args, **kwargs):
    raise AssertionError("inverse_iteration ran")


@pytest.mark.parametrize("name", ["morse.json", "cot.json", "linear.json"])
def test_numeric_levels_come_from_one_factorization(monkeypatch, bisection, name):
    # one factorization, at the seeds, serves every seeded level
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


@pytest.mark.parametrize(
    "spec",
    [load_config(CONFIGS / name).interaction for name in SHIPPED]
    + [MorseInteraction(D=4.4, A=0.7, B=-1.1, alpha=1.3)],
    ids=SHIPPED + ["morse-negative-B"],
)
def test_family_facts_scale_with_the_unit_of_length(spec):
    # theta and the condition window are lengths, f and the condition's
    # deviation inverse lengths, and a power-of-two rescale scales each exactly
    consts = PhysicalConstants()
    theta = spec.theta(consts)
    grid = default_condition_grid(spec, consts)
    f = eval_f(spec, grid.points, consts)
    deviation = check_pseudo_hermiticity_condition(spec, theta, grid, consts).max_deviation
    for lam in UNIT_SCALES:
        rescaled = _rescaled(spec, lam)
        rescaled_theta = rescaled.theta(consts)
        rescaled_grid = default_condition_grid(rescaled, consts)
        assert rescaled_theta == lam * theta
        assert (rescaled_grid.x_min, rescaled_grid.x_max) == (lam * grid.x_min, lam * grid.x_max)
        assert np.array_equal(eval_f(rescaled, rescaled_grid.points, consts), f / lam)
        report = check_pseudo_hermiticity_condition(rescaled, rescaled_theta, rescaled_grid, consts)
        assert report.max_deviation == deviation / lam


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
    config = load_config(CONFIGS / name)
    monkeypatch.setattr(type(config.interaction), "upper_partner", _wrong_partner)
    verdicts = {c.name: c for c in verify_all(config).checks}
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

    monkeypatch.setattr(MorseInteraction, "upper_partner", unavailable)
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
    # one sample, in the GDO layout, serves the GAJC singlet report
    assert sampled == [-1]
    assert {c.name: c.passed for c in report.checks}["singlet_structure"]


def _verdicts_with_model_matrix(monkeypatch, name, defective):
    real = gdo.verify.model_matrix
    monkeypatch.setattr(gdo.verify, "model_matrix", lambda ms, ladder: defective(real, ms, ladder))
    return {c.name: c for c in verify_all(load_config(CONFIGS / name)).checks}


@pytest.mark.parametrize("name", SHIPPED)
def test_swapped_gajc_blocks_fail_model_identification(monkeypatch, name):
    # GAJC with its ladder blocks swapped is the GJC layout, not the oscillator
    def swapped(real, ms, ladder):
        return real(dataclasses.replace(ms, kind="gjc") if ms.kind == "gajc" else ms, ladder)

    checks = _verdicts_with_model_matrix(monkeypatch, name, swapped)
    assert not checks["model_identification"].passed
    assert checks["model_identification"].measured > 1.0


@pytest.mark.parametrize("name", SHIPPED)
def test_gjc_in_the_gajc_layout_fails_model_duality(monkeypatch, name):
    # check 9 reads the GAJC report only, so check 8 alone catches this defect
    def gajc_layout(real, ms, ladder):
        return real(dataclasses.replace(ms, kind="gajc"), ladder)

    checks = _verdicts_with_model_matrix(monkeypatch, name, gajc_layout)
    assert not checks["model_duality"].passed
    assert checks["model_duality"].measured > 1.0
    assert [c.name for c in checks.values() if not c.passed] == ["model_duality"]


@pytest.mark.parametrize("name", SHIPPED)
def test_verify_samples_each_coupling_and_ladder_once_per_grid(monkeypatch, name):
    # every coupling sample goes through the family's coupling method and every
    # ladder pair through ladder_pair, under gdo.operators' or gdo.verify's name
    samples, ladders = [], []
    config = load_config(CONFIGS / name)
    family = type(config.interaction)
    coupling = family.coupling
    monkeypatch.setattr(
        family,
        "coupling",
        lambda spec, x, y, consts, derivative: (
            samples.append((spec.kind, x.size, y, derivative))
            or coupling(spec, x, y, consts, derivative)
        ),
    )
    for module in (gdo.operators, gdo.verify):
        real = module.ladder_pair
        monkeypatch.setattr(
            module,
            "ladder_pair",
            lambda f, grid, *args, real=real: ladders.append(grid.n_points) or real(f, grid, *args),
        )
    verify_all(config)
    n = config.grid.n_points
    # factorization's algebra grid, then the config grid's coupling and its negation
    assert ladders == [201, n, n]
    kind = config.interaction.kind
    # every sample is taken on real points x + i y, y one real number
    shift = config.constants.hbar * config.interaction.theta(config.constants)
    assert samples == [
        (kind, 401, shift, False),  # condition_shift: f shifted by i hbar theta
        (kind, 401, 0.0, False),  # and f on the real window
        (kind, n, 0.0, True),  # f and f' on the config grid: checks 2, 4 and 7-9
        (kind, 201, 0.0, True),  # factorization: ladder, band product and coarse commutator
        (kind, 401, 0.0, True),  # factorization: commutator on the refined grid
        (kind, n, 0.0, True),  # shape_invariance: V- of the upper partner
        (kind, n, 0.0, False),  # model_duality: the negated coupling's ladder
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
        ("condition_shift", 8.881784197001252e-16, 1e-10, True),
        ("potential_closed_form", 6.254122406089371e-16, 1e-12, True),
        ("factorization", 0.40353846374023816, 1.0, True),
        ("shape_invariance", 1.612170902345601e-16, 1e-08, True),
        ("eigenvalues_numeric", 1.8713957813376127e-05, 0.001, True),
        ("spinor_coefficients", 2.220446049250313e-16, 1e-12, True),
        ("model_identification", 0.0, 1e-14, True),
        ("model_duality", 0.0, 1e-14, True),
        ("singlet_structure", 0.00015807944552191405, 0.001, True),
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
        ("singlet_structure", 1.026479988407961e-07, 0.001, True),
    ],
    "linear.json": [
        ("condition_shift", 0.0, 1e-10, True),
        ("potential_closed_form", 0.0, 1e-12, True),
        ("factorization", 0.40894568690095845, 1.0, True),
        ("shape_invariance", 1.0931426704001542e-16, 1e-08, True),
        ("eigenvalues_numeric", 0.00010417614806046416, 0.001, True),
        ("spinor_coefficients", 2.220446049250313e-16, 1e-12, True),
        ("model_identification", 0.0, 1e-14, True),
        ("model_duality", 0.0, 1e-14, True),
        ("singlet_structure", 9.128070315885783e-05, 0.001, True),
    ],
    "sweep0": [
        ("condition_shift", 0.0, 1e-10, True),
        ("potential_closed_form", 7.442841912123594e-16, 1e-12, True),
        ("factorization", 0.40061447759306895, 1.0, True),
        ("shape_invariance", 1.6428987882231732e-16, 1e-08, True),
        ("eigenvalues_numeric", 0.00031019112186608994, 0.001, True),
        ("spinor_coefficients", 0.0, 1e-12, True),
        ("model_identification", 0.0, 1e-14, True),
        ("model_duality", 0.0, 1e-14, True),
        ("singlet_structure", 0.0024894643531311895, 0.001, False),
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
        ("singlet_structure", 3.405720749292153e-06, 0.001, True),
    ],
    "sweep2": [
        ("condition_shift", 0.0, 1e-10, True),
        ("potential_closed_form", 9.906076369394386e-16, 1e-12, True),
        ("factorization", 0.3927924668781066, 1.0, True),
        ("shape_invariance", 1.851419228512405e-16, 1e-08, True),
        ("eigenvalues_numeric", 0.0009023510930704159, 0.001, True),
        ("spinor_coefficients", 2.220446049250313e-16, 1e-12, True),
        ("model_identification", 0.0, 1e-14, True),
        ("model_duality", 0.0, 1e-14, True),
        ("singlet_structure", 0.010029548705620025, 0.001, False),
    ],
    "sweep3": [
        ("condition_shift", 0.0, 1e-10, True),
        ("potential_closed_form", 1.3697481007220793e-15, 1e-12, True),
        ("factorization", 0.39156797580109787, 1.0, True),
        ("shape_invariance", 9.75677048647413e-16, 1e-08, True),
        ("eigenvalues_numeric", 1.738540359089685e-05, 0.001, True),
        ("spinor_coefficients", 1.1102230246251565e-16, 1e-12, True),
        ("model_identification", 0.0, 1e-14, True),
        ("model_duality", 0.0, 1e-14, True),
        ("singlet_structure", 1.812356432590077e-05, 0.001, True),
    ],
}


# the measured values that differ from _PINNED_REPORTS, by (config, check),
# at each dispatch level of numpy 2.4.6 (tests/host.py dispatch_level).
# _PINNED_REPORTS holds the AVX-512 level; the AVX2 set was measured in a
# process with NPY_DISABLE_CPU_FEATURES="AVX512_SPR AVX512_ICL X86_V4", the
# baseline set with X86_V3 also in that list.  No verdict differs.  A
# mismatch prints that config's entries for the running level, so one run per
# level gives its pin set
_PINNED_AT_LEVEL = {
    "X86_V3+X86_V4+AVX512_ICL+AVX512_SPR": {},
    'X86_V3': {
        ('linear.json', 'singlet_structure'): 9.128070315884671e-05,
        ('morse.json', 'potential_closed_form'): 5.79026862265361e-16,
        ('morse.json', 'singlet_structure'): 0.00015807944552189673,
        ('sweep0', 'singlet_structure'): 0.0024894643531311266,
        ('sweep2', 'singlet_structure'): 0.010029548705619928,
    },
    'baseline': {
        ('cot.json', 'potential_closed_form'): 4.675801353464622e-16,
        ('cot.json', 'singlet_structure'): 1.0264799883704611e-07,
        ('linear.json', 'singlet_structure'): 9.128070315884671e-05,
        ('morse.json', 'potential_closed_form'): 5.79026862265361e-16,
        ('morse.json', 'shape_invariance'): 2.039240364857033e-16,
        ('morse.json', 'singlet_structure'): 0.00015807944552185207,
        ('sweep0', 'singlet_structure'): 0.0024894643531312064,
        ('sweep1', 'potential_closed_form'): 4.441063619360115e-16,
        ('sweep1', 'singlet_structure'): 3.4057207492747564e-06,
        ('sweep2', 'potential_closed_form'): 8.121358513595368e-16,
        ('sweep2', 'singlet_structure'): 0.010029548705619853,
        ('sweep3', 'potential_closed_form'): 1.3731482861771029e-15,
        ('sweep3', 'shape_invariance'): 9.756770486474128e-16,
        ('sweep3', 'singlet_structure'): 1.8123564325879733e-05,
    },
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
    level = host.dispatch_level()
    if level not in _PINNED_AT_LEVEL:
        pytest.fail(
            f"no pinned reports for numpy's dispatch level {level}: measure them at that level "
            "and add them to _PINNED_AT_LEVEL"
        )
    moved = _PINNED_AT_LEVEL[level]
    expected = [
        (check, moved.get((name, check), measured), threshold, passed)
        for check, measured, threshold, passed in _PINNED_REPORTS[name]
    ]
    report = verify_all(_pinned_config(name))
    observed = [(c.name, c.measured, c.threshold, c.passed) for c in report.checks]
    if observed != expected:
        # this config's entries of the running level's pin set, as measured
        base = {check: measured for check, measured, _, _ in _PINNED_REPORTS[name]}
        print(f"_PINNED_AT_LEVEL[{level!r}] entries for {name}:")
        for c in report.checks:
            if c.measured != base[c.name]:
                print(f"    {(name, c.name)!r}: {c.measured!r},")
    assert observed == expected


@pytest.mark.parametrize("factor", [0.5, -1.0])
@pytest.mark.parametrize("name", ["morse.json", "cot.json", "sweep0", "sweep1"])
def test_wrong_theta_fails_condition_shift(monkeypatch, name, factor):
    # both samples of condition_shift share one real exp(-alpha x) (Morse)
    # or one real sin u and cos u (cot), so the right theta reads exactly 0
    # on sweep0 and sweep2; half the shift and the opposite one must fail
    config = _pinned_config(name)
    family = type(config.interaction)
    theta = family.theta
    monkeypatch.setattr(family, "theta", lambda spec, consts: factor * theta(spec, consts))
    check = verify_all(config).checks[0]
    assert check.name == "condition_shift"
    assert not check.passed and check.measured > 1e-3


def _nan_singlet(monkeypatch):
    original = gdo.verify.analytic_spinor

    def with_nan(spec, level, grid, consts, model="GDO"):
        sample = original(spec, level, grid, consts, model=model)
        psi1 = sample.psi1.copy()
        psi1[grid.n_points // 3] = np.nan
        return dataclasses.replace(sample, psi1=psi1)

    monkeypatch.setattr(gdo.verify, "analytic_spinor", with_nan)


def test_nan_singlet_fails_singlet_structure(monkeypatch):
    # max(0.0, nan) is 0.0: folded that way, a NaN quotient and residual read 0 and passed
    _nan_singlet(monkeypatch)
    with np.errstate(invalid="ignore"):
        report = verify_all(load_config(CONFIGS / "morse.json"))
    check = report.checks[8]
    assert check.name == "singlet_structure" and np.isnan(check.measured) and not check.passed
    assert not report.overall


def test_nan_numeric_level_fails_eigenvalues_numeric(monkeypatch):
    original = gdo.verify.spectrum_rows

    def with_nan(config, numeric=False):
        rows = original(config, numeric=numeric)
        rows[1]["epsilon_numeric"] = float("nan")
        return rows

    monkeypatch.setattr(gdo.verify, "spectrum_rows", with_nan)
    check = verify_all(load_config(CONFIGS / "morse.json")).checks[4]
    assert check.name == "eigenvalues_numeric" and np.isnan(check.measured) and not check.passed


def test_nan_measurement_exits_1_naming_the_check(monkeypatch, tmp_path, capsys):
    _nan_singlet(monkeypatch)
    out = tmp_path / "verify.json"
    with np.errstate(invalid="ignore"):
        assert main(["verify", "--config", str(CONFIGS / "morse.json"), "--out", str(out)]) == EXIT_FAILED
    assert capsys.readouterr().err.splitlines() == [
        "gdo: check singlet_structure measured nan, not a finite number"
    ]
    assert not out.exists()


def test_wide_morse_window_raises_instead_of_one_value_for_every_level(tmp_path, capsys):
    # at x_min = -40 the Morse wall makes ||T|| about 7e34, so eps ||T|| is
    # 1.5e19 and bisection returned 7.689158177e+18 for all four levels
    wide = {
        "interaction": {"kind": "morse", "D": 40.0, "A": 1.0, "B": 0.5, "alpha": 1.0},
        "grid": {"x_min": -40.0, "x_max": 20.0, "n_points": 4000},
    }
    config = config_from_dict(wide)
    message = (
        r"the bisection tolerance eps\*\|\|T\|\| = 1\.538e\+19 cannot resolve the seeded levels "
        r"on this window: two of them came out 0\.000e\+00 apart; narrow the grid window"
    )
    with pytest.raises(ResolutionError, match=message):
        numeric_epsilons(config.interaction, config.grid, config.constants, 4)
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(wide))
    out = tmp_path / "verify.json"
    assert main(["verify", "--config", str(path), "--out", str(out)]) == EXIT_FAILED
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("gdo: the bisection tolerance eps*||T|| = 1.538e+19 cannot resolve")
    assert not out.exists()


@pytest.mark.parametrize("name", sorted(_PINNED_REPORTS))
def test_certified_windows_hold_their_levels_in_exact_arithmetic(monkeypatch, bisection, name):
    # every float64 is a rational, so exact_count counts the eigenvalues of
    # the very matrix verify certifies, with no rounding: each window
    # rho_k -+ (r_k + COUNT_MARGIN atol) must hold the k-th eigenvalue alone.
    # The shipped configs and the first sweep cycle of seed 7, at n = 401
    config = _pinned_config(name)
    config = dataclasses.replace(config, grid=dataclasses.replace(config.grid, n_points=401))
    iterate = gdo.verify.stacked_inverse_iteration
    solves = []

    def recording(bands, shifts, tol):
        solves.append((bands, iterate(bands, shifts, tol)))
        return solves[-1][1]

    monkeypatch.setattr(gdo.verify, "stacked_inverse_iteration", recording)
    rows = spectrum_rows(config, numeric=True)
    assert not bisection.calls
    [((e, d, _), results)] = solves
    assert len(results) == len(rows)
    margin = COUNT_MARGIN * _stebz_bounds(d, e)[-1]
    for k, result in enumerate(results):
        rho, half = result.eigenvalue.real, result.residual_norm + margin
        assert (exact_count(d, e, rho - half), exact_count(d, e, rho + half)) == (k, k + 1)


def _graded_wall(rows, decades, log_scale, offset, split, seed):
    """Two copies of a Morse-like block of `rows` rows with no coupling between them.

    The block's diagonal climbs a wall of `decades` orders of magnitude over
    its first rows and ends on a plateau below 1, and its couplings are
    about -1, as in a finite-difference Morse matrix; with split, some
    couplings are zero.  The second copy's diagonal is raised by offset atol
    of the block, so each of its levels sits within about |offset| atol of
    the same level of the first copy.
    """
    rng = np.random.default_rng(seed)
    wall = int(rng.integers(1, rows))
    ramp = np.linspace(1.0, 0.0, wall, endpoint=False) ** rng.uniform(0.5, 3.0)
    d = np.concatenate([10.0**(decades * ramp), rng.uniform(0.1, 1.0, rows - wall)])
    e = -rng.uniform(0.5, 1.5, rows - 1)
    if split:
        e[rng.random(rows - 1) < 0.3] = 0.0
    scale = 10.0**log_scale
    d, e = scale * d, scale * e
    raised = d + offset * _stebz_bounds(d, e)[-1]
    return np.concatenate([d, raised]), np.concatenate([e, [0.0], e])


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    rows=st.integers(2, 20),
    decades=st.floats(10.0, 15.0),
    log_scale=st.floats(-3.0, 3.0),
    offset=st.floats(-16.0, 16.0),
    split=st.booleans(),
    count=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_counts_and_windows_hold_in_exact_arithmetic_on_graded_walls(
    rows, decades, log_scale, offset, split, count, seed
):
    # graded walls spanning 10 to 15 orders of magnitude, levels in pairs
    # within 16 atol (clusters where offset is a few atol) and zero
    # couplings.  (i) On shifts atol apart across the lowest pair, where
    # exact_count gives one count at x -+ COUNT_MARGIN atol no eigenvalue
    # lies within the margin of x, and the float count must be that count.
    # (ii) Every window seeded_eigenvalues certifies, seeded at the dense
    # values and at seeds moved by up to 8 atol, holds its own level alone
    d, e = _graded_wall(rows, decades, log_scale, offset, split, seed)
    e2, pivmin, _, _, atol = _stebz_bounds(d, e)
    values = _dense(d, e)
    # shift j -+ reach is shift j -+ COUNT_MARGIN atol
    reach = int(COUNT_MARGIN)
    shifts = values[0] + (COUNT_MARGIN * atol / reach) * np.arange(-3 * reach, 3 * reach + 1)
    exact = [exact_count(d, e, x) for x in shifts]
    counts = _sturm_counts(d, e2, pivmin, shifts).tolist()
    for j in range(reach, shifts.size - reach):
        if exact[j - reach] == exact[j + reach]:
            assert counts[j] == exact[j], j - 3 * reach

    rng = np.random.default_rng(seed)
    exact_seeds = values[: min(count, d.size)]
    margin = COUNT_MARGIN * atol
    iterate = gdo.verify.stacked_inverse_iteration
    for seeds in (exact_seeds, exact_seeds + atol * rng.uniform(-8.0, 8.0, exact_seeds.size)):
        solves, bisection = [], BisectionSpy()

        def recording(bands, shifts, tol):
            solves.append(iterate(bands, shifts, tol))
            return solves[-1]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(gdo.verify, "stacked_inverse_iteration", recording)
            mp.setattr(gdo.verify, "symtridiag_eigenvalues", bisection)
            try:
                seeded_eigenvalues(d, e, seeds)
            except ResolutionError:
                # certified windows are disjoint and at least 8 atol wide,
                # so only bisection's values come out within atol
                assert bisection.calls
        if bisection.calls:
            continue
        for k, result in enumerate(solves[0]):
            rho, half = result.eigenvalue.real, result.residual_norm + margin
            assert (exact_count(d, e, rho - half), exact_count(d, e, rho + half)) == (k, k + 1)
