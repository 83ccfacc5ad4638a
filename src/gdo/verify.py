"""Verification suite: every closed-form claim against an independent numeric route.

The numeric route for decoupled eigenvalues solves a real symmetric
tridiagonal matrix built per family: the Morse and linear families use the
real (Hermitian-equivalent) potential on the config grid, and the cot family
the real cosec^2 well its shifted potential becomes, on the interior of the
pole-to-pole lattice, so that the Dirichlet ghost points sit on the poles.
With s = A/(hbar alpha) the cot levels converge at order min(2, 2s - 1) for
s > 1/2.  For s < 1/2 the Dirichlet lattice converges to the Friedrichs
extension, whose levels are the closed form with s replaced by 1 - s, so the
deviation does not fall with h (Reed & Simon II, sec. X.1).  The lowest
levels are found by inverse iteration seeded at the closed-form levels, all
of them in one stacked real solve, and each one is certified by a residual
bound and a Sturm count that does not use the seed; if that solve breaks
down, or any level stalls or fails its certificate, all of them come from
Sturm bisection instead.  real_line_probe probes the real-line complex
matrix by inverse iteration, one shift per call, and gates nothing, since
its boundary conditions are a modeling choice.

Shape invariance is checked on the wells built from f and f': V+ of the
coupling minus V- of upper_partner(spec), the map the closed forms take
their upper branch from, must be constant on the config grid.

verify_all makes each grid sample once.  f and f' on the config grid come
from one evaluation of the coupling: check 2 reads the partner potentials
built from them, check 4 their V+, and checks 7-9 one ladder pair built from
f.  factorization_check takes its ladder, its band products and its coarse
commutator from one sample on its own 201-point grid.  The singlet is
sampled once in the GDO layout, and the GJC report reads it with its
components swapped.  Checks 7 and 8 still test something on the shared
ladder: check 7 compares the GAJC layout of model_matrix with the oscillator
layout of dirac_matrix, each of which places the ladder blocks by its own
rule, and check 8 compares the GJC layout with the GAJC layout of the
negated() coupling, whose ladder is sampled afresh.  A ladder rebuilt from
the same coupling and grid is the shared one bit for bit, so rebuilding it
would test nothing more.
"""

from __future__ import annotations

import dataclasses
import logging
import math
from dataclasses import dataclass
from time import perf_counter
from typing import List, Tuple

import numpy as np

from .config import RunConfig
from .eigensolve import (
    ITERATION_TOL,
    inverse_iteration,
    stacked_inverse_iteration,
    sturm_window_counts,
    symtridiag_eigenvalues,
)
from .errors import DimensionError, GdoError, LevelOutOfRangeError
from .interactions import (
    DEFAULT_CONSTANTS,
    CotInteraction,
    Grid,
    InteractionSpec,
    PhysicalConstants,
    check_pseudo_hermiticity_condition,
    default_condition_grid,
    hermitian_equivalent_interaction,
    metric_theta,
    sample_coupling,
    upper_partner,
)
# assemble_dirac and ground_state_structure are not called here:
# perfbench/tracer.py patches gdo.verify's names
from .models import (
    assemble_model,
    ground_state_structure,
    model_matrix,
    oscillator_models,
    singlet_report,
    spin_flip,
)
from .operators import (
    assemble_dirac,
    assemble_schrodinger,
    closed_form_potentials,
    dirac_matrix,
    effective_potentials,
    ladder_pair,
    momentum_operator,
    partner_potentials,
)
from .spectra import (  # analytic_spinor: perfbench/tracer.py patches gdo.verify's name
    analytic_spinor,
    dirac_spectrum,
    epsilon_minus,
    spinor_coefficients,
)

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class CheckResult:
    """One named measurement compared against a threshold."""

    name: str
    measured: float
    threshold: float
    passed: bool


@dataclass(frozen=True)
class VerificationReport:
    """A bundle of check results; overall holds iff every check passed."""

    checks: Tuple[CheckResult, ...]

    @property
    def overall(self) -> bool:
        return all(c.passed for c in self.checks)


def numeric_epsilons(
    spec: InteractionSpec,
    grid: Grid,
    consts: PhysicalConstants,
    count: int,
) -> np.ndarray:
    """Lowest decoupled eigenvalues by the assertable numeric route.

    Morse/linear: lower-partner potential of the metric-rotated real coupling
    on the given grid.  Cot: real cosec^2 well at the points j h, j = 1..n,
    with h = pi/(alpha (n + 1)) and n the given grid's point count (only
    that count is used), so that the Dirichlet ghosts j = 0 and n + 1 sit on
    the poles.  The cosec^2 coefficient is hbar^2 alpha^2 s(s - 1) >= -1/4
    hbar^2 alpha^2, which the discrete Hardy inequality bounds, so no pole
    well holds a spurious level.  The levels are those of
    seeded_eigenvalues, seeded at the closed-form levels of that real
    coupling: certified inverse-iteration values, or Sturm bisection for
    every level when the seeded solve does not certify them all.  A count
    with no closed-form level to seed from, such as one beyond the bound
    Morse levels, goes to bisection directly; a coupling outside the regime
    with closed-form levels raises the ParameterError of epsilon_minus.
    """
    if isinstance(spec, CotInteraction):
        h = math.pi / (spec.alpha * (grid.n_points + 1))
        solve_grid = Grid(h, math.pi / spec.alpha - h, grid.n_points)
        real_spec = dataclasses.replace(spec, a=0.0, b=0.0)
    else:
        solve_grid = grid
        real_spec = hermitian_equivalent_interaction(spec, consts)
    sample = closed_form_potentials(real_spec, solve_grid, consts)
    off, diag, _ = assemble_schrodinger(sample.v_minus, solve_grid, consts).bands
    diag, off = diag.real, off.real
    try:
        seeds = [epsilon_minus(real_spec, level, consts) for level in range(count)]
    except LevelOutOfRangeError:
        return symtridiag_eigenvalues(diag, off, count=count)
    return seeded_eigenvalues(diag, off, seeds)


def seeded_eigenvalues(diag, offdiag, seeds) -> np.ndarray:
    """Lowest len(seeds) eigenvalues of a real symmetric tridiagonal T, ascending.

    Level k starts inverse iteration at seeds[k], which gives a Rayleigh
    value lam_k and the residual r_k = ||T v - lam_k v|| of its unit vector
    v; every level comes from one stacked_inverse_iteration call, in float64.
    Some eigenvalue lies within r_k of lam_k (Kahan's bound; Parlett, The
    Symmetric Eigenvalue Problem, ch. 4), and one Sturm pass certifies it as
    the k-th: exactly k eigenvalues lie at or below lam_k - rho_k and k + 1
    at or below lam_k + rho_k, with rho_k = max(r_k, 4 atol) as in
    sturm_window_counts.  The certificate does not use the seeds, so a wrong
    seed costs time, never a wrong level.  If the stacked factorization
    breaks down, a level stalls above the tolerance or any level fails its
    certificate, every level comes from symtridiag_eigenvalues, so the values
    are never a mix of the two routes.  Each level's route goes to the log at
    INFO level, with the shift its factorization ended at (the seed, or the
    Rayleigh value of a refresh) and the failure that sent a level to
    bisection.
    """
    d = np.asarray(diag, dtype=np.float64)
    e = np.asarray(offdiag, dtype=np.float64)
    count = len(seeds)
    if count > d.size:
        raise DimensionError(f"requested {count} eigenvalues of a {d.size}x{d.size} matrix")
    results = stacked_inverse_iteration((e, d, e), np.asarray(seeds, dtype=np.float64))
    radius = []
    if results is None:
        results, failures = [], dict.fromkeys(range(count), "stacked factorization broke down")
    else:
        failures = {
            level: f"stalled: residual {r.residual_norm:.3e} after {r.iterations} iterations"
            for level, r in enumerate(results)
            if not r.converged
        }
    if results and not failures:
        rho, lower, upper = sturm_window_counts(
            d, e, [r.eigenvalue.real for r in results], [r.residual_norm for r in results]
        )
        radius = rho.tolist()
        for level, (lo, hi) in enumerate(zip(lower.tolist(), upper.tolist())):
            if (lo, hi) != (level, level + 1):
                failures[level] = f"Sturm counts {lo} and {hi}, expected {level} and {level + 1}"
    if failures:
        values = symtridiag_eigenvalues(d, e, count=count)
    else:
        values = np.array([r.eigenvalue.real for r in results])
    if log.isEnabledFor(logging.INFO):
        route = "bisection" if failures else "certified"
        for level, (seed, value) in enumerate(zip(seeds, values.tolist())):
            log.info(
                "level %d n=%d seed=%.10g shift=%s numeric=%.10g radius=%s iterations=%s "
                "route=%s%s",
                level, d.size, seed,
                f"{results[level].shift.real:.10g}" if level < len(results) else "-",
                value,
                f"{radius[level]:.2e}" if level < len(radius) else "-",
                results[level].iterations if level < len(results) else "-",
                route,
                f" ({failures[level]})" if level in failures else "",
            )
    return values


def real_line_probe(
    spec: InteractionSpec,
    grid: Grid,
    consts: PhysicalConstants,
    seeds,
    tol: float = ITERATION_TOL,
) -> List[dict]:
    """Inverse-iteration probes of the complex real-line matrix, one per seed.

    Informational: reality of the located eigenvalues is evidence for the
    metric argument, but the Dirichlet ends are not part of any closed-form
    statement, so nothing here gates a verification run.  A probe that
    breaks down or stalls raises in inverse_iteration and becomes that
    seed's "error" row, so "converged" is True in every other row; the key
    stays because the probe check of perfbench/workloads.py reads it.
    """
    sample = effective_potentials(spec, grid, consts)
    matrix = assemble_schrodinger(sample.v_minus, grid, consts)
    probes = []
    for seed in seeds:
        try:
            result = inverse_iteration(matrix, complex(seed), tol=tol)
            probes.append(
                {
                    "seed": float(np.real(seed)),
                    "eigenvalue_re": float(result.eigenvalue.real),
                    "eigenvalue_im": float(result.eigenvalue.imag),
                    "residual": float(result.residual_norm),
                    "iterations": int(result.iterations),
                    "converged": bool(result.converged),
                }
            )
        except GdoError as exc:
            probes.append({"seed": float(np.real(seed)), "error": str(exc)})
    return probes


def spectrum_rows(config: RunConfig, numeric: bool = False) -> List[dict]:
    """Spectral lines as plain dicts, optionally with the numeric column."""
    spec = config.interaction
    consts = config.constants
    lines = dirac_spectrum(spec, consts, max_levels=config.levels)
    rows = [
        {
            "n": line.n,
            "epsilon": float(line.epsilon),
            "energy_plus": float(line.energy_plus),
            "energy_minus": float(line.energy_minus),
        }
        for line in lines
    ]
    if numeric:
        numeric_vals = numeric_epsilons(spec, config.grid, consts, len(rows))
        mc2 = consts.mass * consts.c**2
        for row, value in zip(rows, numeric_vals):
            row["epsilon_numeric"] = float(value)
            row["deviation"] = abs(row["epsilon"] - float(value))
            energy_sq = mc2 * mc2 + consts.c**2 * float(value)
            # a numeric level below -m^2 c^2 has no real energy; JSON null
            row["energy_numeric"] = math.sqrt(energy_sq) if energy_sq >= 0 else None
    return rows


def scaled_deviation(analytic: float, numeric: float) -> float:
    # absolute for small targets, relative once the target exceeds unity
    return abs(analytic - numeric) / max(1.0, abs(analytic))


def eigen_deviation(rows: List[dict]) -> float:
    """Worst scaled deviation of numeric spectrum rows, the value verify and spectrum --numeric gate."""
    return max(scaled_deviation(row["epsilon"], row["epsilon_numeric"]) for row in rows)


def _algebra_grid(spec: InteractionSpec, consts: PhysicalConstants) -> Grid:
    # the condition check's window, two coupling lengths each side, at 201
    # points; the ladder-product residual is rounding gated relative to
    # max|f|^2 + hbar^2/h^2, so the point count sets only the cost
    base = default_condition_grid(spec, consts)
    return Grid(base.x_min, base.x_max, 201)


def verify_all(config: RunConfig) -> VerificationReport:
    """Run the nine-check suite for one configuration.

    Each check's measured value, threshold, verdict and wall time go to the
    log at INFO level; the time never goes into the report, so the report of
    a configuration is the same on every run.
    """
    spec = config.interaction
    consts = config.constants
    tols = config.tolerances
    checks: List[CheckResult] = []
    started = perf_counter()

    def add(check: CheckResult):
        nonlocal started
        now = perf_counter()
        log.info(
            "check %s measured=%.3e threshold=%.3e %s took %.2f ms",
            check.name, check.measured, check.threshold,
            "ok" if check.passed else "FAILED", 1e3 * (now - started),
        )
        checks.append(check)
        started = now

    # 1. conjugation-shift condition on the default 401-point window
    condition = check_pseudo_hermiticity_condition(
        spec, metric_theta(spec, consts), default_condition_grid(spec, consts), consts,
        tol=tols.condition,
    )
    add(CheckResult("condition_shift", condition.max_deviation, tols.condition, condition.passed))

    # 2. generic vs expanded closed-form potentials, pointwise; f is shared with
    # the ladder of checks 7-9 and V+ with check 4
    f, fp = sample_coupling(spec, config.grid, consts)
    generic = partner_potentials(f, fp, consts)
    closed = closed_form_potentials(spec, config.grid, consts)
    scale = np.maximum(
        1.0, np.maximum(np.abs(generic.v_minus), np.abs(generic.v_plus))
    )
    pot_dev = float(
        max(
            np.max(np.abs(generic.v_minus - closed.v_minus) / scale),
            np.max(np.abs(generic.v_plus - closed.v_plus) / scale),
        )
    )
    add(CheckResult("potential_closed_form", pot_dev, 1e-12, pot_dev <= 1e-12))

    # 3. ladder-product identity and commutator order
    fact = factorization_check(spec, _algebra_grid(spec, consts), consts)
    fact_measure = float(max(c.measured / max(c.threshold, 1e-300) for c in fact.checks))
    add(CheckResult("factorization", fact_measure, 1.0, fact.overall))

    # 4. shape invariance: V+ of the coupling is V- of its upper partner plus a constant
    add(_shape_invariance_check(spec, generic.v_plus, config.grid, consts))

    # 5. analytic vs numeric decoupled eigenvalues
    eig_dev = eigen_deviation(spectrum_rows(config, numeric=True))
    add(CheckResult("eigenvalues_numeric", eig_dev, tols.eigen_rel, eig_dev <= tols.eigen_rel))

    # 6. coefficient identity a^2 + b^2 = 1 along the positive branch
    coeff_dev = 0.0
    for line in dirac_spectrum(spec, consts, max_levels=max(config.levels, 2))[1:]:
        coeffs = spinor_coefficients(line.energy_plus, consts)
        coeff_dev = max(coeff_dev, abs(coeffs.a**2 + coeffs.b**2 - 1.0))
    add(CheckResult("spinor_coefficients", coeff_dev, 1e-12, coeff_dev <= 1e-12))

    # 7. anti-rotating model reproduces the oscillator matrix exactly
    ladder = ladder_pair(f, config.grid, consts)
    preset, gjc = oscillator_models(spec, consts)
    gajc_matrix = model_matrix(preset, ladder)
    ident_dev = gajc_matrix.max_abs_diff(dirac_matrix(ladder, consts))
    add(CheckResult("model_identification", ident_dev, 1e-14, ident_dev <= 1e-14))

    # 8. rotating/anti-rotating duality under coupling negation
    gjc_matrix = model_matrix(gjc, ladder)
    dual_dev = gjc_matrix.max_abs_diff(assemble_model(spin_flip(gjc), config.grid, consts))
    add(CheckResult("model_duality", dual_dev, 1e-14, dual_dev <= 1e-14))

    # 9. singlet structure: exact component zeros and |Rayleigh quotient| = delta
    singlet = analytic_spinor(spec, -1, config.grid, consts)
    add(_singlet_check(((preset, gajc_matrix), (gjc, gjc_matrix)), singlet, tols.eigen_rel))

    return VerificationReport(tuple(checks))


def _band_product(x, y):
    """Five bands of the product of tridiagonal (sub, diag, sup) triples.

    Returned as (sub2, sub1, diag, sup1, sup2); each entry sums its terms in
    the order of the inner index, as the dense product does.
    """
    xs, xd, xu = x
    ys, yd, yu = y
    diag = xd * yd
    diag[1:] += xs * yu
    diag[:-1] += xu * ys
    return (
        xs[1:] * ys[:-1],
        xs * yd[:-1] + xd[1:] * ys,
        diag,
        xd[:-1] * yu + xu * yd[1:],
        xu[:-1] * yu[1:],
    )


def factorization_check(
    spec: InteractionSpec, grid: Grid, consts: PhysicalConstants = DEFAULT_CONSTANTS
) -> VerificationReport:
    """Verify the ladder-product identity and the discrete commutator order.

    Two checks: (i) A#A equals p^2 + f^2 + i[f, p] as assembled matrices,
    compared band by band on the five bands of the tridiagonal products;
    the algebra is exact, so the residual is the rounding of entries of size
    max|f|^2 + hbar^2/h^2 and is gated at eps times that scale, which makes
    the gate independent of the unit of length; (ii) applying
    i[f, p]/(-hbar) to a smooth test vector reproduces f' with an error that
    drops fourfold when the spacing is halved.
    """
    f, fp = sample_coupling(spec, grid, consts)
    lower, raise_ = ladder_pair(f, grid, consts)
    p = momentum_operator(grid, consts).bands
    fd = (np.zeros_like(p[0]), f, np.zeros_like(p[2]))

    product = _band_product(raise_.bands, lower.bands)
    expanded = [
        pp + ff + 1j * (fp - pf)
        for pp, ff, fp, pf in zip(
            _band_product(p, p), _band_product(fd, fd), _band_product(fd, p), _band_product(p, fd)
        )
    ]
    algebra_residual = max(
        float(np.max(np.abs(a - b), initial=0.0)) for a, b in zip(product, expanded)
    )
    entry_scale = float(np.max(np.abs(f) ** 2)) + (consts.hbar / grid.spacing) ** 2
    algebra_tol = float(np.finfo(float).eps) * entry_scale

    def commutator_error(g: Grid, fg, fpg):
        x = g.points
        psi = np.sin(np.pi * (x - g.x_min) / (g.x_max - g.x_min)).astype(complex)
        pg = momentum_operator(g, consts)
        lhs = 1j * (fg * pg.matvec(psi) - pg.matvec(fg * psi)) / (-consts.hbar)
        target = fpg * psi
        # roundoff floor of the two matvec paths; below it the error carries
        # no discretization signal (constant couplings land here)
        floor = 1e-13 * float(1.0 + np.max(np.abs(fg)) / g.spacing)
        return float(np.max(np.abs(lhs - target)[1:-1])), floor

    err_coarse, floor_coarse = commutator_error(grid, f, fp)
    fine = grid.refined()
    err_fine, floor_fine = commutator_error(fine, *sample_coupling(spec, fine, consts))
    if err_coarse <= floor_coarse and err_fine <= floor_fine:
        ratio = 4.0
    else:
        ratio = err_coarse / err_fine if err_fine > 0 else 4.0

    return VerificationReport((
        CheckResult(
            "ladder_product_identity", algebra_residual, algebra_tol,
            algebra_residual <= algebra_tol,
        ),
        # ratio in [3.5, 4.5] recorded as distance from the ideal factor 4
        CheckResult("commutator_second_order", abs(ratio - 4.0), 0.5, abs(ratio - 4.0) <= 0.5),
    ))


def _shape_invariance_check(spec, v_plus, grid, consts) -> CheckResult:
    # spread of the gap relative to max|V+| (V+ of spec sampled on grid):
    # rounding for the right partner, an x-dependent gap for a wrong one
    gap = v_plus - effective_potentials(upper_partner(spec, consts), grid, consts).v_minus
    spread = np.max(np.abs(gap - gap[gap.size // 2]))
    measured = float(spread / np.max(np.abs(v_plus), initial=np.finfo(float).tiny))
    threshold = 1e-8
    return CheckResult("shape_invariance", measured, threshold, measured <= threshold)


def _singlet_check(models, singlet, rq_tol) -> CheckResult:
    # models: (ModelSpec, assembled matrix) pairs sharing the GDO-layout singlet
    measured = 0.0
    ok = True
    for ms, matrix in models:
        report = singlet_report(ms, matrix, singlet)
        ok = ok and report.empty_component_zero
        # quotient magnitude pins the level, the residual certifies the vector
        measured = max(
            measured, abs(abs(report.rayleigh_quotient) - ms.delta), report.residual
        )
    return CheckResult("singlet_structure", measured, rq_tol, ok and measured <= rq_tol)
