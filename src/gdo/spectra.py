"""Closed-form levels, eigenfunctions, and two-component bound states.

Level bookkeeping: a spectrum line with index n >= 0 describes the level pair
E_{n+1} = +/- sqrt(m^2 c^4 + c^2 eps_n^+); the isolated singlet is encoded as
index -1.  Spinor levels use the physical subscript, so level -1 is the
singlet and level k >= 1 pairs the k-th lower-partner state with the
(k-1)-th upper-partner state.

Only the lower branch has formulas.  The upper branch is derived from it by
shape invariance (Cooper, Khare & Sukhatme, Phys. Rep. 251 (1995) 267):
eps_n^+ = eps_{n+1}^-, and the upper-partner function at index n is the
lower-partner function at index n of spec.upper_partner(consts).  So the two
components of spinor level k share one prefactor and one polynomial family:
for Morse z^(s-k) e^(-z/2) and L^(2s-2k)(z), because s' - (k-1) = s - k; for
cot sin^(s+k) w and P^(-s-k,-s-k)(i cot w), because s' + (k-1) = s + k.  Each
level samples its argument and prefactor once and evaluates the polynomial
at degrees k and k - 1; linear shares only its Gaussian.

Prefactors are sampled by one rule for every family: each family's factor
function returns log p, that is (s-k) log z - z/2 for Morse, (s+k) log sin w
for cot and -xi^2/2 for linear, and the level takes p = exp(log p - max Re
log p).  The constant cancels in the normalization of the sample, and a
window far into a wall or a tail, where p itself would over- or underflow,
samples like any other; where p underflows to 0 the level is 0, even if its
polynomial overflows there.  A Morse window so far into the wall that z
itself overflows is refused by name.

Eigenfunction phases are pinned by the exact first-order ladder relations
(see each family's ladder_constant), which makes every sampled spinor an
eigenvector of the assembled two-component matrix up to discretization error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List

import numpy as np

from .errors import BranchError, LevelOutOfRangeError, ParameterError
from .interactions import (
    DEFAULT_CONSTANTS,
    UNBOUNDED,
    CotInteraction,
    Grid,
    InteractionSpec,
    LinearInteraction,
    MorseInteraction,
    PhysicalConstants,
)
# bound under the name perfbench/tracer.py patches
from .polynomials import jacobi as jacobi_any, laguerre


@dataclass(frozen=True)
class SpectralLine:
    """One spectrum entry: index, decoupled eigenvalue, and both energy branches.

    For the singlet line (n = -1) there is a single physical energy; both
    branch fields carry it.
    """

    n: int
    epsilon: float
    energy_plus: float
    energy_minus: float


@dataclass(frozen=True)
class SpinorCoefficients:
    """Component weights of a positive-branch bound spinor; a^2 + b^2 = 1."""

    a: float
    b: float
    energy: float


@dataclass(frozen=True)
class SpinorSample:
    """Two-component wavefunction on a grid, normalized so sum(|psi|^2) h = 1."""

    grid: Grid
    psi1: np.ndarray
    psi2: np.ndarray
    level: int
    model: str


def _check_level(spec, n, consts):
    if n < 0:
        raise LevelOutOfRangeError(f"level index must be >= 0, got {n}")
    count = spec.level_count(consts)
    if n >= count:
        raise LevelOutOfRangeError(f"level {n} out of range: only {count} bound levels")


def epsilon_minus(
    spec: InteractionSpec, n: int, consts: PhysicalConstants = DEFAULT_CONSTANTS
) -> float:
    """Decoupled eigenvalue of the lower-partner problem at level n."""
    _check_level(spec, n, consts)
    return spec.epsilon(n, consts)


def dirac_spectrum(
    spec: InteractionSpec,
    consts: PhysicalConstants = DEFAULT_CONSTANTS,
    max_levels: int = 8,
) -> List[SpectralLine]:
    """Singlet plus paired levels, at most max_levels lines in total.

    The singlet energy follows the stated convention -mc^2 for the oscillator
    form (see ground_state_structure for the model-resolved sign discussion).
    """
    if max_levels < 1:
        raise ParameterError(f"max_levels must be >= 1, got {max_levels}")
    mc2 = consts.mass * consts.c**2
    lines = [SpectralLine(n=-1, epsilon=0.0, energy_plus=-mc2, energy_minus=-mc2)]
    # pair n holds upper level n, that is lower level n + 1
    pair_count = spec.level_count(consts) - 1
    n = 0
    while len(lines) < max_levels and n < pair_count:
        eps = spec.epsilon(n + 1, consts)
        energy = math.sqrt(mc2 * mc2 + consts.c**2 * eps)
        lines.append(SpectralLine(n=n, epsilon=eps, energy_plus=energy, energy_minus=-energy))
        n += 1
    return lines


def spinor_coefficients(
    energy: float, consts: PhysicalConstants = DEFAULT_CONSTANTS
) -> SpinorCoefficients:
    """Component weights sqrt((E +/- mc^2) / 2E) on the positive branch."""
    mc2 = consts.mass * consts.c**2
    if not energy > mc2:
        raise BranchError(f"coefficients need energy > mc^2 = {mc2}, got {energy}")
    a = math.sqrt((energy + mc2) / (2.0 * energy))
    b = math.sqrt((energy - mc2) / (2.0 * energy))
    return SpinorCoefficients(a=a, b=b, energy=energy)


def _morse_factors(spec: MorseInteraction, level: int, x, consts):
    s = spec.s(consts)
    scale = 2.0 * (spec.A + 1j * spec.B) / (consts.hbar * spec.alpha)
    z = scale * np.exp(-spec.alpha * x)
    finite = np.isfinite(z)
    if not finite.all():
        raise ParameterError(
            f"morse z = 2(A + iB) e^(-alpha x)/(hbar alpha) overflows on this window "
            f"for x <= {np.max(x[~finite]):.6g}; narrow the grid window"
        )
    # arg z = arg scale at every x, so log z = log scale - alpha x on the principal branch
    log_prefactor = (s - level) * (np.log(scale) - spec.alpha * x) - z / 2.0
    if level == 0:
        return log_prefactor, []
    return log_prefactor, [laguerre(n, 2 * s - 2 * level, z) for n in (level, level - 1)]


def _cot_factors(spec: CotInteraction, level: int, x, consts):
    s = spec.s(consts)
    sw, cw = spec.sine(x, 0.0, "cot eigenfunction sampled at a pole")
    # log sin w stays on one branch while Re(sin w) > 0, i.e. inside one period
    log_prefactor = (s + level) * np.log(sw)
    if level == 0:
        return log_prefactor, []
    y = 1j * cw / sw
    return log_prefactor, [jacobi_any(n, -s - level, -s - level, y) for n in (level, level - 1)]


def _linear_factors(spec: LinearInteraction, level: int, x, consts):
    # both partner wells are (m omega x)^2 up to a constant, so level n of
    # either is the Hermite function H_n(xi) exp(-xi^2/2); H_n is written
    # through L_k^(-+1/2)(xi^2) with k = floor(n/2)
    xi = math.sqrt(consts.mass * spec.omega / consts.hbar) * x
    xi2 = xi * xi
    hermite = []
    for n in (level, level - 1) if level else ():
        k, odd = divmod(n, 2)
        h_n = (-4.0) ** k * math.factorial(k) * laguerre(k, odd - 0.5, xi2)
        hermite.append(2.0 * xi * h_n if odd else h_n)
    return -0.5 * xi2, hermite


# the closed-form level functions by family kind: (log prefactor,
# polynomials); the polynomials go through this module's laguerre and jacobi_any
_FACTORS = {"morse": _morse_factors, "cot": _cot_factors, "linear": _linear_factors}


def _partner_functions(spec: InteractionSpec, level: int, x, consts) -> list:
    """[lower-partner function at level, upper-partner function at level - 1], unnormalized.

    Both are one prefactor times a polynomial of degree level and level - 1
    (see the module docstring); the prefactor is taken relative to its
    largest modulus on x.  At level 0, the singlet, the list holds the lower
    function alone.  Overflow is left to the caller's np.errstate.
    """
    _check_level(spec, level, consts)
    log_prefactor, polynomials = _FACTORS[spec.kind](spec, level, x, consts)
    prefactor = np.exp(log_prefactor - log_prefactor.real.max())
    if not polynomials:
        # the degree-0 polynomial is 1; the complex product with 1 + 0j keeps
        # the signs of zero parts that a product with its array of ones gives
        return [prefactor * (1 + 0j)]
    parts = [prefactor * polynomial for polynomial in polynomials]
    # far into a wall a polynomial can overflow where the prefactor is 0,
    # and 0 * inf = nan there stands for a function that is 0
    zero = prefactor == 0
    if zero.any():
        for part in parts:
            part[zero & np.isnan(part)] = 0
    return parts


def _checked_norm(norm: float) -> float:
    if norm == 0 or not math.isfinite(norm):
        raise ParameterError(f"cannot normalize a sample of norm {norm} on this grid")
    return norm


def _grid_normalize(values: np.ndarray, h: float) -> np.ndarray:
    return values / _checked_norm(math.sqrt(float(np.sum(np.abs(values) ** 2)) * h))


def analytic_spinor(
    spec: InteractionSpec,
    level: int,
    grid: Grid,
    consts: PhysicalConstants = DEFAULT_CONSTANTS,
    model: str = "GDO",
) -> SpinorSample:
    """Two-component bound state at a physical level for the GDO or GJC layout.

    The GDO layout puts the lower-partner function on top (singlet occupies
    the upper component); the GJC layout is the swap.  Component weights
    reduce to the (a, b) coefficient pair for real couplings; complex
    couplings keep the exact first-order relations instead, so the sample
    stays an eigenvector of the assembled matrix.
    """
    if model not in ("GDO", "GJC"):
        raise ParameterError(f"model must be 'GDO' or 'GJC', got {model!r}")
    x = grid.points
    h = grid.spacing
    mc2 = consts.mass * consts.c**2
    if level != -1 and level < 1:
        raise LevelOutOfRangeError(f"spinor levels are -1 (singlet) or >= 1, got {level}")
    # exp(-alpha x) overflows far into a Morse wall, where _morse_factors
    # refuses the window by name; any other overflow reads nan in the
    # sample, which _checked_norm refuses, so the warning is no news
    with np.errstate(over="ignore", invalid="ignore"):
        if level == -1:
            (phi0,) = _partner_functions(spec, 0, x, consts)
            phi0 = _grid_normalize(phi0, h)
            return singlet_layout(SpinorSample(grid, phi0, np.zeros_like(phi0), level, "GDO"), model)
        eps = epsilon_minus(spec, level, consts)
        energy = math.sqrt(mc2 * mc2 + consts.c**2 * eps)
        lower_part, upper_part = _partner_functions(spec, level, x, consts)
        kappa = spec.ladder_constant(level - 1, consts)
        if model == "GDO":
            psi1 = lower_part
            psi2 = (consts.c * kappa / (energy + mc2)) * upper_part
        else:
            psi1 = (consts.c * kappa / (energy - mc2)) * upper_part
            psi2 = lower_part
        norm = _checked_norm(math.sqrt(float(np.sum(np.abs(psi1) ** 2 + np.abs(psi2) ** 2)) * h))
    return SpinorSample(grid, psi1 / norm, psi2 / norm, level, model)


def singlet_layout(singlet: SpinorSample, model: str) -> SpinorSample:
    """A singlet sample laid out for the GDO or GJC layout; the GJC one swaps the components."""
    if model == singlet.model:
        return singlet
    return SpinorSample(singlet.grid, singlet.psi2, singlet.psi1, singlet.level, model)
