"""Closed-form levels, eigenfunctions, and two-component bound states.

Level bookkeeping: a spectrum line with index n >= 0 describes the level pair
E_{n+1} = +/- sqrt(m^2 c^4 + c^2 eps_n^+); the isolated singlet is encoded as
index -1.  Spinor levels use the physical subscript, so level -1 is the
singlet and level k >= 1 pairs the k-th lower-partner state with the
(k-1)-th upper-partner state.

Only the lower branch has formulas.  The upper branch is derived from it by
shape invariance: eps_n^+ = eps_{n+1}^-, and the upper-partner function at
index n is the lower-partner function at index n of upper_partner(spec).

Eigenfunction phases are pinned by the exact first-order ladder relations
(see _ladder_constant), which makes every sampled spinor an eigenvector of
the assembled two-component matrix up to discretization error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List

import numpy as np

from .errors import (
    BranchError,
    LevelOutOfRangeError,
    ParameterError,
    PoleError,
)
from .interactions import (
    DEFAULT_CONSTANTS,
    SIN_POLE_CUTOFF,
    CotInteraction,
    Grid,
    InteractionSpec,
    LinearInteraction,
    MorseInteraction,
    PhysicalConstants,
    upper_partner,
)
# bound under the name perfbench/tracer.py patches
from .polynomials import jacobi as jacobi_any, laguerre

UNBOUNDED = math.inf


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


def _morse_s(spec: MorseInteraction, consts: PhysicalConstants) -> float:
    return spec.D / (consts.hbar * spec.alpha)


def _require_solvable(spec: InteractionSpec):
    if isinstance(spec, LinearInteraction) and spec.omega <= 0:
        raise ParameterError("linear levels need omega > 0")
    if isinstance(spec, MorseInteraction) and (spec.D <= 0 or spec.A <= 0):
        raise ParameterError("morse levels need D > 0 and A > 0")
    if isinstance(spec, CotInteraction) and spec.A <= 0:
        raise ParameterError("cot levels need A > 0")


def bound_state_count(spec: InteractionSpec, consts: PhysicalConstants = DEFAULT_CONSTANTS):
    """Number of bound lower-partner levels: floor(D/(hbar alpha)) for Morse, else UNBOUNDED.

    The upper partner has one fewer, since its level n is lower level n + 1.
    ParameterError outside the regime with closed-form levels: linear needs
    omega > 0, Morse D, A > 0 and cot A > 0.
    """
    _require_solvable(spec)
    if isinstance(spec, MorseInteraction):
        return math.floor(_morse_s(spec, consts))
    return UNBOUNDED


def _check_level(spec, n, consts):
    if n < 0:
        raise LevelOutOfRangeError(f"level index must be >= 0, got {n}")
    count = bound_state_count(spec, consts)
    if n >= count:
        raise LevelOutOfRangeError(f"level {n} out of range: only {count} bound levels")


def epsilon_minus(
    spec: InteractionSpec, n: int, consts: PhysicalConstants = DEFAULT_CONSTANTS
) -> float:
    """Decoupled eigenvalue of the lower-partner problem at level n."""
    _check_level(spec, n, consts)
    hb = consts.hbar
    if isinstance(spec, MorseInteraction):
        return spec.D**2 - (spec.D - n * hb * spec.alpha) ** 2
    if isinstance(spec, CotInteraction):
        return (spec.A + n * hb * spec.alpha) ** 2 - spec.A**2
    return 2.0 * n * hb * consts.mass * spec.omega


def epsilon_plus(
    spec: InteractionSpec, n: int, consts: PhysicalConstants = DEFAULT_CONSTANTS
) -> float:
    """Decoupled eigenvalue of the upper-partner problem at level n: epsilon_minus at n + 1."""
    _check_level(spec, n, consts)
    return epsilon_minus(spec, n + 1, consts)


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
    pair_count = bound_state_count(spec, consts) - 1
    n = 0
    while len(lines) < max_levels and n < pair_count:
        eps = epsilon_plus(spec, n, consts)
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


def _phi_raw_morse(spec: MorseInteraction, n: int, x, consts) -> np.ndarray:
    s = _morse_s(spec, consts)
    w = spec.A + 1j * spec.B
    z = (2.0 * w / (consts.hbar * spec.alpha)) * np.exp(-spec.alpha * x)
    # arg(z) is constant in x, so the principal power never crosses a cut
    return z ** (s - n) * np.exp(-z / 2.0) * laguerre(n, 2 * s - 2 * n, z)


def _phi_raw_cot(spec: CotInteraction, n: int, x, consts) -> np.ndarray:
    s = spec.A / (consts.hbar * spec.alpha)
    w = spec.alpha * x - spec.a - 1j * spec.b
    sw = np.sin(w)
    if np.any(np.abs(sw) < SIN_POLE_CUTOFF):
        raise PoleError("cot eigenfunction sampled at a pole")
    y = 1j * np.cos(w) / sw
    # (sin w)^(s+n) stays on one branch while Re(sin w) > 0, i.e. inside one period
    return sw ** (s + n) * jacobi_any(n, -s - n, -s - n, y)


def _phi_raw_linear(spec: LinearInteraction, n: int, x, consts) -> np.ndarray:
    # both partner wells are (m omega x)^2 up to a constant, so level n of
    # either is the Hermite function H_n(xi) exp(-xi^2/2); H_n is written
    # through L_k^(-+1/2)(xi^2) with k = floor(n/2)
    xi = math.sqrt(consts.mass * spec.omega / consts.hbar) * x
    k, odd = divmod(n, 2)
    hermite = (-4.0) ** k * math.factorial(k) * laguerre(k, odd - 0.5, xi * xi)
    if odd:
        hermite = 2.0 * xi * hermite
    return hermite * np.exp(-0.5 * xi * xi)


def _phi_raw(spec: InteractionSpec, branch: str, n: int, x, consts) -> np.ndarray:
    """Unnormalized partner function at level n: branch "plus" is the upper partner, else the lower."""
    _check_level(spec, n, consts)
    if branch == "plus":
        # upper level n is lower level n + 1 of spec, range-checked on spec: the
        # partner's floor((D - hbar alpha)/(hbar alpha)) can round unlike floor(s) - 1
        _check_level(spec, n + 1, consts)
        spec = upper_partner(spec, consts)
    if isinstance(spec, MorseInteraction):
        return _phi_raw_morse(spec, n, x, consts)
    if isinstance(spec, CotInteraction):
        return _phi_raw_cot(spec, n, x, consts)
    return _phi_raw_linear(spec, n, x, consts)


def _ladder_constant(spec: InteractionSpec, n: int, consts: PhysicalConstants) -> complex:
    """kappa with (p - i f) phi-_{n+1} = kappa phi+_n in the raw closed forms."""
    if isinstance(spec, MorseInteraction):
        s = _morse_s(spec, consts)
        return -1j * consts.hbar * spec.alpha * (2.0 * s - n - 1.0)
    if isinstance(spec, CotInteraction):
        return complex(spec.A)
    return -2j * (n + 1) * math.sqrt(consts.hbar * consts.mass * spec.omega)


def _grid_normalize(values: np.ndarray, h: float) -> np.ndarray:
    norm = math.sqrt(float(np.sum(np.abs(values) ** 2)) * h)
    if norm == 0:
        raise ParameterError("cannot normalize an identically zero sample")
    return values / norm


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
    if level == -1:
        phi0 = _grid_normalize(_phi_raw(spec, "minus", 0, x, consts), h)
        return singlet_layout(SpinorSample(grid, phi0, np.zeros_like(phi0), level, "GDO"), model)
    if level < 1:
        raise LevelOutOfRangeError(f"spinor levels are -1 (singlet) or >= 1, got {level}")
    n = level - 1
    eps = epsilon_minus(spec, level, consts)
    energy = math.sqrt(mc2 * mc2 + consts.c**2 * eps)
    lower_part = _phi_raw(spec, "minus", level, x, consts)
    upper_part = _phi_raw(spec, "plus", n, x, consts)
    kappa = _ladder_constant(spec, n, consts)
    if model == "GDO":
        psi1 = lower_part
        psi2 = (consts.c * kappa / (energy + mc2)) * upper_part
    else:
        psi1 = (consts.c * kappa / (energy - mc2)) * upper_part
        psi2 = lower_part
    norm = math.sqrt(float(np.sum(np.abs(psi1) ** 2 + np.abs(psi2) ** 2)) * h)
    return SpinorSample(grid, psi1 / norm, psi2 / norm, level, model)


def singlet_layout(singlet: SpinorSample, model: str) -> SpinorSample:
    """A singlet sample laid out for the GDO or GJC layout; the GJC one swaps the components."""
    if model == singlet.model:
        return singlet
    return SpinorSample(singlet.grid, singlet.psi2, singlet.psi1, singlet.level, model)
