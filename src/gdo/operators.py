"""Discretized operators: ladder pair, two-component Hamiltonians, decoupled forms.

Conventions fixed here and relied on everywhere else:

* momentum is the antisymmetric central first difference times -i*hbar, with
  Dirichlet truncation at both ends, so the matrix is exactly Hermitian;
  momentum_operator owns this stencil and ladder_pair reuses its bands;
* the second-derivative operator is the three-point Laplacian with implicit
  zeros one step outside the grid (all grid points are active unknowns);
  assemble_schrodinger owns this stencil;
* two-component matrices act on the stacked vector (psi1 stacked over psi2)
  and are stored as [[delta I, U], [L, -delta I]] with tridiagonal U and L,
  the one shape of the oscillator Hamiltonian and of both two-level models.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, PoleError, UnsupportedError
from .interactions import (
    DEFAULT_CONSTANTS,
    SIN_POLE_CUTOFF,
    Grid,
    InteractionSpec,
    MorseInteraction,
    CotInteraction,
    PhysicalConstants,
    eval_f,
    sample_coupling,
)


def band_matvec(bands, w: np.ndarray) -> np.ndarray:
    """Tridiagonal (sub, diag, sup) times w, or times each row of a stack of vectors.

    The product keeps the dtype the bands and w give it, so real bands on a
    real w stay real.
    """
    sub, diag, sup = bands
    out = diag * w
    out[..., :-1] += sup * w[..., 1:]
    out[..., 1:] += sub * w[..., :-1]
    return out


class OperatorMatrix:
    """Complex square matrix in one of two storage kinds: tridiagonal or two-level.

    Tridiagonal storage keeps the bands (sub, diag, sup).  Two-level storage
    keeps (delta, upper, lower) for [[delta I, upper], [lower, -delta I]] on
    the stacked two-component vector, upper and lower being tridiagonal
    OperatorMatrix instances of equal size.
    """

    __slots__ = ("dim", "_bands", "_two_level")

    def __init__(self):
        raise TypeError("use OperatorMatrix.tridiagonal / .two_level")

    @classmethod
    def tridiagonal(cls, sub, diag, sup) -> "OperatorMatrix":
        d = np.asarray(diag, dtype=complex)
        lo = np.asarray(sub, dtype=complex)
        hi = np.asarray(sup, dtype=complex)
        if lo.shape != (d.size - 1,) or hi.shape != (d.size - 1,):
            raise DimensionError("off-diagonals must have length dim - 1")
        self = object.__new__(cls)
        self.dim = d.size
        self._bands = (lo, d, hi)
        self._two_level = None
        return self

    @classmethod
    def two_level(cls, delta, upper, lower) -> "OperatorMatrix":
        if upper._bands is None or lower._bands is None or upper.dim != lower.dim:
            raise DimensionError("two-level storage needs two tridiagonal blocks of equal size")
        self = object.__new__(cls)
        self.dim = 2 * upper.dim
        self._bands = None
        self._two_level = (complex(delta), upper, lower)
        return self

    @property
    def bands(self):
        if self._bands is None:
            raise UnsupportedError("a two-level matrix is not tridiagonal")
        return self._bands

    def scaled(self, factor) -> "OperatorMatrix":
        sub, diag, sup = self.bands
        return OperatorMatrix.tridiagonal(factor * sub, factor * diag, factor * sup)

    def matvec(self, v: np.ndarray) -> np.ndarray:
        w = np.asarray(v, dtype=complex)
        if w.shape != (self.dim,):
            raise DimensionError(f"vector length {w.shape} does not match dim {self.dim}")
        if self._bands is not None:
            return band_matvec(self._bands, w)
        delta, upper, lower = self._two_level
        n = upper.dim
        v1, v2 = w[:n], w[n:]
        return np.concatenate([delta * v1 + upper.matvec(v2), lower.matvec(v1) - delta * v2])

    def max_abs_diff(self, other: "OperatorMatrix") -> float:
        """Max-norm of the difference, structure-aware so 2N x 2N never densifies."""
        if self.dim != other.dim or (self._bands is None) != (other._bands is None):
            raise DimensionError("matrices differ in dimension or storage kind")
        if self._bands is not None:
            pairs = zip(self._bands, other._bands)
            return max(float(np.max(np.abs(a - b), initial=0.0)) for a, b in pairs)
        (d1, u1, l1), (d2, u2, l2) = self._two_level, other._two_level
        return max(abs(d1 - d2), u1.max_abs_diff(u2), l1.max_abs_diff(l2))


@dataclass(frozen=True)
class EffectivePotentialSample:
    """Both partner potentials f^2 -/+ hbar f' sampled on one grid."""

    v_minus: np.ndarray
    v_plus: np.ndarray


def momentum_operator(grid: Grid, consts: PhysicalConstants = DEFAULT_CONSTANTS) -> OperatorMatrix:
    """-i hbar d/dx as the central first difference; exactly Hermitian."""
    n = grid.n_points
    coef = consts.hbar / (2.0 * grid.spacing)
    return OperatorMatrix.tridiagonal(
        np.full(n - 1, 1j * coef),
        np.zeros(n, dtype=complex),
        np.full(n - 1, -1j * coef),
    )


def partner_potentials(
    f, fp, consts: PhysicalConstants = DEFAULT_CONSTANTS
) -> EffectivePotentialSample:
    """Partner potentials f^2 -/+ hbar f' from samples of f and f'."""
    return EffectivePotentialSample(f * f - consts.hbar * fp, f * f + consts.hbar * fp)


def effective_potentials(
    spec: InteractionSpec, grid: Grid, consts: PhysicalConstants = DEFAULT_CONSTANTS
) -> EffectivePotentialSample:
    """Partner potentials from f and f', evaluated pointwise on the grid."""
    return partner_potentials(*sample_coupling(spec, grid, consts), consts)


def closed_form_potentials(
    spec: InteractionSpec, grid: Grid, consts: PhysicalConstants = DEFAULT_CONSTANTS
) -> EffectivePotentialSample:
    """Partner potentials from the per-family expanded expressions.

    Independent of eval_f / eval_f_prime; agreement with effective_potentials
    is one of the verification checks.
    """
    x = grid.points
    hb = consts.hbar
    if isinstance(spec, MorseInteraction):
        w = spec.A + 1j * spec.B
        e1 = np.exp(-spec.alpha * x)
        base = spec.D**2 + w * w * e1 * e1
        vm = base - (2.0 * spec.D + hb * spec.alpha) * w * e1
        vp = base - (2.0 * spec.D - hb * spec.alpha) * w * e1
    elif isinstance(spec, CotInteraction):
        s = np.sin(spec.alpha * x - spec.a - 1j * spec.b)
        if np.any(np.abs(s) < SIN_POLE_CUTOFF):
            raise PoleError("closed-form cot potential evaluated at a pole")
        cosec2 = 1.0 / (s * s)
        vm = spec.A * (spec.A - hb * spec.alpha) * cosec2 - spec.A**2
        vp = spec.A * (spec.A + hb * spec.alpha) * cosec2 - spec.A**2
    else:
        mw = consts.mass * spec.omega
        sq = (mw * x) ** 2 + 0j
        vm = sq - hb * mw
        vp = sq + hb * mw
    return EffectivePotentialSample(np.asarray(vm, complex), np.asarray(vp, complex))


def ladder_pair(f, grid: Grid, consts: PhysicalConstants = DEFAULT_CONSTANTS):
    """Lowering/raising pair (p - i f, p + i f) from f sampled on the grid."""
    sub, _, sup = momentum_operator(grid, consts).bands
    lower = OperatorMatrix.tridiagonal(sub, -1j * f, sup)
    return lower, OperatorMatrix.tridiagonal(sub, 1j * f, sup)


def assemble_ladder(
    spec: InteractionSpec, grid: Grid, consts: PhysicalConstants = DEFAULT_CONSTANTS
):
    """Lowering/raising pair (p - i f, p + i f) as tridiagonal matrices."""
    return ladder_pair(eval_f(spec, grid.points.astype(complex), consts), grid, consts)


def dirac_matrix(ladder, consts: PhysicalConstants = DEFAULT_CONSTANTS) -> OperatorMatrix:
    """Two-component Hamiltonian [[mc^2, c(p + i f)], [c(p - i f), -mc^2]] from a ladder pair."""
    lower, raise_ = ladder
    return OperatorMatrix.two_level(
        consts.mass * consts.c**2, raise_.scaled(consts.c), lower.scaled(consts.c)
    )


def assemble_dirac(
    spec: InteractionSpec, grid: Grid, consts: PhysicalConstants = DEFAULT_CONSTANTS
) -> OperatorMatrix:
    """Two-component Hamiltonian [[mc^2, c(p + i f)], [c(p - i f), -mc^2]]."""
    return dirac_matrix(assemble_ladder(spec, grid, consts), consts)


def assemble_schrodinger(
    v: np.ndarray, grid: Grid, consts: PhysicalConstants = DEFAULT_CONSTANTS
) -> OperatorMatrix:
    """-hbar^2 d^2/dx^2 + v with the three-point Laplacian and ghost-point zeros."""
    vv = np.asarray(v, dtype=complex)
    if vv.shape != (grid.n_points,):
        raise DimensionError(
            f"potential has length {vv.shape}, grid has {grid.n_points} points"
        )
    h = grid.spacing
    k = consts.hbar**2 / (h * h)
    off = np.full(grid.n_points - 1, -k, dtype=complex)
    return OperatorMatrix.tridiagonal(off, 2.0 * k + vv, off)
