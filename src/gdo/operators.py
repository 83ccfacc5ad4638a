"""Discretized operators: ladder pair, two-component Hamiltonians, decoupled forms.

Conventions fixed here and relied on everywhere else:

* momentum is the antisymmetric central first difference times -i*hbar, with
  Dirichlet truncation at both ends, so the matrix is exactly Hermitian;
  momentum_operator owns this stencil and ladder_pair reuses its bands;
* the second-derivative operator is the three-point Laplacian with implicit
  zeros one step outside the grid (all grid points are active unknowns);
  assemble_schrodinger owns this stencil;
* one-component operators are OperatorMatrix, stored as their three bands;
* two-component matrices are TwoLevel: they act on the stacked vector (psi1
  stacked over psi2) and are stored as [[delta I, U], [L, -delta I]] with
  OperatorMatrix blocks U and L, the one shape of the oscillator Hamiltonian
  and of both two-level models.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError
from .interactions import (
    DEFAULT_CONSTANTS,
    Grid,
    InteractionSpec,
    PhysicalConstants,
    eval_f,
    refuse_overflow,
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
    """Complex tridiagonal matrix, stored as its bands (sub, diag, sup)."""

    __slots__ = ("dim", "bands")

    def __init__(self, sub, diag, sup):
        d = np.asarray(diag, dtype=complex)
        lo = np.asarray(sub, dtype=complex)
        hi = np.asarray(sup, dtype=complex)
        if lo.shape != (d.size - 1,) or hi.shape != (d.size - 1,):
            raise DimensionError("off-diagonals must have length dim - 1")
        self.dim = d.size
        self.bands = (lo, d, hi)

    def scaled(self, factor) -> "OperatorMatrix":
        sub, diag, sup = self.bands
        return OperatorMatrix(factor * sub, factor * diag, factor * sup)

    def matvec(self, v: np.ndarray) -> np.ndarray:
        w = np.asarray(v, dtype=complex)
        if w.shape != (self.dim,):
            raise DimensionError(f"vector length {w.shape} does not match dim {self.dim}")
        return band_matvec(self.bands, w)

    def max_abs_diff(self, other: "OperatorMatrix") -> float:
        """Max-norm of the difference, band by band."""
        if self.dim != other.dim:
            raise DimensionError("matrices differ in dimension")
        pairs = zip(self.bands, other.bands)
        return max(float(np.max(np.abs(a - b), initial=0.0)) for a, b in pairs)


class TwoLevel:
    """[[delta I, upper], [lower, -delta I]] on the stacked two-component vector.

    upper and lower are OperatorMatrix blocks of equal size, so the 2N x 2N
    matrix is never densified.
    """

    __slots__ = ("dim", "delta", "upper", "lower")

    def __init__(self, delta, upper: OperatorMatrix, lower: OperatorMatrix):
        if upper.dim != lower.dim:
            raise DimensionError("a two-level matrix needs two blocks of equal size")
        self.dim = 2 * upper.dim
        self.delta = complex(delta)
        self.upper = upper
        self.lower = lower

    def matvec(self, v: np.ndarray) -> np.ndarray:
        w = np.asarray(v, dtype=complex)
        if w.shape != (self.dim,):
            raise DimensionError(f"vector length {w.shape} does not match dim {self.dim}")
        n = self.upper.dim
        v1, v2 = w[:n], w[n:]
        return np.concatenate(
            [self.delta * v1 + self.upper.matvec(v2), self.lower.matvec(v1) - self.delta * v2]
        )

    def max_abs_diff(self, other: "TwoLevel") -> float:
        """Max-norm of the difference, block by block."""
        if self.dim != other.dim:
            raise DimensionError("matrices differ in dimension")
        return max(
            abs(self.delta - other.delta),
            self.upper.max_abs_diff(other.upper),
            self.lower.max_abs_diff(other.lower),
        )


@dataclass(frozen=True)
class EffectivePotentialSample:
    """Both partner potentials f^2 -/+ hbar f' sampled on one grid."""

    v_minus: np.ndarray
    v_plus: np.ndarray


def momentum_operator(grid: Grid, consts: PhysicalConstants = DEFAULT_CONSTANTS) -> OperatorMatrix:
    """-i hbar d/dx as the central first difference; exactly Hermitian."""
    n = grid.n_points
    coef = consts.hbar / (2.0 * grid.spacing)
    return OperatorMatrix(
        np.full(n - 1, 1j * coef),
        np.zeros(n, dtype=complex),
        np.full(n - 1, -1j * coef),
    )


def partner_potentials(
    f, fp, x, consts: PhysicalConstants = DEFAULT_CONSTANTS
) -> EffectivePotentialSample:
    """Partner potentials f^2 -/+ hbar f' from samples of f and f' at the points x.

    A window where f^2 overflows is refused by a ParameterError that names it.
    """
    square = refuse_overflow("f^2", x, lambda: f * f)
    return EffectivePotentialSample(square - consts.hbar * fp, square + consts.hbar * fp)


def effective_potentials(
    spec: InteractionSpec, grid: Grid, consts: PhysicalConstants = DEFAULT_CONSTANTS
) -> EffectivePotentialSample:
    """Partner potentials from f and f', evaluated pointwise on the grid."""
    return partner_potentials(*sample_coupling(spec, grid, consts), grid.points, consts)


def closed_form_potentials(
    spec: InteractionSpec, grid: Grid, consts: PhysicalConstants = DEFAULT_CONSTANTS
) -> EffectivePotentialSample:
    """Partner potentials from the per-family expanded expressions.

    Independent of the family's coupling method; agreement with
    effective_potentials is one of the verification checks.
    """
    vm, vp = spec.closed_form_potentials(grid.points, consts)
    return EffectivePotentialSample(np.asarray(vm, complex), np.asarray(vp, complex))


def ladder_pair(f, grid: Grid, consts: PhysicalConstants = DEFAULT_CONSTANTS):
    """Lowering/raising pair (p - i f, p + i f) from f sampled on the grid."""
    sub, _, sup = momentum_operator(grid, consts).bands
    lower = OperatorMatrix(sub, -1j * f, sup)
    return lower, OperatorMatrix(sub, 1j * f, sup)


def assemble_ladder(
    spec: InteractionSpec, grid: Grid, consts: PhysicalConstants = DEFAULT_CONSTANTS
):
    """Lowering/raising pair (p - i f, p + i f) as tridiagonal matrices."""
    return ladder_pair(eval_f(spec, grid.points, consts), grid, consts)


def dirac_matrix(ladder, consts: PhysicalConstants = DEFAULT_CONSTANTS) -> TwoLevel:
    """Two-component Hamiltonian [[mc^2, c(p + i f)], [c(p - i f), -mc^2]] from a ladder pair."""
    lower, raise_ = ladder
    return TwoLevel(consts.mass * consts.c**2, raise_.scaled(consts.c), lower.scaled(consts.c))


def assemble_dirac(
    spec: InteractionSpec, grid: Grid, consts: PhysicalConstants = DEFAULT_CONSTANTS
) -> TwoLevel:
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
    return OperatorMatrix(off, 2.0 * k + vv, off)
