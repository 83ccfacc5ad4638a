"""Discretized operators: ladder pair, two-component Hamiltonians, decoupled forms.

Conventions fixed here and relied on everywhere else:

* momentum is the antisymmetric central first difference times -i*hbar, with
  Dirichlet truncation at both ends, so the matrix is exactly Hermitian;
* the second-derivative operator is the three-point Laplacian with implicit
  zeros one step outside the grid (all grid points are active unknowns);
* two-component matrices are stored as four tridiagonal blocks acting on the
  stacked vector (psi1 stacked over psi2).
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
    LinearInteraction,
    MorseInteraction,
    CotInteraction,
    PhysicalConstants,
    eval_f,
    eval_f_prime,
)


class OperatorMatrix:
    """Complex square matrix in one of two storage kinds: tridiagonal or block.

    Tridiagonal storage keeps (sub, diag, sup); block storage keeps four
    tridiagonal OperatorMatrix instances for the stacked two-component
    ordering.  Dense conversion is meant for modest dimensions (tests),
    matvec works at any size.
    """

    __slots__ = ("dim", "label", "_kind", "_sub", "_diag", "_sup", "_blocks")

    def __init__(self):
        raise TypeError("use OperatorMatrix.tridiagonal / .two_component")

    @classmethod
    def _blank(cls):
        return object.__new__(cls)

    @classmethod
    def tridiagonal(cls, sub, diag, sup, label: str = "") -> "OperatorMatrix":
        self = cls._blank()
        d = np.asarray(diag, dtype=complex)
        lo = np.asarray(sub, dtype=complex)
        hi = np.asarray(sup, dtype=complex)
        if lo.shape != (d.size - 1,) or hi.shape != (d.size - 1,):
            raise DimensionError("off-diagonals must have length dim - 1")
        self.dim = d.size
        self.label = label
        self._kind = "tridiagonal"
        self._sub, self._diag, self._sup = lo, d, hi
        self._blocks = None
        return self

    @classmethod
    def two_component(cls, blocks, label: str = "") -> "OperatorMatrix":
        (b11, b12), (b21, b22) = blocks
        n = b11.dim
        for blk in (b11, b12, b21, b22):
            if blk._kind != "tridiagonal" or blk.dim != n:
                raise DimensionError("two-component storage needs four tridiagonal blocks of equal size")
        self = cls._blank()
        self.dim = 2 * n
        self.label = label
        self._kind = "block"
        self._blocks = ((b11, b12), (b21, b22))
        self._sub = self._diag = self._sup = None
        return self

    @property
    def bands(self):
        if self._kind != "tridiagonal":
            raise UnsupportedError(f"{self.label or 'matrix'} is not tridiagonal")
        return self._sub, self._diag, self._sup

    def scaled(self, factor) -> "OperatorMatrix":
        if self._kind == "tridiagonal":
            return OperatorMatrix.tridiagonal(
                factor * self._sub, factor * self._diag, factor * self._sup, self.label
            )
        (b11, b12), (b21, b22) = self._blocks
        return OperatorMatrix.two_component(
            ((b11.scaled(factor), b12.scaled(factor)), (b21.scaled(factor), b22.scaled(factor))),
            self.label,
        )

    def matvec(self, v: np.ndarray) -> np.ndarray:
        w = np.asarray(v, dtype=complex)
        if w.shape != (self.dim,):
            raise DimensionError(f"vector length {w.shape} does not match dim {self.dim}")
        if self._kind == "tridiagonal":
            out = self._diag * w
            out[:-1] += self._sup * w[1:]
            out[1:] += self._sub * w[:-1]
            return out
        (b11, b12), (b21, b22) = self._blocks
        n = self.dim // 2
        v1, v2 = w[:n], w[n:]
        return np.concatenate([b11.matvec(v1) + b12.matvec(v2), b21.matvec(v1) + b22.matvec(v2)])

    def to_dense(self) -> np.ndarray:
        if self._kind == "tridiagonal":
            out = np.diag(self._diag)
            out += np.diag(self._sup, 1)
            out += np.diag(self._sub, -1)
            return out
        (b11, b12), (b21, b22) = self._blocks
        return np.block(
            [[b11.to_dense(), b12.to_dense()], [b21.to_dense(), b22.to_dense()]]
        )

    def max_abs_diff(self, other: "OperatorMatrix") -> float:
        """Max-norm of the difference, structure-aware so 2N x 2N never densifies."""
        if self.dim != other.dim or self._kind != other._kind:
            raise DimensionError("matrices differ in dimension or storage kind")
        if self._kind == "tridiagonal":
            return max(
                float(np.max(np.abs(self._sub - other._sub), initial=0.0)),
                float(np.max(np.abs(self._diag - other._diag))),
                float(np.max(np.abs(self._sup - other._sup), initial=0.0)),
            )
        return max(
            a.max_abs_diff(b)
            for row_a, row_b in zip(self._blocks, other._blocks)
            for a, b in zip(row_a, row_b)
        )


@dataclass(frozen=True)
class EffectivePotentialSample:
    """Both partner potentials f^2 -/+ hbar f' sampled on one grid."""

    grid: Grid
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
        label="p",
    )


def effective_potentials(
    spec: InteractionSpec, grid: Grid, consts: PhysicalConstants = DEFAULT_CONSTANTS
) -> EffectivePotentialSample:
    """Partner potentials from f and f', evaluated pointwise on the grid."""
    x = grid.points.astype(complex)
    f = eval_f(spec, x, consts)
    fp = eval_f_prime(spec, x, consts)
    return EffectivePotentialSample(grid, f * f - consts.hbar * fp, f * f + consts.hbar * fp)


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
    elif isinstance(spec, LinearInteraction):
        mw = consts.mass * spec.omega
        sq = (mw * x) ** 2 + 0j
        vm = sq - hb * mw * spec.sign
        vp = sq + hb * mw * spec.sign
    else:
        raise UnsupportedError(f"unknown interaction {spec!r}")
    return EffectivePotentialSample(grid, np.asarray(vm, complex), np.asarray(vp, complex))


def assemble_ladder(
    spec: InteractionSpec, grid: Grid, consts: PhysicalConstants = DEFAULT_CONSTANTS
):
    """Lowering/raising pair (p - i f, p + i f) as tridiagonal matrices."""
    x = grid.points.astype(complex)
    f = eval_f(spec, x, consts)
    n = grid.n_points
    coef = consts.hbar / (2.0 * grid.spacing)
    sub = np.full(n - 1, 1j * coef)
    sup = np.full(n - 1, -1j * coef)
    lower = OperatorMatrix.tridiagonal(sub, -1j * f, sup, label="A")
    raise_ = OperatorMatrix.tridiagonal(sub.copy(), 1j * f, sup.copy(), label="A#")
    return lower, raise_


def const_diag_block(value: complex, n: int, label: str) -> OperatorMatrix:
    zeros = np.zeros(n - 1, dtype=complex)
    return OperatorMatrix.tridiagonal(zeros, np.full(n, value, dtype=complex), zeros.copy(), label)


def assemble_dirac(
    spec: InteractionSpec, grid: Grid, consts: PhysicalConstants = DEFAULT_CONSTANTS
) -> OperatorMatrix:
    """Two-component Hamiltonian [[mc^2, c(p + i f)], [c(p - i f), -mc^2]]."""
    lower, raise_ = assemble_ladder(spec, grid, consts)
    mc2 = consts.mass * consts.c**2
    n = grid.n_points
    return OperatorMatrix.two_component(
        (
            (const_diag_block(mc2, n, "+mc2"), raise_.scaled(consts.c)),
            (lower.scaled(consts.c), const_diag_block(-mc2, n, "-mc2")),
        ),
        label="H",
    )


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
    return OperatorMatrix.tridiagonal(off, 2.0 * k + vv, off.copy(), label="schrodinger")
