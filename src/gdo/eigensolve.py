"""In-repo eigenvalue oracles: lowest-level Sturm bisection and complex inverse iteration.

These are deliberately self-contained so every closed-form level in the
package can be cross-checked against an independent numerical route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DimensionError, DomainError, SingularPivotError, UnsupportedError
from .operators import OperatorMatrix

_EPS = float(np.finfo(np.float64).eps)
_SAFMIN = float(np.finfo(np.float64).tiny)
# each pass cuts the distinct unconverged brackets into this many equal parts
# in total; a pass makes three numpy calls per row, each over all the cuts, so
# fewer cuts take more passes and more cuts make every call longer.  For four
# Morse levels on a 2-vCPU Xeon, 64, 128, 256, 512 and 1024 cuts took 41, 36,
# 35, 40 and 56 ms at n=1001 and 159, 136, 121, 143 and 201 ms at n=4000
SHIFTS_PER_PASS = 256
# rows per block of the unguarded pivot recurrence in _sturm_counts
STURM_BLOCK = 128
TINY_PIVOT = 1e-300


def _guarded_counts(d, e2, pivmin, shifts, q, below):
    """Add the negative pivots of rows d to below, starting from pivots q.

    The recurrence of LAPACK stebz: pivot q_i = d_i - (e2_i / q_{i-1} + x).
    A pivot in (-pivmin, pivmin] counts as negative and becomes -pivmin, so
    no division overflows.  q and below are updated in place.
    """
    neg = np.empty(shifts.size, dtype=bool)
    for d_i, e2_i in zip(d.tolist(), e2.tolist()):
        np.divide(e2_i, q, out=q)
        q += shifts
        np.subtract(d_i, q, out=q)
        np.less_equal(q, pivmin, out=neg)
        below += neg
        np.minimum(q, -pivmin, out=q, where=neg)


def _sturm_counts(d, e2, pivmin, shifts):
    """Eigenvalues <= each shift: the negative pivots of T - x I = L D L^T.

    e2[i] is the squared coupling of row i to row i - 1, with e2[0] = 0, so
    the infinite pivot before row 0 makes its pivot d[0] - x.  Rows run in
    blocks without the stebz guard, as in LAPACK dlaneg (Marques, Riedy &
    Vomel, SIAM J. Sci. Comput. 28 (2006) 1613).  A block whose pivots all
    exceed pivmin in magnitude is one the guard would not have changed, so
    its signs are counted as they stand; any other block, one with a tiny,
    zero or NaN pivot, is redone from its incoming pivots by _guarded_counts.
    The counts are those of the guarded recurrence, bit for bit.
    """
    below = np.zeros(shifts.size, dtype=np.int64)
    q = np.full(shifts.size, np.inf)
    block = np.empty((min(STURM_BLOCK, d.size), shifts.size))
    with np.errstate(divide="ignore", invalid="ignore"):
        for start in range(0, d.size, STURM_BLOCK):
            d_rows = d[start : start + STURM_BLOCK]
            e2_rows = e2[start : start + STURM_BLOCK]
            rows = block[: d_rows.size]
            pivot = q
            for row, d_i, e2_i in zip(rows, d_rows.tolist(), e2_rows.tolist()):
                np.divide(e2_i, pivot, out=row)
                row += shifts
                np.subtract(d_i, row, out=row)
                pivot = row
            # NaN fails the comparison and sends the block to the guarded loop
            if np.abs(rows).min() > pivmin:
                below += np.count_nonzero(rows < 0, axis=0)
                q[:] = pivot
            else:
                _guarded_counts(d_rows, e2_rows, pivmin, shifts, q, below)
    return below


def _cyclic_reduction_factor(sub, diag, sup):
    """Odd-even cyclic reduction of a tridiagonal matrix; None if a pivot is tiny.

    The system is padded with identity rows to 2^k - 1 rows, so every level
    has an odd size: its even rows are eliminated and its odd rows form the
    next level (Hockney, J. ACM 12 (1965) 95; Buzbee, Golub & Nielson, SIAM
    J. Numer. Anal. 7 (1970) 627).  Each level keeps its reciprocal pivots,
    its back-substitution weights and the multipliers that reduce a
    right-hand side.  Unpivoted: a pivot that is non-finite or below
    TINY_PIVOT in magnitude stops the factorization.
    """
    n = diag.shape[0]
    size = (1 << n.bit_length()) - 1
    a = np.zeros(size, dtype=complex)
    b = np.ones(size, dtype=complex)
    c = np.zeros(size, dtype=complex)
    a[1:n], b[:n], c[: n - 1] = sub, diag, sup
    levels = []
    while b.size:
        pivots = b[::2]
        if not (np.all(np.isfinite(pivots)) and np.all(np.abs(pivots) >= TINY_PIVOT)):
            return None
        inv = 1.0 / pivots
        alpha = -a[1::2] * inv[:-1]
        gamma = -c[1::2] * inv[1:]
        levels.append((inv, a[::2] * inv, c[::2] * inv, alpha, gamma))
        a, b, c = alpha * a[:-1:2], b[1::2] + alpha * c[:-1:2] + gamma * a[2::2], gamma * c[2::2]
    return levels


def _cyclic_reduction_solve(levels, rhs):
    """Solve with a factorization from _cyclic_reduction_factor."""
    f = np.zeros(2 * levels[0][0].size - 1, dtype=complex)
    f[: rhs.size] = rhs
    reduced = []
    for _, _, _, alpha, gamma in levels:
        reduced.append(f)
        f = f[1::2] + alpha * f[:-1:2] + gamma * f[2::2]
    x = f
    for (inv, left, right, _, _), f in zip(reversed(levels), reversed(reduced)):
        # padded[1 : m + 1] is this level's solution: the coarser level fills
        # its odd rows, and the zero ends stand for the missing neighbours
        m = f.size
        padded = np.zeros(m + 2, dtype=complex)
        padded[2:m:2] = x
        padded[1 : m + 1 : 2] = inv * f[::2] - left * padded[:m:2] - right * padded[2::2]
        x = padded[1 : m + 1]
    return x[: rhs.size]


@dataclass(frozen=True)
class EigenResult:
    """One converged eigenpair with its certificate."""

    eigenvalue: complex
    eigenvector: np.ndarray
    residual_norm: float
    iterations: int
    converged: bool


def symtridiag_eigenvalues(diag, offdiag, count=None) -> np.ndarray:
    """Lowest ``count`` eigenvalues of a real symmetric tridiagonal matrix, ascending.

    All of them when count is None.  Multisection on Sturm counts (Barth,
    Martin & Wilkinson, Numer. Math. 9 (1967) 386): each level keeps a
    bracket, starting from the Gershgorin interval, and every pass counts the
    eigenvalues below split points in all unconverged brackets at once.  A
    level is done when its bracket is narrower than eps*||T|| or 2 eps times
    its magnitude, the default tolerances of LAPACK stebz; the midpoint is
    returned.  Deterministic: identical inputs give bit-identical outputs.
    """
    d = np.asarray(diag, dtype=np.float64)
    e = np.asarray(offdiag, dtype=np.float64)
    if d.ndim != 1 or d.size < 1:
        raise DimensionError("diagonal must be a non-empty 1-d array")
    if e.shape != (d.size - 1,):
        raise DimensionError(
            f"offdiagonal length {e.shape} does not match diagonal length {d.size}"
        )
    n = d.size
    if count is None:
        count = n
    elif not 0 <= count <= n:
        raise DimensionError(f"requested {count} eigenvalues of a {n}x{n} matrix")
    # an infinite entry makes the Gershgorin brackets unbounded
    if not (np.all(np.isfinite(d)) and np.all(np.isfinite(e))):
        raise DomainError("tridiagonal matrix has non-finite entries")

    e2 = np.append(0.0, e * e)
    pivmin = _SAFMIN * max(1.0, float(np.max(e2)))
    radius = np.abs(np.append(e, 0.0)) + np.abs(np.append(0.0, e))
    gl = float(np.min(d - radius))
    gu = float(np.max(d + radius))
    atol = max(_EPS * max(abs(gl), abs(gu)), pivmin)
    lo = np.full(count, gl)
    hi = np.full(count, gu)
    levels = np.arange(count)
    while True:
        width = hi - lo
        active = width > np.maximum(atol, 2.0 * _EPS * np.maximum(np.abs(lo), np.abs(hi)))
        if not active.any():
            # the updates below keep lo and hi non-decreasing in the level,
            # so the midpoints come out ascending
            return 0.5 * (lo + hi)
        # levels still sharing the bracket of the level below add no shifts
        fresh = active & np.append(True, (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1]))
        parts = max(2, SHIFTS_PER_PASS // int(np.count_nonzero(fresh)))
        fractions = np.arange(1, parts) / parts
        shifts = (lo[fresh, None] + width[fresh, None] * fractions).ravel()
        below = _sturm_counts(d, e2, pivmin, shifts)
        # level j lies above every shift counting <= j eigenvalues and at or
        # below every shift counting more; running extremes over the shifts
        # ordered by count give both bounds for all levels at once
        order = np.argsort(below, kind="stable")
        ordered = shifts[order]
        lower = np.maximum.accumulate(ordered)
        upper = np.minimum.accumulate(ordered[::-1])[::-1]
        split = np.searchsorted(below[order], levels, side="right")
        has_lower = split > 0
        has_upper = split < shifts.size
        lo[has_lower] = np.maximum(lo[has_lower], lower[split[has_lower] - 1])
        hi[has_upper] = np.minimum(hi[has_upper], upper[split[has_upper]])


def _start_vector(n: int) -> np.ndarray:
    # all-ones with a fixed ripple so no eigenvector is accidentally orthogonal
    v = 1.0 + 0.01 * np.sin(1.0 + np.arange(n))
    return (v / np.linalg.norm(v)).astype(complex)


def rayleigh_quotient(matrix: OperatorMatrix, v: np.ndarray) -> complex:
    """(v* M v) / (v* v) for any storage kind."""
    w = np.asarray(v, dtype=complex)
    if w.shape != (matrix.dim,):
        raise DimensionError(f"vector length {w.shape} does not match dim {matrix.dim}")
    nrm2 = np.vdot(w, w)
    if nrm2 == 0:
        raise DimensionError("rayleigh quotient of the zero vector")
    return complex(np.vdot(w, matrix.matvec(w)) / nrm2)


def inverse_iteration(
    matrix: OperatorMatrix,
    shift: complex,
    tol: float = 1e-8,
    max_iter: int = 100,
) -> EigenResult:
    """Converge to the eigenpair of a complex tridiagonal matrix nearest the shift.

    Fixed-shift iteration with a Rayleigh-quotient eigenvalue readout;
    convergence means the absolute residual ||M v - lambda v|| (unit v) drops
    below tol.  The shifted matrix is factored once by odd-even cyclic
    reduction and every iteration reuses the factorization.  A shift landing
    on an eigenvalue makes a pivot vanish or an iterate overflow; the shift is
    then nudged by a 1e-12-scale perturbation, growing tenfold over at most
    three retries.

    The reduction is unpivoted, like plain tridiagonal elimination, which is
    accurate for the diagonally dominant Schrodinger-style matrices this
    package builds; matrices whose shifted diagonal wanders through zero can
    stall at a solve-accuracy floor and end in ConvergenceError instead.
    """
    if matrix.bandwidth != 1:
        raise UnsupportedError("inverse iteration expects a tridiagonal matrix")
    sub, diag, sup = matrix.bands
    n = matrix.dim
    scale = float(max(np.max(np.abs(diag)), np.max(np.abs(sub), initial=0.0), 1.0))

    for attempt in range(4):
        sigma = shift + (1e-12 * scale * 10.0**(attempt - 1) if attempt else 0.0)
        levels = _cyclic_reduction_factor(sub, diag - sigma, sup)
        if levels is None:
            continue
        v = _start_vector(n)
        eigenvalue = complex(shift)
        residual = math.inf
        for iteration in range(1, max_iter + 1):
            x = _cyclic_reduction_solve(levels, v)
            if not np.all(np.isfinite(x)):
                break
            v = x / np.linalg.norm(x)
            mv = matrix.matvec(v)
            eigenvalue = complex(np.vdot(v, mv))
            residual = float(np.linalg.norm(mv - eigenvalue * v))
            if residual <= tol:
                return EigenResult(eigenvalue, v, residual, iteration, True)
        else:
            raise ConvergenceError(
                f"inverse iteration at shift {shift} stalled: residual {residual:.3e} "
                f"after {max_iter} iterations (tol {tol:.1e})"
            )
    raise SingularPivotError(
        f"tridiagonal elimination kept breaking down near shift {shift} after 3 retries"
    )
