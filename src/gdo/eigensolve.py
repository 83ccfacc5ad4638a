"""In-repo eigenvalue oracles: Sturm counts and bisection, and inverse iteration.

These are deliberately self-contained so every closed-form level in the
package can be cross-checked against an independent numerical route.  A
symmetric tridiagonal level found some other way (an inverse-iteration
Rayleigh value with its residual) is certified by sturm_window_counts; the
lowest levels of a matrix with no such estimate come from the bisection of
symtridiag_eigenvalues.  Both count eigenvalues with the one stebz loop of
_sturm_counts.

Inverse iteration runs in one layout for one shift or many: the blocks
T - s_k I, each padded with identity rows to 2^m rows, are stacked along the
diagonal of one tridiagonal matrix with exactly zero couplings between them.
One cyclic-reduction factorization serves every shift, and the iterate keeps
that flat padded layout from one solve to the next.  The solve runs in the
dtype of the bands and shifts, so a real symmetric T with real shifts is
solved in float64.  stacked_inverse_iteration reports a breakdown or a stall
and leaves the remedy to its caller: inverse_iteration raises
SingularPivotError or ConvergenceError for its one shift, and the seeded
levels of verify fall back to bisection.  No shift is ever perturbed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .errors import ConvergenceError, DimensionError, DomainError, SingularPivotError
from .operators import OperatorMatrix, band_matvec

_EPS = float(np.finfo(np.float64).eps)
_SAFMIN = float(np.finfo(np.float64).tiny)
TINY_PIVOT = 1e-300
# the default tolerance and the iteration cap of both inverse iterations
ITERATION_TOL = 1e-8
ITERATION_MAX = 100


def _sturm_counts(d, e2, pivmin, shifts):
    """Eigenvalues <= each shift: the negative pivots of T - x I = L D L^T.

    e2[i] is the squared coupling of row i to row i - 1, with e2[0] = 0, so
    the infinite pivot before row 0 makes its pivot d[0] - x.  The recurrence
    of LAPACK stebz: pivot q_i = d_i - (e2_i / q_{i-1} + x).  A pivot in
    (-pivmin, pivmin] counts as negative and becomes -pivmin, so no pivot is
    ever zero, no division overflows and Python's float division never
    raises.  Plain Python floats, shifts outside and rows inside, so each
    shift costs n steps with no numpy call per row.
    """
    rows = list(zip(d.tolist(), e2.tolist()))
    floor = -pivmin
    below = []
    for x in shifts.tolist():
        pivot = math.inf
        count = 0
        for d_i, e2_i in rows:
            pivot = d_i - (e2_i / pivot + x)
            if pivot <= pivmin:
                count += 1
                if pivot > floor:
                    pivot = floor
        below.append(count)
    return np.array(below, dtype=np.int64)


def _cyclic_reduction_factor(sub, diag, sup, shifts):
    """Odd-even cyclic reduction of the T - s I stacked per shift; None on a breakdown.

    T is the n-row tridiagonal (sub, diag, sup) and shifts is 1-d.  Block k
    is T - shifts[k] I padded with identity rows to 2^m rows, the least power
    of two above n, with exactly zero couplings between blocks.  The identity
    row ending the last block is dropped and the stack padded with identity
    rows to 2^k - 1 rows, so every level has an odd size: its even rows are
    eliminated and its odd rows form the next level (Hockney, J. ACM 12
    (1965) 95; Buzbee, Golub & Nielson, SIAM J. Numer. Anal. 7 (1970) 627).
    Each block starts at a multiple of 2^m, so it meets the same arithmetic
    on every level as it would alone, and a zero coupling stays zero while
    the factors are finite.  Each level keeps its reciprocal pivots, its
    back-substitution weights and the multipliers that reduce a right-hand
    side, in the dtype of the bands and shifts.  Unpivoted: a pivot that is
    non-finite or below TINY_PIVOT in magnitude stops the factorization, and
    so does an overflow in any factor, caught without a floating-point warning.
    """
    n = diag.shape[0]
    width = 1 << n.bit_length()
    stacked = shifts.size * width
    size = (1 << (stacked - 1).bit_length()) - 1
    dtype = np.result_type(sub, diag, sup, shifts)
    # one spare entry holds the dropped identity row while the blocks are filled
    a = np.zeros(size + 1, dtype=dtype)
    b = np.ones(size + 1, dtype=dtype)
    c = np.zeros(size + 1, dtype=dtype)
    a[:stacked].reshape(-1, width)[:, 1:n] = sub
    b[:stacked].reshape(-1, width)[:, :n] = diag - shifts[:, None]
    c[:stacked].reshape(-1, width)[:, : n - 1] = sup
    a, b, c = a[:size], b[:size], c[:size]
    levels = []
    try:
        # an overflowing weight or reduced coefficient raises, and never warns
        with np.errstate(over="raise", invalid="raise"):
            while b.size:
                pivots = b[::2]
                if not (np.isfinite(pivots).all() and (np.abs(pivots) >= TINY_PIVOT).all()):
                    return None
                inv = 1.0 / pivots
                alpha = -a[1::2] * inv[:-1]
                gamma = -c[1::2] * inv[1:]
                levels.append((inv, a[::2] * inv, c[::2] * inv, alpha, gamma))
                b = b[1::2] + alpha * c[:-1:2] + gamma * a[2::2]
                a, c = alpha * a[:-1:2], gamma * c[2::2]
    except FloatingPointError:
        return None
    return levels


def _cyclic_reduction_solve(levels, f):
    """Solve with a factorization from _cyclic_reduction_factor, in its layout.

    f and the solution are flat arrays of 2^k entries, one more than the
    stack's rows; with K shifts, f[: K 2^m].reshape(K, 2^m) views block k as
    row k.  Pad rows and the entries past the last block are zero in f and
    solve to zero.
    """
    dtype = levels[0][0].dtype
    # the spare last entry is not a row of the stack
    f = f[:-1]
    reduced = []
    for _, _, _, alpha, gamma in levels:
        reduced.append(f)
        f = f[1::2] + alpha * f[:-1:2] + gamma * f[2::2]
    x = f
    for (inv, left, right, _, _), f in zip(reversed(levels), reversed(reduced)):
        # padded[1 : m + 1] is this level's solution: the coarser level fills
        # its odd rows, and the zero ends stand for the missing neighbours
        m = f.size
        padded = np.empty(m + 2, dtype=dtype)
        padded[0] = padded[m + 1] = 0.0
        padded[2:m:2] = x
        padded[1 : m + 1 : 2] = inv * f[::2] - left * padded[:m:2] - right * padded[2::2]
        x = padded[1 : m + 1]
    # the zero end padded[m + 1] is the spare entry again
    return padded[1:]


def _stebz_bounds(d, e):
    """The set-up of LAPACK stebz for diagonal d and couplings e.

    Returns the squared couplings e2 (e2[0] = 0), the pivot floor pivmin, the
    Gershgorin interval (gl, gu) and the absolute tolerance atol, the width
    below which a bracket counts as converged.
    """
    e2 = np.append(0.0, e * e)
    pivmin = _SAFMIN * max(1.0, float(np.max(e2)))
    radius = np.abs(np.append(e, 0.0)) + np.abs(np.append(0.0, e))
    gl = float(np.min(d - radius))
    gu = float(np.max(d + radius))
    atol = max(_EPS * max(abs(gl), abs(gu)), pivmin)
    return e2, pivmin, gl, gu, atol


def sturm_window_counts(diag, offdiag, centers, radii):
    """Eigenvalue counts at both ends of the windows center -+ rho, in one Sturm pass.

    rho = max(radius, 4 atol), where atol, eps times the Gershgorin bound on
    ||T||, is the absolute tolerance of symtridiag_eigenvalues.  The
    computed counts are exact for T with its entries moved by a few ulps
    (Kahan 1966; Demmel, Dhillon & Ren, ETNA 3 (1995) 116), so an eigenvalue
    within a few atol of a window end can count on either side, and a radius
    below rounding level puts both ends there.  Seeded exactly at one
    eigenvalue of each of 3000 random matrices (n <= 40), a floor of atol
    miscounted 31 of them, 2 atol 2 and 4 atol none.

    Returns (rho, below_lower, below_upper), where below_lower[i] counts the
    eigenvalues <= centers[i] - rho[i] and below_upper[i] those <=
    centers[i] + rho[i]; the window holds the k-th eigenvalue (from 0) and
    no other exactly when the two counts are k and k + 1.
    """
    d = np.asarray(diag, dtype=np.float64)
    e2, pivmin, _, _, atol = _stebz_bounds(d, np.asarray(offdiag, dtype=np.float64))
    center = np.asarray(centers, dtype=np.float64)
    rho = np.maximum(np.asarray(radii, dtype=np.float64), 4.0 * atol)
    below = _sturm_counts(d, e2, pivmin, np.concatenate([center - rho, center + rho]))
    return rho, below[: center.size], below[center.size :]


@dataclass(frozen=True)
class EigenResult:
    """An inverse-iteration eigenpair and its residual; converged says whether it reached tol."""

    eigenvalue: complex
    eigenvector: np.ndarray
    residual_norm: float
    iterations: int
    converged: bool


def symtridiag_eigenvalues(diag, offdiag, count=None) -> np.ndarray:
    """Lowest ``count`` eigenvalues of a real symmetric tridiagonal matrix, ascending.

    All of them when count is None.  Bisection on Sturm counts (Barth,
    Martin & Wilkinson, Numer. Math. 9 (1967) 386): each level keeps a
    bracket, starting from the Gershgorin interval, and every pass halves the
    bracket of each unconverged level at its midpoint by one Sturm count,
    independently of the other levels.  A level is done
    when its bracket is narrower than eps*||T|| or 2 eps times its magnitude,
    the default tolerances of LAPACK stebz; the midpoint is returned.
    Deterministic: identical inputs give bit-identical outputs.  Each shift
    costs n scalar steps, so the full spectrum costs O(n^2) Python work,
    about a second at n = 500; verify asks for a few levels only.
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

    e2, pivmin, gl, gu, atol = _stebz_bounds(d, e)
    lo = np.full(count, gl)
    hi = np.full(count, gu)
    levels = np.arange(count)
    while True:
        active = hi - lo > np.maximum(atol, 2.0 * _EPS * np.maximum(np.abs(lo), np.abs(hi)))
        if not active.any():
            # Sturm counts rise with the shift, so lo and hi are non-decreasing
            # in the level and the midpoints come out ascending
            return 0.5 * (lo + hi)
        mid = 0.5 * (lo[active] + hi[active])
        # more than k eigenvalues at or below the midpoint puts level k there or below
        above = _sturm_counts(d, e2, pivmin, mid) > levels[active]
        hi[active] = np.where(above, mid, hi[active])
        lo[active] = np.where(above, lo[active], mid)


def _start_vector(n: int) -> np.ndarray:
    # all-ones with a fixed ripple so no eigenvector is accidentally orthogonal
    v = 1.0 + 0.01 * np.sin(1.0 + np.arange(n))
    return v / np.linalg.norm(v)


def _row_vdots(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """np.vdot of each row pair of two (K, w) stacks, as a column."""
    # row times column per pair: matmul sums each row as np.dot sums a vector
    return (x.conj()[:, None, :] @ y[:, :, None])[:, 0]


def _row_norms(x: np.ndarray) -> np.ndarray:
    """The 2-norm of each row of a (K, w) stack as a real column, summed as np.linalg.norm sums."""
    if np.iscomplexobj(x):
        return np.sqrt(_row_vdots(x.real, x.real) + _row_vdots(x.imag, x.imag))
    return np.sqrt(_row_vdots(x, x))


def rayleigh_quotient(matrix: OperatorMatrix, v: np.ndarray) -> complex:
    """(v* M v) / (v* v) for any storage kind."""
    w = np.asarray(v, dtype=complex)
    if w.shape != (matrix.dim,):
        raise DimensionError(f"vector length {w.shape} does not match dim {matrix.dim}")
    nrm2 = np.vdot(w, w)
    if nrm2 == 0:
        raise DimensionError("rayleigh quotient of the zero vector")
    return complex(np.vdot(w, matrix.matvec(w)) / nrm2)


def stacked_inverse_iteration(
    bands, shifts, tol: float = ITERATION_TOL
) -> Optional[List[EigenResult]]:
    """Fixed-shift inverse iteration at every shift of one tridiagonal matrix, in one solve.

    bands is (sub, diag, sup); the solve runs in their dtype combined with
    the shifts', so real bands with real shifts stay in float64 and each
    eigenvector comes back in that dtype.  One factorization of the
    block-diagonal stack of the T - s_k I serves every iteration of every
    shift, and the iterate stays in the solve's layout: row k of its
    (K, 2^m) view is shift k's block.  Norms, Rayleigh values and residuals
    are one row-wise reduction each over that view, and T multiplies it
    through its bands padded with zeros to 2^m.  A block whose residual drops
    to tol keeps that iteration's values and is zeroed, so it solves for zero
    from then on.  Returns, in shift order, one EigenResult per shift,
    converged False for a shift still above tol after ITERATION_MAX
    iterations; [] for no shifts; or None when the factorization breaks down
    or the norm of a live block is not finite and positive: the iterate or
    its squared norm overflowed, 0 * inf at a block boundary made a NaN, or
    the squared norm underflowed to 0.  The caller chooses the remedy for a
    breakdown or a stall.
    """
    shifts = np.asarray(shifts).reshape(-1)
    if shifts.size == 0:
        return []
    sub, diag, sup = bands
    levels = _cyclic_reduction_factor(sub, diag, sup, shifts)
    if levels is None:
        return None
    n, count = diag.size, shifts.size
    width = 1 << n.bit_length()
    dtype = np.result_type(sub, diag, sup)
    tee = np.zeros(width - 1, dtype), np.zeros(width, dtype), np.zeros(width - 1, dtype)
    tee[0][: n - 1], tee[1][:n], tee[2][: n - 1] = sub, diag, sup
    # the solve's layout: 2^k entries, twice the first level's pivots
    x = np.zeros(2 * levels[0][0].size, dtype=levels[0][0].dtype)
    blocks = x[: count * width].reshape(count, width)
    blocks[:, :n] = _start_vector(n)
    live = np.ones((count, 1), dtype=bool)
    results: List[Optional[EigenResult]] = [None] * count

    def record(rows, iterations, converged):
        for k in np.flatnonzero(rows).tolist():
            vector = blocks[k, :n].copy()
            value, residual = complex(eigenvalues[k, 0]), float(residuals[k, 0])
            results[k] = EigenResult(value, vector, residual, iterations, converged)

    # an overflow shows as a non-finite norm, not as a warning
    with np.errstate(over="ignore", invalid="ignore"):
        for iteration in range(1, ITERATION_MAX + 1):
            x = _cyclic_reduction_solve(levels, x)
            blocks = x[: count * width].reshape(count, width)
            norms = _row_norms(blocks)
            # a converged block solved for zero: scaling it by one keeps it zero
            norms[~live] = 1.0
            if not (np.isfinite(norms).all() and norms.all()):
                return None
            # times the reciprocal, on the real and imaginary parts: what
            # numpy's complex division by a real norm computes, minus its cost
            parts = blocks.view(norms.dtype)
            parts *= 1.0 / norms
            mv = band_matvec(tee, blocks)
            eigenvalues = _row_vdots(blocks, mv)
            residuals = _row_norms(mv - eigenvalues * blocks)
            done = live & (residuals <= tol)
            if done.any():
                record(done, iteration, True)
                live &= ~done
                if not live.any():
                    return results
                blocks[done[:, 0]] = 0.0
    record(live, ITERATION_MAX, False)
    return results


def inverse_iteration(
    matrix: OperatorMatrix, shift: complex, tol: float = ITERATION_TOL
) -> EigenResult:
    """Converge to the eigenpair of a complex tridiagonal matrix nearest the shift.

    Fixed-shift iteration with a Rayleigh-quotient eigenvalue readout;
    convergence means the absolute residual ||M v - lambda v|| (unit v) drops
    below tol.  This is one stacked_inverse_iteration call with one block, in
    complex arithmetic since OperatorMatrix stores complex bands: T - s I,
    padded with identity rows to 2^m rows, is factored once by odd-even
    cyclic reduction and every iteration reuses the factorization.  A shift
    landing on an eigenvalue can make a pivot vanish or a factor, an iterate
    or its norm overflow; that breakdown raises SingularPivotError naming the
    shift, which is never perturbed and retried.  A shift still above tol
    after ITERATION_MAX iterations raises ConvergenceError.

    The reduction is unpivoted, like plain tridiagonal elimination, which is
    accurate for the diagonally dominant Schrodinger-style matrices this
    package builds; matrices whose shifted diagonal wanders through zero can
    stall at a solve-accuracy floor and end in ConvergenceError instead.
    """
    results = stacked_inverse_iteration(matrix.bands, np.array([shift]), tol)
    if results is None:
        raise SingularPivotError(f"tridiagonal elimination broke down at shift {shift}")
    [result] = results
    if not result.converged:
        raise ConvergenceError(
            f"inverse iteration at shift {shift} stalled: residual {result.residual_norm:.3e} "
            f"after {result.iterations} iterations (tol {tol:.1e})"
        )
    # the residual certificate of the matrix the caller holds, not of its padded bands
    v, value = result.eigenvector, result.eigenvalue
    residual = float(np.linalg.norm(matrix.matvec(v) - value * v))
    return EigenResult(value, v, residual, result.iterations, result.converged)
