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
solved in float64.  Each shift is fixed, except that a block converging
slowly may move its shift once to its Rayleigh value, at the cost of one
factorization of the stack (_refresh_pays has the rule).  A refresh whose
factorization breaks down is dropped and the block keeps its shift.
stacked_inverse_iteration reports a breakdown of the shifts it was given, or
a stall, and leaves the remedy to its caller: inverse_iteration raises
SingularPivotError or ConvergenceError for its one shift, and the seeded
levels of verify fall back to bisection.  A breakdown never perturbs a shift.

Each iteration costs one solve plus a few passes over the iterate, so the
passes are kept few and copy-free.  The factorization checks the pivots of
all its levels once, after the last one.  Its solve is planned once
(_plan): every level's buffers and views are made before the first solve,
and a refresh's factorization takes them over (_replan), so a solve is only
the arithmetic, written in place, and each level's solution lands where the
finer level reads it.  T multiplies the whole stack as three 1-d
products over the flat layout, with its bands tiled once per call and zero
across block edges, and the norms are sums of squares over the float view
of the iterate.  Every shift starts from the same vector, a Weyl sequence: a
smooth start is nearly orthogonal to the odd levels of a symmetric well,
which then take 2 to 3 more iterations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .errors import ConvergenceError, DimensionError, DomainError, SingularPivotError
from .operators import OperatorMatrix

_EPS = float(np.finfo(np.float64).eps)
_SAFMIN = float(np.finfo(np.float64).tiny)
TINY_PIVOT = 1e-300
# the default tolerance and the iteration cap of both inverse iterations
ITERATION_TOL = 1e-8
ITERATION_MAX = 100
# when a block's shift moves to its Rayleigh value; see _refresh_pays
REFRESH_GAP = 0.1
REFRESH_ITERATIONS = 2


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
    zero, non-finite or below TINY_PIVOT in magnitude refuses the stack, and
    so does an overflow in any factor, caught without a floating-point
    warning.  The pivots of all levels are checked once, after the last
    level; a bad pivot only spoils the levels after it, which are discarded
    with it, so the stacks refused and the levels kept are those of a check
    before every level.  Returns the levels, finest first, each as (inv,
    left, right, alpha, gamma).
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
    levels, pivots = [], []
    try:
        # a zero pivot, an overflowing reciprocal, weight or reduced
        # coefficient raises, and never warns
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            while b.size:
                pivots.append(b[::2])
                inv = 1.0 / pivots[-1]
                alpha = -a[1::2] * inv[:-1]
                gamma = -c[1::2] * inv[1:]
                levels.append((inv, a[::2] * inv, c[::2] * inv, alpha, gamma))
                b = b[1::2] + alpha * c[:-1:2] + gamma * a[2::2]
                a, c = alpha * a[:-1:2], gamma * c[2::2]
    except FloatingPointError:
        return None
    # a zero pivot raised above; the NaN, infinite and tiny ones are caught here
    pivots = np.concatenate(pivots)
    if not (np.isfinite(pivots).all() and np.abs(pivots).min() >= TINY_PIVOT):
        return None
    return levels


class _Plan:
    """The solve with one factorization's levels, planned once.

    The solve reads rhs and returns solution, flat arrays of 2^k entries, one
    more than the stack's rows: with K shifts, rhs[: K 2^m].reshape(K, 2^m)
    views block k as row k.  Pad rows and the entries past the last block are
    zero in rhs and solve to zero.  reduce and substitute hold, step by step,
    the factors and the views of the plan's buffers that the solve reads and
    writes, so a solve makes no array and no slice.  A plain class, since a
    NamedTuple adds about 0.3 ms to the import.
    """

    __slots__ = ("rhs", "solution", "reduce", "substitute")

    def __init__(self, rhs, solution, reduce, substitute):
        self.rhs = rhs
        self.solution = solution
        self.reduce = reduce
        self.substitute = substitute


def _plan(levels) -> _Plan:
    """Every buffer and view of the solve with these levels, made once."""
    dtype = levels[0][0].dtype
    # 2^k - 1 rows, twice the first level's pivots less one
    size = 2 * levels[0][0].size - 1
    rhs = np.zeros(size + 1, dtype=dtype)
    # one scratch buffer holds every level's products in turn
    scratch = np.empty(size // 2 + 1, dtype=dtype)
    # padded[1 : size + 1] is the solution, and padded[:: 2^l] is level l's
    # solution between two zero ends, which stand for the missing neighbours:
    # a level's odd rows are the next level's solution, in place
    padded = np.zeros(size + 2, dtype=dtype)
    # the spare last entry of rhs is not a row of the stack
    f, p = rhs[:-1], padded
    reduce, substitute = [], []
    for inv, left, right, alpha, gamma in levels:
        g = np.empty(alpha.size, dtype=dtype)
        reduce.append((alpha, f[:-1:2], f[1::2], gamma, f[2::2], g, scratch[: g.size]))
        m = f.size
        rows = p[1 : m + 1 : 2]
        substitute.append((inv, f[::2], rows, left, p[:m:2], right, p[2::2], scratch[: rows.size]))
        f, p = g, p[::2]
    substitute.reverse()
    # the zero end padded[size + 1] is the spare entry of the solution
    return _Plan(rhs, padded[1:], reduce, substitute)


def _replan(plan: _Plan, levels) -> _Plan:
    """The plan for levels of plan's stack and dtype, on plan's buffers.

    The new plan takes over the buffers and views with what they hold, the
    right-hand side included, and swaps in the new factors; plan must not
    be solved with again.
    """
    reduce = [
        (alpha, lo, mid, gamma, hi, g, tmp)
        for (_, lo, mid, _, hi, g, tmp), (_, _, _, alpha, gamma) in zip(plan.reduce, levels)
    ]
    substitute = [
        (inv, f, rows, left, lo, right, hi, tmp)
        for (_, f, rows, _, lo, _, hi, tmp), (inv, left, right, _, _) in zip(
            plan.substitute, reversed(levels)
        )
    ]
    return _Plan(plan.rhs, plan.solution, reduce, substitute)


def _cyclic_reduction_solve(plan: _Plan) -> np.ndarray:
    """Solve for plan.rhs; the solution is plan.solution, overwritten by the next solve.

    Each level sums in place and writes its other products into scratch, in
    the order f[1::2] + alpha f[:-1:2] + gamma f[2::2] spells out.  The
    factors keep their order and no product overwrites its own operand:
    numpy's complex multiply can round a * b and b * a differently.
    """
    for alpha, lo, mid, gamma, hi, g, tmp in plan.reduce:
        np.multiply(alpha, lo, out=g)
        g += mid
        g += np.multiply(gamma, hi, out=tmp)
    for inv, f, rows, left, lo, right, hi, tmp in plan.substitute:
        np.multiply(inv, f, out=rows)
        rows -= np.multiply(left, lo, out=tmp)
        rows -= np.multiply(right, hi, out=tmp)
    return plan.solution


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
    """An inverse-iteration eigenpair and its residual; converged says whether it reached tol.

    shift is the shift of the factorization that produced the pair: the one
    asked for, or the Rayleigh value it was refreshed to.
    """

    eigenvalue: complex
    eigenvector: np.ndarray
    residual_norm: float
    iterations: int
    converged: bool
    shift: complex


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
    # the Weyl sequence frac(j phi) - 1/2, phi the fractional part of the
    # golden ratio: deterministic with no RNG, and without the symmetry of a
    # smooth start.  1 + 0.01 sin(1 + j) is orthogonal to every odd level of
    # a symmetric well up to rounding (overlap 6e-14 at n = 1001), so those
    # levels grew out of rounding noise 2 to 3 iterations late; this one
    # overlaps each of the 8 lowest harmonic levels by 2.8e-4 or more.
    # LAPACK stein starts from random vectors for the same reason
    v = np.arange(n) * 0.6180339887498949
    v -= np.floor(v) + 0.5
    return v / np.linalg.norm(v)


def _row_vdots(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """np.vdot of each row pair of two (K, w) stacks, as a column."""
    # row times column per pair: matmul sums each row as np.dot sums a vector
    return (x.conj()[:, None, :] @ y[:, :, None])[:, 0]


def _refresh_pays(residual, previous, value, shift, tol) -> bool:
    """Whether moving a block's shift to its Rayleigh value should save iterations.

    A fixed shift s converges linearly, at the ratio |lam - s| / |lam' - s|
    of its distances to the nearest eigenvalue and the next one, which the
    observed ratio q of two successive residuals estimates.  The Rayleigh
    value rho is far closer to lam than s once the residual r is small next
    to |rho - s|, and a shift at rho converges in an iteration or two
    (Parlett, The Symmetric Eigenvalue Problem, ch. 4; Ipsen, SIAM Rev. 39
    (1997) 254).  The refresh costs a factorization, about two iterations,
    so it is made when r < REFRESH_GAP |rho - s| and, with 0 < q < 1, the
    fixed shift still needs more than REFRESH_ITERATIONS iterations, that is
    log(tol / r) / log(q) > REFRESH_ITERATIONS.
    """
    ratio = residual / previous
    return (
        residual < REFRESH_GAP * abs(value - shift)
        and 0.0 < ratio < 1.0
        and math.log(tol / residual) / math.log(ratio) > REFRESH_ITERATIONS
    )


def stacked_inverse_iteration(
    bands, shifts, tol: float = ITERATION_TOL
) -> Optional[List[EigenResult]]:
    """Inverse iteration at every shift of one tridiagonal matrix, in one solve.

    bands is (sub, diag, sup); the solve runs in their dtype combined with
    the shifts', so real bands with real shifts stay in float64 and each
    eigenvector comes back in that dtype.  One factorization of the
    block-diagonal stack of the T - s_k I serves the iterations of every
    shift, and the iterate stays in the solve's layout: row k of its
    (K, 2^m) view is shift k's block.  Every block starts from
    _start_vector.  Norms, Rayleigh values and residuals are one row-wise
    reduction each over that view, and T multiplies the flat stack through
    its bands tiled once per call, zero across block edges and on pad rows,
    so each block meets the arithmetic it would meet alone.

    Each shift is fixed, with at most one refresh: after an iteration, a
    block whose refresh has not been tried and that _refresh_pays moves its
    shift to its Rayleigh value rho, real in a real solve, and the stack is
    factored again with the other shifts as they were.  A refresh
    whose factorization breaks down is dropped, not retried, and the block
    iterates on with its old factorization; when blocks refreshing together
    break down, each is tried alone, so a block refreshes exactly when it
    would alone.  The reported value stays v^H T v and the residual stays
    ||T v - rho v||, computed directly.

    A block whose residual drops to tol keeps that iteration's values and is
    zeroed, so it solves for zero from then on.  Returns, in shift order, one
    EigenResult per shift, converged False for a shift still above tol after
    ITERATION_MAX iterations; [] for no shifts; or None when the first
    factorization breaks down or the norm of a live block is not finite and
    positive: the iterate or its squared norm overflowed, 0 * inf at a block
    boundary made a NaN, or the squared norm underflowed to 0.  The caller
    chooses the remedy for a breakdown or a stall; no breakdown perturbs a
    shift.
    """
    shifts = np.asarray(shifts).reshape(-1)
    if shifts.size == 0:
        return []
    sub, diag, sup = bands
    levels = _cyclic_reduction_factor(sub, diag, sup, shifts)
    if levels is None:
        return None
    plan = _plan(levels)
    n, count = diag.size, shifts.size
    width = 1 << n.bit_length()
    stacked = count * width
    dtype = np.result_type(sub, diag, sup)
    # T's bands tiled over the stack, zero across block edges and on pad
    # rows: row i of the flat layout couples to row i - 1 through lower[i - 1]
    # and to row i + 1 through upper[i]
    lower, middle, upper = (np.zeros((count, width), dtype) for _ in range(3))
    lower[:, : n - 1], middle[:, :n], upper[:, : n - 1] = sub, diag, sup
    lower, middle, upper = lower.reshape(-1)[:-1], middle.reshape(-1), upper.reshape(-1)[:-1]
    # the iterate lives in the plan's right-hand side, in the solve's layout
    plan.rhs[:stacked].reshape(count, width)[:, :n] = _start_vector(n)
    solve_dtype = plan.rhs.dtype
    real = np.finfo(solve_dtype).dtype
    scratch = np.empty(stacked, dtype=solve_dtype)
    live = np.ones((count, 1), dtype=bool)
    results: List[Optional[EigenResult]] = [None] * count
    # the blocks whose refresh is still to be tried, and every block's
    # residual at the iteration before
    untried = list(range(count))
    previous = [math.inf] * count

    def row_norms(rows):
        # one row-times-column product per row of the real view: no copies
        # of .real and .imag, and faster than einsum at these sizes
        parts = rows.view(real)
        return np.sqrt(parts[:, None, :] @ parts[:, :, None])[:, 0]

    def record(rows, iterations, converged):
        for k in np.flatnonzero(rows).tolist():
            vector = blocks[k, :n].copy()
            value, residual = complex(eigenvalues[k, 0]), float(residuals[k, 0])
            results[k] = EigenResult(
                value, vector, residual, iterations, converged, complex(shifts[k])
            )

    def refactor(moves):
        # factor again with each (block, value) of moves as that block's
        # shift; on a breakdown keep the old factorization and return False
        nonlocal plan, shifts
        trial = shifts.astype(solve_dtype)
        for k, value in moves:
            trial[k] = value
        levels = _cyclic_reduction_factor(sub, diag, sup, trial)
        if levels is None:
            return False
        # the unit iterate in plan.rhs is the next right-hand side
        plan, shifts = _replan(plan, levels), trial
        return True

    # an overflow shows as a non-finite norm, not as a warning
    with np.errstate(over="ignore", invalid="ignore"):
        for iteration in range(1, ITERATION_MAX + 1):
            flat = plan.rhs[:stacked]
            blocks = flat.reshape(count, width)
            solution = _cyclic_reduction_solve(plan)[:stacked].reshape(count, width)
            norms = row_norms(solution)
            # a converged block solved for zero: scaling it by one keeps it zero
            norms[~live] = 1.0
            if not (np.isfinite(norms).all() and norms.all()):
                return None
            # the unit iterate, written over the right-hand side: times the
            # reciprocal, on the real and imaginary parts, which is what
            # numpy's complex division by a real norm computes, minus its cost
            np.multiply(solution.view(real), 1.0 / norms, out=blocks.view(real))
            # T times every block: three products over the flat layout, in
            # the order of band_matvec
            mv = middle * flat
            mv[:-1] += np.multiply(upper, flat[1:], out=scratch[:-1])
            mv[1:] += np.multiply(lower, flat[:-1], out=scratch[:-1])
            mv = mv.reshape(count, width)
            eigenvalues = _row_vdots(blocks, mv)
            # the residual T v - rho v, formed in mv
            mv -= np.multiply(eigenvalues, blocks, out=scratch.reshape(count, width))
            residuals = row_norms(mv)
            done = live & (residuals <= tol)
            if done.any():
                record(done, iteration, True)
                live &= ~done
                if not live.any():
                    return results
                blocks[done[:, 0]] = 0.0
            if untried:
                untried = [k for k in untried if live[k, 0]]
                current = residuals[:, 0].tolist()
                values, now = eigenvalues[:, 0].tolist(), shifts.tolist()
                pays = [
                    k
                    for k in untried
                    if _refresh_pays(current[k], previous[k], values[k], now[k], tol)
                ]
                previous = current
                if pays:
                    # each block tries its refresh once; a joint breakdown
                    # tries each block alone, so a block's refresh is kept
                    # exactly when it would be kept alone
                    untried = [k for k in untried if k not in pays]
                    moves = [(k, values[k]) for k in pays]
                    if not refactor(moves) and len(moves) > 1:
                        for move in moves:
                            refactor([move])
    record(live, ITERATION_MAX, False)
    return results


def inverse_iteration(
    matrix: OperatorMatrix, shift: complex, tol: float = ITERATION_TOL
) -> EigenResult:
    """Converge to the eigenpair of a complex tridiagonal matrix nearest the shift.

    Fixed-shift iteration, refreshed at most once to the Rayleigh value,
    with a Rayleigh-quotient eigenvalue readout; convergence means the
    absolute residual ||M v - lambda v|| (unit v) drops below tol.  This is
    one stacked_inverse_iteration call with one block, in complex arithmetic
    since OperatorMatrix stores complex bands: T - s I, padded with identity
    rows to 2^m rows, is factored by odd-even cyclic reduction and every
    iteration reuses the factorization, until a slowly converging shift moves
    to its Rayleigh value and T is factored once more there; the result's
    shift says which factorization produced it.  A shift landing on an
    eigenvalue can make a pivot vanish or a factor, an iterate or its norm
    overflow; that breakdown raises SingularPivotError naming the shift,
    which is never perturbed and retried.  A refresh that breaks down is
    dropped and the iteration goes on at the given shift.  A shift still
    above tol after ITERATION_MAX iterations raises ConvergenceError.

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
    return EigenResult(value, v, residual, result.iterations, result.converged, result.shift)
