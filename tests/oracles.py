"""Independent routes the tests compare gdo against; no gdo command uses them.

The polynomial series are the explicit finite sums, independent of the
recurrences in gdo.polynomials.  analytic_phi samples a closed-form partner
function on its own, rayleigh_quotient measures how well a vector solves a
matrix, and dense builds a matrix column by column from its matvec.
cyclic_reduction_solve is the per-level solve that gdo.eigensolve plans once
per factorization; the planned solve must match it bit for bit.
"""

from __future__ import annotations

import numpy as np

from gdo import DEFAULT_CONSTANTS
from gdo.spectra import _grid_normalize, _phi_raw


def binomial_general(w, m: int):
    """C(w, m) for arbitrary complex w and non-negative integer m, as a finite product."""
    out = 1.0 + 0.0j
    for i in range(1, m + 1):
        out *= (w - m + i) / i
    return out


def laguerre_series(n: int, k, z):
    """L_n^k by its explicit sum: sum_j (-1)^j C(n+k, n-j) z^j / j!."""
    zz = np.asarray(z, dtype=complex)
    total = np.zeros_like(zz)
    fact = 1.0
    for j in range(n + 1):
        if j > 0:
            fact *= j
        total = total + (-1) ** j * binomial_general(n + k, n - j) * zz**j / fact
    return total if np.ndim(z) else complex(total)


def jacobi_series(n: int, a, b, y):
    """P_n^(a,b) by the finite hypergeometric sum.

    sum_j C(n+a, n-j) C(n+b, j) ((y-1)/2)^j ((y+1)/2)^(n-j); total for every
    parameter value, including those where the recurrence divides by zero.
    """
    yy = np.asarray(y, dtype=complex)
    lo = (yy - 1.0) / 2.0
    hi = (yy + 1.0) / 2.0
    total = np.zeros_like(yy)
    for j in range(n + 1):
        total = total + (
            binomial_general(n + a, n - j) * binomial_general(n + b, j) * lo**j * hi ** (n - j)
        )
    return total if np.ndim(y) else complex(total)


def analytic_phi(spec, branch: str, n: int, grid, consts=DEFAULT_CONSTANTS) -> np.ndarray:
    """Closed-form partner function ("minus" or "plus") sampled on the grid, grid-normalized."""
    return _grid_normalize(_phi_raw(spec, branch, n, grid.points, consts), grid.spacing)


def rayleigh_quotient(matrix, v) -> complex:
    """(v* M v) / (v* v) for any storage kind of gdo.OperatorMatrix."""
    w = np.asarray(v, dtype=complex)
    return complex(np.vdot(w, matrix.matvec(w)) / np.vdot(w, w))


def dense(matrix) -> np.ndarray:
    """The matrix as a dense array, one matvec per unit vector; for modest dimensions."""
    return np.column_stack([matrix.matvec(unit) for unit in np.eye(matrix.dim)])


def cyclic_reduction_solve(levels, f):
    """Solve with the (inv, left, right, alpha, gamma) levels of a cyclic-reduction factorization.

    f and the solution are flat arrays of 2^k entries, one more than the
    stack's rows; with K shifts, f[: K 2^m].reshape(K, 2^m) views block k as
    row k.  Pad rows and the entries past the last block are zero in f and
    solve to zero.  Every level's slices, padded arrays and temporaries are
    made afresh on each call.
    """
    dtype = levels[0][0].dtype
    # the spare last entry is not a row of the stack
    f = f[:-1]
    # each level sums in place and writes its other products into scratch,
    # in the order f[1::2] + alpha f[:-1:2] + gamma f[2::2] spells out.  The
    # factors keep their order and no product overwrites its own operand:
    # numpy's complex multiply can round a * b and b * a differently
    scratch = np.empty(f.size // 2 + 1, dtype=dtype)
    reduced = []
    for _, _, _, alpha, gamma in levels:
        reduced.append(f)
        g = alpha * f[:-1:2]
        g += f[1::2]
        g += np.multiply(gamma, f[2::2], out=scratch[: g.size])
        f = g
    x = f
    for (inv, left, right, _, _), f in zip(reversed(levels), reversed(reduced)):
        # padded[1 : m + 1] is this level's solution: the coarser level fills
        # its odd rows, and the zero ends stand for the missing neighbours
        m = f.size
        padded = np.empty(m + 2, dtype=dtype)
        padded[0] = padded[m + 1] = 0.0
        padded[2:m:2] = x
        rows = padded[1 : m + 1 : 2]
        tmp = scratch[: rows.size]
        np.multiply(inv, f[::2], out=rows)
        rows -= np.multiply(left, padded[:m:2], out=tmp)
        rows -= np.multiply(right, padded[2::2], out=tmp)
        x = padded[1 : m + 1]
    # the zero end padded[m + 1] is the spare entry again
    return padded[1:]
