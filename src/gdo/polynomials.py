"""Associated Laguerre and Jacobi polynomials for complex arguments and parameters.

Both are evaluated by their standard three-term recurrences, the one route
the closed forms use; the bound-state formulas only need degrees below ~20,
so double precision is plenty.  The Laguerre recurrence divides by m + 1
only, so any upper parameter k is admissible.  The Jacobi recurrence
divides by 2(m+1)(m+1+a+b)(2m+a+b) at step m, so it needs every such factor
away from zero.  The cot eigenfunctions take a = b = -s - n with s > 0,
which keeps |m+1+a+b| >= n + 2s and |2m+a+b| >= 2s + 2 at every step.
"""

from __future__ import annotations

import numpy as np


def _check_degree(n):
    if not isinstance(n, (int, np.integer)) or n < 0:
        raise ValueError(f"polynomial degree must be a non-negative integer, got {n!r}")


def laguerre(n: int, k, z):
    """Associated Laguerre polynomial L_n^k evaluated by recurrence.

    Parameters
    ----------
    n : int
        degree, n >= 0
    k : float or complex
        upper parameter; any value is admissible
    z : complex scalar or ndarray
        evaluation points

    Returns
    -------
    complex scalar or ndarray
        L_n^k(z), matching the shape of z

    """
    _check_degree(n)
    zz = np.asarray(z, dtype=complex)
    prev = np.ones_like(zz)
    if n == 0:
        return prev if np.ndim(z) else complex(prev)
    cur = 1.0 + k - zz
    for m in range(1, n):
        prev, cur = cur, ((2 * m + 1 + k - zz) * cur - (m + k) * prev) / (m + 1)
    return cur if np.ndim(z) else complex(cur)


def jacobi(n: int, a, b, y):
    """Jacobi polynomial P_n^(a,b) evaluated by the standard recurrence.

    Parameters
    ----------
    n : int
        degree, n >= 0
    a, b : float or complex
        parameters; each factor m+1+a+b and 2m+a+b, m = 1..n-1, must stay
        away from zero (see the module docstring)
    y : complex scalar or ndarray
        evaluation points

    Returns
    -------
    complex scalar or ndarray

    """
    _check_degree(n)
    yy = np.asarray(y, dtype=complex)
    prev = np.ones_like(yy)
    if n == 0:
        return prev if np.ndim(y) else complex(prev)
    cur = (a - b) / 2.0 + (1.0 + (a + b) / 2.0) * yy
    for m in range(1, n):
        # computing P_{m+1}; the division is by 2(m+1)(m+a+b+1)(2m+a+b)
        f2 = 2 * m + a + b
        c1 = 2 * (m + 1) * (m + 1 + (a + b)) * f2
        c2 = (f2 + 1) * (a * a - b * b)
        c3 = f2 * (f2 + 1) * (f2 + 2)
        c4 = 2 * (m + a) * (m + b) * (f2 + 2)
        prev, cur = cur, ((c2 + c3 * yy) * cur - c4 * prev) / c1
    return cur if np.ndim(y) else complex(cur)
