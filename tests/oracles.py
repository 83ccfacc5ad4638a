"""Independent routes the tests compare gdo against; no gdo command uses them.

The polynomial series are the explicit finite sums, independent of the
recurrences in gdo.polynomials.  phi_raw samples one closed-form partner
function on its own, the upper partner as the lower partner of
spec.upper_partner(consts), where gdo.spectra builds a level's two components from
one shared prefactor; analytic_phi grid-normalizes it.  rayleigh_quotient
measures how well a vector solves a matrix, and dense builds a matrix column
by column from its matvec.
exact_count is the Sturm count in exact rational arithmetic, which the
float counts of gdo.eigensolve and the certified windows of gdo.verify must
match.
ComplexDepthMorse and ComplexOmegaLinear are negative controls: couplings
one parameter outside the paper's class, which every check must be able to
tell apart from it.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from gdo import DEFAULT_CONSTANTS, CotInteraction, LinearInteraction, MorseInteraction
from gdo.polynomials import jacobi, laguerre
from gdo.spectra import _check_level, _grid_normalize


class ComplexDepthMorse(MorseInteraction):
    """Morse with a complex depth D: f = D - (A + iB) e^(-alpha x).

    Its levels D^2 - (D - n hbar alpha)^2 are complex, and no real theta
    meets f(x + i hbar theta) = conj f(x): at the family's theta the two
    differ by 2i Im D everywhere.  __post_init__ skips the parameter checks,
    which refuse a complex D.
    """

    def __post_init__(self):
        pass


class ComplexOmegaLinear(LinearInteraction):
    """The complex harmonic oscillator f = m omega x with complex omega, levels 2 n hbar m omega.

    Davies, Proc. R. Soc. Lond. A 455 (1999) 585.  At the family's theta = 0
    the condition reads 2 m |Im omega| |x|.  __post_init__ skips the
    parameter checks, which refuse a complex omega.
    """

    def __post_init__(self):
        pass


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


def _lower_morse(spec, n: int, x, consts) -> np.ndarray:
    s = spec.D / (consts.hbar * spec.alpha)
    z = (2.0 * (spec.A + 1j * spec.B) / (consts.hbar * spec.alpha)) * np.exp(-spec.alpha * x)
    with np.errstate(over="ignore", invalid="ignore"):
        phi = z ** (s - n) * np.exp(-z / 2.0) * laguerre(n, 2 * s - 2 * n, z)
        bad = ~np.isfinite(phi)
        if bad.any():
            # z^(s-n) e^(-z/2) in log space where the product over- or underflows
            zb = z[bad]
            phi[bad] = np.exp((s - n) * np.log(zb) - zb / 2.0) * laguerre(n, 2 * s - 2 * n, zb)
    return phi


def _lower_cot(spec, n: int, x, consts) -> np.ndarray:
    s = spec.A / (consts.hbar * spec.alpha)
    w = spec.alpha * x - spec.a - 1j * spec.b
    sw = np.sin(w)
    return sw ** (s + n) * jacobi(n, -s - n, -s - n, 1j * np.cos(w) / sw)


def _lower_linear(spec, n: int, x, consts) -> np.ndarray:
    xi = math.sqrt(consts.mass * spec.omega / consts.hbar) * x
    k, odd = divmod(n, 2)
    hermite = (-4.0) ** k * math.factorial(k) * laguerre(k, odd - 0.5, xi * xi)
    if odd:
        hermite = 2.0 * xi * hermite
    return hermite * np.exp(-0.5 * xi * xi)


def phi_raw(spec, branch: str, n: int, x, consts=DEFAULT_CONSTANTS) -> np.ndarray:
    """Unnormalized partner function at level n: branch "plus" is the upper partner, else the lower.

    The upper partner's level n is the lower partner's level n of
    spec.upper_partner(consts), range-checked as level n + 1 of spec: the partner's
    floor((D - hbar alpha)/(hbar alpha)) can round unlike floor(s) - 1.
    """
    _check_level(spec, n, consts)
    if branch == "plus":
        _check_level(spec, n + 1, consts)
        spec = spec.upper_partner(consts)
    if isinstance(spec, MorseInteraction):
        return _lower_morse(spec, n, x, consts)
    if isinstance(spec, CotInteraction):
        return _lower_cot(spec, n, x, consts)
    return _lower_linear(spec, n, x, consts)


def analytic_phi(spec, branch: str, n: int, grid, consts=DEFAULT_CONSTANTS) -> np.ndarray:
    """Closed-form partner function ("minus" or "plus") sampled on the grid, grid-normalized."""
    return _grid_normalize(phi_raw(spec, branch, n, grid.points, consts), grid.spacing)


def rayleigh_quotient(matrix, v) -> complex:
    """(v* M v) / (v* v) for a gdo.OperatorMatrix or a gdo.TwoLevel."""
    w = np.asarray(v, dtype=complex)
    return complex(np.vdot(w, matrix.matvec(w)) / np.vdot(w, w))


def dense(matrix) -> np.ndarray:
    """A gdo.OperatorMatrix or gdo.TwoLevel as a dense array, one matvec per unit vector; for modest dimensions."""
    return np.column_stack([matrix.matvec(unit) for unit in np.eye(matrix.dim)])


def exact_count(d, e, x):
    """Eigenvalues <= x of the tridiagonal (e, d, e), exactly: the inertia of T - x I = L D L^T.

    Every float64 is a rational, so the pivots q_i = d_i - x - e_{i-1}^2 /
    q_{i-1} are kept as Fractions, with no rounding and no pivmin.  A zero
    pivot stands for T - (x + 0) I, whose pivot there is a negative
    infinitesimal: it counts, and the next pivot is +infinity, unless its
    coupling is zero.
    """
    x = Fraction(x)
    count, pivot = 0, None
    for i, d_i in enumerate(np.asarray(d).tolist()):
        square = Fraction(float(e[i - 1])) ** 2 if i else 0
        if pivot == 0 and square:
            # the pivot after a negative infinitesimal one: +infinity
            pivot = None
            continue
        pivot = Fraction(d_i) - x - (square / pivot if pivot else 0)
        count += pivot <= 0
    return count
