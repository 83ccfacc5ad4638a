"""Coupling families f(x) of the generalized Dirac oscillator and their metric-shift checks.

The oscillator couples through a single function f(x), possibly complex on the
real axis.  Each family carries a real shift parameter theta such that moving
the argument to x + i*hbar*theta turns f into its complex conjugate; that
substitution rule is what makes the two-component Hamiltonian similar to its
own adjoint, so the whole verification story starts here.

Every fact that depends on the family is a method of its class:

* coupling(x, y, consts, derivative): f at the points x + i y, and f' when
  asked (else None), with x a real array and y real (one value, or an array
  like x).  Every sample is taken this way, since the paper's shift x -> x +
  i hbar theta keeps the points on a horizontal line, so f and f' come from
  real transcendentals: Morse from one real exp(-alpha x) times the constant
  (A + iB) e^(-i alpha y), which refuses by name a window where it
  overflows (one where only f^2 overflows is refused where f^2 is formed,
  by refuse_overflow); cot from sin and cos of u = alpha x - a and cosh
  and sinh of v = alpha y - b, which give sin w and cos w;
* theta(consts), the metric shift, and condition_window(consts), the scale k
  and centre x0 of the conjugation-shift window;
* hermitian_equivalent(), the real coupling f(x + i hbar theta/2);
  upper_partner(consts), whose lower well is this one's upper well plus a
  constant by shape invariance (Cooper, Khare & Sukhatme, Phys. Rep. 251
  (1995) 267); negated(), the coupling -f in the family's own parameters;
* closed_form_potentials(x, consts), the wells f^2 -/+ hbar f' expanded;
* level_count(consts), the number of bound lower-partner levels, after the
  check that the parameters lie in the regime with closed-form levels:
  floor(s) for Morse, UNBOUNDED for linear and cot; the upper partner has
  one fewer, since its level n is lower level n + 1;
* epsilon(n, consts), the level eps_n^-, and ladder_constant(n, consts), the
  kappa with (p - i f) phi-_{n+1} = kappa phi+_n in the raw closed forms;
* real_problem(grid), the real coupling and grid numeric_epsilons
  solves (for cot, the real well on the pole-to-pole lattice);
* Morse and cot also give s(consts) = D/(hbar alpha) or A/(hbar alpha);
  Morse gives its real exp(-alpha x) through decay, and cot sin w and cos w,
  with the pole check, through sine.

The closed-form level functions live in gdo.spectra, one per family kind.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import sys
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import DomainError, ParameterError, PoleError

# Complex cotangent evaluations closer than this to a zero of sin are refused.
SIN_POLE_CUTOFF = 1e-12
# the largest argument whose exp is finite
_EXP_LIMIT = math.log(sys.float_info.max)
# level count of the families whose well binds infinitely many levels
UNBOUNDED = math.inf


def refuse_overflow(what: str, x, compute):
    """compute(), an array over the real points x, or a ParameterError naming where it overflows.

    numpy's overflow flag raises while compute() runs, so no warning reaches
    stderr; the points are then found by computing it again with the flag
    ignored.
    """
    try:
        with np.errstate(over="raise"):
            return compute()
    except FloatingPointError:
        with np.errstate(over="ignore", invalid="ignore"):
            bad = x[~np.isfinite(compute())]
    raise ParameterError(
        f"{what} overflows on this window for x in [{bad.min():.6g}, {bad.max():.6g}]; narrow the grid window"
    )


@dataclass(frozen=True)
class PhysicalConstants:
    """Unit system used by every operator; all three values must be positive."""

    hbar: float = 1.0
    c: float = 1.0
    mass: float = 1.0

    def __post_init__(self):
        for name in ("hbar", "c", "mass"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0):
                raise ParameterError(f"constant {name!r} must be strictly positive, got {value}")


DEFAULT_CONSTANTS = PhysicalConstants()


@dataclass(frozen=True)
class Grid:
    """Uniform one-dimensional sampling domain with at least three points."""

    x_min: float
    x_max: float
    n_points: int

    def __post_init__(self):
        if not (np.isfinite(self.x_min) and np.isfinite(self.x_max) and self.x_max > self.x_min):
            raise ParameterError(f"grid needs x_max > x_min, got [{self.x_min}, {self.x_max}]")
        if self.n_points < 3:
            raise ParameterError(f"grid needs n_points >= 3, got {self.n_points}")

    @property
    def spacing(self) -> float:
        return (self.x_max - self.x_min) / (self.n_points - 1)

    @functools.cached_property
    def points(self) -> np.ndarray:
        """The sample points, computed once per grid and shared, so read-only."""
        points = np.linspace(self.x_min, self.x_max, self.n_points)
        points.flags.writeable = False
        return points

    def refined(self) -> "Grid":
        """Same endpoints with the spacing exactly halved."""
        return Grid(self.x_min, self.x_max, 2 * self.n_points - 1)


class InteractionSpec:
    """Base of the coupling families, each a frozen dataclass of float parameters.

    Every parameter must be real and finite, and alpha, where the family
    has one, positive.  Each family defines the methods listed in the module
    docstring.  The base is no dataclass, since gdo.config builds any
    dataclass hint from its fields and this one stands for three families.
    """

    kind: ClassVar[str]

    def __post_init__(self):
        for field in dataclasses.fields(self):
            if not math.isfinite(self._real(field.name)):
                raise ParameterError(f"{self.kind} parameter {field.name!r} must be finite")
        if getattr(self, "alpha", 1.0) <= 0:
            raise ParameterError(f"{self.kind} coupling needs alpha > 0, got {self.alpha}")

    def _real(self, name: str):
        # no family's closed forms take a complex parameter; level_count asks
        # again, for a subclass whose __post_init__ skips the checks
        value = getattr(self, name)
        if isinstance(value, (complex, np.complexfloating)):
            raise ParameterError(f"{self.kind} parameter {name!r} must be real, got {value}")
        return value


@dataclass(frozen=True)
class LinearInteraction(InteractionSpec):
    """f(x) = mass * omega * x, the coupling of the ordinary Dirac oscillator.

    Closed-form levels exist for omega > 0; a negative omega (produced by
    model spin flips) is accepted here and rejected by the level formulas
    that need that regime.
    """

    omega: float
    kind: ClassVar[str] = "linear"

    def coupling(self, x, y, consts: PhysicalConstants, derivative: bool):
        mw = consts.mass * self.omega
        f = mw * (x + 1j * y)
        return f, np.full(f.shape, mw, dtype=complex) if derivative else None

    def theta(self, consts: PhysicalConstants) -> float:
        return 0.0

    def condition_window(self, consts: PhysicalConstants):
        return math.sqrt(consts.mass * abs(self.omega) / consts.hbar) or 1.0, 0.0

    def hermitian_equivalent(self) -> "LinearInteraction":
        return self

    def upper_partner(self, consts: PhysicalConstants) -> "LinearInteraction":
        return self

    def negated(self) -> "LinearInteraction":
        return dataclasses.replace(self, omega=-self.omega)

    def closed_form_potentials(self, x, consts: PhysicalConstants):
        mw = consts.mass * self.omega
        sq = (mw * x) ** 2 + 0j
        return sq - consts.hbar * mw, sq + consts.hbar * mw

    def level_count(self, consts: PhysicalConstants):
        if self._real("omega") <= 0:
            raise ParameterError("linear levels need omega > 0")
        return UNBOUNDED

    def epsilon(self, n: int, consts: PhysicalConstants) -> float:
        return 2.0 * n * consts.hbar * consts.mass * self.omega

    def ladder_constant(self, n: int, consts: PhysicalConstants) -> complex:
        return -2j * (n + 1) * math.sqrt(consts.hbar * consts.mass * self.omega)

    def real_problem(self, grid: Grid):
        return self, grid


@dataclass(frozen=True, kw_only=True)
class MorseInteraction(InteractionSpec):
    """f(x) = D - (A + iB) exp(-alpha x).

    Closed-form levels exist in the regime D, A > 0; negated parameter sets
    (produced by model spin flips) are accepted here and rejected by the level
    formulas that need that regime.
    """

    D: float
    A: float
    B: float = 0.0
    alpha: float
    kind: ClassVar[str] = "morse"

    def decay(self, x):
        """exp(-alpha x) at real points; ParameterError naming the window where it overflows."""
        t = -self.alpha * x
        if t.max() > _EXP_LIMIT:
            raise ParameterError(
                f"morse e^(-alpha x) overflows on this window for x <= "
                f"{np.max(x[t > _EXP_LIMIT]):.6g}; narrow the grid window"
            )
        return np.exp(t)

    def coupling(self, x, y, consts: PhysicalConstants, derivative: bool):
        # f(x + iy) = D - c e^(-alpha x), with c = (A + iB) e^(-i alpha y)
        c = (self.A + 1j * self.B) * np.exp(-1j * self.alpha * y)
        e = self.decay(x)
        return self.D - c * e, self.alpha * c * e if derivative else None

    def theta(self, consts: PhysicalConstants) -> float:
        # atan2 keeps theta defined for either sign of A; it agrees with
        # 2 atan(B/A)/(hbar alpha) on the documented A > 0 range
        if self.A == 0:
            raise ParameterError("morse shift parameter undefined for A = 0")
        return 2.0 / (consts.hbar * self.alpha) * math.atan2(self.B, self.A)

    def condition_window(self, consts: PhysicalConstants):
        return self.alpha, 0.0

    def hermitian_equivalent(self) -> "MorseInteraction":
        return dataclasses.replace(self, A=math.hypot(self.A, self.B), B=0.0)

    def upper_partner(self, consts: PhysicalConstants) -> "MorseInteraction":
        return dataclasses.replace(self, D=self.D - consts.hbar * self.alpha)

    def negated(self) -> "MorseInteraction":
        return dataclasses.replace(self, D=-self.D, A=-self.A, B=-self.B)

    def closed_form_potentials(self, x, consts: PhysicalConstants):
        hb = consts.hbar
        w = self.A + 1j * self.B
        e1 = self.decay(x)
        base = self.D**2 + refuse_overflow("f^2", x, lambda: w * w * e1 * e1)
        v_minus = base - (2.0 * self.D + hb * self.alpha) * w * e1
        return v_minus, base - (2.0 * self.D - hb * self.alpha) * w * e1

    def s(self, consts: PhysicalConstants) -> float:
        return self.D / (consts.hbar * self.alpha)

    def level_count(self, consts: PhysicalConstants):
        if self._real("D") <= 0 or self._real("A") <= 0:
            raise ParameterError("morse levels need D > 0 and A > 0")
        return math.floor(self.s(consts))

    def epsilon(self, n: int, consts: PhysicalConstants) -> float:
        return self.D**2 - (self.D - n * consts.hbar * self.alpha) ** 2

    def ladder_constant(self, n: int, consts: PhysicalConstants) -> complex:
        return -1j * consts.hbar * self.alpha * (2.0 * self.s(consts) - n - 1.0)

    def real_problem(self, grid: Grid):
        return self.hermitian_equivalent(), grid


@dataclass(frozen=True)
class CotInteraction(InteractionSpec):
    """f(x) = -A cot(alpha x - a - i b), complex-shifted periodic coupling."""

    A: float
    alpha: float
    a: float = 0.0
    b: float = 0.0
    kind: ClassVar[str] = "cot"

    def sine(self, x, y, pole_message: str):
        """(sin w, cos w) at w = alpha (x + i y) - a - i b; PoleError(pole_message) at a pole of cot w.

        With u = alpha x - a and v = alpha y - b, sin w = sin u cosh v + i
        cos u sinh v and cos w = cos u cosh v - i sin u sinh v, the products
        C99's csin and ccos form, so only the real sin and cos of the array u
        are taken.  One y takes the C library's cosh and sinh through math,
        as csin does, where numpy's own loops can differ in the last bit.  A
        pole of cot w is where |sin w|^2 = sin^2 u + sinh^2 v falls below
        SIN_POLE_CUTOFF^2, which needs |sinh v| below the cutoff.
        """
        u = self.alpha * x - self.a
        v = self.alpha * y - self.b
        if isinstance(v, np.ndarray):
            ch, sh = np.cosh(v), np.sinh(v)
            near = (np.abs(sh) < SIN_POLE_CUTOFF).any()
        else:
            ch, sh = math.cosh(v), math.sinh(v)
            near = abs(sh) < SIN_POLE_CUTOFF
        su = np.sin(u)
        if near and (su * su + sh * sh < SIN_POLE_CUTOFF**2).any():
            raise PoleError(pole_message)
        cu = np.cos(u)
        shape = np.broadcast(u, v).shape
        sw = np.empty(shape, dtype=complex)
        cw = np.empty(shape, dtype=complex)
        np.multiply(su, ch, out=sw.real)
        np.multiply(cu, sh, out=sw.imag)
        np.multiply(cu, ch, out=cw.real)
        np.negative(np.multiply(su, sh, out=cw.imag), out=cw.imag)
        return sw, cw

    def coupling(self, x, y, consts: PhysicalConstants, derivative: bool):
        s, c = self.sine(x, y, "cot coupling evaluated within 1e-12 of a pole of cosec")
        return -self.A * c / s, self.A * self.alpha / (s * s) if derivative else None

    def theta(self, consts: PhysicalConstants) -> float:
        return 2.0 * self.b / (consts.hbar * self.alpha)

    def condition_window(self, consts: PhysicalConstants):
        # mid-period, clear of the cosec poles
        k = self.alpha
        return k, self.a / k + math.pi / (2.0 * k)

    def hermitian_equivalent(self) -> "CotInteraction":
        return dataclasses.replace(self, b=0.0)

    def upper_partner(self, consts: PhysicalConstants) -> "CotInteraction":
        return dataclasses.replace(self, A=self.A + consts.hbar * self.alpha)

    def negated(self) -> "CotInteraction":
        return dataclasses.replace(self, A=-self.A)

    def closed_form_potentials(self, x, consts: PhysicalConstants):
        hb = consts.hbar
        s, _ = self.sine(x, 0.0, "closed-form cot potential evaluated at a pole")
        cosec2 = 1.0 / (s * s)
        v_minus = self.A * (self.A - hb * self.alpha) * cosec2 - self.A**2
        return v_minus, self.A * (self.A + hb * self.alpha) * cosec2 - self.A**2

    def s(self, consts: PhysicalConstants) -> float:
        return self.A / (consts.hbar * self.alpha)

    def level_count(self, consts: PhysicalConstants):
        if self._real("A") <= 0:
            raise ParameterError("cot levels need A > 0")
        return UNBOUNDED

    def epsilon(self, n: int, consts: PhysicalConstants) -> float:
        return (self.A + n * consts.hbar * self.alpha) ** 2 - self.A**2

    def ladder_constant(self, n: int, consts: PhysicalConstants) -> complex:
        return complex(self.A)

    def real_problem(self, grid: Grid):
        # the real cosec^2 well on the interior of the pole-to-pole lattice
        h = math.pi / (self.alpha * (grid.n_points + 1))
        return dataclasses.replace(self, a=0.0, b=0.0), Grid(h, math.pi / self.alpha - h, grid.n_points)


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of the conjugation-shift test f(x + i hbar theta) = conj(f(x))."""

    theta_used: float
    max_deviation: float
    tolerance: float
    passed: bool
    worst_point: float


def eval_f(spec: InteractionSpec, z, consts: PhysicalConstants = DEFAULT_CONSTANTS):
    """Evaluate f at a real or complex point (or array of points).

    A complex argument is split into its real and imaginary parts, the x and
    y of the family's coupling; a real one is taken at y = 0.
    """
    zz = np.asarray(z)
    if np.iscomplexobj(zz):
        x, y = zz.real, zz.imag
    else:
        x, y = zz.astype(float, copy=False), 0.0
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise DomainError("evaluation point must be finite")
    f = spec.coupling(x, y, consts, False)[0]
    return complex(f) if np.ndim(z) == 0 else f


def sample_coupling(
    spec: InteractionSpec, grid: Grid, consts: PhysicalConstants = DEFAULT_CONSTANTS
):
    """(f, f') on the grid points from one evaluation of the coupling."""
    return spec.coupling(grid.points, 0.0, consts, True)


def default_condition_grid(
    spec: InteractionSpec, consts: PhysicalConstants = DEFAULT_CONSTANTS
) -> Grid:
    """401-point window used by the conjugation-shift check.

    Half-width 2/k around x0, with (k, x0) the family's condition_window: k
    = alpha, or sqrt(m |omega| / hbar) for linear (1 at omega = 0); x0 = 0,
    except for the cot family, whose window sits mid-period to stay clear
    of the cosec poles.
    """
    k, x0 = spec.condition_window(consts)
    return Grid(x0 - 2.0 / k, x0 + 2.0 / k, 401)


def check_pseudo_hermiticity_condition(
    spec: InteractionSpec,
    theta: float,
    grid: Grid,
    consts: PhysicalConstants = DEFAULT_CONSTANTS,
    tol: float = 1e-10,
) -> ConditionReport:
    """Measure max |f(x + i hbar theta) - conj f(x)| over the grid."""
    x = grid.points
    shifted = spec.coupling(x, consts.hbar * theta, consts, False)[0]
    straight = spec.coupling(x, 0.0, consts, False)[0]
    deviation = np.abs(shifted - np.conj(straight))
    worst = int(np.argmax(deviation))
    max_dev = float(deviation[worst])
    return ConditionReport(
        theta_used=float(theta),
        max_deviation=max_dev,
        tolerance=float(tol),
        passed=max_dev <= tol,
        worst_point=float(x[worst]),
    )
