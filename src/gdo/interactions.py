"""Coupling families f(x) of the generalized Dirac oscillator and their metric-shift checks.

The oscillator couples through a single function f(x), possibly complex on the
real axis.  Each family carries a real shift parameter theta such that moving
the argument to x + i*hbar*theta turns f into its complex conjugate; that
substitution rule is what makes the two-component Hamiltonian similar to its
own adjoint, so the whole verification story starts here.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass
from typing import ClassVar, Union

import numpy as np

from .errors import DomainError, ParameterError, PoleError

# Complex cotangent evaluations closer than this to a zero of sin are refused.
SIN_POLE_CUTOFF = 1e-12


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


@dataclass(frozen=True)
class LinearInteraction:
    """f(x) = mass * omega * x, the coupling of the ordinary Dirac oscillator.

    Closed-form levels exist for omega > 0; a negative omega (produced by
    model spin flips) is accepted here and rejected by the level formulas
    that need that regime.
    """

    omega: float
    kind: ClassVar[str] = "linear"

    def __post_init__(self):
        if not np.isfinite(self.omega):
            raise ParameterError("linear parameter 'omega' must be finite")


@dataclass(frozen=True, kw_only=True)
class MorseInteraction:
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

    def __post_init__(self):
        for name in ("D", "A", "B", "alpha"):
            if not np.isfinite(getattr(self, name)):
                raise ParameterError(f"morse parameter {name!r} must be finite")
        if self.alpha <= 0:
            raise ParameterError(f"morse coupling needs alpha > 0, got {self.alpha}")


@dataclass(frozen=True)
class CotInteraction:
    """f(x) = -A cot(alpha x - a - i b), complex-shifted periodic coupling."""

    A: float
    alpha: float
    a: float = 0.0
    b: float = 0.0
    kind: ClassVar[str] = "cot"

    def __post_init__(self):
        for name in ("A", "alpha", "a", "b"):
            if not np.isfinite(getattr(self, name)):
                raise ParameterError(f"cot parameter {name!r} must be finite")
        if self.alpha <= 0:
            raise ParameterError(f"cot coupling needs alpha > 0, got {self.alpha}")


# every per-family dispatch below ends on its last family unguarded: these
# three classes are the whole union, and configs build nothing else
InteractionSpec = Union[LinearInteraction, MorseInteraction, CotInteraction]


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of the conjugation-shift test f(x + i hbar theta) = conj(f(x))."""

    theta_used: float
    max_deviation: float
    tolerance: float
    passed: bool
    worst_point: float


def _as_complex(z):
    zz = np.asarray(z, dtype=complex)
    if not np.all(np.isfinite(zz)):
        raise DomainError("evaluation point must be finite")
    return zz


def _maybe_scalar(out, z):
    if np.ndim(z) == 0:
        return complex(out)
    return out


def _cot_argument(spec: CotInteraction, zz):
    w = spec.alpha * zz - spec.a - 1j * spec.b
    s = np.sin(w)
    if np.any(np.abs(s) < SIN_POLE_CUTOFF):
        raise PoleError("cot coupling evaluated within 1e-12 of a pole of cosec")
    return w, s


def _coupling(spec: InteractionSpec, zz, consts: PhysicalConstants, derivative: bool):
    """f on the complex points zz, and f' when derivative is set, else None.

    Both come from one evaluation of exp(-alpha z) (Morse) or sin w (cot).
    """
    if isinstance(spec, LinearInteraction):
        mw = consts.mass * spec.omega
        return mw * zz, np.full(zz.shape, mw, dtype=complex) if derivative else None
    if isinstance(spec, MorseInteraction):
        w = spec.A + 1j * spec.B
        e = np.exp(-spec.alpha * zz)
        return spec.D - w * e, spec.alpha * w * e if derivative else None
    w, s = _cot_argument(spec, zz)
    return -spec.A * np.cos(w) / s, spec.A * spec.alpha / (s * s) if derivative else None


def eval_f(spec: InteractionSpec, z, consts: PhysicalConstants = DEFAULT_CONSTANTS):
    """Evaluate f at a real or complex point (or array of points)."""
    return _maybe_scalar(_coupling(spec, _as_complex(z), consts, False)[0], z)


def eval_f_prime(spec: InteractionSpec, z, consts: PhysicalConstants = DEFAULT_CONSTANTS):
    """Evaluate the analytic derivative f'(z); same pole rules as eval_f."""
    return _maybe_scalar(_coupling(spec, _as_complex(z), consts, True)[1], z)


def sample_coupling(
    spec: InteractionSpec, grid: Grid, consts: PhysicalConstants = DEFAULT_CONSTANTS
):
    """(f, f') on the grid points, as eval_f and eval_f_prime give them, from one sampling."""
    return _coupling(spec, grid.points.astype(complex), consts, True)


def metric_theta(spec: InteractionSpec, consts: PhysicalConstants = DEFAULT_CONSTANTS) -> float:
    """Shift parameter theta of the metric exp(-theta p) for this family.

    atan2 keeps the Morse formula defined for either sign of A; the two
    conventions agree on the documented A > 0 range.
    """
    if isinstance(spec, LinearInteraction):
        return 0.0
    if isinstance(spec, MorseInteraction):
        if spec.A == 0:
            raise ParameterError("morse shift parameter undefined for A = 0")
        return 2.0 / (consts.hbar * spec.alpha) * math.atan2(spec.B, spec.A)
    return 2.0 * spec.b / (consts.hbar * spec.alpha)


def default_condition_grid(
    spec: InteractionSpec, consts: PhysicalConstants = DEFAULT_CONSTANTS
) -> Grid:
    """401-point window used by the conjugation-shift check.

    Half-width 2/k, with k = alpha, or sqrt(m |omega| / hbar) for linear (1
    at omega = 0).  Centered at the origin except for the cot family, where
    the center sits mid-period to stay clear of the cosec poles.
    """
    if isinstance(spec, LinearInteraction):
        k = math.sqrt(consts.mass * abs(spec.omega) / consts.hbar) or 1.0
    else:
        k = spec.alpha
    x0 = spec.a / k + math.pi / (2.0 * k) if isinstance(spec, CotInteraction) else 0.0
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
    shifted = eval_f(spec, x + 1j * consts.hbar * theta, consts)
    straight = eval_f(spec, x.astype(complex), consts)
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


def hermitian_equivalent_interaction(
    spec: InteractionSpec, consts: PhysicalConstants = DEFAULT_CONSTANTS
) -> InteractionSpec:
    """Real coupling obtained by conjugating with the square root of the metric.

    Equivalent to evaluating f at x + i*hbar*theta/2: the Morse amplitude
    becomes hypot(A, B) and the cot offset b drops out.
    """
    if isinstance(spec, MorseInteraction):
        return dataclasses.replace(spec, A=math.hypot(spec.A, spec.B), B=0.0)
    if isinstance(spec, CotInteraction):
        return dataclasses.replace(spec, b=0.0)
    return spec


def upper_partner(
    spec: InteractionSpec, consts: PhysicalConstants = DEFAULT_CONSTANTS
) -> InteractionSpec:
    """Coupling whose lower-partner well is this one's upper-partner well plus a constant.

    Shape invariance (Cooper, Khare & Sukhatme, Phys. Rep. 251 (1995) 267):
    Morse D -> D - hbar alpha, cot A -> A + hbar alpha, linear unchanged.
    """
    if isinstance(spec, MorseInteraction):
        return dataclasses.replace(spec, D=spec.D - consts.hbar * spec.alpha)
    if isinstance(spec, CotInteraction):
        return dataclasses.replace(spec, A=spec.A + consts.hbar * spec.alpha)
    return spec


def negated(spec: InteractionSpec) -> InteractionSpec:
    """The coupling -f(x), keeping each family inside its own parameterization."""
    if isinstance(spec, LinearInteraction):
        return dataclasses.replace(spec, omega=-spec.omega)
    if isinstance(spec, MorseInteraction):
        return dataclasses.replace(spec, D=-spec.D, A=-spec.A, B=-spec.B)
    return dataclasses.replace(spec, A=-spec.A)
