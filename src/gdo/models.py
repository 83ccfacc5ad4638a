"""Two-level model assemblies built on the generalized ladder pair.

The anti-rotating layout (GAJC) places the raising operator in the upper-right
block and coincides entry-for-entry with the oscillator Hamiltonian once the
coupling strength is the light speed and the detuning is the rest energy.
The rotating layout (GJC) is its mirror; negating the coupling function swaps
the ladder operators and maps one layout onto the other.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import ParameterError
from .interactions import (
    DEFAULT_CONSTANTS,
    Grid,
    InteractionSpec,
    PhysicalConstants,
    negated,
)
from .operators import OperatorMatrix, assemble_ladder
from .spectra import SpinorSample, analytic_spinor, singlet_layout

_MODEL_KINDS = ("gajc", "gjc")


@dataclass(frozen=True)
class ModelSpec:
    """A two-level model: kind, coupling strength, detuning, and coupling function."""

    kind: str
    omega_coupling: float
    delta: float
    interaction: InteractionSpec

    def __post_init__(self):
        if self.kind not in _MODEL_KINDS:
            raise ParameterError(f"model kind must be one of {_MODEL_KINDS}, got {self.kind!r}")
        # zero coupling is allowed: it decouples the two levels exactly
        if not (np.isfinite(self.omega_coupling) and self.omega_coupling >= 0):
            raise ParameterError(f"omega_coupling must be >= 0, got {self.omega_coupling}")
        if not np.isfinite(self.delta):
            raise ParameterError("delta must be finite")


@dataclass(frozen=True)
class GroundStateReport:
    """Singlet structure of a model, with its numerically measured quotient.

    ground_energy carries the stated convention (-delta for GAJC, +delta for
    GJC); rayleigh_quotient and residual record what the assembled matrix
    actually does on the sampled singlet, whose magnitude matches delta.
    empty_component_zero says whether the sampled singlet's other component
    is exactly zero at every grid point.
    """

    model_kind: str
    ground_energy: float
    singlet_spin: str
    occupied_component: str
    rayleigh_quotient: complex
    residual: float
    empty_component_zero: bool


def oscillator_preset(interaction: InteractionSpec, consts: PhysicalConstants = DEFAULT_CONSTANTS) -> ModelSpec:
    """GAJC parameters that reproduce the oscillator Hamiltonian exactly."""
    return ModelSpec(
        kind="gajc",
        omega_coupling=consts.c,
        delta=consts.mass * consts.c**2,
        interaction=interaction,
    )


def oscillator_models(
    interaction: InteractionSpec, consts: PhysicalConstants = DEFAULT_CONSTANTS
) -> Tuple[ModelSpec, ModelSpec]:
    """The GAJC oscillator preset and its GJC partner of equal strength and detuning."""
    preset = oscillator_preset(interaction, consts)
    return preset, dataclasses.replace(preset, kind="gjc")


def model_matrix(ms: ModelSpec, ladder) -> OperatorMatrix:
    """[[delta, W A#], [W A, -delta]] for GAJC from the ladder pair (A, A#) of ms's coupling.

    The GJC layout swaps the ladder blocks.
    """
    lower, raise_ = ladder
    w = ms.omega_coupling
    if ms.kind == "gajc":
        return OperatorMatrix.two_level(ms.delta, raise_.scaled(w), lower.scaled(w))
    return OperatorMatrix.two_level(ms.delta, lower.scaled(w), raise_.scaled(w))


def assemble_model(
    ms: ModelSpec, grid: Grid, consts: PhysicalConstants = DEFAULT_CONSTANTS
) -> OperatorMatrix:
    """[[delta, W A#], [W A, -delta]] for GAJC; ladder blocks swapped for GJC."""
    return model_matrix(ms, assemble_ladder(ms.interaction, grid, consts))


def spin_flip(ms: ModelSpec) -> ModelSpec:
    """The dual model: kind toggled and coupling negated; an involution.

    The pair (ms, spin_flip(ms)) assembles to identical matrices.
    """
    other = "gjc" if ms.kind == "gajc" else "gajc"
    return ModelSpec(
        kind=other,
        omega_coupling=ms.omega_coupling,
        delta=ms.delta,
        interaction=negated(ms.interaction),
    )


def ground_state_structure(
    ms: ModelSpec, grid: Grid, consts: PhysicalConstants = DEFAULT_CONSTANTS
) -> GroundStateReport:
    """Singlet report of a model, from the closed-form singlet of its coupling.

    The GAJC singlet occupies the upper component (spin up), the GJC singlet
    the lower one (spin down).  One product of the assembled matrix with the
    sampled singlet gives both its Rayleigh quotient, which equals +delta
    (GAJC) or -delta (GJC), and its eigen-residual, which falls off as the
    grid spacing squared.
    The reported ground_energy keeps the stated-sign convention, which labels
    the GAJC singlet -delta and the GJC singlet +delta.
    """
    singlet = analytic_spinor(ms.interaction, -1, grid, consts)
    return singlet_report(ms, assemble_model(ms, grid, consts), singlet)


def singlet_report(
    ms: ModelSpec, matrix: OperatorMatrix, singlet: SpinorSample
) -> GroundStateReport:
    """ground_state_structure of ms from its assembled matrix and the GDO-layout singlet."""
    sample = singlet_layout(singlet, "GDO" if ms.kind == "gajc" else "GJC")
    vector = np.concatenate([sample.psi1, sample.psi2])
    image = matrix.matvec(vector)
    quotient = complex(np.vdot(vector, image) / np.vdot(vector, vector))
    # periodic-family eigenfunctions do not vanish at the grid ends, so the
    # truncated first and last stencil row of each component are excluded
    mismatch = image - quotient * vector
    n = sample.grid.n_points
    keep = np.ones(2 * n, dtype=bool)
    keep[[0, n - 1, n, 2 * n - 1]] = False
    residual = float(np.linalg.norm(mismatch[keep]) / np.linalg.norm(vector))
    if ms.kind == "gajc":
        reported = -ms.delta
        spin, component = "up", "upper"
        empty = sample.psi2
    else:
        reported = ms.delta
        spin, component = "down", "lower"
        empty = sample.psi1
    return GroundStateReport(
        model_kind=ms.kind,
        ground_energy=reported,
        singlet_spin=spin,
        occupied_component=component,
        rayleigh_quotient=quotient,
        residual=residual,
        empty_component_zero=float(np.max(np.abs(empty))) == 0.0,
    )
