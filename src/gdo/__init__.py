"""Generalized (1+1)-D Dirac oscillator with complex couplings.

Closed-form spectra and bound states for the linear, complexified Morse and
shifted cotangent families, conjugation-shift (pseudo-Hermiticity) checks,
rotating and anti-rotating two-level model assemblies, and self-contained
eigensolver oracles to validate all of it numerically.
"""

from .errors import (
    BranchError,
    ConfigError,
    ConvergenceError,
    DimensionError,
    DomainError,
    GdoError,
    LevelOutOfRangeError,
    NonFiniteError,
    ParameterError,
    PoleError,
    ResolutionError,
    SingularPivotError,
    UnsupportedError,
)
from .interactions import (
    ConditionReport,
    CotInteraction,
    DEFAULT_CONSTANTS,
    Grid,
    InteractionSpec,
    LinearInteraction,
    MorseInteraction,
    PhysicalConstants,
    check_pseudo_hermiticity_condition,
    default_condition_grid,
    eval_f,
)
from .operators import (
    EffectivePotentialSample,
    OperatorMatrix,
    assemble_dirac,
    assemble_ladder,
    assemble_schrodinger,
    closed_form_potentials,
    effective_potentials,
    momentum_operator,
)
from .eigensolve import (
    EigenResult,
    inverse_iteration,
    symtridiag_eigenvalues,
)
from .spectra import (
    SpectralLine,
    SpinorCoefficients,
    SpinorSample,
    UNBOUNDED,
    analytic_spinor,
    dirac_spectrum,
    epsilon_minus,
    spinor_coefficients,
)
from .models import (
    GroundStateReport,
    ModelSpec,
    assemble_model,
    ground_state_structure,
    oscillator_models,
    oscillator_preset,
    spin_flip,
)
from .config import RunConfig, Tolerances, dumps_canonical, load_config
from .verify import (
    CheckResult,
    VerificationReport,
    factorization_check,
    numeric_epsilons,
    real_line_probe,
    spectrum_rows,
    verify_all,
)

__version__ = "0.1.0"
