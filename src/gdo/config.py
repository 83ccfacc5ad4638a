"""Run configuration: JSON schema, loading, and byte-stable serialization.

Reports are emitted through one canonical writer: keys keep their insertion
order and every float is printed as Python's shortest round-trip repr, so a
value survives a round trip bit-for-bit and two identical runs produce
identical bytes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

from .errors import ConfigError, GdoError
from .interactions import (
    CotInteraction,
    Grid,
    InteractionSpec,
    LinearInteraction,
    MorseInteraction,
    PhysicalConstants,
    metric_theta,
)


@dataclass(frozen=True)
class Tolerances:
    condition: float = 1e-10
    eigen_rel: float = 1e-3
    residual: float = 1e-8

    def __post_init__(self):
        for name in ("condition", "eigen_rel", "residual"):
            if not getattr(self, name) > 0:
                raise ConfigError(f"tolerance {name!r} must be > 0")


@dataclass(frozen=True)
class RunConfig:
    """Everything a CLI run needs."""

    interaction: InteractionSpec
    grid: Grid
    constants: PhysicalConstants = PhysicalConstants()
    tolerances: Tolerances = Tolerances()
    levels: int = 4
    mode: str = "contour"
    theta_override: Optional[float] = None

    def __post_init__(self):
        if self.levels < 1:
            raise ConfigError(f"levels must be >= 1, got {self.levels}")
        if self.mode not in ("contour", "real_line"):
            raise ConfigError(f"mode must be 'contour' or 'real_line', got {self.mode!r}")

    def condition_theta(self) -> float:
        """Shift parameter of the condition check: the override, else the family's own."""
        if self.theta_override is None:
            return metric_theta(self.interaction, self.constants)
        return self.theta_override


def _object(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be a JSON object, got {type(value).__name__}")
    return value


def _require(mapping: dict, key: str, where: str):
    if key not in mapping:
        raise ConfigError(f"missing key {key!r} in {where}")
    return mapping[key]


def _integer(value, name: str) -> int:
    """value as an int; a bool or a number with a fractional part is rejected, not truncated."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _interaction_from_dict(data: dict) -> InteractionSpec:
    kind = _require(_object(data, "interaction"), "kind", "interaction")
    try:
        if kind == "linear":
            return LinearInteraction(
                omega=float(_require(data, "omega", "linear interaction")),
                sign=_integer(data.get("sign", 1), "sign"),
            )
        if kind == "morse":
            return MorseInteraction(
                D=float(_require(data, "D", "morse interaction")),
                A=float(_require(data, "A", "morse interaction")),
                B=float(data.get("B", 0.0)),
                alpha=float(_require(data, "alpha", "morse interaction")),
            )
        if kind == "cot":
            return CotInteraction(
                A=float(_require(data, "A", "cot interaction")),
                alpha=float(_require(data, "alpha", "cot interaction")),
                a=float(data.get("a", 0.0)),
                b=float(data.get("b", 0.0)),
            )
    except ConfigError:
        raise
    except (TypeError, ValueError, GdoError) as exc:
        # GdoError: a constructor rejected the value, e.g. a Morse alpha <= 0
        raise ConfigError(f"bad {kind!r} interaction parameters: {exc}") from exc
    raise ConfigError(f"unknown interaction kind {kind!r} (expected linear, morse, or cot)")


def config_from_dict(data: dict) -> RunConfig:
    _object(data, "configuration root")
    interaction = _interaction_from_dict(_require(data, "interaction", "configuration"))
    grid_data = _object(_require(data, "grid", "configuration"), "grid")
    try:
        grid = Grid(
            x_min=float(_require(grid_data, "x_min", "grid")),
            x_max=float(_require(grid_data, "x_max", "grid")),
            n_points=_integer(_require(grid_data, "n_points", "grid"), "n_points"),
        )
        consts_data = _object(data.get("constants", {}), "constants")
        constants = PhysicalConstants(
            hbar=float(consts_data.get("hbar", 1.0)),
            c=float(consts_data.get("c", 1.0)),
            mass=float(consts_data.get("mass", 1.0)),
        )
        tol_data = _object(data.get("tolerances", {}), "tolerances")
        tolerances = Tolerances(
            condition=float(tol_data.get("condition", 1e-10)),
            eigen_rel=float(tol_data.get("eigen_rel", 1e-3)),
            residual=float(tol_data.get("residual", 1e-8)),
        )
        theta_override = data.get("theta_override")
        return RunConfig(
            interaction=interaction,
            grid=grid,
            constants=constants,
            tolerances=tolerances,
            levels=_integer(data.get("levels", 4), "levels"),
            mode=str(data.get("mode", "contour")),
            theta_override=None if theta_override is None else float(theta_override),
        )
    except ConfigError:
        raise
    except (TypeError, ValueError, GdoError) as exc:
        raise ConfigError(f"bad configuration value: {exc}") from exc


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read configuration file {path!r}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"configuration file {path!r} is not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"configuration file {path!r} is not valid JSON: {exc}") from exc
    return config_from_dict(data)


def dumps_canonical(obj) -> str:
    """Serialize nested dict/list/scalar data as two-space-indented JSON."""
    try:
        return json.dumps(obj, indent=2, allow_nan=False)
    except (TypeError, ValueError) as exc:
        # a non-finite float or a non-JSON type; the CLI exits 2 on either
        raise ConfigError(f"cannot serialize artifact: {exc}") from exc
