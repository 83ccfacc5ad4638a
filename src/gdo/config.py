"""Run configuration: JSON schema, loading, and byte-stable serialization.

Reports are emitted through one canonical writer: keys keep their insertion
order and every float is printed as Python's shortest round-trip repr, so a
value survives a round trip bit-for-bit and two identical runs produce
identical bytes.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import typing
from dataclasses import dataclass

from .errors import ConfigError, GdoError
from .interactions import (
    CotInteraction,
    Grid,
    InteractionSpec,
    LinearInteraction,
    MorseInteraction,
    PhysicalConstants,
)


@dataclass(frozen=True)
class Tolerances:
    condition: float = 1e-10
    eigen_rel: float = 1e-3
    residual: float = 1e-8

    def __post_init__(self):
        for name in ("condition", "eigen_rel", "residual"):
            value = getattr(self, name)
            # an infinite gate passes every measurement, or breaks the artifact
            if not (math.isfinite(value) and value > 0):
                raise ConfigError(f"tolerance {name!r} must be finite and > 0, got {value}")


@dataclass(frozen=True)
class RunConfig:
    """Everything a CLI run needs."""

    interaction: InteractionSpec
    grid: Grid
    constants: PhysicalConstants = PhysicalConstants()
    tolerances: Tolerances = Tolerances()
    levels: int = 4
    mode: str = "contour"  # one value, selecting nothing; kept for old configs (ROADMAP item 18)

    def __post_init__(self):
        if self.levels < 1:
            raise ConfigError(f"levels must be >= 1, got {self.levels}")
        if self.mode != "contour":
            raise ConfigError(f"mode must be 'contour', got {self.mode!r}")


def _object(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be a JSON object, got {type(value).__name__}")
    return value


def _number(value, name: str) -> float:
    """value as a float; only a JSON number is one, not a bool or a numeric string."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        # a JSON integer literal beyond the float range
        raise ConfigError(f"{name} is too large for a float") from None


def _integer(value, name: str) -> int:
    """value as an int; a bool, a string or a fraction is rejected, not truncated."""
    if isinstance(value, bool) or not (
        isinstance(value, int) or (isinstance(value, float) and value.is_integer())
    ):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return int(value)


# get_type_hints evaluates the string annotations anew on every call, which
# made a load about six times slower; one entry per config dataclass
_type_hints = functools.cache(typing.get_type_hints)
_FAMILIES = {cls.kind: cls for cls in (LinearInteraction, MorseInteraction, CotInteraction)}


def _interaction(data) -> InteractionSpec:
    data = dict(_object(data, "interaction"))
    if "kind" not in data:
        raise ConfigError("missing key 'kind' in interaction")
    kind = data.pop("kind")
    if not (isinstance(kind, str) and kind in _FAMILIES):
        raise ConfigError(f"unknown interaction kind {kind!r} (expected {', '.join(_FAMILIES)})")
    return _build(_FAMILIES[kind], data, f"{kind} interaction", f"bad {kind!r} interaction parameters")


def _value(hint, value, name: str):
    """One JSON value checked against the type its field is annotated with; nothing is coerced."""
    if hint is float:
        return _number(value, name)
    if hint is int:
        return _integer(value, name)
    if hint is str:
        if not isinstance(value, str):
            raise ConfigError(f"{name} must be a string, got {value!r}")
        return value
    if dataclasses.is_dataclass(hint):
        return _build(hint, value, name, "bad configuration value")
    # the one field left, RunConfig.interaction, is an InteractionSpec
    return _interaction(value)


def _build(cls, data, where: str, bad: str):
    """cls from the JSON object data, one key per field; a field without a default is required.

    Defaults are the dataclass's own.  A value the constructor or a type
    conversion rejects is a ConfigError that starts with bad.
    """
    _object(data, where)
    fields = dataclasses.fields(cls)
    names = {field.name for field in fields}
    for key in data:
        if key not in names:
            raise ConfigError(f"unknown key {key!r} in {where}")
    hints = _type_hints(cls)
    values = {}
    try:
        for field in fields:
            if field.name in data:
                values[field.name] = _value(hints[field.name], data[field.name], field.name)
            elif field.default is dataclasses.MISSING:
                raise ConfigError(f"missing key {field.name!r} in {where}")
        return cls(**values)
    except ConfigError:
        raise
    except (TypeError, ValueError, GdoError) as exc:
        # GdoError: a constructor rejected the value, e.g. a Morse alpha <= 0
        raise ConfigError(f"{bad}: {exc}") from exc


def config_from_dict(data: dict) -> RunConfig:
    return _build(RunConfig, data, "configuration", "bad configuration value")


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
