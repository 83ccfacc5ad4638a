import copy
import json
import re
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gdo import (
    ConfigError,
    Grid,
    MorseInteraction,
    RunConfig,
    Tolerances,
    dumps_canonical,
)
from gdo.config import config_from_dict

FINITE = st.floats(allow_nan=False, allow_infinity=False)
# -0.0, the smallest subnormal, a mid-range subnormal and the largest finite float
EDGES = st.sampled_from([-0.0, 5e-324, -2.5e-310, 1.7976931348623157e308])


def _bits(obj):
    """obj with every float replaced by its IEEE bytes and every dict by its item list."""
    if isinstance(obj, float):
        return struct.pack("<d", obj)
    if isinstance(obj, list):
        return [_bits(value) for value in obj]
    if isinstance(obj, dict):
        return [(key, _bits(value)) for key, value in obj.items()]
    return obj


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    st.recursive(
        FINITE | EDGES,
        lambda children: st.lists(children, max_size=4)
        | st.dictionaries(st.text(max_size=6), children, max_size=4),
        max_leaves=24,
    )
)
def test_dumps_canonical_round_trips_floats_bit_for_bit(obj):
    text = dumps_canonical(obj)
    assert _bits(json.loads(text)) == _bits(obj)
    # identical data, identical bytes
    assert dumps_canonical(json.loads(text)) == text


# the CLI turns a ConfigError into exit code 2
@pytest.mark.parametrize("value", [float("nan"), float("inf"), {"x": [1.0, -float("inf")]}, object()])
def test_dumps_canonical_rejects_non_json_values(value):
    with pytest.raises(ConfigError, match="cannot serialize artifact"):
        dumps_canonical(value)


_MINIMAL = {
    "interaction": {"kind": "morse", "D": 2.5, "A": 1.0, "alpha": 1.0},
    "grid": {"x_min": -6.0, "x_max": 20.0, "n_points": 101},
}


def test_omitted_keys_take_the_dataclass_defaults():
    config = config_from_dict(copy.deepcopy(_MINIMAL))
    expected = RunConfig(MorseInteraction(D=2.5, A=1.0, alpha=1.0), Grid(-6.0, 20.0, 101))
    assert config == expected
    assert config.interaction.B == 0.0 and config.tolerances == Tolerances()


def _set(data, path, value):
    """data with value stored under the key path, its missing sections added."""
    target = data
    for key in path[:-1]:
        target = target.setdefault(key, {})
    target[path[-1]] = value
    return data


@pytest.mark.parametrize(
    "section, where",
    [
        ((), "configuration"),
        (("interaction",), "morse interaction"),
        (("grid",), "grid"),
        (("constants",), "constants"),
        (("tolerances",), "tolerances"),
    ],
)
def test_unknown_key_is_refused(section, where):
    # a misspelled key would otherwise leave its field at the default
    data = _set(copy.deepcopy(_MINIMAL), section + ("eigen_rell",), 1e-9)
    with pytest.raises(ConfigError, match=f"^unknown key 'eigen_rell' in {where}$"):
        config_from_dict(data)


@pytest.mark.parametrize(
    "interaction, missing",
    [
        ({"kind": "linear"}, "'omega' in linear interaction"),
        ({"kind": "morse", "D": 2.5, "A": 1.0}, "'alpha' in morse interaction"),
        ({"kind": "cot", "alpha": 1.0}, "'A' in cot interaction"),
        ({"omega": 1.0}, "'kind' in interaction"),
    ],
)
def test_field_without_default_is_required(interaction, missing):
    with pytest.raises(ConfigError, match=f"^missing key {missing}$"):
        config_from_dict(dict(_MINIMAL, interaction=interaction))


# a value of the wrong JSON type is refused, never coerced: json.load gives
# bool for true, str for "3" and int for an integer literal
@pytest.mark.parametrize(
    "path, value, message",
    [
        (("grid", "x_min"), True, "x_min must be a number, got True"),
        (("interaction", "D"), "2.5", "D must be a number, got '2.5'"),
        (("constants", "hbar"), None, "hbar must be a number, got None"),
        (("tolerances", "eigen_rel"), [1e-3], "eigen_rel must be a number, got [0.001]"),
        (("levels",), "3", "levels must be an integer, got '3'"),
        (("grid", "n_points"), False, "n_points must be an integer, got False"),
        (("grid", "n_points"), float("inf"), "n_points must be an integer, got inf"),
        (("mode",), 1, "mode must be a string, got 1"),
        (("interaction", "alpha"), 10**400, "alpha is too large for a float"),
    ],
    ids=["float_bool", "float_str", "float_null", "float_list", "int_str",
         "int_bool", "int_inf", "str_int", "float_overflow"],
)
def test_wrong_json_type_is_refused(path, value, message):
    data = _set(copy.deepcopy(_MINIMAL), path, value)
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        config_from_dict(data)


def test_json_numbers_become_their_field_types():
    data = copy.deepcopy(_MINIMAL)
    _set(data, ("grid", "x_min"), -6)
    _set(data, ("grid", "n_points"), 101.0)
    config = config_from_dict(data)
    assert config.grid == Grid(-6.0, 20.0, 101)
    assert type(config.grid.x_min) is float and type(config.grid.n_points) is int


@pytest.mark.parametrize("name", ["condition", "eigen_rel", "residual"])
@pytest.mark.parametrize("value", [float("inf"), -float("inf"), float("nan"), 0.0, -1e-3])
def test_tolerance_must_be_finite_and_positive(name, value):
    # json.load reads Infinity, -Infinity and NaN as floats
    data = _set(copy.deepcopy(_MINIMAL), ("tolerances", name), value)
    message = f"tolerance '{name}' must be finite and > 0, got {value}"
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        config_from_dict(data)
