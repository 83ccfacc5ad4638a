import json
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gdo import ConfigError, dumps_canonical

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


@settings(max_examples=200, deadline=None)
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
