import numpy as np
import pytest

from gdo import Grid


@pytest.fixture
def morse_spec():
    from gdo import MorseInteraction

    return MorseInteraction(D=2.5, A=1.0, B=0.5, alpha=1.0)


@pytest.fixture
def cot_spec():
    from gdo import CotInteraction

    return CotInteraction(A=1.0, alpha=1.0, a=0.0, b=0.3)


@pytest.fixture
def morse_grid():
    return Grid(-6.0, 20.0, 2001)


@pytest.fixture
def cot_grid():
    return Grid(1e-3, np.pi - 1e-3, 2001)
