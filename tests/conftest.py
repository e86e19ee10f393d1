import numpy as np
import pytest

import qgi.counting
from qgi import GridConfig, QuantumState, Rect, Scene


@pytest.fixture(autouse=True)
def cold_exact_read():
    """Start each test with no memoized exact read, so that no result
    depends on the tests run before it."""
    qgi.counting._exact_read.cache_clear()


@pytest.fixture
def grid4():
    return GridConfig(4, 4)


@pytest.fixture
def worked_scenes(grid4):
    """The 4x4 demo pair: cells {1,2,5,6} vs {6,7,10,11}, overlapping in 6."""
    return (Scene(grid4, rects=(Rect(0, 0, 1, 1),)),
            Scene(grid4, rects=(Rect(1, 1, 2, 2),)))


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


@pytest.fixture
def states_built(monkeypatch):
    """Class of each QuantumState built; every construction passes through
    ``QuantumState._moved``."""
    calls = []
    original = QuantumState._moved.__func__

    def counted(cls, *args):
        calls.append(cls)
        return original(cls, *args)
    monkeypatch.setattr(QuantumState, "_moved", classmethod(counted))
    return calls

