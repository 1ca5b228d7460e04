import contextlib
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from mfskmodem.profiles import get_profile


@pytest.fixture(scope="session")
def full_profile():
    return get_profile("jt65a-full").modem


@pytest.fixture(scope="session")
def reduced_profile():
    return get_profile("reduced-m8").modem


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def traced_peak():
    """``with traced_peak() as peak:`` traces the allocations of its block;
    after the block, ``peak.bytes`` is their traced peak."""
    @contextlib.contextmanager
    def trace():
        peak = SimpleNamespace(bytes=None)
        tracemalloc.start()
        try:
            yield peak
            peak.bytes = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return trace
