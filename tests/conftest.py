import contextlib
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from mfskmodem.profiles import PROFILE_KEYS, get_profile
from mfskmodem.signal import tone_bin, tone_windows

# The README's desk-m4 profile, as profile-file keys and values.
DESK_M4 = dict(zip(PROFILE_KEYS, (8000, 256, 4, 20, 2, 1000, 8, 8, 8)))


def synthesize_symbol(profile, tone, phase=0.0):
    """One symbol interval of ``tone`` (a data tone index or SYNC), the
    (symbol_len,) unit tone sin(2*pi*f*n/fs + phase).  The tone is bin-aligned,
    so the window holds an integer number of cycles and its mean power is
    1/2 up to rounding."""
    return tone_windows(profile, [tone_bin(profile, tone)], phase)[0]


def esn0_to_snr(profile, es_n0_db):
    """Reference-bandwidth SNR in dB of an Es/N0 in dB: theory.snr_to_esn0's inverse."""
    return es_n0_db - 10.0 * math.log10(profile.ref_bandwidth_hz * profile.symbol_duration_s)


def write_profiles(path, sections):
    """Write a profile file of ``sections``, {name: {key: value}}, to ``path``."""
    path.write_text("".join(
        f"[{name}]\n" + "".join(f"{key} = {value}\n" for key, value in keys.items())
        for name, keys in sections.items()))
    return path


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
