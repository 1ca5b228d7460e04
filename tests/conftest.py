import contextlib
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from mfskmodem.nn import adam_step
from mfskmodem.nn.model import _gradients
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


# measure_snr saturates here instead of returning +inf on a zero residual.
SNR_SATURATION_DB = 300.0


def measure_snr(noisy, clean, profile) -> float:
    """Reference-bandwidth SNR in dB of the samples ``noisy`` against the known
    ``clean`` ones, both at ``profile``'s rate.

    Inverse of noise_variance: the residual's variance is scaled by
    B / (fs/2) before the ratio.  Saturates at SNR_SATURATION_DB instead
    of returning +inf when the residual (or its variance) vanishes.
    """
    noisy = np.asarray(noisy, dtype=np.float64)
    clean = np.asarray(clean, dtype=np.float64)
    if noisy.size != clean.size:
        raise ValueError("noisy and clean waveforms must have equal length")
    clean_power = float(np.mean(clean**2))
    if clean_power == 0.0:
        raise ValueError("clean reference has zero power")
    var = float(np.var(noisy - clean))
    if var == 0.0:
        return SNR_SATURATION_DB
    snr = 10.0 * np.log10(clean_power / (var * profile.ref_bandwidth_hz
                                         / (profile.sample_rate_hz / 2.0)))
    return float(min(snr, SNR_SATURATION_DB))


def adam_step_with(state, adam, grads, cfg):
    """adam_step on any name -> array mapping ``grads``: copies it into the
    state's gradient arena, where backward() leaves its gradients, first."""
    _, views = _gradients(state)
    for name in state.trainable_names:
        views[name][...] = grads[name]
    adam_step(state, adam, views, cfg)


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
