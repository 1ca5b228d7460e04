"""Spectral and correlation analysis plus the classical non-coherent detector.

The classical baseline demodulates a symbol window by taking the DFT
magnitude at each of the M data-tone bins and picking the largest: matched
non-coherent detection on the orthogonal tone grid.  It achieves the
closed-form limit for non-coherent orthogonal MFSK and anchors every
Monte-Carlo acceptance check in this package.
"""

import numpy as np

from .signal import _SLICE_ROWS, ModemProfile, _is_pow2, tone_bin, window_batch


def energy_spectrum(samples: np.ndarray) -> np.ndarray:
    """One-sided energy spectral density, one energy per DFT bin 0..N/2; bin i
    lies at i * fs / N.

    Input length must be a power of two (exact-length FFT, no window
    function, no zero padding).  Bin energies satisfy Parseval: their sum
    equals the time-domain energy sum(x**2).
    """
    n = samples.size
    if not _is_pow2(n):
        raise ValueError(f"waveform length {n} is not a power of two")
    energies = np.abs(np.fft.rfft(samples)) ** 2 / n
    # One-sided: interior bins carry the energy of both DFT halves.
    energies[1:-1] *= 2.0
    return energies


def autocorrelation(samples: np.ndarray, max_lag: int) -> np.ndarray:
    """Biased sample autocorrelation for lags 0..max_lag, normalized to r[0] = 1."""
    n = samples.size
    if not 0 <= max_lag < n:
        raise ValueError(f"max_lag must be in [0, {n}), got {max_lag}")
    # FFT-based full autocorrelation; pad to the next power of two >= 2n.
    size = 1 << int(2 * n - 1).bit_length()
    spectrum = np.fft.rfft(samples, size)
    r = np.fft.irfft(spectrum * np.conj(spectrum), size)[: max_lag + 1]
    if r[0] == 0.0:
        raise ValueError("autocorrelation of an all-zero waveform is undefined")
    return r / r[0]


def classical_demodulator(profile: ModemProfile):
    """The classical detector: ``demod(batch)`` maps (B, symbol_len) windows, or
    one window, to the (B,) argmax of the M data-bin DFT magnitudes; ties break
    toward the lowest tone (an all-zero window decodes as tone 0).  A batch of
    more than _SLICE_ROWS rows is transformed that many rows at a time, so its
    spectra stay small whatever the batch size; each row decides alike."""
    lo = tone_bin(profile, 0)

    def decide(rows):
        spectrum = np.fft.rfft(rows, axis=-1)
        return np.argmax(np.abs(spectrum[:, lo : lo + profile.tone_count]), axis=-1)

    def demod(batch: np.ndarray) -> np.ndarray:
        batch = window_batch(batch, profile.symbol_len)
        if batch.shape[0] <= _SLICE_ROWS:
            return decide(batch)
        return np.concatenate([decide(batch[start : start + _SLICE_ROWS])
                               for start in range(0, batch.shape[0], _SLICE_ROWS)])

    return demod
