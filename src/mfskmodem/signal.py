"""Tone plan, MFSK symbol synthesis, and the calibrated AWGN channel.

Tone frequencies are snapped to the DFT bin grid of the symbol window
(bin width ``sample_rate / symbol_len``), so every data tone completes an
integer number of cycles per symbol and the alphabet is exactly orthogonal
over one window.  For the full profile the sync tone lands on bin 472 =
1270.46 Hz, a hair under the nominal 1270.5 Hz.

SNR convention: noise is white over the full Nyquist band, and the quoted
SNR is signal power over the noise power falling inside the reference
bandwidth ``ref_bandwidth_hz`` (2500 Hz for the full profile).  A
non-coherent detector reads only the tone bins, so full-band white noise
gives the same per-bin statistics as band-limited noise at equal in-band
power.  ``lowpass`` is available for figure reproduction but is not part
of the synthesis path.
"""

from dataclasses import dataclass

import numpy as np

from .theory import bits_per_symbol

# Marker accepted wherever a tone is expected, selecting the sync tone.
SYNC = "sync"

# measure_snr saturates here instead of returning +inf on a zero residual.
SNR_SATURATION_DB = 300.0


def _is_pow2(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class ModemProfile:
    """Protocol constants for one MFSK profile.

    Attributes:
        sample_rate_hz: sampling rate fs.
        symbol_len: samples per symbol window (power of two).
        tone_count: size M of the data-tone alphabet (power of two >= 2).
        sync_bin: DFT bin index of the synchronizing tone.
        tone_offset: bin offset of data tone 0 above the sync bin.
        ref_bandwidth_hz: reference bandwidth B for the SNR convention.
    """

    sample_rate_hz: float
    symbol_len: int
    tone_count: int
    sync_bin: int
    tone_offset: int
    ref_bandwidth_hz: float

    def __post_init__(self):
        if not (np.isfinite(self.sample_rate_hz) and self.sample_rate_hz > 0):
            raise ValueError("sample_rate_hz must be finite and positive")
        if not (np.isfinite(self.ref_bandwidth_hz) and self.ref_bandwidth_hz > 0):
            raise ValueError("ref_bandwidth_hz must be finite and positive")
        if not _is_pow2(self.symbol_len):
            raise ValueError(f"symbol_len must be a power of two, got {self.symbol_len}")
        if self.tone_count < 2 or not _is_pow2(self.tone_count):
            raise ValueError(f"tone_count must be a power of two >= 2, got {self.tone_count}")
        if self.sync_bin < 0 or self.tone_offset < 0:
            raise ValueError("sync_bin and tone_offset must be non-negative")
        top_bin = tone_bin(self, self.tone_count - 1)
        if top_bin >= self.symbol_len / 2:
            raise ValueError(
                f"highest data tone (bin {top_bin}) is at or above Nyquist "
                f"(bin {self.symbol_len // 2})"
            )

    @property
    def bits_per_symbol(self) -> int:
        """Information bits per data tone, log2(tone_count)."""
        return bits_per_symbol(self.tone_count)

    @property
    def symbol_duration_s(self) -> float:
        return self.symbol_len / self.sample_rate_hz


def tone_bin(profile: ModemProfile, tone) -> int:
    """DFT bin index for ``tone``: an integer in [0, tone_count) or SYNC."""
    if isinstance(tone, str):
        if tone == SYNC:
            return profile.sync_bin
        raise ValueError(f"unknown tone marker {tone!r}")
    index = int(tone)
    if not 0 <= index < profile.tone_count:
        raise ValueError(
            f"tone index {index} out of range [0, {profile.tone_count})"
        )
    return profile.sync_bin + profile.tone_offset + index


def tone_windows(profile: ModemProfile, bins, phases) -> np.ndarray:
    """(B, N) unit windows sin(2*pi*b*n/N + phi), one per bin, the bin-aligned
    form of sin(2*pi*f*n/fs + phi); ``phases`` is one per bin or one for all."""
    n = profile.symbol_len
    # N is a power of two: (2*pi/N)*b*n rounds exactly as 2*pi*b*n/N does.
    angles = (2.0 * np.pi / n) * np.asarray(bins)[:, None] * np.arange(n)
    angles += np.asarray(phases)[..., None]
    return np.sin(angles, out=angles)


# The classical detector works through a batch this many rows at a time, and a
# sweep point through its symbols: the rfft of a whole batch peaks at a
# multiple of its output, while each row's bits are the same in a block of
# any size.
_BLOCK_ROWS = 64


def window_batch(batch, symbol_len: int) -> np.ndarray:
    """``batch`` as (B, symbol_len) windows, one per row; a single window
    becomes a batch of one.  The input rule of both detectors."""
    batch = np.atleast_2d(np.asarray(batch))
    if batch.ndim != 2 or batch.shape[1] != symbol_len:
        raise ValueError(f"batch must be (B, {symbol_len}), one symbol_len window per row, "
                         f"got {batch.shape}")
    return batch


def noise_variance(profile: ModemProfile, snr_db: float) -> float:
    """Per-sample variance of full-band white noise putting a unit tone
    (power 0.5) at ``snr_db``.

    The SNR is signal power over the noise power inside the reference
    bandwidth; white noise of variance v spreads v * B / (fs/2) into a
    band of width B, so v = 0.5 * (fs/2) / (B * 10**(snr/10)).
    """
    if not np.isfinite(snr_db):
        raise ValueError("snr_db must be finite")
    try:
        var = 0.5 * (profile.sample_rate_hz / 2.0) / (profile.ref_bandwidth_hz
                                                      * 10.0 ** (snr_db / 10.0))
    except (OverflowError, ZeroDivisionError, FloatingPointError):  # the last under errstate raise
        var = 0.0
    if not (np.isfinite(var) and var > 0.0):
        raise ValueError(f"snr_db {snr_db:g} gives no finite positive noise variance")
    return var


def noisy_windows(profile: ModemProfile, bins, phases, snr_db: float,
                  rng: np.random.Generator) -> np.ndarray:
    """The AWGN channel: tone_windows (unit tones, power 0.5) plus full-band
    white noise calibrated to ``snr_db``, drawn from ``rng`` after the caller's
    own draws.  Datasets, sweeps and ``analyze`` all go through here.

    The noise is one standard-normal draw scaled by sigma in place: the bits
    of ``rng.normal(0.0, sigma, (B, N))``, and the stream left where it leaves
    it."""
    x = tone_windows(profile, bins, phases)
    sigma = np.sqrt(noise_variance(profile, snr_db))
    noise = rng.standard_normal(x.shape)
    noise *= sigma
    x += noise
    return x


def measure_snr(noisy, clean, profile: ModemProfile) -> float:
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


def lowpass(samples: np.ndarray, sample_rate_hz: float, cutoff_hz: float) -> np.ndarray:
    """Brick-wall low-pass: zero every DFT bin strictly above ``cutoff_hz``.

    Provided for figure reproduction only; the synthesis/dataset path keeps
    noise full-band (see module docstring).
    """
    if cutoff_hz <= 0:
        raise ValueError("cutoff_hz must be positive")
    spectrum = np.fft.rfft(samples)
    spectrum[np.fft.rfftfreq(samples.size, d=1.0 / sample_rate_hz) > cutoff_hz] = 0.0
    return np.fft.irfft(spectrum, n=samples.size)
