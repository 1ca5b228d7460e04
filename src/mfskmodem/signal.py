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


def tone_windows(profile: ModemProfile, bins, phases, *, out=None) -> np.ndarray:
    """(B, N) unit windows sin(2*pi*b*n/N + phi), one per bin, the bin-aligned
    form of sin(2*pi*f*n/fs + phi); ``phases`` is one per bin or one for all.

    The angles are built and ``sin`` runs in one (B, N) float64 array: a new
    one, or ``out`` when given, which is then returned.  Either way the
    windows have the same bits."""
    n = profile.symbol_len
    bins = np.asarray(bins)
    if out is not None:
        _workspace(out, (len(bins), n))
    # N is a power of two: (2*pi/N)*b*n rounds exactly as 2*pi*b*n/N does.
    angles = np.multiply((2.0 * np.pi / n) * bins[:, None], np.arange(n), out=out)
    angles += np.asarray(phases)[..., None]
    return np.sin(angles, out=angles)


def _workspace(array, shape):
    """``array`` if it is a float64 array of ``shape``, else ValueError."""
    if not (isinstance(array, np.ndarray) and array.dtype == np.float64
            and array.shape == shape):
        raise ValueError(f"workspace must be a float64 array of shape {shape}, got "
                         f"{getattr(array, 'dtype', type(array).__name__)} {np.shape(array)}")
    return array


# A sweep point synthesizes, demodulates and counts its symbols this many rows
# at a time, so every demod call sees the same batches whatever the point's size.
_BLOCK_ROWS = 64

# The channel draws its noise, and the classical detector transforms its rows,
# this many rows at a time: the rfft of a whole batch peaks at a multiple of its
# output, and a noise block need not outlive its rows, while each row's bits
# and the Generator's stream are the same in a slice of any size.
_SLICE_ROWS = 16


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
                  rng: np.random.Generator, *, out=None, noise=None) -> np.ndarray:
    """The AWGN channel: tone_windows (unit tones, power 0.5) plus full-band
    white noise calibrated to ``snr_db``, drawn from ``rng`` after the caller's
    own draws.  Datasets, sweeps and ``analyze`` all go through here.

    The tones are built in ``out`` as tone_windows does, or in a new array.
    The noise is drawn a slice of rows at a time into ``noise``, a float64
    (R, N) scratch of any R >= 1 rows (by default a new one of at most
    _SLICE_ROWS rows), scaled by sigma in place and added to the slice's
    rows.  Generator.standard_normal fills any split of the rows with the
    same stream, so the result has the bits of ``rng.normal(0.0, sigma, (B,
    N))`` added to the tones, and ``rng`` is left where that draw leaves
    it.  A ``noise`` or ``out`` of another shape or dtype raises ValueError
    before any draw."""
    n = profile.symbol_len
    if noise is not None and not (isinstance(noise, np.ndarray) and noise.dtype == np.float64
                                  and noise.ndim == 2 and noise.shape[0] >= 1
                                  and noise.shape[1] == n and noise.flags.c_contiguous):
        raise ValueError(f"noise workspace must be a C-contiguous float64 (R, {n}) array with "
                         f"R >= 1, got {getattr(noise, 'dtype', type(noise).__name__)} "
                         f"{np.shape(noise)}")
    x = tone_windows(profile, bins, phases, out=out)
    sigma = np.sqrt(noise_variance(profile, snr_db))
    if noise is None:
        noise = np.empty((min(len(x), _SLICE_ROWS) or 1, n))
    for lo in range(0, len(x), len(noise)):
        rows = x[lo : lo + len(noise)]
        slab = rng.standard_normal(rows.shape, out=noise[: len(rows)])
        slab *= sigma
        rows += slab
    return x


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
