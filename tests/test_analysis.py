"""Tests for spectra, autocorrelation, and the classical detector."""

import numpy as np
import pytest

from conftest import synthesize_symbol
from mfskmodem.analysis import (
    autocorrelation,
    classical_demodulator,
    energy_spectrum,
)
from mfskmodem.signal import SYNC, noisy_windows, tone_bin


class TestEnergySpectrum:
    def test_parseval_on_tone(self, full_profile):
        w = synthesize_symbol(full_profile, 11, phase=0.3)
        energies = energy_spectrum(w)
        assert energies.sum() == pytest.approx(np.sum(w**2), rel=1e-6)
        assert energies.size == full_profile.symbol_len // 2 + 1

    def test_parseval_on_noise(self, rng):
        w = rng.standard_normal(1024)
        assert energy_spectrum(w).sum() == pytest.approx(np.sum(w**2), rel=1e-6)

    def test_bin_aligned_tone_concentrates(self, reduced_profile):
        w = synthesize_symbol(reduced_profile, 4, phase=1.7)
        energies = energy_spectrum(w)
        peak = np.argmax(energies)
        assert peak == tone_bin(reduced_profile, 4)
        others = np.delete(energies, peak)
        assert others.max() <= 1e-9 * energies[peak]

    def test_dc_input_lands_in_bin_zero(self):
        energies = energy_spectrum(np.full(256, 0.5))
        assert np.argmax(energies) == 0
        assert energies[1:].max() <= 1e-12

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ValueError, match="power of two"):
            energy_spectrum(np.ones(100))

    def test_sync_tone_visible_at_minus_20_but_not_minus_25(self, full_profile):
        # Qualitative reproduction of the ESD pair: the sync bin dominates
        # at -20 dB, while at -25 dB the noise floor takes over for most
        # seeds.  Fixed seeds keep both statistical claims stable.
        def sync_peak(snr_db, seed):
            channel = noisy_windows(full_profile, [tone_bin(full_profile, SYNC)], 0.2, snr_db,
                                    np.random.default_rng(seed))
            return np.argmax(energy_spectrum(channel[0]))

        assert sync_peak(-20.0, 3) == full_profile.sync_bin
        misses = sum(sync_peak(-25.0, seed) != full_profile.sync_bin for seed in range(10))
        assert misses > 0


class TestAutocorrelation:
    def test_lag_zero_is_one(self, rng):
        acf = autocorrelation(rng.standard_normal(500), 10)
        assert acf[0] == pytest.approx(1.0, rel=1e-12)

    def test_tone_period_peaks(self, reduced_profile):
        # Bin 64 of a 512-sample window is fs/8: an exact 8-sample period.
        w = synthesize_symbol(reduced_profile, 3, phase=0.0)
        bin_index = tone_bin(reduced_profile, 3)
        assert bin_index == 64
        acf = autocorrelation(w, 20)
        assert acf[8] == pytest.approx(1.0, abs=0.03)
        assert acf[8] > acf[7] and acf[8] > acf[9]

    def test_white_noise_decorrelates(self):
        n = 32768
        acf = autocorrelation(np.random.default_rng(17).standard_normal(n), 50)
        assert np.max(np.abs(acf[1:])) < 5.0 / np.sqrt(n)

    def test_max_lag_out_of_range(self, rng):
        w = rng.standard_normal(64)
        with pytest.raises(ValueError, match="max_lag"):
            autocorrelation(w, 64)
        with pytest.raises(ValueError, match="max_lag"):
            autocorrelation(w, -1)

    def test_zero_waveform_rejected(self):
        with pytest.raises(ValueError, match="all-zero"):
            autocorrelation(np.zeros(32), 4)


class TestClassicalDemod:
    def test_noiseless_exhaustive_and_phase_invariant(self, full_profile):
        for phase in (0.0, 1.234, 4.5):
            batch = np.stack([
                synthesize_symbol(full_profile, s, phase=phase)
                for s in range(full_profile.tone_count)
            ])
            assert np.array_equal(classical_demodulator(full_profile)(batch),
                                  np.arange(full_profile.tone_count))

    def test_all_zero_input_breaks_ties_low(self, full_profile):
        w = np.zeros((1, full_profile.symbol_len))
        assert classical_demodulator(full_profile)(w).tolist() == [0]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("rows", [0, 1, 15, 16, 17, 63, 64, 65, 1024])
    def test_blocks_decide_as_the_one_shot_transform(self, full_profile, dtype, rows):
        batch = np.random.default_rng(rows).standard_normal(
            (rows, full_profile.symbol_len)).astype(dtype)
        lo = tone_bin(full_profile, 0)
        spectrum = np.fft.rfft(batch, axis=-1)[:, lo : lo + full_profile.tone_count]
        expected = np.argmax(np.abs(spectrum), axis=-1)
        decided = classical_demodulator(full_profile)(batch)
        assert decided.dtype == expected.dtype
        assert np.array_equal(decided, expected)

    def test_a_large_batch_is_transformed_in_small_blocks(self, full_profile, traced_peak):
        batch = np.random.default_rng(5).standard_normal(
            (1024, full_profile.symbol_len)).astype(np.float32)
        demod = classical_demodulator(full_profile)
        with traced_peak() as peak:
            demod(batch)
        # The one-shot rfft peaks at 80 MiB, 64-row slices at 5 MiB.
        assert peak.bytes < 2 * 2**20

    def test_length_mismatch_rejected(self, full_profile):
        with pytest.raises(ValueError, match="symbol_len"):
            classical_demodulator(full_profile)(np.ones(100))
