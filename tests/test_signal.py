"""Tests for the tone plan, symbol synthesis, and the AWGN channel."""

import dataclasses

import numpy as np
import pytest

from conftest import synthesize_symbol
from mfskmodem.signal import (
    SNR_SATURATION_DB,
    SYNC,
    ModemProfile,
    measure_snr,
    noise_variance,
    noisy_windows,
    tone_bin,
    tone_windows,
)


class TestModemProfile:
    def test_full_profile_constants(self, full_profile):
        assert full_profile.bits_per_symbol == 6
        assert full_profile.symbol_duration_s == pytest.approx(0.3715, abs=5e-5)

    def test_symbol_len_must_be_power_of_two(self):
        with pytest.raises(ValueError, match="power of two"):
            ModemProfile(11025.0, 4000, 64, 472, 2, 2500.0)

    def test_tone_count_must_be_power_of_two(self):
        with pytest.raises(ValueError, match="power of two"):
            ModemProfile(11025.0, 4096, 60, 472, 2, 2500.0)

    def test_tones_must_stay_below_nyquist(self):
        with pytest.raises(ValueError, match="Nyquist"):
            ModemProfile(11025.0, 256, 64, 100, 2, 2500.0)

    @pytest.mark.parametrize("field, value, message", [
        ("sample_rate_hz", float("nan"), "sample_rate_hz must be finite"),
        ("sample_rate_hz", float("inf"), "sample_rate_hz must be finite"),
        ("ref_bandwidth_hz", float("nan"), "ref_bandwidth_hz must be finite"),
        ("ref_bandwidth_hz", float("inf"), "ref_bandwidth_hz must be finite"),
        ("tone_count", 1, "power of two >= 2"),
    ])
    def test_unrunnable_value_rejected(self, full_profile, field, value, message):
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(full_profile, **{field: value})


class TestToneBin:
    def test_sync_bin_is_snapped_nominal(self, full_profile):
        # Bin 472 of a 4096-point window at 11025 Hz; nominal tone is 1270.5 Hz.
        sync = tone_bin(full_profile, SYNC)
        assert sync == 472
        assert sync * 11025 / 4096 == pytest.approx(1270.5, abs=0.05)

    def test_data_tone_zero(self, full_profile):
        assert tone_bin(full_profile, 0) == 474

    def test_reduced_profile_tone_zero(self, reduced_profile):
        assert tone_bin(reduced_profile, 0) == 61

    def test_data_tones_fill_consecutive_bins(self, reduced_profile):
        bins = [tone_bin(reduced_profile, tone) for tone in range(reduced_profile.tone_count)]
        assert bins == list(range(61, 61 + reduced_profile.tone_count))
        assert all(type(b) is int for b in bins)

    def test_out_of_range_tone_rejected(self, full_profile):
        with pytest.raises(ValueError, match="out of range"):
            tone_bin(full_profile, 64)
        with pytest.raises(ValueError, match="out of range"):
            tone_bin(full_profile, -1)

    def test_unknown_marker_rejected(self, full_profile):
        with pytest.raises(ValueError, match="unknown tone marker"):
            tone_bin(full_profile, "pilot")


class TestSynthesizeSymbol:
    @pytest.mark.parametrize("tone,phase", [(0, 0.0), (17, 1.3), (63, 5.9), (SYNC, 2.2)])
    def test_mean_power_is_half_amplitude_squared(self, full_profile, tone, phase):
        w = synthesize_symbol(full_profile, tone, phase=phase)
        assert np.mean(w**2) == pytest.approx(0.5, rel=1e-12)

    def test_first_sample_matches_formula(self, full_profile):
        w = synthesize_symbol(full_profile, 0, phase=0.0)
        freq = tone_bin(full_profile, 0) * 11025 / full_profile.symbol_len
        assert w[1] == pytest.approx(np.sin(2 * np.pi * freq / 11025), rel=1e-12)
        assert w.shape == (full_profile.symbol_len,)


class TestToneWindows:
    @pytest.mark.parametrize("profile", ["full_profile", "reduced_profile"])
    def test_rows_equal_the_formula_bitwise(self, profile, rng, request):
        # Each row, whatever the batch, is bit for bit sin(2*pi*b*n/N + phi)
        # evaluated for that window alone.
        profile = request.getfixturevalue(profile)
        n = profile.symbol_len
        bins = profile.sync_bin + profile.tone_offset + rng.integers(0, profile.tone_count, 64)
        phases = rng.uniform(0.0, 2.0 * np.pi, 64)
        windows = tone_windows(profile, bins, phases)
        assert windows.shape == (64, n) and windows.dtype == np.float64
        for row, b, phase in zip(windows, bins, phases):
            expected = np.sin(2.0 * np.pi * int(b) * np.arange(n) / n + phase)
            assert row.tobytes() == expected.tobytes()


class TestOrthogonality:
    def test_reduced_profile_exhaustive(self, reduced_profile):
        tones = [SYNC, *range(reduced_profile.tone_count)]
        waves = {t: synthesize_symbol(reduced_profile, t, phase=0.7) for t in tones}
        n = reduced_profile.symbol_len
        for i, a in enumerate(tones):
            for b in tones[i + 1 :]:
                inner = abs(np.dot(waves[a], waves[b])) / n
                assert inner <= 1e-9

    def test_full_profile_sampled_pairs(self, full_profile, rng):
        pairs = {tuple(sorted(rng.choice(64, 2, replace=False))) for _ in range(20)}
        n = full_profile.symbol_len
        for a, b in pairs:
            wa = synthesize_symbol(full_profile, int(a), phase=0.1)
            wb = synthesize_symbol(full_profile, int(b), phase=2.5)
            assert abs(np.dot(wa, wb)) / n <= 1e-9


class TestNoiseVariance:
    """The AWGN channel's calibration and refusals: noise_variance and
    noisy_windows."""

    def test_noise_variance_formula(self, full_profile):
        # Unit-amplitude tone (power 0.5) at -25 dB in a 2500 Hz reference band.
        var = noise_variance(full_profile, -25.0)
        assert var == pytest.approx(0.5 * 5512.5 / (2500 * 10 ** -2.5), rel=1e-12)
        assert var == pytest.approx(348.6408, rel=1e-6)

    def test_high_snr_leaves_waveform_untouched(self, full_profile, rng):
        w = synthesize_symbol(full_profile, 5)
        noisy = noisy_windows(full_profile, [tone_bin(full_profile, 5)], 0.0, 100.0, rng)[0]
        residual_power = np.mean((noisy - w) ** 2)
        assert residual_power < 1e-9 * np.mean(w**2) * 1e6  # -100 dB in band

    def test_seeded_determinism(self, full_profile):
        bins = [tone_bin(full_profile, 12)]
        a = noisy_windows(full_profile, bins, 0.4, -20.0, np.random.default_rng(99))
        b = noisy_windows(full_profile, bins, 0.4, -20.0, np.random.default_rng(99))
        assert np.array_equal(a, b)

    def test_non_finite_snr_rejected(self, full_profile, rng):
        with pytest.raises(ValueError, match="finite"):
            noisy_windows(full_profile, [tone_bin(full_profile, 0)], 0.0, float("nan"), rng)

    @pytest.mark.parametrize("snr_db", [4000.0, -1e39])
    def test_unrepresentable_variance_rejected(self, full_profile, snr_db):
        # 10**(snr/10) overflows at +4000 dB and underflows to 0 at -1e39 dB.
        with pytest.raises(ValueError, match="noise variance"):
            noise_variance(full_profile, snr_db)


class TestNoisyWindows:
    def test_unrepresentable_variance_rejected(self, reduced_profile, rng):
        with pytest.raises(ValueError, match="noise variance"):
            noisy_windows(reduced_profile, [60], 0.0, 4000.0, rng)

    @pytest.mark.parametrize("seed, snr_db, rows, per_row_phases, profile", [
        (11, -20.0, rows, per_row_phases, profile)
        for profile in ("full_profile", "reduced_profile")
        for rows in (0, 1, 63, 64, 65, 129, 2113) for per_row_phases in (False, True)
    ] + [(seed, -30.0 + 1.5 * seed, 256, False, "full_profile") for seed in range(20)])
    def test_channel_is_tones_plus_one_normal_draw(self, seed, snr_db, rows, per_row_phases,
                                                   profile, request):
        # Every batch shape at one seed, then 256 rows at each of 20 seeds and
        # SNRs: the channel gives the bits of one (B, N) tone batch plus one
        # Generator.normal (B, N) draw, and leaves the Generator where that
        # draw leaves it.
        profile = request.getfixturevalue(profile)
        setup = np.random.default_rng(rows)
        bins = tone_bin(profile, 0) + setup.integers(0, profile.tone_count, rows)
        bins[:1] = tone_bin(profile, SYNC)  # the sync tone crosses the channel too
        phases = setup.uniform(0.0, 2.0 * np.pi, rows) if per_row_phases else 2.1
        rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
        channel = noisy_windows(profile, bins, phases, snr_db, rng)
        sigma = np.sqrt(noise_variance(profile, snr_db))
        oracle = tone_windows(profile, bins, phases)
        oracle += twin.normal(0.0, sigma, (rows, profile.symbol_len))
        assert channel.shape == oracle.shape == (rows, profile.symbol_len)
        assert channel.dtype == oracle.dtype == np.float64
        assert channel.tobytes() == oracle.tobytes()
        assert rng.bit_generator.state == twin.bit_generator.state


class TestMeasureSnr:
    @pytest.mark.parametrize("target", [-30.0, -25.0, -10.0, 0.0])
    def test_round_trip_calibration(self, full_profile, target):
        # 10 symbol windows = 40960 samples.
        clean = np.tile(synthesize_symbol(full_profile, 7, phase=1.1), 10)
        channel = noisy_windows(full_profile, [tone_bin(full_profile, 7)] * 10, 1.1, target,
                                np.random.default_rng(int(target) + 77))
        assert measure_snr(channel.ravel(), clean, full_profile) == pytest.approx(target, abs=0.2)

    def test_identical_waveforms_saturate(self, full_profile):
        w = synthesize_symbol(full_profile, 3)
        assert measure_snr(w, w, full_profile) == SNR_SATURATION_DB

    def test_zero_power_reference_rejected(self, full_profile):
        with pytest.raises(ValueError, match="zero power"):
            measure_snr(np.ones(64), np.zeros(64), full_profile)

    def test_length_mismatch_rejected(self, full_profile):
        with pytest.raises(ValueError, match="equal length"):
            measure_snr(np.ones(8), np.ones(9), full_profile)
