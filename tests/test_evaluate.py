"""Tests for confusion-matrix metrics, Monte-Carlo sweeps, and the benchmark."""

import threading

import numpy as np
import pytest

from conftest import DESK_M4, esn0_to_snr, synthesize_symbol, write_profiles
from mfskmodem.analysis import classical_demodulator
from mfskmodem.evaluate import (
    ConfusionMatrix,
    accumulate_many,
    bench_latency,
    metrics,
    sweep_ber,
    write_lines,
)
from mfskmodem.nn import ModelConfig, build_model, forward, model_demodulator
from mfskmodem.profiles import get_profile
from mfskmodem.theory import ser_noncoherent_mfsk


@pytest.mark.parametrize("detector", ["classical", "cnn"])
def test_both_detectors_keep_one_batch_contract(reduced_profile, rng, detector):
    """demod(batch) -> labels: what sweep_ber, bench_latency and the CLI call."""
    if detector == "classical":
        demod = classical_demodulator(reduced_profile)
    else:
        config = ModelConfig(input_len=reduced_profile.symbol_len, conv_filters=4,
                             conv_kernel=8, hidden_units=8,
                             classes=reduced_profile.tone_count)
        demod = model_demodulator(build_model(config, seed=0))
    for batch_size in (1, 3):
        labels = demod(rng.standard_normal((batch_size, reduced_profile.symbol_len)))
        assert labels.shape == (batch_size,)
        assert np.issubdtype(labels.dtype, np.integer)
        assert np.all((labels >= 0) & (labels < reduced_profile.tone_count))
    with pytest.raises(ValueError):
        demod(rng.standard_normal((3, reduced_profile.symbol_len - 1)))
    with pytest.raises(ValueError, match="batch must be"):
        demod(rng.standard_normal((2, 3, reduced_profile.symbol_len)))


def test_a_shifted_tone_plan_reaches_detector_sweep_and_bench(tmp_path):
    """sync_bin 31 and tone_offset 5, unlike both builtins: the classical
    detector, the sweep and the latency bench must place data tone 0 on bin 36."""
    config = write_profiles(tmp_path / "profiles.ini", {"shifted": {
        **DESK_M4, "tone_count": 8, "sync_bin": 31, "tone_offset": 5, "ref_bandwidth_hz": 2500}})
    profile = get_profile("shifted", config).modem
    demod = classical_demodulator(profile)
    clean = np.stack([synthesize_symbol(profile, tone, phase=0.4 * tone)
                      for tone in range(profile.tone_count)])
    assert demod(clean).tolist() == list(range(profile.tone_count))
    row = sweep_ber(demod, profile, [30.0], 500, seed=3)[0]
    assert row.ser == row.ber_measured == 0.0
    # bench_latency must warm up on and time clean data tones: peaks in the
    # bins [36, 44).
    windows = []

    def spy(batch):
        windows.append(np.array(batch))
        return demod(batch)

    assert bench_latency(spy, profile, 200).n == 200
    peaks = np.argmax(np.abs(np.fft.rfft(np.concatenate(windows), axis=-1)), axis=-1)
    assert len(peaks) == 100 + 200
    assert set(peaks.tolist()) == set(range(36, 44))


class TestConfusionMatrix:
    def test_single_accumulate(self):
        cm = ConfusionMatrix.empty(4)
        accumulate_many(cm, [0], [0])
        assert cm.counts[0, 0] == 1
        assert cm.total == 1
        assert np.trace(cm.counts) == 1

    def test_all_correct_stream_is_diagonal(self, rng):
        cm = ConfusionMatrix.empty(8)
        stream = rng.integers(0, 8, 100)
        accumulate_many(cm, stream, stream)
        assert np.array_equal(cm.counts, np.diag(np.bincount(stream, minlength=8)))

    def test_total_tracks_accumulations(self, rng):
        cm = ConfusionMatrix.empty(8)
        for _ in range(25):
            accumulate_many(cm, [int(rng.integers(0, 8))], [int(rng.integers(0, 8))])
        assert cm.total == 25

    def test_out_of_range_rejected(self):
        cm = ConfusionMatrix.empty(4)
        with pytest.raises(ValueError):
            accumulate_many(cm, [4], [0])
        with pytest.raises(ValueError):
            accumulate_many(cm, [0], [-1])

    def test_mismatched_shapes_rejected(self):
        # np.add.at would broadcast [0] against [0, 1, 2] and count 3 pairs.
        cm = ConfusionMatrix.empty(4)
        with pytest.raises(ValueError, match="shape"):
            accumulate_many(cm, [0, 1, 2], [0])
        with pytest.raises(ValueError, match="shape"):
            accumulate_many(cm, [[0, 1]], [0, 1])
        assert cm.total == 0


    @pytest.mark.parametrize("true, predicted", [
        pytest.param([0.5], [1.0], id="float"),
        pytest.param([True], [False], id="bool"),
        pytest.param([0], [1.0], id="float-predicted"),
    ])
    def test_non_integer_indices_rejected(self, true, predicted):
        cm = ConfusionMatrix.empty(4)
        with pytest.raises(ValueError, match=r"indices must be integers in \[0, 4\)"):
            accumulate_many(cm, np.array(true), np.array(predicted))
        assert cm.total == 0

    @pytest.mark.parametrize("counts", [[[0.5, 0], [0, 2.7]], [[1.0, 0], [0, 2.0]],
                                        [[True, False], [False, True]]],
                             ids=["fractional", "integral-float", "bool"])
    def test_non_integer_counts_rejected(self, counts):
        # int64 casting would silently store [[0, 0], [0, 2]] for the first.
        with pytest.raises(ValueError, match="counts must be integers"):
            ConfusionMatrix(np.array(counts))


class TestMetrics:
    def test_identity_predictions(self):
        cm = ConfusionMatrix(np.diag([10, 20, 30, 40]))
        report = metrics(cm)
        assert report.accuracy == 1.0
        assert report.ser == 0.0
        assert report.ber_measured == 0.0
        assert np.all(report.class_error_rate == 0.0)
        assert report.macro_recall == 1.0

    def test_micro_recall_equals_accuracy(self, rng):
        cm = ConfusionMatrix.empty(8)
        accumulate_many(cm, rng.integers(0, 8, 500), rng.integers(0, 8, 500))
        report = metrics(cm)
        assert report.micro_recall == report.accuracy
        assert report.micro_precision == report.accuracy

    def test_chance_level_predictions(self, rng):
        cm = ConfusionMatrix.empty(64)
        accumulate_many(cm, rng.integers(0, 64, 20000), rng.integers(0, 64, 20000))
        report = metrics(cm)
        assert report.accuracy == pytest.approx(1 / 64, abs=5 * np.sqrt(
            (1 / 64) * (63 / 64) / 20000))

    def test_measured_ber_from_known_matrix(self):
        # M=4 (k=2): one 0->1 confusion (1 bit), one 0->3 confusion (2 bits),
        # two correct.  BER = 3 bits wrong / (2 bits * 4 symbols).
        counts = np.zeros((4, 4), dtype=int)
        counts[0, 1] = 1
        counts[0, 3] = 1
        counts[1, 1] = 1
        counts[2, 2] = 1
        report = metrics(ConfusionMatrix(counts))
        assert report.ber_measured == pytest.approx(3 / 8)
        assert report.ser == pytest.approx(0.5)
        assert report.ber_from_ser == pytest.approx(0.5 * 2 / 3)

    def test_ser_is_the_error_count_over_the_total(self):
        # 1 - 141/160 is 0.11875000000000002; the count itself divides exactly.
        counts = np.diag([41, 40, 30, 30])
        counts[0, 2] = 19
        report = metrics(ConfusionMatrix(counts))
        assert report.ser == report.micro_error_rate == 19 / 160

    def test_zero_support_classes_skipped_in_macro(self):
        counts = np.zeros((4, 4), dtype=int)
        counts[0, 0] = 5
        counts[1, 0] = 5  # class 1 never predicted correctly; classes 2,3 unseen
        report = metrics(ConfusionMatrix(counts))
        assert report.macro_recall == pytest.approx(0.5)  # mean of 1.0 and 0.0
        assert report.class_support.tolist() == [5, 5, 0, 0]

    def test_empty_matrix_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            metrics(ConfusionMatrix.empty(4))

    def test_non_power_of_two_classes_rejected(self):
        with pytest.raises(ValueError, match="power of two"):
            metrics(ConfusionMatrix(np.eye(3, dtype=np.int64)))

    def test_report_text_has_documented_keys(self, rng):
        cm = ConfusionMatrix.empty(4)
        accumulate_many(cm, rng.integers(0, 4, 50), rng.integers(0, 4, 50))
        text = metrics(cm).to_text()
        for key in ("accuracy=", "ser=", "ber_measured=", "ber_from_ser=",
                    "macro_accuracy=", "macro_recall=", "micro_precision=",
                    "class_0_recall=", "class_0_accuracy=",
                    "class_3_error_rate="):
            assert key in text


class TestSweeps:
    def test_single_symbol_point_is_zero_or_one(self, reduced_profile):
        demod = classical_demodulator(reduced_profile)
        rows = sweep_ber(demod, reduced_profile, [-25.0], 1, seed=3)
        assert rows[0].ser in (0.0, 1.0)
        assert rows[0].n == 1

    def test_high_snr_classical_is_error_free(self, reduced_profile):
        demod = classical_demodulator(reduced_profile)
        rows = sweep_ber(demod, reduced_profile, [30.0], 1000, seed=4)
        assert rows[0].ser == 0.0
        assert rows[0].stderr == 0.0

    def test_deterministic_given_seed(self, reduced_profile):
        demod = classical_demodulator(reduced_profile)
        a = sweep_ber(demod, reduced_profile, [-12.0, -10.0], 400, seed=8)
        b = sweep_ber(demod, reduced_profile, [-12.0, -10.0], 400, seed=8)
        assert [(r.snr_db, r.ser) for r in a] == [(r.snr_db, r.ser) for r in b]

    def test_ser_strictly_decreases_with_snr(self, reduced_profile):
        # Statistical monotonicity: 50k symbols per point, 5 dB steps, all
        # points with SER above 1e-3.
        demod = classical_demodulator(reduced_profile)
        snrs = [esn0_to_snr(reduced_profile, e) for e in (0.0, 5.0, 10.0)]
        rows = sweep_ber(demod, reduced_profile, snrs, 50_000, seed=12)
        assert all(r.ser > 1e-3 for r in rows)
        assert rows[0].ser > rows[1].ser > rows[2].ser

    def test_classical_tracks_theory(self, reduced_profile):
        demod = classical_demodulator(reduced_profile)
        esn0 = 8.0
        rows = sweep_ber(demod, reduced_profile, [esn0_to_snr(reduced_profile, esn0)],
                         20_000, seed=5)
        theory = ser_noncoherent_mfsk(8, esn0)
        assert abs(rows[0].ser - theory) < 4 * rows[0].stderr

    def test_ber_row_invariants(self, reduced_profile):
        demod = classical_demodulator(reduced_profile)
        k = reduced_profile.bits_per_symbol
        snrs = [esn0_to_snr(reduced_profile, e) for e in (4.0, 8.0)]
        rows = sweep_ber(demod, reduced_profile, snrs, 4000, seed=6)
        for row in rows:
            assert row.ber_measured <= row.ser <= k * row.ber_measured
            assert row.ber_theory >= 0.0
            assert row.n == 4000

    def test_bits_per_symbol_error_ratio(self, reduced_profile):
        # Orthogonal signaling: a symbol error flips on average
        # k * 2**(k-1) / (2**k - 1) bits; for M=8 that is 12/7.
        demod = classical_demodulator(reduced_profile)
        snr = esn0_to_snr(reduced_profile, 4.0)
        rows = sweep_ber(demod, reduced_profile, [snr], 30_000, seed=7)
        row = rows[0]
        symbol_errors = row.ser * row.n
        bit_errors = row.ber_measured * row.n * reduced_profile.bits_per_symbol
        assert symbol_errors > 3000
        assert bit_errors / symbol_errors == pytest.approx(12 / 7, rel=0.05)

    def test_zero_errors_zero_ber(self, reduced_profile):
        demod = classical_demodulator(reduced_profile)
        rows = sweep_ber(demod, reduced_profile, [30.0], 500, seed=2)
        assert rows[0].ber_measured == 0.0
        assert rows[0].ber_from_ser == 0.0

    @pytest.mark.parametrize("decision", [-1, 8])
    def test_decision_outside_the_alphabet_is_refused(self, reduced_profile, decision):
        assert reduced_profile.tone_count == 8
        with pytest.raises(ValueError, match=r"indices must be integers in \[0, 8\)"):
            sweep_ber(lambda x: np.full(len(x), decision), reduced_profile, [-10.0], 100,
                      seed=1)

    def test_invalid_count_rejected(self, reduced_profile):
        demod = classical_demodulator(reduced_profile)
        with pytest.raises(ValueError, match="n_per_point"):
            sweep_ber(demod, reduced_profile, [-10.0], 0, seed=1)

    @pytest.mark.parametrize("detector", ["classical", "cnn"])
    def test_full_point_stays_near_one_block(self, full_profile, detector, traced_peak):
        # A 2048-symbol jt65a-full point runs in 64-row blocks: 2 MiB of
        # windows plus a block of noise and of spectra or the CNN's float32
        # cast (about 6 MiB; 18 MiB in 256-window chunks).
        demod = _folded_full_demod(full_profile, detector)
        with traced_peak() as peak:
            sweep_ber(demod, full_profile, [-20.0], 2048, seed=1)
        assert peak.bytes < 8 * 2**20

    @pytest.mark.parametrize("detector", ["classical", "cnn"])
    def test_two_workers_hold_two_blocks(self, full_profile, detector, traced_peak):
        demod = _folded_full_demod(full_profile, detector)
        with traced_peak() as peak:
            sweep_ber(demod, full_profile, [-20.0, -22.0], 2048, seed=1, workers=2)
        assert peak.bytes < 16 * 2**20


def _folded_full_demod(profile, detector):
    """A jt65a-full demodulator whose CNN state is folded before any tracing."""
    if detector == "classical":
        return classical_demodulator(profile)
    state = build_model(get_profile("jt65a-full").model, seed=0)
    forward(state, np.zeros(profile.symbol_len))
    return model_demodulator(state)


class TestSweepWorkers:
    SNRS = [-14.0, -10.0, -6.0, -2.0, 2.0]

    @pytest.mark.parametrize("n", [100, 2113])
    @pytest.mark.parametrize("detector", ["classical", "cnn"])
    def test_two_workers_give_the_serial_rows(self, reduced_profile, detector, n):
        # 2113 = 33 blocks of 64 rows plus one row.
        if detector == "classical":
            demod = classical_demodulator(reduced_profile)
        else:
            state = build_model(get_profile("reduced-m8").model, seed=3)
            forward(state, np.zeros(reduced_profile.symbol_len))
            demod = model_demodulator(state)
        serial = sweep_ber(demod, reduced_profile, self.SNRS, n, seed=9)
        assert sweep_ber(demod, reduced_profile, self.SNRS, n, seed=9, workers=2) == serial

    def test_unfolded_cnn_state_gives_the_serial_rows(self, reduced_profile):
        # Both pool threads' first forward calls may fold the fresh state.
        config = get_profile("reduced-m8").model
        serial = sweep_ber(model_demodulator(build_model(config, seed=3)), reduced_profile,
                           self.SNRS, 300, seed=9)
        pooled = sweep_ber(model_demodulator(build_model(config, seed=3)), reduced_profile,
                           self.SNRS, 300, seed=9, workers=2)
        assert pooled == serial

    def test_one_point_runs_on_the_calling_thread(self, reduced_profile):
        callers = set()
        demod = classical_demodulator(reduced_profile)

        def spy(x):
            callers.add(threading.current_thread())
            return demod(x)

        sweep_ber(spy, reduced_profile, [-5.0], 200, seed=1, workers=2)
        assert callers == {threading.current_thread()}

    def test_an_error_in_one_point_propagates_and_the_pool_shuts_down(self, reduced_profile):
        before = set(threading.enumerate())
        demod = classical_demodulator(reduced_profile)
        with pytest.raises(ValueError, match="noise variance"):
            sweep_ber(demod, reduced_profile, [-10.0, -10.0, 4000.0, -10.0, -10.0], 500,
                      seed=1, workers=2)
        assert set(threading.enumerate()) == before

    def test_invalid_worker_count_rejected(self, reduced_profile):
        demod = classical_demodulator(reduced_profile)
        with pytest.raises(ValueError, match="workers"):
            sweep_ber(demod, reduced_profile, [-10.0], 10, seed=1, workers=0)


class TestCsvOutput:
    def test_write_lines_to_a_path(self, tmp_path):
        path = tmp_path / "lines.csv"
        write_lines(path, (line for line in ["a,b", "1,2"]))
        assert path.read_text(encoding="utf-8") == "a,b\n1,2\n"


class TestBenchLatency:
    def test_classical_reduced_profile(self, reduced_profile):
        demod = classical_demodulator(reduced_profile)
        report = bench_latency(demod, reduced_profile, 200)
        assert report.n == 200
        assert report.p50_s <= report.p99_s
        assert report.real_time  # sub-millisecond FFTs vs a 46 ms interval
        assert report.symbol_interval_s == pytest.approx(512 / 11025)

    def test_full_profile_holds_one_block(self, full_profile, traced_peak):
        # 1000 jt65a-full windows are 31 MiB; one 64-row block is 2 MiB.
        demod = classical_demodulator(full_profile)
        with traced_peak() as peak:
            bench_latency(demod, full_profile, 1000)
        assert peak.bytes < 4 * 2**20

    def test_minimum_symbol_count_enforced(self, reduced_profile):
        demod = classical_demodulator(reduced_profile)
        with pytest.raises(ValueError, match=">= 100"):
            bench_latency(demod, reduced_profile, 99)
