"""Acceptance suite: the release gates, each test printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`.  Criterion 11 (full-scale
training, hours on a CPU) is opt-in via MFSKMODEM_FULL_ACCEPTANCE=1; all
other criteria complete in minutes on a desk machine.
"""

import io
import math
import os

import numpy as np
import pytest

from conftest import esn0_to_snr, measure_snr, synthesize_symbol
from mfskmodem import dataset as ds
from mfskmodem.analysis import classical_demodulator
from mfskmodem.cli import main
from mfskmodem.errors import MagicError, TruncationError
from mfskmodem.evaluate import bench_latency, sweep_ber
from mfskmodem.nn import (
    GRAD_CHECK_CONFIG,
    TrainConfig,
    build_model,
    grad_check,
    load_weights,
    model_demodulator,
    parameter_counts,
    save_weights,
    train,
)
from mfskmodem.profiles import get_profile
from mfskmodem.signal import noisy_windows, tone_bin
from mfskmodem.theory import (
    ebn0_to_esn0,
    ser_noncoherent_mfsk,
    ser_noncoherent_mfsk_linear,
    ser_to_ber,
    snr_to_ebn0,
)

FULL = get_profile("jt65a-full")
REDUCED = get_profile("reduced-m8")

# Desk-scale training corpus for criterion 8: SNR range chosen so the
# Bayes-optimal accuracy is ~0.96 (uniform -15..0 dB) and the corpus
# brackets the evaluation point, while still reaching well into the
# regime where detection is hard.
DESK_TRAIN_SNR = (-15.0, 0.0)
DESK_TRAIN_COUNT = 20_000
DESK_DATA_SEED = 11
DESK_TRAIN_SEED = 3


def report(number: int, name: str, passed: bool, detail: str) -> None:
    verdict = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number:02d} {name}: {verdict} ({detail})")
    assert passed, f"criterion {number} failed: {detail}"


def db_at(rate, target: float, lo: float, hi: float) -> float:
    """The dB value in [lo, hi] where the decreasing closed-form ``rate``
    falls to ``target``: the midpoint after 60 halvings."""
    for _ in range(60):
        mid = (lo + hi) / 2.0
        if rate(mid) > target:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


def test_01_architecture_fidelity():
    state = build_model(FULL.model, seed=0)
    total, _, non_trainable = parameter_counts(state)
    report(1, "architecture fidelity",
           total == 33_561_604 and non_trainable == 386,
           f"total={total} non_trainable={non_trainable}")


def test_02_theory_simulation_triangle():
    demod = classical_demodulator(FULL.modem)
    details = []
    ok = True
    for esn0 in (8.0, 10.0, 12.0):
        snr = esn0_to_snr(FULL.modem, esn0)
        row = sweep_ber(demod, FULL.modem, [snr], 50_000, seed=int(esn0))[0]
        theory = ser_noncoherent_mfsk(64, esn0)
        stderr = math.sqrt(theory * (1.0 - theory) / row.n)
        z = (row.ser - theory) / stderr
        ok = ok and abs(z) < 3.0
        details.append(f"Es/N0={esn0:g}dB ser={row.ser:.5f} theory={theory:.5f} z={z:+.2f}")
    report(2, "theory vs simulation", ok, "; ".join(details))


def test_03_snr_calibration():
    # Ten windows of tone 9 through the channel every command uses.
    clean = np.tile(synthesize_symbol(FULL.modem, 9, phase=0.8), 10)
    bins = [tone_bin(FULL.modem, 9)] * 10
    ok = True
    details = []
    for target in (-30.0, -25.0, -20.0, -10.0, 0.0):
        rng = np.random.default_rng(1000 + int(target))
        channel = noisy_windows(FULL.modem, bins, 0.8, target, rng)
        measured = measure_snr(channel.ravel(), clean, FULL.modem)
        ok = ok and abs(measured - target) <= 0.2
        details.append(f"{target:g}->{measured:.3f}")
    report(3, "snr calibration +/-0.2 dB", ok, " ".join(details))


def test_04_ebn0_conversion():
    value = snr_to_ebn0(FULL.modem, -25.0)
    report(4, "Eb/N0 conversion", abs(value - (-3.10)) <= 0.01,
           f"snr -25 dB -> {value:.4f} dB (expected -3.10 +/- 0.01)")


def test_05_gradient_correctness():
    worst = grad_check(seed=0)
    report(5, "gradient check", worst < 1e-4, f"max relative error {worst:.3e}")


def test_06_closed_form_anchors():
    chance = ser_noncoherent_mfsk_linear(64, 0.0)
    chance_ok = abs(chance - 63 / 64) <= 1e-12

    grid_ok = True
    for gamma in np.linspace(0.0, 25.0, 50):
        expected = 0.5 * math.exp(-float(gamma) / 2.0)
        value = ser_noncoherent_mfsk_linear(2, float(gamma))
        if abs(value - expected) > 1e-12 * max(expected, 1e-300):
            grid_ok = False
            break

    ber_ok = ser_to_ber(64, 63 / 64) == 0.5
    report(6, "closed-form anchors", chance_ok and grid_ok and ber_ok,
           f"chance={chance!r} binary_grid_ok={grid_ok} ber(63/64)={ser_to_ber(64, 63/64)}")


def test_07_bit_error_structure():
    # Low SNR (Es/N0 = 5 dB) so 50k symbols yield >> 10k symbol errors.
    demod = classical_demodulator(FULL.modem)
    snr = esn0_to_snr(FULL.modem, 5.0)
    row = sweep_ber(demod, FULL.modem, [snr], 50_000, seed=77)[0]
    symbol_errors = round(row.ser * row.n)
    bit_errors = round(row.ber_measured * row.n * FULL.modem.bits_per_symbol)
    ratio = bit_errors / symbol_errors
    expected = 192 / 63
    ok = symbol_errors >= 10_000 and abs(ratio - expected) / expected <= 0.05
    report(7, "bits per symbol error", ok,
           f"{symbol_errors} symbol errors, ratio {ratio:.4f} vs {expected:.4f}")


@pytest.fixture(scope="module")
def desk_trained_model():
    spec = ds.DatasetSpec(REDUCED.modem, DESK_TRAIN_COUNT, DESK_TRAIN_SNR,
                          seed=DESK_DATA_SEED)
    x, y = ds.data_arrays(ds.generate(spec))
    cfg = TrainConfig(epochs=6, batch_size=32, learning_rate=1e-3,
                      seed=DESK_TRAIN_SEED)
    return train(REDUCED.model, cfg, x, y)


def test_08_desk_scale_learning(desk_trained_model):
    state, log = desk_trained_model

    # Operating point: the Es/N0 where the classical baseline sits at
    # SER 0.01 (bisected from the closed form), mapped back to SNR.
    esn0 = db_at(lambda e: ser_noncoherent_mfsk(8, e), 0.01, 0.0, 20.0)
    snr = esn0_to_snr(REDUCED.modem, esn0)

    classical_row = sweep_ber(classical_demodulator(REDUCED.modem), REDUCED.modem,
                              [snr], 50_000, seed=21)[0]
    model_row = sweep_ber(model_demodulator(state), REDUCED.modem,
                          [snr], 4_000, seed=22)[0]
    accuracy_ok = log.accuracy[-1] >= 0.90
    baseline_ok = abs(classical_row.ser - 0.01) < 3 * math.sqrt(0.01 * 0.99 / classical_row.n)
    model_ok = model_row.ser <= 0.10
    report(8, "desk-scale learning", accuracy_ok and baseline_ok and model_ok,
           f"final epoch accuracy={log.accuracy[-1]:.4f}; at snr={snr:.2f} dB "
           f"classical ser={classical_row.ser:.4f}, model ser={model_row.ser:.4f}")


def test_09_real_time_contract():
    classical = bench_latency(classical_demodulator(FULL.modem), FULL.modem, 1000)
    cnn_state = build_model(FULL.model, seed=0)
    cnn = bench_latency(model_demodulator(cnn_state), FULL.modem, 100)
    # The CNN number is informational: GPU builds of this kind of model
    # reach ~218 us/symbol, which is not a realistic CPU target.
    ok = classical.real_time and classical.mean_s < 0.3715
    report(9, "real-time contract", ok,
           f"classical mean={classical.mean_s * 1e6:.1f} us vs 0.3715 s bound; "
           f"cnn mean={cnn.mean_s * 1e3:.2f} ms (reported only)")


def test_10_persistence(tmp_path):
    spec = ds.DatasetSpec(REDUCED.modem, 16, (-12.0, -6.0), seed=5)
    data = ds.generate(spec)
    dataset_path = tmp_path / "set.mfskdset"
    ds.write(data, dataset_path)
    blob = dataset_path.read_bytes()
    round_trip = ds.read(dataset_path)
    second_path = tmp_path / "again.mfskdset"
    ds.write(round_trip, second_path)
    dataset_ok = second_path.read_bytes() == blob

    state = build_model(GRAD_CHECK_CONFIG, seed=8)
    weights_path = tmp_path / "model.weights"
    save_weights(state, weights_path)
    loaded = load_weights(weights_path)
    weights_ok = all(np.array_equal(loaded.tensors[n], state.tensors[n])
                     for n in state.tensors)

    errors_ok = True
    bad_magic = b"NOTMAGIC" + blob[8:]
    for blob_case, expected in ((bad_magic, MagicError), (blob[:-40], TruncationError)):
        try:
            ds.read(io.BytesIO(blob_case))
            errors_ok = False
        except expected:
            pass
    weights_blob = weights_path.read_bytes()
    for blob_case, expected in ((b"BADMAGIC" + weights_blob[8:], MagicError),
                                (weights_blob[:-16], TruncationError)):
        try:
            load_weights(io.BytesIO(blob_case))
            errors_ok = False
        except expected:
            pass

    report(10, "persistence", dataset_ok and weights_ok and errors_ok,
           f"dataset_round_trip={dataset_ok} weights_round_trip={weights_ok} "
           f"distinct_errors={errors_ok}")


@pytest.mark.skipif(os.environ.get("MFSKMODEM_FULL_ACCEPTANCE") != "1",
                    reason="full-profile training is hours on a CPU; "
                           "set MFSKMODEM_FULL_ACCEPTANCE=1 to run")
def test_11_full_profile_reproduction():
    # The complete experiment: 100k training fragments at uniform
    # -30..0 dB, six epochs, then 10k-symbol test points around the
    # BER=1e-2 crossing.  The trained demodulator must cross 1e-2 within
    # +2.5 dB of the non-coherent theory curve.
    spec = ds.DatasetSpec(FULL.modem, 100_000, (-30.0, 0.0), seed=DESK_DATA_SEED)
    x, y = ds.data_arrays(ds.generate(spec))
    cfg = TrainConfig(epochs=6, batch_size=32, learning_rate=1e-3,
                      seed=DESK_TRAIN_SEED)
    state, log = train(FULL.model, cfg, x, y)
    assert len(log.loss) == 6

    # Theory crossing: BER 1e-2 on the non-coherent limit.
    theory_crossing = db_at(
        lambda e: ser_to_ber(64, ser_noncoherent_mfsk(64, ebn0_to_esn0(64, e))),
        1e-2, 0.0, 10.0)

    ebn0_grid = [theory_crossing + delta for delta in
                 (-1.0, 0.0, 1.0, 1.5, 2.0, 2.5, 3.0)]
    snr_grid = [esn0_to_snr(FULL.modem, ebn0_to_esn0(64, e)) for e in ebn0_grid]
    rows = sweep_ber(model_demodulator(state), FULL.modem, snr_grid, 10_000,
                     seed=31)
    crossing = None
    for a, b in zip(rows, rows[1:]):
        if a.ber_measured >= 1e-2 >= b.ber_measured > 0:
            span = math.log10(a.ber_measured) - math.log10(b.ber_measured)
            frac = (math.log10(a.ber_measured) - (-2.0)) / span
            crossing = a.ebn0_db + frac * (b.ebn0_db - a.ebn0_db)
            break
    ok = crossing is not None and crossing <= theory_crossing + 2.5
    report(11, "full-profile reproduction", ok,
           f"train acc={log.accuracy[-1]:.3f}; BER 1e-2 crossing "
           f"{crossing if crossing is None else round(crossing, 3)} dB vs theory "
           f"{theory_crossing:.3f} dB (+2.5 dB allowed)")


def test_12_determinism(tmp_path):
    def pipeline(tag: str):
        base = tmp_path / tag
        base.mkdir()
        dataset = base / "train.dset"
        weights = base / "model.weights"
        log = base / "train.csv"
        rep = base / "metrics.report"
        assert main(["--threads", "1", "synth", "--profile", "reduced-m8",
                     "--count", "600", "--snr", "-12..0", "--seed", "9",
                     "--out", str(dataset)]) == 0
        assert main(["--threads", "1", "train", "--profile", "reduced-m8",
                     "--dataset", str(dataset), "--epochs", "2", "--seed", "2",
                     "--out-weights", str(weights), "--out-log", str(log)]) == 0
        assert main(["--threads", "1", "demod", "--profile", "reduced-m8",
                     "--weights", str(weights), "--dataset", str(dataset),
                     "--out-report", str(rep)]) == 0
        return dataset.read_bytes(), weights.read_bytes(), rep.read_bytes()

    first = pipeline("run1")
    second = pipeline("run2")
    identical = all(a == b for a, b in zip(first, second))
    report(12, "pipeline determinism", identical,
           "synth/train/demod artifacts byte-identical across two seeded runs"
           if identical else "artifact mismatch between seeded runs")
