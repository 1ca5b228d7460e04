"""Confusion-matrix metrics, the Monte-Carlo SER/BER sweep with its theory
overlay, and the per-symbol latency benchmark.

Demodulators are callables mapping a (num_symbols, symbol_len) sample
array to an integer tone-index array; see analysis.classical_demodulator
and nn.model_demodulator for the two provided ones.
"""

import time
from dataclasses import dataclass, fields

import numpy as np

from .signal import _BLOCK_ROWS, ModemProfile, noisy_windows, tone_bin, tone_windows
from .theory import (bits_per_symbol, ebn0_to_esn0, ser_noncoherent_mfsk, ser_to_ber,
                     snr_to_ebn0)

# Rows of a dataset file that `demod` gathers and demodulates per call.  The
# gathered batch bounds demod's memory: at symbol_len 4096 it is 16 MiB of
# float32 rows, whatever the file's size.
DEMOD_BATCH = 1024


@dataclass
class ConfusionMatrix:
    """M x M counts; rows are true classes, columns predictions."""

    counts: np.ndarray

    def __post_init__(self):
        if np.asarray(self.counts).dtype.kind not in "iu":
            raise ValueError("counts must be integers")
        self.counts = np.asarray(self.counts, dtype=np.int64)
        if self.counts.ndim != 2 or self.counts.shape[0] != self.counts.shape[1]:
            raise ValueError("counts must be a square matrix")
        if np.any(self.counts < 0):
            raise ValueError("counts must be non-negative")

    @classmethod
    def empty(cls, classes: int) -> "ConfusionMatrix":
        return cls(np.zeros((classes, classes), dtype=np.int64))

    @property
    def classes(self) -> int:
        return self.counts.shape[0]

    @property
    def total(self) -> int:
        return int(self.counts.sum())


def accumulate_many(cm: ConfusionMatrix, true, predicted) -> ConfusionMatrix:
    """Count each (true, predicted) pair; mutates and returns ``cm``."""
    true = np.asarray(true)
    predicted = np.asarray(predicted)
    if true.shape != predicted.shape:
        raise ValueError(f"true shape {true.shape} != predicted shape {predicted.shape}")
    m = cm.classes
    if (true.dtype.kind not in "iu" or predicted.dtype.kind not in "iu"
            or np.any((true < 0) | (true >= m)) or np.any((predicted < 0) | (predicted >= m))):
        raise ValueError(f"indices must be integers in [0, {m})")
    np.add.at(cm.counts, (true, predicted), 1)
    return cm


@dataclass
class MetricsReport:
    """Per-class and averaged classification metrics plus SER/BER.

    Per-class: recall = diag/rowsum, precision = diag/colsum, error rate =
    (FP + FN)/total.  Macro averages skip zero-support classes (a class
    with support but no predictions contributes precision 0).  Micro
    averages pool counts; for single-label multiclass that makes micro
    recall, micro precision, and accuracy the same number.

    BER comes in two flavours because bit errors can be counted directly
    (XOR of the natural binary labels) or inferred from the SER via the
    orthogonal-signaling relation; both are reported.
    """

    accuracy: float
    ser: float
    ber_measured: float
    ber_from_ser: float
    macro_accuracy: float
    macro_recall: float
    macro_precision: float
    macro_error_rate: float
    micro_accuracy: float
    micro_recall: float
    micro_precision: float
    micro_error_rate: float
    class_support: np.ndarray
    class_accuracy: np.ndarray
    class_recall: np.ndarray
    class_precision: np.ndarray
    class_error_rate: np.ndarray

    def to_text(self) -> str:
        """Flat key=value document, one metric per line in field order: the
        scalars, then each class's ``class_{i}_*`` values (counts as integers)."""
        names = [field.name for field in fields(self)]
        per_class = [name for name in names if name.startswith("class_")]
        lines = [f"{name}={getattr(self, name):.10g}" for name in names if name not in per_class]
        for i in range(self.class_support.size):
            for name in per_class:
                value = getattr(self, name)[i]
                text = f"{value:d}" if value.dtype.kind in "iu" else f"{value:.10g}"
                lines.append(f"class_{i}_{name.removeprefix('class_')}={text}")
        return "\n".join(lines) + "\n"


def metrics(cm: ConfusionMatrix) -> MetricsReport:
    """Derive every report metric from the confusion matrix alone.  SER is the
    error count over the total; a decision d for true tone t flips popcount(t ^ d) bits."""
    total = cm.total
    if total == 0:
        raise ValueError("confusion matrix is empty")
    m = cm.classes
    k = bits_per_symbol(m)
    counts = cm.counts
    diag = np.diag(counts).astype(np.float64)
    row = counts.sum(axis=1).astype(np.float64)
    col = counts.sum(axis=0).astype(np.float64)

    with np.errstate(invalid="ignore", divide="ignore"):
        recall = np.where(row > 0, diag / np.where(row > 0, row, 1), np.nan)
        precision = np.where(col > 0, diag / np.where(col > 0, col, 1), 0.0)
    false_neg = row - diag
    false_pos = col - diag
    error_rate = (false_neg + false_pos) / total

    support_mask = row > 0
    accuracy = float(diag.sum() / total)
    ser = (total - int(np.trace(counts))) / total

    popcount = np.array([v.bit_count() for v in range(m)], dtype=np.int64)
    xor = np.bitwise_xor.outer(np.arange(m), np.arange(m))
    ber_measured = int((counts * popcount[xor]).sum()) / (k * total)

    return MetricsReport(
        accuracy=accuracy,
        ser=ser,
        ber_measured=ber_measured,
        ber_from_ser=ser_to_ber(m, ser),
        macro_accuracy=float(np.mean(1.0 - error_rate[support_mask])),
        macro_recall=float(np.mean(recall[support_mask])),
        macro_precision=float(np.mean(precision[support_mask])),
        macro_error_rate=float(np.mean(error_rate[support_mask])),
        micro_accuracy=accuracy,
        micro_recall=accuracy,
        micro_precision=accuracy,
        micro_error_rate=ser,
        class_support=row.astype(np.int64),
        class_accuracy=1.0 - error_rate,
        class_recall=recall,
        class_precision=precision,
        class_error_rate=error_rate,
    )


# ---------------------------------------------------------------------------
# Monte-Carlo sweeps


@dataclass
class BerPoint:
    snr_db: float
    ebn0_db: float
    ber_measured: float
    ber_from_ser: float
    ber_theory: float
    n: int
    ser: float
    stderr: float  # binomial standard error of ser


def _draw_symbols(profile, n_symbols, rng):
    """(labels, bins, phases) of n_symbols random data tones: the labels,
    then the phases, drawn from ``rng``."""
    labels = rng.integers(0, profile.tone_count, n_symbols)
    phases = rng.uniform(0.0, 2.0 * np.pi, n_symbols)
    return labels, tone_bin(profile, 0) + labels, phases


def _run_point(demod, profile, snr_db, n_symbols, rng) -> ConfusionMatrix:
    """Confusion counts of ``demod`` over n_symbols fresh random symbols,
    synthesized, made noisy, demodulated and counted one _BLOCK_ROWS block at
    a time: at symbol_len 4096 a block is 2 MiB of windows, plus one block of
    noise and of spectra or the CNN's float32 cast."""
    labels, bins, phases = _draw_symbols(profile, n_symbols, rng)
    cm = ConfusionMatrix.empty(profile.tone_count)
    for lo in range(0, n_symbols, _BLOCK_ROWS):
        sel = slice(lo, lo + _BLOCK_ROWS)
        x = noisy_windows(profile, bins[sel], phases[sel], snr_db, rng)
        accumulate_many(cm, labels[sel], np.asarray(demod(x)))
    return cm


def sweep_ber(demod, profile: ModemProfile, snr_points, n_per_point: int, seed: int,
              workers: int = 1):
    """Monte-Carlo symbol and bit error rates with the theory column.

    Each point runs on its own substream (seed, point index), so points
    are independent: with ``workers`` > 1, a pool of min(workers, points)
    threads runs whole points, and the rows, returned in point order, equal
    the serial ones.  ``demod`` is then called from those threads.  An error
    in one point cancels the points not yet started and is raised once the
    running ones end.  Each point fills a ConfusionMatrix (a decision
    outside [0, M) raises ValueError) whose ``metrics`` give SER (errors /
    n, as in demod reports), measured BER (bit mismatches under the natural
    binary mapping) and BER-from-SER; the theory column evaluates the
    non-coherent orthogonal-MFSK limit at the point's Eb/N0.  Every row
    satisfies BER <= SER <= k*BER exactly (each symbol error flips between
    1 and k bits).
    """
    if n_per_point < 1:
        raise ValueError("n_per_point must be >= 1")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    k = profile.bits_per_symbol
    m = profile.tone_count

    def row(i, snr_db):
        rng = np.random.default_rng([seed, i])
        report = metrics(_run_point(demod, profile, snr_db, n_per_point, rng))
        ser, ber = report.ser, report.ber_measured
        ebn0 = snr_to_ebn0(profile, float(snr_db))
        theory = ser_to_ber(m, ser_noncoherent_mfsk(m, ebn0_to_esn0(m, ebn0)))
        assert ber <= ser + 1e-15 and ser <= k * ber + 1e-15
        return BerPoint(float(snr_db), ebn0, ber, report.ber_from_ser, theory, n_per_point,
                        ser, float(np.sqrt(ser * (1.0 - ser) / n_per_point)))

    workers = min(workers, len(snr_points))
    if workers <= 1:
        return [row(i, snr_db) for i, snr_db in enumerate(snr_points)]
    # Imported here: concurrent.futures loads logging, about 0.6 MB of RSS that a
    # serial sweep never needs.
    from concurrent.futures import ThreadPoolExecutor

    pool = ThreadPoolExecutor(workers)
    try:
        return list(pool.map(row, range(len(snr_points)), snr_points))
    finally:
        pool.shutdown(cancel_futures=True)


def write_lines(path, lines) -> None:
    """Write each line plus "\\n" to the file at ``path`` (every CSV and report)."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("".join(f"{line}\n" for line in lines))


# ---------------------------------------------------------------------------
# Latency benchmark


@dataclass
class LatencyReport:
    mean_s: float
    p50_s: float
    p99_s: float
    real_time: bool
    n: int
    symbol_interval_s: float


# Untimed calls before bench_latency's timed ones.
_WARMUP = 100


def bench_latency(demod, profile: ModemProfile, n_symbols: int) -> LatencyReport:
    """Wall-clock per single-symbol demodulation, batch size 1.

    ``real_time`` compares the mean against the symbol interval N/fs
    (0.3715 s for the full profile).  _WARMUP extra calls, cycling over
    the first block, run first and are excluded from the statistics.  The
    windows are synthesized one _BLOCK_ROWS block at a time, outside the
    timed calls, so only one block is held.
    """
    if n_symbols < 100:
        raise ValueError("n_symbols must be >= 100 for stable percentiles")
    _, bins, phases = _draw_symbols(profile, n_symbols, np.random.default_rng(0))

    elapsed = np.empty(n_symbols)
    for lo in range(0, n_symbols, _BLOCK_ROWS):
        block = tone_windows(profile, bins[lo : lo + _BLOCK_ROWS],
                             phases[lo : lo + _BLOCK_ROWS])
        if lo == 0:
            for i in range(_WARMUP):
                demod(block[i % len(block)][None, :])
        for i in range(len(block)):
            start = time.perf_counter()
            demod(block[i][None, :])
            elapsed[lo + i] = time.perf_counter() - start
        del block  # freed before the next block is made

    interval = profile.symbol_duration_s
    mean = float(elapsed.mean())
    return LatencyReport(mean, float(np.percentile(elapsed, 50)),
                         float(np.percentile(elapsed, 99)), mean < interval,
                         n_symbols, interval)
