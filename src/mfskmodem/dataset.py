"""Reproducible labeled-symbol datasets and their binary file format.

Every record is generated from its own random substream seeded by
(spec.seed, record index), so record i comes out bit-identical whether it
is generated alone, in bulk, or in parallel.  Within a record the draw
order is fixed: label, phase, then noise.

File layout (all integers little-endian):

    magic         8 bytes  "MFSKDSET"
    version       u32      1
    sample rate   u32      integer Hz
    symbol len    u32
    tone count    u16
    flags         u16      bit 0: file may contain sync records; bits 1-15 zero
    record count  u64
    per record:
        snr_db    f32
        label     u16      0xFFFF marks a sync-tone record
        reserved  u16      0
        samples   symbol_len * f32

Samples are stored as IEEE-754 binary32, matching the network's training
dtype and halving file size versus float64.

In memory the records keep this layout: ``Dataset.records`` is a numpy
record array of ``record_dtype(symbol_len)``, so ``read`` and ``write`` move
the payload in one piece, and ``r.label`` works on one record or on all.
``read`` checks the header against the file size before it allocates that
array, then reads the payload straight into it: it holds one copy.
``data_arrays`` adds none: its ``x`` is a ``RowView`` that gathers the
data-tone rows of ``records.samples`` only as a caller indexes them.
"""

import struct
from dataclasses import dataclass

import numpy as np

from .errors import Frame, InconsistencyError, TruncationError
from .signal import ModemProfile, SYNC, noisy_windows, tone_bin

MAGIC = b"MFSKDSET"
VERSION = 1

# Wire label marking a sync-tone record (data labels occupy [0, M)).
SYNC_LABEL = 0xFFFF

_HEADER = "<II HH Q"  # after the magic and the u32 version


def record_dtype(symbol_len: int) -> np.dtype:
    """One record exactly as the file stores it."""
    return np.dtype([("snr_db", "<f4"), ("label", "<u2"), ("reserved", "<u2"),
                     ("samples", "<f4", (symbol_len,))])


@dataclass(frozen=True)
class DatasetSpec:
    """What to synthesize: profile, record count, SNR law, seed.

    ``snr_range`` is (lo, hi) in dB; lo == hi pins every record to one SNR.
    ``include_sync`` adds the sync tone to the label alphabet (drawn with
    the same uniform weight as each data tone).
    """

    profile: ModemProfile
    count: int
    snr_range: tuple
    seed: int
    include_sync: bool = False

    def __post_init__(self):
        if self.count < 1:
            raise ValueError("count must be >= 1")
        lo, hi = self.snr_range
        if not (np.isfinite(lo) and np.isfinite(hi) and lo <= hi):
            raise ValueError("snr_range must be finite with lo <= hi")


@dataclass
class Dataset:
    """Records plus the header fields the file format preserves."""

    sample_rate_hz: int
    symbol_len: int
    tone_count: int
    include_sync: bool
    records: np.recarray  # of record_dtype(symbol_len)


def record_params(spec: DatasetSpec, index: int):
    """The (label, phase, snr_db) draws of record ``index``'s substream.

    Exposed so callers can re-derive a record's clean waveform (the stored
    samples are noisy; phase is not written to the file).
    """
    return _draw(spec, _record_rng(spec, index))


def generate_record(spec: DatasetSpec, index: int) -> np.record:
    """Generate record ``index`` alone; identical to its in-bulk twin."""
    if not 0 <= index < spec.count:
        raise ValueError(f"record index {index} out of range [0, {spec.count})")
    return _generate(spec, [index])[0]


def generate(spec: DatasetSpec) -> Dataset:
    """Generate the full dataset described by ``spec``, in memory."""
    return Dataset(int(round(spec.profile.sample_rate_hz)), spec.profile.symbol_len,
                   spec.profile.tone_count, spec.include_sync,
                   _generate(spec, range(spec.count)))


def _generate(spec: DatasetSpec, indices) -> np.recarray:
    profile = spec.profile
    records = np.recarray(len(indices), record_dtype(profile.symbol_len))
    # Raised for the float32 cast; an np.float64 SNR's 10**(snr/10) may
    # overflow too, and noise_variance refuses it.
    with np.errstate(over="raise"):
        for row, index in enumerate(indices):
            rng = _record_rng(spec, index)
            label, phase, snr_db = _draw(spec, rng)
            bins = [tone_bin(profile, SYNC if label == SYNC_LABEL else label)]
            samples = noisy_windows(profile, bins, phase, snr_db, rng)[0]
            try:
                records[row] = (snr_db, label, 0, samples)
            except FloatingPointError:
                raise ValueError(f"record {index} at SNR {np.float32(snr_db):g} dB has a "
                                 "sample outside the float32 range") from None
    return records


def _first_nonfinite(samples):
    """Index of the first row holding a NaN or inf sample, or None."""
    # A float64 sum of float32 samples is finite unless a sample is NaN or inf
    # (+inf plus -inf is a NaN, not a warning).
    with np.errstate(invalid="ignore"):
        finite = np.isfinite(samples.sum(axis=1, dtype=np.float64))
    return None if finite.all() else int(np.argmin(finite))


def _record_rng(spec: DatasetSpec, index: int) -> np.random.Generator:
    return np.random.default_rng([spec.seed, index])


def _draw(spec: DatasetSpec, rng: np.random.Generator):
    # Sync, when included, is one extra equiprobable label.
    alphabet = spec.profile.tone_count + (1 if spec.include_sync else 0)
    label = int(rng.integers(0, alphabet))
    if label == spec.profile.tone_count:
        label = SYNC_LABEL
    phase = float(rng.uniform(0.0, 2.0 * np.pi))
    lo, hi = spec.snr_range
    snr_db = lo if lo == hi else float(rng.uniform(lo, hi))
    return label, phase, snr_db


# ---------------------------------------------------------------------------
# File I/O


def write(dataset: Dataset, destination) -> None:
    """Write a dataset file; round-trips bit-exactly through read()."""
    if hasattr(destination, "write"):
        _write(dataset, destination)
    else:
        with open(destination, "wb") as handle:
            _write(dataset, handle)


def _write(dataset: Dataset, handle):
    records = np.ascontiguousarray(dataset.records, dtype=record_dtype(dataset.symbol_len))
    write_header(handle, dataset.sample_rate_hz, dataset.symbol_len,
                 dataset.tone_count, dataset.include_sync, len(records))
    handle.write(records)


def write_header(handle, sample_rate_hz: int, symbol_len: int, tone_count: int,
                 include_sync: bool, count: int) -> None:
    """Header for streaming writers that emit records one at a time."""
    handle.write(MAGIC)
    handle.write(struct.pack("<I", VERSION))
    handle.write(struct.pack(_HEADER, int(sample_rate_hz), symbol_len,
                             tone_count, 1 if include_sync else 0, count))


def write_record(handle, symbol_len: int, record: np.record) -> None:
    """Append one record, as generate_record returns it, after write_header."""
    if record.dtype != record_dtype(symbol_len):
        raise ValueError(f"record is not a record_dtype({symbol_len}) record")
    handle.write(record)


def read(source, check=None) -> Dataset:
    """Read a dataset file (path or seekable binary file) into memory; records
    are a read-only array, filled straight from the file once the header
    checks pass.

    Raises MagicError, VersionError, TruncationError (from ``errors.Frame``)
    or InconsistencyError depending on how the file is malformed, including
    a header flag other than bit 0, a label that is neither a data tone nor
    a sync record the header allows, and a non-finite sample.

    ``check(sample_rate_hz, symbol_len, tone_count)``, when given, runs on the
    header's fields after those header checks and before the record array is
    allocated; what it raises propagates, so a caller can refuse a file of the
    wrong shape without reading its payload.
    """
    with Frame(source, MAGIC, VERSION, "dataset") as frame:
        rate, symbol_len, tones, flags, count = frame.unpack(_HEADER)
        if flags & ~1:
            raise InconsistencyError(f"header flags 0x{flags:04x} set bits other than bit 0")

        record_bytes = 8 + 4 * symbol_len  # record_dtype(symbol_len).itemsize
        if record_bytes >= 2**31:  # numpy's limit on one record
            raise InconsistencyError(f"symbol length {symbol_len} is too large")
        expected_end = frame.offset + count * record_bytes
        if frame.size < expected_end:
            raise TruncationError(
                f"header declares {count} records ({expected_end} bytes), "
                f"file has {frame.size}"
            )
        offset = frame.skip(count * record_bytes)
        frame.end()
        if check is not None:
            check(rate, symbol_len, tones)
        records = np.empty(count, record_dtype(symbol_len))
        frame.readinto(offset, records)
    records = records.view(np.recarray)
    records.flags.writeable = False
    include_sync = bool(flags & 1)
    allowed = (records.label < tones) | ((records.label == SYNC_LABEL) & include_sync)
    if not allowed.all():
        i = np.argmin(allowed)
        raise InconsistencyError(f"record {i} has label {records.label[i]}, outside [0, {tones})"
                                 + ("" if include_sync else " and the sync flag is clear"))
    row = _first_nonfinite(records.samples)
    if row is not None:
        raise InconsistencyError(f"record {row} has a non-finite sample")
    return Dataset(rate, symbol_len, tones, include_sync, records)


def label_histogram(dataset: Dataset) -> dict:
    """Exact per-label record counts; sync records keyed by SYNC_LABEL."""
    if len(dataset.records) == 0:
        raise ValueError("dataset is empty")
    labels, counts = np.unique(dataset.records.label, return_counts=True)
    return {int(label): int(n) for label, n in zip(labels, counts)}


class RowView:
    """Read-only rows ``samples[index]`` of a 2-D array, gathered only when indexed.

    ``view[key]`` is ``samples[index[key]]``: one row for an integer, a new
    array of rows for a slice or an integer array.  ``shape``, ``dtype``,
    ``ndim`` and ``len`` are those of the gathered array; ``np.asarray(view)``
    gathers every row.
    """

    def __init__(self, samples: np.ndarray, index: np.ndarray):
        self._samples = samples.view()
        self._samples.flags.writeable = False
        self._index = index
        self.shape = (index.size,) + samples.shape[1:]
        self.dtype = samples.dtype
        self.ndim = samples.ndim

    def __len__(self):
        return self.shape[0]

    def __getitem__(self, key):
        return self._samples[self._index[key]]

    def __array__(self, dtype=None, copy=None):
        if copy is False:
            raise ValueError("a RowView's rows are gathered, which copies them")
        return np.asarray(self[:], dtype)


def data_arrays(dataset: Dataset):
    """(x, y): the data-tone records' float32 samples and integer labels.

    Sync records are excluded; the network's output alphabet covers the
    data tones only.  ``x`` is a ``RowView`` of ``records.samples``, so no
    sample is copied until a caller indexes rows; ``y`` is an int64 array.
    """
    records = dataset.records
    index = np.flatnonzero(records.label != SYNC_LABEL)
    if index.size == 0:
        raise ValueError("dataset has no data-tone records")
    return RowView(records.samples, index), records.label[index].astype(np.int64)
