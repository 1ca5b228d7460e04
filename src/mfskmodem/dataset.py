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

In memory a record keeps this layout: ``record_dtype(symbol_len)``.
``generate`` returns a ``Dataset`` that holds its record array.  ``read``
checks the header against the file size, then checks every label and sample
in one sequential pass over blocks of at most ``_BLOCK_BYTES``, and keeps
only each record's ``snr_db`` and ``label``: the rows stay in the file.
Both kinds give their rows the same way: ``Dataset.samples`` gathers the
rows a caller asks for (from a file, one sorted run of consecutive records
at a time), and ``write`` streams the records block by block.
``data_arrays``' ``x`` is a ``RowView`` that gathers rows only as a caller
indexes them, so ``demod``, ``train`` and ``analyze`` hold one batch of
rows, not the file.
"""

import contextlib
import os
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

# The most record bytes that read's check, or one run of a gather, reads at a time.
_BLOCK_BYTES = 1 << 20


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


class Dataset:
    """A dataset's header fields, each record's ``snr_db`` and ``label``, and the
    source of its rows.

    The ``records`` argument is a record array of ``record_dtype(symbol_len)``
    held in memory.  With ``file``, read's ``(source, start, payload offset)``
    of a checked file, it holds only the ``snr_db`` and ``label`` fields, and
    every row is read from the file when it is gathered: a path is reopened
    for each gather, and a caller's seekable file is used as given, so it
    must stay open and unchanged.
    """

    def __init__(self, sample_rate_hz: int, symbol_len: int, tone_count: int,
                 include_sync: bool, records, file=None):
        self.sample_rate_hz = sample_rate_hz
        self.symbol_len = symbol_len
        self.tone_count = tone_count
        self.include_sync = include_sync
        if file is None:
            records = np.ascontiguousarray(records, record_dtype(symbol_len))
            self._rows = records["samples"].view()
            self._rows.flags.writeable = False
        self._array = records if file is None else None
        self._file = file
        self.snr_db, self.label = records["snr_db"], records["label"]
        self._block = max(1, _BLOCK_BYTES // record_dtype(symbol_len).itemsize)

    def samples(self, rows) -> np.ndarray:
        """The float32 samples of record ``rows``, indexed as numpy indexes: an
        integer gives one read-only row, an integer array a new array of rows
        in the order asked.

        In memory that is one index of the read-only samples.  From a file
        ``rows`` indexes the record numbers, so numpy's rules and IndexError
        hold, and the rows are gathered one sorted run of consecutive records
        at a time, each run at most one block, read into one reused buffer.
        """
        if self._file is None:
            return self._rows[rows]
        wanted = np.arange(len(self.label))[rows]
        out = np.empty(wanted.shape + (self.symbol_len,), np.float32)
        flat = out.reshape(-1, self.symbol_len)
        with self._fetcher(min(wanted.size, self._block)) as fetch:
            for positions, lo, hi in _runs(wanted.ravel(), self._block):
                flat[positions] = fetch(lo, hi)["samples"]
        out.flags.writeable = wanted.ndim > 0
        return out

    @contextlib.contextmanager
    def _fetcher(self, capacity: int):
        """The one row source: ``fetch(lo, hi)`` gives records ``lo..hi-1``, at
        most ``capacity`` of them, from the array in memory or read from the
        file into one reused buffer.  A path is open only inside the block."""
        if self._file is None:
            yield lambda lo, hi: self._array[lo:hi]
            return
        source, start, offset = self._file
        if hasattr(source, "read"):
            source.seek(start)
        with Frame(source, MAGIC, VERSION, "dataset") as frame:
            yield _reader(frame, offset, record_dtype(self.symbol_len), capacity)


def _reader(frame, offset: int, dtype: np.dtype, capacity: int):
    """``fetch(lo, hi)``: records ``lo..hi-1`` of the payload at ``offset``, read
    into one buffer of ``capacity`` records that each call reuses."""
    buffer = np.empty(capacity, dtype)

    def fetch(lo, hi):
        block = buffer[: hi - lo]
        frame.readinto(offset + lo * dtype.itemsize, block)
        return block

    return fetch


def _spans(count: int, block: int):
    """(lo, hi) of each block of ``count`` records, in order."""
    return ((lo, min(lo + block, count)) for lo in range(0, count, block))


def _runs(rows: np.ndarray, block: int):
    """(positions, lo, hi) for each run of at most ``block`` consecutive records
    ``lo..hi-1``, which are ``rows[positions]``, in file order."""
    order = np.argsort(rows, kind="stable")
    ordered = rows[order]
    first = 0
    for end in (np.flatnonzero(np.diff(ordered) != 1) + 1).tolist() + [rows.size]:
        for a in range(first, end, block):
            b = min(a + block, end)
            lo = int(ordered[a])
            yield order[a:b], lo, lo + b - a
        first = end


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
    count = len(dataset.label)
    write_header(handle, dataset.sample_rate_hz, dataset.symbol_len,
                 dataset.tone_count, dataset.include_sync, count)
    with dataset._fetcher(min(count, dataset._block)) as fetch:
        for lo, hi in _spans(count, dataset._block):
            handle.write(fetch(lo, hi))


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
    """Check a dataset file (path or seekable binary file) and return it as a
    file-backed ``Dataset``: each record's ``snr_db`` and ``label`` in memory,
    its samples read from the file as they are gathered.

    Raises MagicError, VersionError, TruncationError (from ``errors.Frame``)
    or InconsistencyError depending on how the file is malformed, including
    a header flag other than bit 0, a label that is neither a data tone nor
    a sync record the header allows, and a non-finite sample.  A label fault
    is reported before a non-finite sample, each at its first record.  A
    gather from a file cut after ``read`` raises TruncationError.

    ``check(sample_rate_hz, symbol_len, tone_count)``, when given, runs on the
    header's fields after those header checks and before any record is read;
    what it raises propagates, so a caller can refuse a file of the wrong
    shape without reading its payload.
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
        include_sync = bool(flags & 1)
        heads = np.empty(count, [("snr_db", "<f4"), ("label", "<u2")])
        block = max(1, _BLOCK_BYTES // record_bytes)
        fetch = _reader(frame, offset, record_dtype(symbol_len), min(count, block))
        nonfinite = None
        for lo, hi in _spans(count, block):
            records = fetch(lo, hi)
            labels = records["label"]
            allowed = (labels < tones) | ((labels == SYNC_LABEL) & include_sync)
            if not allowed.all():
                i = np.argmin(allowed)
                raise InconsistencyError(
                    f"record {lo + i} has label {labels[i]}, outside [0, {tones})"
                    + ("" if include_sync else " and the sync flag is clear"))
            if nonfinite is None:
                row = _first_nonfinite(records["samples"])
                nonfinite = None if row is None else lo + row
            heads["snr_db"][lo:hi] = records["snr_db"]
            heads["label"][lo:hi] = labels
    if nonfinite is not None:
        raise InconsistencyError(f"record {nonfinite} has a non-finite sample")
    heads.flags.writeable = False
    if not hasattr(source, "read"):
        source = os.path.abspath(source)
    return Dataset(rate, symbol_len, tones, include_sync, heads,
                   file=(source, frame.start, offset))


def label_histogram(dataset: Dataset) -> dict:
    """Exact per-label record counts; sync records keyed by SYNC_LABEL."""
    if len(dataset.label) == 0:
        raise ValueError("dataset is empty")
    labels, counts = np.unique(dataset.label, return_counts=True)
    return {int(label): int(n) for label, n in zip(labels, counts)}


class RowView:
    """Read-only rows ``dataset.samples(index[key])``, gathered only when indexed.

    ``view[key]`` gathers the rows of records ``index[key]``: one read-only
    row for an integer, a new array of rows for a slice or an integer array.
    ``shape``, ``dtype``, ``ndim`` and ``len`` are those of the gathered
    array; ``np.asarray(view)`` gathers every row.
    """

    def __init__(self, dataset: Dataset, index: np.ndarray):
        self._gather = dataset.samples
        self._index = index
        self.shape = (index.size, dataset.symbol_len)
        self.dtype = np.dtype(np.float32)
        self.ndim = 2

    def __len__(self):
        return self.shape[0]

    def __getitem__(self, key):
        return self._gather(self._index[key])

    def __array__(self, dtype=None, copy=None):
        if copy is False:
            raise ValueError("a RowView's rows are gathered, which copies them")
        return np.asarray(self[:], dtype)


def data_arrays(dataset: Dataset):
    """(x, y): the data-tone records' float32 samples and integer labels.

    Sync records are excluded; the network's output alphabet covers the
    data tones only.  ``x`` is a ``RowView`` of the dataset, so no sample is
    read or copied until a caller indexes rows; ``y`` is an int64 array.
    """
    index = np.flatnonzero(dataset.label != SYNC_LABEL)
    if index.size == 0:
        raise ValueError("dataset has no data-tone records")
    return RowView(dataset, index), dataset.label[index].astype(np.int64)
