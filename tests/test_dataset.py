"""Tests for dataset generation determinism and the binary file format's own
checks (the contract both readers share is in test_frame.py)."""

import io
import struct
import warnings

import numpy as np
import pytest

from conftest import synthesize_symbol
from mfskmodem.dataset import (
    SYNC_LABEL,
    Dataset,
    DatasetSpec,
    data_arrays,
    generate,
    generate_record,
    label_histogram,
    read,
    record_dtype,
    record_params,
    write,
)
from mfskmodem.dataset import _BLOCK_BYTES, _draw, _record_rng
from mfskmodem.errors import InconsistencyError, TruncationError
from mfskmodem.signal import (
    SYNC,
    measure_snr,
    noise_variance,
)


@pytest.fixture(scope="module")
def reduced_spec(reduced_profile):
    return DatasetSpec(reduced_profile, count=96, snr_range=(-20.0, -5.0), seed=42)


def written_bytes(ds) -> bytes:
    buffer = io.BytesIO()
    write(ds, buffer)
    return buffer.getvalue()


class TestGenerate:
    def test_single_record_is_deterministic(self, reduced_spec):
        a = generate_record(reduced_spec, 5)
        b = generate_record(reduced_spec, 5)
        assert a.snr_db == b.snr_db and a.label == b.label
        assert np.array_equal(a.samples, b.samples)

    def test_record_is_the_channel_composition_in_float32(self, reduced_spec):
        # Per record: label, phase and SNR from the (seed, index) substream,
        # then the unit symbol plus white noise of noise_variance, stored as float32.
        spec = DatasetSpec(reduced_spec.profile, 40, (-20.0, -5.0), seed=8, include_sync=True)
        labels = set()
        for index in range(spec.count):
            rng = _record_rng(spec, index)
            label, phase, snr_db = _draw(spec, rng)
            labels.add(label)
            tone = SYNC if label == SYNC_LABEL else label
            sigma = np.sqrt(noise_variance(spec.profile, snr_db))
            noisy = (synthesize_symbol(spec.profile, tone, phase)
                     + rng.normal(0.0, sigma, spec.profile.symbol_len))
            assert np.array_equal(generate_record(spec, index).samples,
                                  noisy.astype(np.float32))
        assert SYNC_LABEL in labels and len(labels) > 2

    def test_record_is_order_independent(self, reduced_spec):
        bulk = generate(reduced_spec)
        for index in (0, 31, 95):
            alone = generate_record(reduced_spec, index)
            assert alone.label == bulk.label[index]
            assert np.array_equal(alone.samples, bulk.samples(index))

    def test_snr_range_respected(self, reduced_spec):
        snrs = generate(reduced_spec).snr_db
        assert snrs.min() >= -20.0 and snrs.max() <= -5.0
        assert snrs.std() > 0

    def test_fixed_snr_mode(self, reduced_spec):
        spec = DatasetSpec(reduced_spec.profile, 8, (-7.0, -7.0), seed=1)
        assert np.all(generate(spec).snr_db == -7.0)

    def test_uniform_snr_distribution(self, reduced_spec):
        # 2000 draws over 15 dB in 5 bins: each within 5 sigma of 400.
        spec = DatasetSpec(reduced_spec.profile, 2000, (-20.0, -5.0), seed=9)
        snrs = [record_params(spec, i)[2] for i in range(spec.count)]
        counts, _ = np.histogram(snrs, bins=5, range=(-20.0, -5.0))
        sigma = np.sqrt(2000 * 0.2 * 0.8)
        assert np.all(np.abs(counts - 400) < 5 * sigma)

    def test_training_scale_snr_histogram(self, full_profile):
        # The 100k-record training law: uniform over -30..0 dB.  Parameter
        # draws only (no waveforms), chi-square over 10 bins at p=0.001.
        spec = DatasetSpec(full_profile, 100_000, (-30.0, 0.0), seed=1)
        snrs = np.array([record_params(spec, i)[2] for i in range(spec.count)])
        assert snrs.min() >= -30.0 and snrs.max() <= 0.0
        counts, _ = np.histogram(snrs, bins=10, range=(-30.0, 0.0))
        expected = spec.count / 10
        chi_square = float(((counts - expected) ** 2 / expected).sum())
        assert chi_square < 27.88  # chi2(9) upper 0.1% point

    def test_labels_within_alphabet(self, reduced_spec):
        ds = generate(reduced_spec)
        labels = set(ds.label.tolist())
        assert labels <= set(range(8))

    def test_include_sync_draws_sync_records(self, reduced_spec):
        spec = DatasetSpec(reduced_spec.profile, 200, (-10.0, -10.0), seed=3,
                           include_sync=True)
        ds = generate(spec)
        histogram = label_histogram(ds)
        assert histogram.get(SYNC_LABEL, 0) > 0

    def test_measured_snr_matches_recorded(self, full_profile):
        # 4096-sample windows: a single-symbol variance estimate has ~0.1 dB
        # scatter, so +/- 0.5 dB is a 5-sigma bound (wider than the
        # frame-length calibration contract).
        spec = DatasetSpec(full_profile, 12, (-25.0, -5.0), seed=13)
        for index in range(spec.count):
            record = generate_record(spec, index)
            label, phase, _ = record_params(spec, index)
            clean = synthesize_symbol(full_profile, label, phase)
            measured = measure_snr(record.samples, clean, full_profile)
            assert measured == pytest.approx(record.snr_db, abs=0.5)

    def test_invalid_spec_rejected(self, reduced_spec):
        with pytest.raises(ValueError, match="count"):
            DatasetSpec(reduced_spec.profile, 0, (-10.0, -5.0), seed=0)
        with pytest.raises(ValueError, match="lo <= hi"):
            DatasetSpec(reduced_spec.profile, 5, (-5.0, -10.0), seed=0)

    def test_index_out_of_range(self, reduced_spec):
        with pytest.raises(ValueError, match="out of range"):
            generate_record(reduced_spec, 96)

    def test_float32_overflow_is_refused(self, reduced_spec):
        pinned = DatasetSpec(reduced_spec.profile, 3, (-800.0, -800.0), seed=1)
        # Samples pass float32's range near -765 dB; seed 5 draws ten
        # records above that before one below it.
        ranged = DatasetSpec(reduced_spec.profile, 40, (-770.0, -740.0), seed=5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy's cast warning stays silent
            with pytest.raises(ValueError, match="^record 0 at SNR -800 dB has a sample "
                                                 "outside the float32 range$"):
                generate(pinned)
            with pytest.raises(ValueError, match="^record 2 at SNR -800 dB"):
                generate_record(pinned, 2)
            with pytest.raises(ValueError, match=r"^record 10 at SNR -764\.681 dB"):
                generate(ranged)

    def test_overflowing_noise_power_is_refused_as_a_variance(self, reduced_spec):
        # 10**(4000/10) overflows in numpy float64 before any float32 cast.
        huge = DatasetSpec(reduced_spec.profile, 3, (np.float64(4000),) * 2, seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^snr_db 4000 gives no finite positive "
                                                 "noise variance$"):
                generate(huge)


class TestLabelHistogram:
    def test_uniform_class_balance(self, reduced_spec):
        # 8000 records over 8 tones: every class within 5 sigma of 1000.
        spec = DatasetSpec(reduced_spec.profile, 8000, (-10.0, -10.0), seed=17)
        labels = [record_params(spec, i)[0] for i in range(spec.count)]
        counts = np.bincount(labels, minlength=8)
        sigma = np.sqrt(8000 * (1 / 8) * (7 / 8))
        assert np.all(np.abs(counts - 1000) < 5 * sigma)

    def test_single_record(self, reduced_spec):
        ds = generate(DatasetSpec(reduced_spec.profile, 1, (-9.0, -9.0), seed=2))
        histogram = label_histogram(ds)
        assert sum(histogram.values()) == 1
        assert len(histogram) == 1

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            label_histogram(Dataset(11025, 512, 8, False, []))


class TestFileFormat:
    def test_round_trip_bytes_identical(self, reduced_spec):
        ds = generate(reduced_spec)
        blob = written_bytes(ds)
        loaded = read(io.BytesIO(blob))
        assert written_bytes(loaded) == blob
        assert loaded.sample_rate_hz == 11025
        assert loaded.symbol_len == 512
        assert loaded.tone_count == 8
        assert np.array_equal(loaded.label, ds.label)
        assert np.array_equal(loaded.snr_db, ds.snr_db)
        rows = np.arange(len(ds.label))
        assert loaded.samples(rows).tobytes() == ds.samples(rows).tobytes()

    def test_truncated_records(self, reduced_spec):
        blob = written_bytes(generate(
            DatasetSpec(reduced_spec.profile, 4, (-9.0, -9.0), seed=5)))
        with pytest.raises(TruncationError, match="declares 4 records"):
            read(io.BytesIO(blob[:-100]))

    def test_cut_inside_header_names_the_needed_byte(self, reduced_spec):
        blob = written_bytes(generate(
            DatasetSpec(reduced_spec.profile, 2, (-9.0, -9.0), seed=5)))
        with pytest.raises(TruncationError, match=r"^file ends at byte 20, needed 32$"):
            read(io.BytesIO(blob[:20]))

    @pytest.mark.parametrize("flags", [0x0002, 0x8000, 0xFFFF])
    def test_flag_bits_beyond_bit_0_inconsistent(self, reduced_spec, flags):
        blob = bytearray(written_bytes(generate(
            DatasetSpec(reduced_spec.profile, 2, (-9.0, -9.0), seed=5))))
        blob[22:24] = flags.to_bytes(2, "little")
        with pytest.raises(InconsistencyError, match=f"flags 0x{flags:04x}"):
            read(io.BytesIO(bytes(blob)))

    @staticmethod
    def mutated(spec, field, value):
        """A file of ``spec`` whose record 1 has ``field`` overwritten."""
        blob = written_bytes(generate(spec))
        records = np.frombuffer(blob[32:], record_dtype(spec.profile.symbol_len)).copy()
        records[field][1] = value
        return io.BytesIO(blob[:32] + records.tobytes())

    def test_label_outside_alphabet_inconsistent(self, reduced_spec):
        spec = DatasetSpec(reduced_spec.profile, 3, (-9.0, -9.0), seed=5)
        with pytest.raises(InconsistencyError, match="record 1 has label 500"):
            read(self.mutated(spec, "label", 500))

    def test_sync_record_without_sync_flag_inconsistent(self, reduced_spec):
        spec = DatasetSpec(reduced_spec.profile, 3, (-9.0, -9.0), seed=5)
        with pytest.raises(InconsistencyError, match="65535.*sync flag is clear"):
            read(self.mutated(spec, "label", SYNC_LABEL))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_sample_inconsistent(self, reduced_spec, value):
        spec = DatasetSpec(reduced_spec.profile, 3, (-9.0, -9.0), seed=5)
        with pytest.raises(InconsistencyError, match="record 1 has a non-finite sample"):
            read(self.mutated(spec, "samples", value))

    def test_opposite_infinities_raise_without_a_warning(self, reduced_spec):
        blob = written_bytes(generate(DatasetSpec(reduced_spec.profile, 3, (-9.0, -9.0), seed=5)))
        records = np.frombuffer(blob[32:], record_dtype(512)).copy()
        records["samples"][1, :2] = np.inf, -np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InconsistencyError, match="record 1 has a non-finite sample"):
                read(io.BytesIO(blob[:32] + records.tobytes()))

    def test_records_are_the_file_layout(self, reduced_spec):
        ds = generate(DatasetSpec(reduced_spec.profile, 3, (-9.0, -9.0), seed=5))
        # frombuffer refuses a payload that is not whole records.
        records = np.frombuffer(written_bytes(ds)[32:], record_dtype(512))
        assert records["snr_db"].tobytes() == ds.snr_db.tobytes()
        assert records["label"].tobytes() == ds.label.tobytes()
        assert not records["reserved"].any()
        assert records["samples"].tobytes() == ds.samples(np.arange(3)).tobytes()

    def test_sync_flag_round_trips(self, reduced_spec):
        spec = DatasetSpec(reduced_spec.profile, 40, (-9.0, -9.0), seed=3,
                           include_sync=True)
        loaded = read(io.BytesIO(written_bytes(generate(spec))))
        assert loaded.include_sync


class TestReadMemory:
    def test_peak_is_one_validation_block(self, tmp_path, traced_peak):
        # The 4.1 MB payload is checked one block of records at a time, and
        # only each record's snr_db and label (6 bytes) is kept; the rest is
        # numpy's 64 KiB cast buffer of the float64 finiteness sum.
        rng = np.random.default_rng(0)
        records = np.zeros(2000, record_dtype(512)).view(np.recarray)
        records.label = rng.integers(0, 8, len(records))
        records.samples = rng.standard_normal(records.samples.shape)
        path = tmp_path / "mid.mfskdset"
        write(Dataset(11025, 512, 8, False, records), path)
        with traced_peak() as peak:
            loaded = read(path)
        assert peak.bytes < _BLOCK_BYTES + 6 * len(records) + 128 * 1024
        assert written_bytes(loaded)[32:] == records.tobytes()

    def test_huge_declared_count_allocates_nothing(self, traced_peak):
        # 2**30 records of 8 samples (40 GiB) declared by a 40-byte file.
        blob = b"MFSKDSET" + struct.pack("<I", 1) + struct.pack("<IIHHQ", 1000, 8, 2, 0, 2**30)
        with traced_peak() as peak:
            with pytest.raises(TruncationError, match="declares 1073741824 records"):
                read(io.BytesIO(blob + bytes(8)))
        assert peak.bytes < 64 * 1024


class TestDataArrays:
    def test_excludes_sync_records(self, reduced_spec):
        spec = DatasetSpec(reduced_spec.profile, 120, (-9.0, -9.0), seed=3,
                           include_sync=True)
        ds = generate(spec)
        x, y = data_arrays(ds)
        assert x.dtype == np.float32
        assert y.size < len(ds.label)
        assert np.all(y < 8)

    def test_shapes_align(self, reduced_spec):
        ds = generate(DatasetSpec(reduced_spec.profile, 6, (-9.0, -9.0), seed=1))
        x, y = data_arrays(ds)
        assert x.shape == (6, 512)
        assert y.shape == (6,)

    @pytest.mark.parametrize("source", ["generated", "read"])
    def test_samples_are_the_record_bytes(self, reduced_spec, source, tmp_path):
        ds = generate(DatasetSpec(reduced_spec.profile, 12, (-12.0, -3.0), seed=6,
                                  include_sync=True))
        records = np.frombuffer(written_bytes(ds)[32:], record_dtype(512))
        if source == "read":
            write(ds, tmp_path / "set.mfskdset")
            ds = read(tmp_path / "set.mfskdset")
        x, y = data_arrays(ds)
        kept = records[records["label"] != SYNC_LABEL]
        assert np.asarray(x).tobytes() == kept["samples"].tobytes()
        assert y.tolist() == kept["label"].tolist()

    def test_rows_index_as_the_dense_copy(self, reduced_spec):
        ds = generate(DatasetSpec(reduced_spec.profile, 40, (-9.0, -9.0), seed=4,
                                  include_sync=True))
        x, y = data_arrays(ds)
        dense = ds.samples(ds.label != SYNC_LABEL)
        assert (x.shape, x.dtype, x.ndim, len(x)) == (dense.shape, dense.dtype, 2, y.size)
        for key in (0, -1, slice(3, 17), slice(None, None, 5), np.array([5, 0, 5, 2])):
            assert np.array_equal(x[key], dense[key])
        with pytest.raises(ValueError):
            x[0][0] = 1.0
        with pytest.raises(ValueError):
            np.asarray(x, copy=False)

    def test_file_rows_index_as_the_memory_rows(self, reduced_spec, tmp_path):
        # 1,200 records span three 1 MiB blocks: gathers from the file come
        # back in the order asked, across runs, blocks, gaps and repeats.
        ds = generate(DatasetSpec(reduced_spec.profile, 1200, (-9.0, -9.0), seed=4,
                                  include_sync=True))
        write(ds, tmp_path / "set.mfskdset")
        loaded = read(tmp_path / "set.mfskdset")
        memory, y = data_arrays(ds)
        file, y_file = data_arrays(loaded)
        assert np.array_equal(y_file, y)
        shuffled = np.random.default_rng(0).permutation(y.size)
        for key in (0, -1, slice(None), slice(400, 1100), slice(None, None, 7), shuffled[:32],
                    shuffled, np.array([900, 3, 900, 4, 5, 2, 1000])):
            assert file[key].tobytes() == memory[key].tobytes()
        with pytest.raises(ValueError):
            file[0][0] = 1.0
        # Dataset.samples indexes all records as numpy does, from either source.
        for rows in (-1, [-1, 0, -1200]):
            assert loaded.samples(rows).tobytes() == ds.samples(rows).tobytes()
        for source in (ds, loaded):
            with pytest.raises(IndexError):
                source.samples([0, 1200])

    def test_file_samples_take_numpy_indices(self, reduced_spec):
        # Each index gives the memory rows' bytes from the file, or IndexError
        # from both: a mask selects, a float array and an out-of-range index fail.
        ds = generate(DatasetSpec(reduced_spec.profile, 4, (-9.0, -3.0), seed=5))
        loaded = read(io.BytesIO(written_bytes(ds)))
        for rows in (2, -1, np.array([3, -4, 3, 0]), np.array([False, False, True, False]),
                     slice(1, 3), np.array([1.7]), 4):
            try:
                expected = ds.samples(rows).tobytes()
            except IndexError:
                with pytest.raises(IndexError):
                    loaded.samples(rows)
            else:
                assert loaded.samples(rows).tobytes() == expected, rows
        for source in (ds, loaded):
            with pytest.raises(ValueError):
                source.samples(2)[0] = 1.0

    def test_rows_are_not_copied(self, full_profile, tmp_path, traced_peak):
        spec = DatasetSpec(full_profile, 200, (-20.0, -20.0), seed=2, include_sync=True)
        write(generate(spec), tmp_path / "full.mfskdset")
        loaded = read(tmp_path / "full.mfskdset")
        with traced_peak() as peak:
            x, y = data_arrays(loaded)
        assert peak.bytes < len(loaded.label) * record_dtype(4096).itemsize / 100
        assert x.shape == (y.size, full_profile.symbol_len)
