"""Tests for ``errors.Frame`` through both readers: the shared contract of
magic, version, truncation and trailing bytes, byte mutations, sources, short
reads and closing."""

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfskmodem import dataset, errors
from mfskmodem.cli import main
from mfskmodem.dataset import DatasetSpec, generate, read, write
from mfskmodem.errors import (
    FileFormatError,
    InconsistencyError,
    MagicError,
    TruncationError,
    VersionError,
)
from mfskmodem.nn import ModelConfig, build_model, load_weights, save_weights
from mfskmodem.signal import ModemProfile


def _bytes_of(save, obj) -> bytes:
    buffer = io.BytesIO()
    save(obj, buffer)
    return buffer.getvalue()


# Small enough that a mutation often lands in a header: four 8-sample records,
# two of them sync records, in 192 bytes; a model whose headers, names and dims
# are a third of its 712 bytes.
DATASET_BLOB = _bytes_of(write, generate(DatasetSpec(
    ModemProfile(1000.0, 8, 2, 0, 1, 500.0), 4, (-5.0, 5.0), seed=2, include_sync=True)))
WEIGHTS_BLOB = _bytes_of(save_weights, build_model(
    ModelConfig(input_len=4, conv_filters=2, conv_kernel=2, hidden_units=2, classes=2), seed=0))

# The kind each reader names in its errors -> (reader, a good file, what the
# reader returned as bytes again).
READERS = {
    "dataset": (read, DATASET_BLOB, lambda ds: _bytes_of(write, ds)),
    "weights": (load_weights, WEIGHTS_BLOB, lambda state: _bytes_of(save_weights, state)),
}


@pytest.fixture(params=sorted(READERS))
def reader(request):
    return READERS[request.param]


def _version_7(blob):
    return blob[:8] + (7).to_bytes(4, "little") + blob[12:]


@pytest.mark.parametrize("damage, error, match", [
    pytest.param(lambda blob: b"", MagicError, "^not a {kind} file", id="empty"),
    pytest.param(lambda blob: bytes([blob[0] ^ 0xFF]) + blob[1:], MagicError,
                 "^not a {kind} file", id="first-byte-flipped"),
    pytest.param(_version_7, VersionError, "^unsupported {kind} version 7$", id="version-7"),
    # The version is checked as soon as its four bytes are in.
    pytest.param(lambda blob: _version_7(blob[:12]), VersionError,
                 "^unsupported {kind} version 7$", id="version-7-in-12-bytes"),
    pytest.param(lambda blob: blob[:-1], TruncationError, None, id="last-byte-cut"),
    pytest.param(lambda blob: blob + bytes(3), InconsistencyError,
                 "^3 trailing bytes after the declared records$", id="3-trailing-bytes"),
])
@pytest.mark.parametrize("kind", sorted(READERS))
def test_frame_contract(kind, damage, error, match):
    load, blob, _ = READERS[kind]
    with pytest.raises(error, match=match and match.format(kind=kind)):
        load(io.BytesIO(damage(blob)))


@pytest.mark.parametrize("kind", sorted(READERS))
@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_mutation_fails_cleanly_or_round_trips(kind, data):
    # Up to three overwritten bytes anywhere, optionally truncated: the reader
    # raises only FileFormatError, or what it loads writes back to the same
    # bytes.
    load, blob, dump = READERS[kind]
    positions = st.integers(0, len(blob) - 1)
    edits = data.draw(st.lists(st.tuples(positions, st.integers(0, 255)), max_size=3))
    keep = data.draw(st.one_of(st.none(), positions))
    mutated = bytearray(blob)
    for position, value in edits:
        mutated[position] = value
    mutated = bytes(mutated[:keep])
    try:
        loaded = load(io.BytesIO(mutated))
    except FileFormatError:
        return
    assert dump(loaded) == mutated


class ShortRead(io.BytesIO):
    """A file whose reads stop at ``limit`` while its size says more: a file
    cut between the reader's size probe and its payload reads."""

    def __init__(self, data, limit):
        super().__init__(data)
        self.limit = limit

    def read(self, size=-1):
        size = max(0, min(self.limit - self.tell(), len(self.getbuffer()) if size < 0 else size))
        return super().read(size)

    def readinto(self, buffer):
        view = memoryview(buffer).cast("B")
        data = self.read(len(view))
        view[: len(data)] = data
        return len(data)


class Unseekable(io.BytesIO):
    def seekable(self):
        return False


class ReadOnly:
    """A source with a ``read`` method and nothing else."""

    def __init__(self, data):
        self.read = io.BytesIO(data).read


def test_source_positioned_after_a_prefix_reads_like_a_fresh_one(reader):
    load, blob, dump = reader
    source = io.BytesIO(b"prefix" + blob)
    source.seek(6)
    assert dump(load(source)) == dump(load(io.BytesIO(blob))) == blob


def test_errors_count_bytes_from_the_start_position(reader):
    load, blob, _ = reader
    cut = blob[: len(blob) - 3]
    with pytest.raises(TruncationError) as fresh:
        load(io.BytesIO(cut))
    source = io.BytesIO(b"prefix" + cut)
    source.seek(6)
    with pytest.raises(TruncationError) as prefixed:
        load(source)
    assert str(prefixed.value) == str(fresh.value)


def test_short_payload_read_is_truncation(reader):
    load, blob, _ = reader
    # Every header byte is readable; the last payload byte is not.
    with pytest.raises(TruncationError, match=f"needed {len(blob)}$"):
        load(ShortRead(blob, len(blob) - 1))


def test_short_header_read_is_truncation(reader):
    load, blob, _ = reader
    with pytest.raises(TruncationError, match="^file ends at byte 10, needed 12$"):
        load(ShortRead(blob, 10))


def test_unseekable_source_is_a_plain_value_error(reader):
    load, blob, _ = reader
    for source in (Unseekable(blob), ReadOnly(blob)):
        with pytest.raises(ValueError, match="needs a seekable binary file") as refused:
            load(source)
        assert not isinstance(refused.value, FileFormatError)


@pytest.mark.parametrize("damage", ["none", "magic", "truncated", "trailing"])
def test_a_path_the_reader_opened_is_closed(reader, damage, tmp_path, monkeypatch):
    load, blob, dump = reader
    blob = {"none": blob, "magic": b"X" + blob[1:], "truncated": blob[:-1],
            "trailing": blob + b"\0"}[damage]
    path = tmp_path / "file"
    path.write_bytes(blob)
    opened = []

    def spy(*args, **kwargs):
        opened.append(open(*args, **kwargs))
        return opened[-1]

    monkeypatch.setattr(errors, "open", spy, raising=False)
    if damage == "none":
        loaded = load(path)
        assert len(opened) == 1 and opened[0].closed
        # Each gather of a dataset's rows reopens the path, and closes it.
        assert dump(loaded) == blob
    else:
        with pytest.raises(FileFormatError):
            load(path)
        assert len(opened) == 1
    assert all(handle.closed for handle in opened)


@pytest.mark.parametrize("source", ["path", "caller-file"])
def test_a_dataset_cut_after_read_fails_its_gather(source, tmp_path, monkeypatch):
    # read checked every record; the file loses its last byte before the
    # rows are gathered, and the gather that reaches it is a TruncationError.
    path = tmp_path / "file"
    path.write_bytes(DATASET_BLOB)
    opened = []

    def spy(*args, **kwargs):
        opened.append(open(*args, **kwargs))
        return opened[-1]

    monkeypatch.setattr(errors, "open", spy, raising=False)
    caller_file = io.BytesIO(DATASET_BLOB)
    loaded = read(path if source == "path" else caller_file)
    with open(path, "r+b") as cut:
        cut.truncate(len(DATASET_BLOB) - 1)
    caller_file.truncate(len(DATASET_BLOB) - 1)
    last = len(loaded.label) - 1
    for gather in (lambda: loaded.samples(last), lambda: _bytes_of(write, loaded)):
        with pytest.raises(TruncationError, match=f"needed {len(DATASET_BLOB)}$"):
            gather()
    assert all(handle.closed for handle in opened)
    assert not caller_file.closed


def test_demod_of_a_dataset_cut_after_read_writes_nothing(tmp_path, monkeypatch, capsys):
    path = tmp_path / "m8.dset"
    assert main(["synth", "--profile", "reduced-m8", "--count", "40", "--snr", "-9",
                 "--seed", "1", "--out", str(path)]) == 0
    capsys.readouterr()
    checked = dataset.read

    def read_then_cut(source, check=None):
        loaded = checked(source, check)
        with open(source, "r+b") as cut:
            cut.truncate(path.stat().st_size - 1)
        return loaded

    monkeypatch.setattr(dataset, "read", read_then_cut)
    report = tmp_path / "report.txt"
    code = main(["demod", "--profile", "reduced-m8", "--classical", "--dataset", str(path),
                 "--out-report", str(report), "--out-confusion", str(tmp_path / "cm.csv")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: file ends at byte ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m8.dset"]


def test_a_caller_file_is_left_open(reader):
    load, blob, _ = reader
    source = io.BytesIO(blob[:-1])
    with pytest.raises(TruncationError):
        load(source)
    assert not source.closed


def test_readinto_refuses_a_strided_array():
    frame = errors.Frame(io.BytesIO(b"MAGC" + bytes(4) + bytes(16)), b"MAGC", 0, "test")
    offset = frame.skip(16)
    with pytest.raises((TypeError, ValueError)):
        frame.readinto(offset, np.zeros((4, 2), np.float32)[:, 0])
