"""Tests for the binary weights file: round trips, memory and its own failure
modes (the contract both readers share is in test_frame.py)."""

import io
import math
import os
import struct

import numpy as np
import pytest

from mfskmodem.errors import ShapeError, TruncationError
from mfskmodem.nn import GRAD_CHECK_CONFIG, ModelConfig, build_model, load_weights, save_weights
from mfskmodem.nn.model import _mutable, param_layout
from mfskmodem.profiles import get_profile

TINY = GRAD_CHECK_CONFIG  # N = 64, F = 4, K = 8, H = 8, M = 4
REDUCED = get_profile("reduced-m8").model


def saved_bytes(state) -> bytes:
    buffer = io.BytesIO()
    save_weights(state, buffer)
    return buffer.getvalue()


def encoded(tensors) -> bytes:
    """A weights file holding exactly these float32 records, in this order."""
    parts = [b"MFSKNN01", struct.pack("<II", 1, len(tensors))]
    for name, tensor in tensors.items():
        tensor = np.asarray(tensor, dtype=np.float32)
        parts += [struct.pack("<H", len(name)), name.encode("utf-8"),
                  struct.pack(f"<BB{tensor.ndim}Q", 0, tensor.ndim, *tensor.shape),
                  tensor.tobytes()]
    return b"".join(parts)


class TestRoundTrip:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bit_exact(self, dtype):
        state = build_model(TINY, seed=11, dtype=dtype)
        loaded = load_weights(io.BytesIO(saved_bytes(state)))
        assert loaded.config == state.config
        assert loaded.dtype == np.dtype(dtype)
        for name, tensor in state.tensors.items():
            assert loaded.tensors[name].dtype == tensor.dtype
            assert np.array_equal(loaded.tensors[name], tensor)
            assert loaded.tensors[name].tobytes() == tensor.tobytes()

    def test_trained_values_survive(self, rng):
        state = build_model(TINY, seed=4)
        _mutable(state)["conv.kernel"] += rng.standard_normal(
            state.tensors["conv.kernel"].shape).astype(np.float32)
        loaded = load_weights(io.BytesIO(saved_bytes(state)))
        assert np.array_equal(loaded.tensors["conv.kernel"], state.tensors["conv.kernel"])


class TestLoadMemory:
    def test_peak_is_one_arena(self, tmp_path, traced_peak):
        # Headers are checked first, then each payload is read into the arena:
        # no second copy of the tensors (8.4 MB of float32 parameters).
        config = ModelConfig(input_len=1024, conv_filters=32, conv_kernel=16,
                             hidden_units=64, classes=16)
        path = tmp_path / "mid.weights"
        save_weights(build_model(config, seed=0), path)
        arena_bytes = 4 * sum(math.prod(shape) for _, shape, _ in param_layout(config))
        with traced_peak() as peak:
            load_weights(path)
        assert peak.bytes < 1.1 * arena_bytes

    def test_huge_declared_dims_allocate_nothing(self, traced_peak):
        # A 4 TiB tensor declared by a 57-byte file is refused from its header.
        blob = (b"MFSKNN01" + struct.pack("<IIH", 1, 1, 13) + b"hidden.weight"
                + struct.pack("<BB2Q", 0, 2, 2**20, 2**20) + bytes(8))
        with traced_peak() as peak:
            with pytest.raises(TruncationError, match=r"^file ends at byte 57, needed 4398046511153$"):
                load_weights(io.BytesIO(blob))
        assert peak.bytes < 64 * 1024


class TestSaveMemory:
    def test_tensors_are_written_without_a_copy(self, traced_peak):
        state = build_model(REDUCED, seed=0)
        size = len(saved_bytes(state))
        with traced_peak() as peak:
            save_weights(state, os.devnull)
        assert peak.bytes < 0.25 * size


class TestLoadErrors:
    def test_mismatched_shape_names_the_tensor(self):
        blob = saved_bytes(build_model(TINY, seed=0))
        # conv.bias's dims follow its name, dtype tag and rank; F is 4.
        dims = blob.index(b"conv.bias") + len(b"conv.bias") + 2
        assert blob[dims : dims + 8] == (4).to_bytes(8, "little")
        blob = blob[:dims] + (5).to_bytes(8, "little") + bytes(4) + blob[dims + 8 :]
        with pytest.raises(ShapeError, match="conv.bias"):
            load_weights(io.BytesIO(blob))

    def test_renamed_record_reported_missing(self):
        blob = saved_bytes(build_model(TINY, seed=0))
        with pytest.raises(ShapeError, match="output.bias"):
            load_weights(io.BytesIO(blob.replace(b"output.bias", b"outputXbias")))

    @pytest.mark.parametrize("name, shape", [
        pytest.param("conv.kernel", (8, 2, 4), id="kernel-two-input-channels"),
        pytest.param("conv.kernel", (8, 4), id="kernel-rank-2"),
        pytest.param("conv.kernel", (), id="kernel-rank-0"),
        pytest.param("hidden.weight", (257, 8), id="hidden-rows-not-multiple-of-F"),
        pytest.param("output.weight", (9, 4), id="output-rows-not-H"),
        pytest.param("hidden.weight", (256, 1, 8), id="hidden-rank-3"),
        pytest.param("conv.kernel", None, id="no-kernel-record"),
        pytest.param("conv.kernel", (65, 1, 4), id="kernel-longer-than-input"),
    ])
    def test_inconsistent_shape_is_refused(self, name, shape):
        state = build_model(TINY, seed=0)
        tensors = {n: state.tensors[n] for n, _, _ in param_layout(TINY)}
        assert encoded(tensors) == saved_bytes(state)
        if shape is None:
            del tensors[name]
        else:
            tensors[name] = np.zeros(shape, np.float32)
        with pytest.raises(ShapeError):
            load_weights(io.BytesIO(encoded(tensors)))
