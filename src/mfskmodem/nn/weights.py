"""Binary weights file: every parameter and running statistic, bit-exact.

Layout (all integers little-endian):

    magic          8 bytes  "MFSKNN01"
    version        u32      1
    record count   u32
    per record:
        name length   u16
        name          UTF-8 bytes (canonical tensor name, see model.param_layout)
        dtype tag     u8       0 = IEEE-754 binary32, 1 = binary64
        rank          u8
        dims          u64 * rank
        data          raw row-major tensor bytes

Loading reads the ModelConfig off the first and last axes of conv.kernel,
hidden.weight and output.weight; param_layout alone then judges every
tensor's shape, those three included, so a file that disagrees with itself
fails with a ShapeError naming the offending tensor.  All of that runs on the
record headers; only then is the state allocated and each payload read
straight into the parameter arena, so a load holds one copy of the tensors.
"""

import math
import struct

import numpy as np

from ..errors import Frame, InconsistencyError, ShapeError
from .model import ModelConfig, ModelState, _mutable, param_layout

MAGIC = b"MFSKNN01"
VERSION = 1

_DTYPE_TAGS = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}
_TAG_DTYPES = {tag: dtype for dtype, tag in _DTYPE_TAGS.items()}


def save_weights(state: ModelState, destination) -> None:
    """Write the state's tensors to ``destination`` (path or binary file)."""
    if hasattr(destination, "write"):
        _write(state, destination)
    else:
        with open(destination, "wb") as handle:
            _write(state, handle)


def _write(state, handle):
    names = [name for name, _, _ in param_layout(state.config)]
    handle.write(MAGIC)
    handle.write(struct.pack("<II", VERSION, len(names)))
    tag = _DTYPE_TAGS[np.dtype(state.dtype)]
    for name in names:
        tensor = state.tensors[name]
        encoded = name.encode("utf-8")
        handle.write(struct.pack("<H", len(encoded)))
        handle.write(encoded)
        handle.write(struct.pack("<BB", tag, tensor.ndim))
        handle.write(struct.pack(f"<{tensor.ndim}Q", *tensor.shape))
        handle.write(tensor)  # the contiguous view itself, not a copy


def load_weights(source) -> ModelState:
    """Read a weights file (path or seekable binary file) back into a ModelState.

    Pass 1 reads every record header and steps over its payload, so the
    config and every shape are checked before the state is allocated; pass 2
    reads each payload straight into its arena view.  Raises MagicError,
    VersionError, TruncationError (from ``errors.Frame``), InconsistencyError
    or ShapeError depending on what is wrong with the file; a bad file never
    yields a partial state.
    """
    with Frame(source, MAGIC, VERSION, "weights") as frame:
        (count,) = frame.unpack("<I")
        shapes, offsets = {}, {}
        tags = set()
        for _ in range(count):
            (name_len,) = frame.unpack("<H")
            start = frame.offset
            try:
                name = frame.take(name_len).decode("utf-8")
            except UnicodeDecodeError:
                raise InconsistencyError(f"tensor name at byte {start} is not UTF-8") from None
            tag, rank = frame.unpack("<BB")
            if tag not in _TAG_DTYPES:
                raise InconsistencyError(f"tensor {name!r} has unknown dtype tag {tag}")
            dims = frame.unpack(f"<{rank}Q")
            if not 1 <= rank <= 3 or 0 in dims:
                raise ShapeError(f"tensor {name!r} has shape {dims}, not 1-3 nonzero axes")
            offset = frame.skip(math.prod(dims) * _TAG_DTYPES[tag].itemsize)
            if name in shapes:
                raise InconsistencyError(f"duplicate tensor record {name!r}")
            shapes[name], offsets[name] = dims, offset
            tags.add(tag)
        frame.end()
        if len(tags) > 1:
            raise InconsistencyError("mixed dtype tags across tensor records")

        config = _infer_config(shapes)
        expected = {name: shape for name, shape, _ in param_layout(config)}
        missing = sorted(set(expected) - set(shapes))
        if missing:
            raise ShapeError(f"missing tensor records: {', '.join(missing)}")
        unknown = sorted(set(shapes) - set(expected))
        if unknown:
            raise ShapeError(f"unknown tensor records: {', '.join(unknown)}")
        for name, shape in expected.items():
            if shapes[name] != shape:
                raise ShapeError(
                    f"tensor {name!r} has shape {shapes[name]}, "
                    f"expected {shape} for the stored architecture"
                )
        state = ModelState(config, _TAG_DTYPES[tags.pop()])
        for name, tensor in _mutable(state).items():
            frame.readinto(offsets[name], tensor)
    return state


def _infer_config(shapes) -> ModelConfig:
    for required in ("conv.kernel", "hidden.weight", "output.weight"):
        if required not in shapes:
            raise ShapeError(f"missing tensor record {required!r}")
    k, f = (shapes["conv.kernel"][i] for i in (0, -1))
    flat, h = (shapes["hidden.weight"][i] for i in (0, -1))
    try:
        return ModelConfig(input_len=flat // f, conv_filters=f, conv_kernel=k,
                           hidden_units=h, classes=shapes["output.weight"][-1])
    except ValueError as exc:
        raise ShapeError(f"stored tensor shapes describe no valid model: {exc}") from None

