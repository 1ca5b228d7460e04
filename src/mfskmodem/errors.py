"""Exceptions of the binary dataset and weights readers, and their ``Frame``.

Domain errors (bad arguments, shape mismatches between in-memory arrays)
use plain ``ValueError``; the classes here cover malformed *files* so
callers can tell apart the failure modes of on-disk data.
"""

import struct


class FileFormatError(Exception):
    """Base class for malformed dataset or weights files."""


class MagicError(FileFormatError):
    """File does not start with the expected magic bytes."""


class VersionError(FileFormatError):
    """File declares a format version this reader does not support."""


class TruncationError(FileFormatError):
    """File ended before the declared payload was complete."""


class InconsistencyError(FileFormatError):
    """File header and payload disagree (e.g. trailing bytes after the
    declared record count)."""


class ShapeError(FileFormatError):
    """A stored tensor's declared shape is incompatible with the model
    layout implied by the other tensors."""


class Frame:
    """A whole file (path or binary file object) that opens with ``magic`` and a
    u32 ``version``, read from ``offset`` on; it picks what a bad byte raises."""

    def __init__(self, source, magic: bytes, version: int, kind: str):
        if hasattr(source, "read"):
            data = source.read()
        else:
            with open(source, "rb") as handle:
                data = handle.read()
        self.data = memoryview(data)
        if self.data[: len(magic)] != magic:
            raise MagicError(f"not a {kind} file (expected magic {magic!r})")
        self.offset = len(magic)
        (found,) = self.unpack("<I")
        if found != version:
            raise VersionError(f"unsupported {kind} version {found}")

    def take(self, size: int) -> memoryview:
        end = self.offset + size
        if end > len(self.data):
            raise TruncationError(f"file ends at byte {len(self.data)}, needed {end}")
        self.offset = end
        return self.data[end - size : end]

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def end(self) -> None:
        trailing = len(self.data) - self.offset
        if trailing:
            raise InconsistencyError(f"{trailing} trailing bytes after the declared records")
