"""Exceptions of the binary dataset and weights readers, and their ``Frame``.

Domain errors (bad arguments, shape mismatches between in-memory arrays)
use plain ``ValueError``; the classes here cover malformed *files* so
callers can tell apart the failure modes of on-disk data.
"""

import struct

import numpy as np


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
    """A file (path or seekable binary file object) that opens with ``magic`` and
    a u32 ``version``, read from the handle's position on; it picks what a bad
    byte raises.

    The frame never holds the file: headers come back as small ``bytes``, every
    read is checked against the file size before anything is read or
    allocated, and ``readinto`` fills a caller's array with a payload.  Use it
    as a context manager; it closes a file it opened itself.
    """

    def __init__(self, source, magic: bytes, version: int, kind: str):
        self._owned = not hasattr(source, "read")
        self.handle = open(source, "rb") if self._owned else source
        try:
            if not getattr(self.handle, "seekable", lambda: False)():
                raise ValueError(f"the {kind} reader needs a seekable binary file")
            self.start = self.handle.tell()
            self.size = self.handle.seek(0, 2) - self.start
            self.handle.seek(self.start)
            if self.handle.read(len(magic)) != magic:
                raise MagicError(f"not a {kind} file (expected magic {magic!r})")
            self.offset = len(magic)
            (found,) = self.unpack("<I")
            if found != version:
                raise VersionError(f"unsupported {kind} version {found}")
        except BaseException:
            self.close()
            raise

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()

    def close(self) -> None:
        if self._owned:
            self.handle.close()

    def _claim(self, size: int) -> int:
        start, end = self.offset, self.offset + size
        if end > self.size:
            raise TruncationError(f"file ends at byte {self.size}, needed {end}")
        self.offset = end
        return start

    def skip(self, size: int) -> int:
        """Step over ``size`` bytes the file must hold; returns where they start."""
        start = self._claim(size)
        self.handle.seek(self.start + self.offset)
        return start

    def take(self, size: int) -> bytes:
        start = self._claim(size)
        data = self.handle.read(size)
        if len(data) < size:
            raise TruncationError(f"file ends at byte {start + len(data)}, needed {self.offset}")
        return data

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def readinto(self, offset: int, array) -> None:
        """Fill the C-contiguous ``array`` with the bytes at ``offset`` (from ``skip``)."""
        view = memoryview(array.view(np.uint8)).cast("B")  # refuses a strided array
        self.handle.seek(self.start + offset)
        done = 0
        while done < len(view):
            got = self.handle.readinto(view[done:])
            if not got:
                raise TruncationError(f"file ends at byte {offset + done}, "
                                      f"needed {offset + len(view)}")
            done += got

    def end(self) -> None:
        trailing = self.size - self.offset
        if trailing:
            raise InconsistencyError(f"{trailing} trailing bytes after the declared records")
