"""Open-file handles: a stream-style API over the file system.

``FileSystem.open`` returns a :class:`File` supporting sequential and
positioned reads/writes, ``seek``/``tell``, and use as a context
manager -- the access style ordinary applications expect, implemented
entirely on the whole-file primitives so it works identically over the
local device and the reliable device.
"""

from __future__ import annotations

import io
from typing import TYPE_CHECKING

from ..errors import FileSystemError

if TYPE_CHECKING:
    from .filesystem import FileSystem

__all__ = ["File"]


class File:
    """A positioned handle on one regular file.

    A handle holds a path and a position, no data and no inode --
    every read/write goes through the file system, which re-reads the
    inode and moves the data on the device (what the mount keeps is
    the path's names).  So handles on one mount observe each other's
    writes, matching the single-client model of the paper; two mounts
    of one device never did (each has its own bitmap).
    """

    def __init__(self, fs: "FileSystem", path: str) -> None:
        self._fs = fs
        self._path = path
        self._position = 0
        self._closed = False

    # -- bookkeeping --------------------------------------------------------

    @property
    def path(self) -> str:
        return self._path

    @property
    def closed(self) -> bool:
        return self._closed

    def _check_open(self) -> None:
        if self._closed:
            raise FileSystemError(f"I/O on closed file {self._path!r}")

    def close(self) -> None:
        """Close the handle.  Idempotent."""
        self._closed = True

    def __enter__(self) -> "File":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # -- positioning -------------------------------------------------------

    def tell(self) -> int:
        """Current position."""
        self._check_open()
        return self._position

    def seek(self, offset: int, whence: int = io.SEEK_SET) -> int:
        """Move the position; returns the new position."""
        self._check_open()
        if whence == io.SEEK_SET:
            target = offset
        elif whence == io.SEEK_CUR:
            target = self._position + offset
        elif whence == io.SEEK_END:
            target = self.size() + offset
        else:
            raise ValueError(f"bad whence {whence!r}")
        if target < 0:
            raise ValueError(f"negative seek position {target}")
        self._position = target
        return target

    def size(self) -> int:
        """Current size of the file."""
        self._check_open()
        return self._fs.stat(self._path).size

    # -- data ------------------------------------------------------------------

    def read(self, size: int = -1) -> bytes:
        """Read up to ``size`` bytes from the current position.

        ``size < 0`` reads to end of file.  Advances the position by the
        number of bytes actually read.
        """
        self._check_open()
        # size < 0 defers to read_file's own size=None handling, which
        # clips to the file size without a separate stat round-trip.
        data = self._fs.read_file(
            self._path,
            offset=self._position,
            size=None if size < 0 else size,
        )
        self._position += len(data)
        return data

    def write(self, data: bytes) -> int:
        """Write ``data`` at the current position; returns bytes written."""
        self._check_open()
        self._fs.write_file(self._path, data, offset=self._position)
        self._position += len(data)
        return len(data)

    def truncate(self) -> None:
        """Discard all contents (position is reset to 0)."""
        self._check_open()
        self._fs.truncate(self._path)
        self._position = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self._closed else f"pos={self._position}"
        return f"File({self._path!r}, {state})"
