"""Kept states spooled to an unlinked temporary file.

`sktlab simulate` keeps a state a step for snapshots.csv. As arrays in the
heap each costs 8*4*npoints bytes for the whole run; spooled, each is one
fixed record in a file the kernel may evict, and the process holds none of
them. A record is t, then u and h in C order, all float64, so every value
reads back bit for bit. Writes and reads name their offset (os.pwrite,
os.pread), so forked readers share the file but no position in it. The
spool needs both calls and a file that is unlinked when it is made, as on
POSIX; `sktlab simulate` keeps its states in a list where they are missing.
"""

import operator
import os
import tempfile
from collections.abc import Sequence

import numpy as np

from .iteration import SystemState


class _Records(Sequence):
    """A read-only sequence of SystemState over some of a spool's records.

    Indexing takes ints, negative ones included, and slices, which give
    another _Records over the same file. Each element read is a new
    SystemState whose u and h are read-only views of one record. Once the
    spool is closed, reading any of its records raises ValueError.
    """

    __slots__ = ("_file", "_grid", "_size", "_rows")

    def __init__(self, file, grid, rows: range):
        self._file, self._grid, self._rows = file, grid, rows
        self._size = 8 * (1 + 4 * grid.npoints)

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return _Records(self._file, self._grid, self._rows[index])
        try:
            row = self._rows[operator.index(index)]
        except IndexError:
            raise IndexError("snapshot index out of range") from None
        # fileno() of a closed file raises, so no read reaches a reused fd
        data = os.pread(self._file.fileno(), self._size, row * self._size)
        if len(data) != self._size:
            raise EOFError(f"snapshot record {row} is cut short")
        record = np.frombuffer(data)
        n, shape = 2 * self._grid.npoints, (2,) + self._grid.shape
        u, h = record[1:1 + n].reshape(shape), record[1 + n:].reshape(shape)
        return SystemState(float(record[0]), self._grid, u, h)


class SnapshotSpool(_Records):
    """Kept states, appended as records to an unlinked temporary file in
    `directory`; a `simulate` snapshot sink. Each record is built in one
    float64 array made with the spool, the only copy of the state it takes.
    Leaving its with block closes the file, which frees its space."""

    __slots__ = ("_record",)

    def __init__(self, grid, directory):
        super().__init__(tempfile.TemporaryFile(dir=directory), grid, range(0))
        self._record = np.empty(1 + 4 * grid.npoints)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._file.close()

    def append(self, state: SystemState) -> None:
        record, n = self._record, 2 * self._grid.npoints
        if state.u.size != n or state.h.size != n:
            raise ValueError("the state does not live on the spool's grid")
        record[0] = state.t
        record[1:1 + n] = state.u.reshape(-1)
        record[1 + n:] = state.h.reshape(-1)
        record = memoryview(record).cast("B")
        fd, offset = self._file.fileno(), len(self) * self._size
        # a short write leaves the rest to the next call, which raises the
        # reason (a full disk, say)
        while record:
            written = os.pwrite(fd, record, offset)
            record, offset = record[written:], offset + written
        self._rows = range(len(self._rows) + 1)
