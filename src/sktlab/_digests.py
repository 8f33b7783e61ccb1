"""The step digests simulate keeps, packed into one byte buffer.

A blow-up run keeps tens of thousands of digests. As named tuples of
Python floats each costs about 270 bytes; packed, each is one 58-byte
record below, plus the buffer's growth margin of up to an eighth. The
floats are float64 ('d'), so every field reads back bit for bit.
"""

import operator
import struct
from collections.abc import Sequence

# a TraceSummary's fields in order, with its bracket as a code into _KINDS:
# t, dt, iterations, gap, worst_violation, phi1, phi2, retries, fallbacks
_RECORD = struct.Struct("=2dI4dBIB")
_KINDS = ("window", "predicted", "tight", "wide")
_CODES = {kind: code for code, kind in enumerate(_KINDS)}


def pack(buffer: bytearray, summary) -> None:
    """Append one TraceSummary's record to a run's buffer."""
    buffer += _RECORD.pack(*summary[:-1], _CODES[summary[-1]])


class StepDigests(Sequence):
    """A read-only sequence of TraceSummary over a run's packed records.

    Indexing takes ints, negative ones included, and slices, which give a
    list; each element is a new TraceSummary equal to the one packed.
    """

    __slots__ = ("_buffer", "_summary")

    def __init__(self, buffer: bytearray, summary_type):
        self._buffer, self._summary = buffer, summary_type

    def __len__(self) -> int:
        return len(self._buffer) // _RECORD.size

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        i = operator.index(index)
        n = len(self)
        if not -n <= i < n:
            raise IndexError("step digest index out of range")
        return self._make(_RECORD.unpack_from(self._buffer, (i % n) * _RECORD.size))

    def __iter__(self):
        return map(self._make, _RECORD.iter_unpack(self._buffer))

    def _make(self, fields):
        return self._summary(*fields[:-1], _KINDS[fields[-1]])
