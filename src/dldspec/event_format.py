"""Binary timestamp-list file format (`.dlde`) and its streaming parser.

Layout, all little-endian:

    header, 16 bytes:
        magic          4 bytes  b"DLDE"
        version        u16      FORMAT_VERSION (1), the only version read or written
        tick_ps        u32      picoseconds per timestamp tick, >= 1
        detector_count u8
        reserved       5 bytes  zero
    records, 10 bytes each, non-decreasing in timestamp across the whole file:
        detector       u8       0-based, < detector_count
        channel        u8       0=MCP 1=XA 2=XB 3=YA 4=YB
        timestamp      u64      ticks

Fixed-width records keep truncation detection exact. The parser validates
magic, version, channel and detector ranges, the timestamp range (a u64 tick
>= 2**63 is rejected), timestamp monotonicity and record completeness as it
streams; every failure mode has a distinct exception type carrying the byte
offset (and record index where meaningful). Memory is bounded by the chunk
size regardless of file size. The writer checks its records with the same
validator (`_validate_chunk`), so every record it writes passes the reader.
The decoder adds one check the format does not make (`check_picosecond_range`):
a record's time in int64 picoseconds, timestamp * tick_ps, must not wrap.

Writing to a path goes through a temporary file beside it that replaces the
path only when the writer closes cleanly, so an interrupted run never leaves a
short file that still parses. `StagedFile` holds that rule; the report bundle
writes its files through it too.

The simulator and the analysis both use this module and neither imports the
other, so the facts they share live here: `Columns`, the in-memory table type
of both, and `GROUP_TIMES`, a hit group's tick columns in `Channel` order.
"""

from __future__ import annotations

import enum
import os
import struct
import uuid
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Iterator

import numpy as np

MAGIC = b"DLDE"
FORMAT_VERSION = 1
HEADER_SIZE = 16
RECORD_SIZE = 10
DEFAULT_CHUNK_RECORDS = 1 << 18

_HEADER_STRUCT = struct.Struct("<4sHIB5s")
# the largest tick_ps the header's u32 field holds
MAX_TICK_PS = 0xFFFFFFFF

PULSE_DTYPE = np.dtype([("detector", "u1"), ("channel", "u1"), ("timestamp", "<u8")])
assert PULSE_DTYPE.itemsize == RECORD_SIZE


class Channel(enum.IntEnum):
    MCP = 0
    XA = 1
    XB = 2
    YA = 3
    YB = 4


# a hit group's timestamp columns: GROUP_TIMES[k] holds channel k's ticks
GROUP_TIMES = tuple(f"t_{c.name.lower()}" for c in Channel)


class Columns(dict):
    """A table: equal-length 1-D arrays by name, one row per entry.

    Every in-memory table of the package is one: emissions and detections in
    the simulate chain, hit groups on both sides of the file, and decoded
    photon events. Simulated groups of both detectors share one table with a
    `detector` column; a decoded table holds one detector's rows and has no
    such column. A table holds its columns and nothing else, so a row
    selection keeps all of it. Packed records exist only at the `.dlde`
    boundary (`PULSE_DTYPE`). Gathering or joining a plain
    column is one contiguous copy, a packed record is copied field by field.

    `table["name"]` is a column; any other index (a slice, an index array or
    a mask) selects those rows of every column, as on a structured array.
    `size` is the row count.

    A mask that keeps nearly every row selects as it is: `detect`'s mask keeps
    99.9% of the rows at default and dense physics, and the dead-time
    survivors are 96% of the decided groups at default physics. A random
    mask that drops a large share goes through `np.flatnonzero` to an index
    selection, several times faster when it keeps about half (`sample_pairs`).
    """

    def __getitem__(self, key):
        if isinstance(key, str):
            return super().__getitem__(key)
        return Columns({name: column[key] for name, column in self.items()})

    @property
    def size(self) -> int:
        return len(next(iter(self.values()), ()))


class FormatError(ValueError):
    """Malformed `.dlde` data. `offset` is the byte position of the fault."""

    def __init__(self, message: str, offset: int, record_index: int | None = None):
        super().__init__(message)
        self.offset = offset
        self.record_index = record_index


class BadMagicError(FormatError):
    pass


class TruncatedRecordError(FormatError):
    pass


class TimestampRegressionError(FormatError):
    pass


class TimestampRangeError(FormatError):
    pass


class ChannelRangeError(FormatError):
    pass


class DetectorRangeError(FormatError):
    pass


@dataclass(frozen=True)
class EventFileHeader:
    """The per-file header fields; the version is always FORMAT_VERSION."""

    tick_ps: int = 1
    detector_count: int = 2

    def pack(self) -> bytes:
        if not 1 <= self.tick_ps <= MAX_TICK_PS:
            raise ValueError("tick_ps must fit an unsigned 32-bit integer and be >= 1")
        if not 0 <= self.detector_count <= 0xFF:
            raise ValueError("detector_count must fit an unsigned 8-bit integer")
        return _HEADER_STRUCT.pack(MAGIC, FORMAT_VERSION, self.tick_ps, self.detector_count, b"\x00" * 5)

    @classmethod
    def unpack(cls, buf: bytes) -> "EventFileHeader":
        if len(buf) < HEADER_SIZE:
            raise TruncatedRecordError(
                f"file ends inside the header ({len(buf)} of {HEADER_SIZE} bytes)", offset=0
            )
        magic, version, tick_ps, detector_count, _reserved = _HEADER_STRUCT.unpack(buf[:HEADER_SIZE])
        if magic != MAGIC:
            raise BadMagicError(f"bad magic {magic!r} at offset 0, expected {MAGIC!r}", offset=0)
        if version != FORMAT_VERSION:
            raise FormatError(f"unsupported format version {version}", offset=4)
        if tick_ps < 1:
            raise FormatError("tick_ps must be >= 1", offset=6)
        return cls(tick_ps=tick_ps, detector_count=detector_count)


def _open_source(source) -> tuple[BinaryIO, bool]:
    if isinstance(source, (str, Path)):
        return open(source, "rb"), True
    return source, False


def _raise_first(mask: np.ndarray, error: type[FormatError], start_index: int, what) -> None:
    """Raise `error` for the first True in `mask`; `what(i)` describes row i."""
    bad = np.flatnonzero(mask)
    if bad.size:
        i = int(bad[0])
        n = start_index + i
        raise error(f"{what(i)} at record {n}", offset=HEADER_SIZE + n * RECORD_SIZE, record_index=n)


def _validate_chunk(
    arr: np.ndarray,
    header: EventFileHeader,
    start_index: int,
    prev_timestamp: int,
) -> None:
    # reductions over the record fields decide; the masks that locate the
    # first bad record are built only on a failure
    if arr.size == 0:
        return
    channel = arr["channel"]
    if channel.max() > int(Channel.YB):
        _raise_first(channel > int(Channel.YB), ChannelRangeError, start_index,
                     lambda i: f"channel {int(channel[i])} out of range")
    detector = arr["detector"]
    if detector.max() >= header.detector_count:
        _raise_first(detector >= header.detector_count, DetectorRangeError, start_index,
                     lambda i: f"detector {int(detector[i])} out of range")
    ts = arr["timestamp"]
    if ts.max() >= 2**63:
        _raise_first(ts >= 2**63, TimestampRangeError, start_index,
                     lambda i: f"timestamp out of range (>= 2**63 ticks): {int(ts[i])}")
    if int(ts[0]) < prev_timestamp or np.any(ts[1:] < ts[:-1]):
        backwards = np.concatenate([[int(ts[0]) < prev_timestamp], ts[1:] < ts[:-1]])
        _raise_first(backwards, TimestampRegressionError, start_index,
                     lambda i: "timestamp goes backwards (records must be sorted)")


def check_picosecond_range(arr: np.ndarray, tick_ps: int, start_index: int) -> None:
    """Raise `TimestampRangeError` for the first record of a time-sorted chunk
    whose time in picoseconds, timestamp * tick_ps, is 2**63 or more: an int64
    picosecond time cannot hold it. The file format allows such a record; the
    decoder, which works in int64 picoseconds, does not. At tick_ps=1 the
    validator has rejected every such record already."""
    limit = -(-(2**63) // tick_ps)  # the first tick at or past 2**63 ps
    ts = arr["timestamp"]
    if arr.size and int(ts[-1]) >= limit:
        _raise_first(ts >= limit, TimestampRangeError, start_index,
                     lambda i: f"timestamp {int(ts[i])} ticks of {tick_ps} ps is 2**63 ps or more")


class StagedFile:
    """A file written under a temporary name beside `path`.

    `close(publish=True)` moves it onto the path; `close(publish=False)`
    deletes it, and a file already at the path keeps its bytes. As a context
    manager it yields the open file and publishes only on a clean exit.
    """

    def __init__(self, path, mode: str):
        self.path = Path(path)
        self._tmp = self.path.with_name(f".{self.path.name}.{uuid.uuid4().hex}.tmp")
        self.file = open(self._tmp, mode)

    def close(self, publish: bool) -> None:
        if self.file.closed:
            return
        self.file.close()
        if publish:
            os.replace(self._tmp, self.path)
        else:
            self._tmp.unlink(missing_ok=True)

    def __enter__(self):
        return self.file

    def __exit__(self, exc_type, *exc) -> None:
        self.close(publish=exc_type is None)


class EventWriter:
    """Incremental writer; chunks must arrive globally timestamp-sorted.

    Each chunk is checked by the reader's record validator, so a bad record
    raises the reader's `FormatError` subclass for it, located where it would
    land in the file, and nothing of its chunk is written.

    A path sink is written through a `StagedFile`, published when the `with`
    block exits cleanly. Leaving it on an exception discards the file instead,
    and a file already at the path keeps its bytes. File-object sinks are
    written directly.
    """

    def __init__(self, sink, header: EventFileHeader):
        packed = header.pack()  # a bad header fails before any file is opened
        if isinstance(sink, (str, Path)):
            self._staged = StagedFile(sink, "xb")
            self._f = self._staged.file
        else:
            self._staged = None
            self._f = sink
        self._f.write(packed)
        self.header = header
        self._last_ts = 0
        self.bytes_written = len(packed)
        self.records_written = 0

    def write_chunk(self, pulses: np.ndarray) -> None:
        if not isinstance(pulses, np.ndarray) or pulses.dtype != PULSE_DTYPE:
            raise ValueError("write_chunk takes a PULSE_DTYPE array")
        if pulses.size == 0:
            return
        _validate_chunk(pulses, self.header, self.records_written, self._last_ts)
        self._f.write(np.ascontiguousarray(pulses).data)
        self._last_ts = int(pulses["timestamp"][-1])
        self.bytes_written += pulses.size * RECORD_SIZE
        self.records_written += int(pulses.size)

    def __enter__(self) -> "EventWriter":
        return self

    def __exit__(self, exc_type, *exc) -> None:
        if self._staged is not None:
            self._staged.close(publish=exc_type is None)


class EventReader:
    """Streaming reader over a `.dlde` source.

    `iter_chunks()` yields validated PULSE_DTYPE arrays of at most
    chunk_records rows; chunk_records must be an integer >= 1.
    """

    def __init__(self, source, chunk_records: int = DEFAULT_CHUNK_RECORDS):
        if isinstance(chunk_records, bool) or not isinstance(chunk_records, (int, np.integer)) or chunk_records < 1:
            raise ValueError(f"chunk_records must be an integer >= 1, got {chunk_records!r}")
        self._f, self._owns = _open_source(source)
        self.chunk_records = int(chunk_records)
        try:
            self.header = EventFileHeader.unpack(self._f.read(HEADER_SIZE))
        except BaseException:
            self.close()
            raise
        self.records_read = 0
        self._prev_ts = 0

    def file_records(self) -> int:
        """The whole records the source holds after its header, counted from
        its size: what `iter_chunks` yields in all unless it raises. The
        source must be seekable; its read position is kept."""
        here = self._f.tell()
        end = self._f.seek(0, os.SEEK_END)
        self._f.seek(here)
        return max(end - HEADER_SIZE, 0) // RECORD_SIZE

    def iter_chunks(self) -> Iterator[np.ndarray]:
        while True:
            buf = self._f.read(self.chunk_records * RECORD_SIZE)
            if not buf:
                return
            extra = len(buf) % RECORD_SIZE
            if extra:
                raise TruncatedRecordError(
                    f"file ends inside record {self.records_read + len(buf) // RECORD_SIZE}",
                    offset=HEADER_SIZE + self.records_read * RECORD_SIZE + len(buf) - extra,
                    record_index=self.records_read + len(buf) // RECORD_SIZE,
                )
            arr = np.frombuffer(buf, dtype=PULSE_DTYPE)
            _validate_chunk(arr, self.header, self.records_read, self._prev_ts)
            self.records_read += arr.size
            if arr.size:
                self._prev_ts = int(arr["timestamp"][-1])
            yield arr

    def close(self) -> None:
        if self._owns:
            self._f.close()

    def __enter__(self) -> "EventReader":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
