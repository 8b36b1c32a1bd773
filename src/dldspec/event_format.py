"""Binary timestamp-list file format (`.dlde`) and its streaming parser.

Layout, all little-endian:

    header, 16 bytes:
        magic          4 bytes  b"DLDE"
        version        u16      1
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
size regardless of file size.

Writing to a path goes through a temporary file beside it that replaces the
path only when the writer closes cleanly, so an interrupted run never leaves a
short file that still parses.
"""

from __future__ import annotations

import enum
import os
import struct
import uuid
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Iterator, NamedTuple

import numpy as np

MAGIC = b"DLDE"
FORMAT_VERSION = 1
HEADER_SIZE = 16
RECORD_SIZE = 10
DEFAULT_CHUNK_RECORDS = 1 << 19

_HEADER_STRUCT = struct.Struct("<4sHIB5s")

PULSE_DTYPE = np.dtype([("detector", "u1"), ("channel", "u1"), ("timestamp", "<u8")])
assert PULSE_DTYPE.itemsize == RECORD_SIZE


class Channel(enum.IntEnum):
    MCP = 0
    XA = 1
    XB = 2
    YA = 3
    YB = 4


class RawPulse(NamedTuple):
    detector: int
    channel: int
    timestamp: int


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
    version: int = FORMAT_VERSION
    tick_ps: int = 1
    detector_count: int = 2

    def pack(self) -> bytes:
        if self.tick_ps < 1 or self.tick_ps > 0xFFFFFFFF:
            raise ValueError("tick_ps must fit an unsigned 32-bit integer and be >= 1")
        return _HEADER_STRUCT.pack(MAGIC, self.version, self.tick_ps, self.detector_count, b"\x00" * 5)

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
        return cls(version=version, tick_ps=tick_ps, detector_count=detector_count)


def _open_source(source) -> tuple[BinaryIO, bool]:
    if isinstance(source, (str, Path)):
        return open(source, "rb"), True
    return source, False


def as_pulse_array(pulses) -> np.ndarray:
    """Coerce an iterable of RawPulse-likes (or a PULSE_DTYPE array) to an array."""
    if isinstance(pulses, np.ndarray) and pulses.dtype == PULSE_DTYPE:
        return pulses
    rows = list(pulses)
    arr = np.empty(len(rows), dtype=PULSE_DTYPE)
    for i, (det, ch, ts) in enumerate(rows):
        arr[i] = (det, ch, ts)
    return arr


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
    _raise_first(arr["channel"] > int(Channel.YB), ChannelRangeError, start_index,
                 lambda i: f"channel {int(arr['channel'][i])} out of range")
    _raise_first(arr["detector"] >= header.detector_count, DetectorRangeError, start_index,
                 lambda i: f"detector {int(arr['detector'][i])} out of range")
    if arr.size:
        ts = arr["timestamp"].astype(np.int64, copy=False)
        _raise_first(ts < 0, TimestampRangeError, start_index,
                     lambda i: f"timestamp {int(arr['timestamp'][i])} out of range (>= 2**63 ticks)")
        full = np.empty(arr.size, dtype=np.int64)
        full[0] = ts[0] - prev_timestamp
        if arr.size > 1:
            np.subtract(ts[1:], ts[:-1], out=full[1:])
        _raise_first(full < 0, TimestampRegressionError, start_index, lambda i: "timestamp goes backwards")


class EventWriter:
    """Incremental writer; chunks must arrive globally timestamp-sorted.

    A path sink is written through a temporary file in the same directory,
    moved onto the path by `close()`. Leaving the `with` block on an exception
    deletes the temporary file instead, and a file already at the path keeps
    its bytes. File-object sinks are written directly.
    """

    def __init__(self, sink, header: EventFileHeader):
        packed = header.pack()  # a bad header fails before any file is opened
        self._path = Path(sink) if isinstance(sink, (str, Path)) else None
        if self._path is None:
            self._f = sink
        else:
            self._tmp = self._path.with_name(f".{self._path.name}.{uuid.uuid4().hex}.tmp")
            self._f = open(self._tmp, "xb")
        self._f.write(packed)
        self.header = header
        self._last_ts = 0
        self._any = False
        self.bytes_written = len(packed)
        self.records_written = 0

    def write_chunk(self, pulses) -> None:
        arr = as_pulse_array(pulses)
        if arr.size == 0:
            return
        ts = arr["timestamp"].astype(np.int64, copy=False)
        if np.any(ts < 0):
            raise ValueError("timestamp out of range (>= 2**63 ticks)")
        if np.any(np.diff(ts) < 0) or (self._any and int(ts[0]) < self._last_ts):
            raise ValueError("pulses must be sorted by timestamp before serialization")
        if np.any(arr["channel"] > int(Channel.YB)):
            raise ValueError("channel out of range")
        if np.any(arr["detector"] >= self.header.detector_count):
            raise ValueError("detector out of range")
        self._f.write(arr.tobytes())
        self._last_ts = int(ts[-1])
        self._any = True
        self.bytes_written += arr.size * RECORD_SIZE
        self.records_written += int(arr.size)

    def close(self) -> int:
        self._finish(publish=True)
        return self.bytes_written

    def _finish(self, publish: bool) -> None:
        if self._path is None or self._f.closed:
            return
        self._f.close()
        if publish:
            os.replace(self._tmp, self._path)
        else:
            self._tmp.unlink(missing_ok=True)

    def __enter__(self) -> "EventWriter":
        return self

    def __exit__(self, exc_type, *exc) -> None:
        self._finish(publish=exc_type is None)


def write_events(pulses, header: EventFileHeader, sink) -> int:
    """Serialize header + records; returns byte count (16 + 10 * N)."""
    with EventWriter(sink, header) as w:
        w.write_chunk(pulses)
        return w.bytes_written


class EventReader:
    """Streaming reader over a `.dlde` source.

    `iter_chunks()` yields validated PULSE_DTYPE arrays of at most
    chunk_records rows; `__iter__` yields individual RawPulse tuples on top of
    the same chunk machinery.
    """

    def __init__(self, source, chunk_records: int = DEFAULT_CHUNK_RECORDS):
        self._f, self._owns = _open_source(source)
        self.chunk_records = max(int(chunk_records), 1)
        try:
            self.header = EventFileHeader.unpack(self._f.read(HEADER_SIZE))
        except BaseException:
            self.close()
            raise
        self.records_read = 0
        self._prev_ts = 0

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

    def __iter__(self) -> Iterator[RawPulse]:
        for chunk in self.iter_chunks():
            for det, ch, ts in chunk:
                yield RawPulse(int(det), int(ch), int(ts))

    def close(self) -> None:
        if self._owns:
            self._f.close()

    def __enter__(self) -> "EventReader":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def parse_events(
    source, chunk_records: int = DEFAULT_CHUNK_RECORDS
) -> tuple[EventFileHeader, Iterator[RawPulse]]:
    """Open a source and return (header, lazy pulse iterator)."""
    reader = EventReader(source, chunk_records)

    def gen() -> Iterator[RawPulse]:
        try:
            yield from reader
        finally:
            reader.close()

    return reader.header, gen()


def read_all_pulses(source) -> tuple[EventFileHeader, np.ndarray]:
    """Convenience eager read; intended for tests and small files."""
    with EventReader(source) as r:
        chunks = list(r.iter_chunks())
        arr = np.concatenate(chunks) if chunks else np.empty(0, dtype=PULSE_DTYPE)
        return r.header, arr
