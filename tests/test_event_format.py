from __future__ import annotations

import gc
import io
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dldspec.event_format import (
    BadMagicError,
    ChannelRangeError,
    DetectorRangeError,
    EventFileHeader,
    EventReader,
    HEADER_SIZE,
    PULSE_DTYPE,
    RECORD_SIZE,
    EventWriter,
    FORMAT_VERSION,
    TimestampRangeError,
    TimestampRegressionError,
    TruncatedRecordError,
)

from conftest import read_all_pulses, write_events


def make_pulses(rows):
    arr = np.empty(len(rows), dtype=PULSE_DTYPE)
    for i, r in enumerate(rows):
        arr[i] = r
    return arr


@st.composite
def pulse_lists(draw):
    n = draw(st.integers(min_value=0, max_value=300))
    gaps = draw(st.lists(st.integers(min_value=0, max_value=10_000), min_size=n, max_size=n))
    ts = np.cumsum(np.asarray(gaps, dtype=np.int64)) if n else np.empty(0, dtype=np.int64)
    dets = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    chans = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
    return make_pulses(list(zip(dets, chans, ts.tolist())))


class TestWrite:
    def test_empty_list_writes_header_only(self):
        buf = io.BytesIO()
        n = write_events(make_pulses([]), EventFileHeader(), buf)
        assert n == HEADER_SIZE == 16
        assert buf.getvalue()[:4] == b"DLDE"

    def test_three_pulses_is_46_bytes(self):
        buf = io.BytesIO()
        pulses = make_pulses([(0, 0, 10), (1, 1, 11), (0, 2, 12)])
        n = write_events(pulses, EventFileHeader(), buf)
        assert n == 16 + 10 * 3 == 46
        assert len(buf.getvalue()) == 46

    def test_rejects_unsorted(self):
        pulses = make_pulses([(0, 0, 10), (0, 0, 5)])
        with pytest.raises(ValueError, match="sorted") as e:
            write_events(pulses, EventFileHeader(), io.BytesIO())
        assert e.value.record_index == 1

    def test_rejects_a_chunk_behind_the_last_one(self):
        with EventWriter(io.BytesIO(), EventFileHeader()) as w:
            w.write_chunk(make_pulses([(0, 0, 5), (0, 0, 10)]))
            with pytest.raises(TimestampRegressionError) as e:
                w.write_chunk(make_pulses([(0, 0, 9)]))
            assert (e.value.record_index, e.value.offset) == (2, HEADER_SIZE + 2 * RECORD_SIZE)
            w.write_chunk(make_pulses([(0, 0, 10)]))  # the rejected chunk left no trace
            assert w.records_written == 3

    def test_rejects_bad_ranges(self):
        with pytest.raises(ValueError, match="channel") as e:
            write_events(make_pulses([(0, 5, 1)]), EventFileHeader(), io.BytesIO())
        assert e.value.record_index == 0
        with pytest.raises(ValueError, match="detector") as e:
            write_events(make_pulses([(2, 0, 1)]), EventFileHeader(), io.BytesIO())
        assert e.value.record_index == 0

    def test_rejects_timestamp_beyond_int64(self):
        pulses = make_pulses([(0, 0, 5), (0, 0, 2**63 + 5)])
        with pytest.raises(ValueError, match="timestamp out of range"):
            write_events(pulses, EventFileHeader(), io.BytesIO())

    def test_rejects_anything_but_a_pulse_array(self):
        rows = [(0, 0, 10), (1, 1, 11)]
        for pulses in (rows, np.array(rows, dtype=np.uint64), make_pulses(rows).tolist()):
            with pytest.raises(ValueError, match="PULSE_DTYPE"):
                write_events(pulses, EventFileHeader(), io.BytesIO())

    def test_path_appears_only_on_clean_close(self, tmp_path):
        path = tmp_path / "run.dlde"
        pulses = make_pulses([(0, 0, 10), (1, 1, 11)])
        with EventWriter(path, EventFileHeader()) as w:
            w.write_chunk(pulses)
            assert not path.exists()
        assert list(tmp_path.iterdir()) == [path]
        assert path.read_bytes() == EventFileHeader().pack() + pulses.tobytes()

    def test_failed_write_keeps_the_old_file(self, tmp_path):
        path = tmp_path / "run.dlde"
        path.write_bytes(b"earlier")
        with pytest.raises(ValueError, match="sorted"):
            write_events(make_pulses([(0, 0, 10), (0, 0, 5)]), EventFileHeader(), path)
        with pytest.raises(ValueError, match="tick_ps"):
            EventWriter(path, EventFileHeader(tick_ps=0))
        assert list(tmp_path.iterdir()) == [path]
        assert path.read_bytes() == b"earlier"


    def test_header_always_writes_the_version_it_reads(self):
        hdr = EventFileHeader(tick_ps=7, detector_count=255).pack()
        assert int.from_bytes(hdr[4:6], "little") == FORMAT_VERSION
        assert EventFileHeader.unpack(hdr) == EventFileHeader(tick_ps=7, detector_count=255)
        with pytest.raises(TypeError):
            EventFileHeader(version=2)

    @pytest.mark.parametrize("count", [-1, 256])
    def test_rejects_a_detector_count_beyond_u8(self, count):
        with pytest.raises(ValueError, match="detector_count"):
            EventFileHeader(detector_count=count).pack()


class TestParse:
    def test_round_trip_identity(self):
        pulses = make_pulses([(0, 0, 0), (1, 3, 0), (0, 4, 7), (1, 0, 1000)])
        buf = io.BytesIO()
        write_events(pulses, EventFileHeader(tick_ps=2), buf)
        buf.seek(0)
        header, arr = read_all_pulses(buf)
        assert header.tick_ps == 2
        assert np.array_equal(arr, pulses)

    def test_write_parse_write_fixpoint(self, rng):
        n = 1_000_000
        ts = np.cumsum(rng.integers(0, 50, n).astype(np.int64))
        pulses = np.empty(n, dtype=PULSE_DTYPE)
        pulses["detector"] = rng.integers(0, 2, n)
        pulses["channel"] = rng.integers(0, 5, n)
        pulses["timestamp"] = ts
        b1 = io.BytesIO()
        write_events(pulses, EventFileHeader(), b1)
        b1.seek(0)
        _, arr = read_all_pulses(b1)
        b2 = io.BytesIO()
        write_events(arr, EventFileHeader(), b2)
        assert b1.getvalue() == b2.getvalue()

    def test_bad_magic_at_offset_zero(self):
        data = b"XXXX" + bytes(12)
        with pytest.raises(BadMagicError) as e:
            read_all_pulses(io.BytesIO(data))
        assert e.value.offset == 0

    def test_truncated_header(self):
        with pytest.raises(TruncatedRecordError):
            read_all_pulses(io.BytesIO(b"DLD"))

    def test_truncated_record_names_index(self):
        pulses = make_pulses([(0, 0, 1), (0, 1, 2), (0, 2, 3)])
        buf = io.BytesIO()
        write_events(pulses, EventFileHeader(), buf)
        blob = buf.getvalue()[:-4]  # slice mid-record
        with pytest.raises(TruncatedRecordError) as e:
            read_all_pulses(io.BytesIO(blob))
        assert e.value.record_index == 2
        assert e.value.offset == HEADER_SIZE + 2 * RECORD_SIZE

    def test_timestamp_regression_detected(self):
        arr = make_pulses([(0, 0, 100), (0, 1, 50)])
        blob = EventFileHeader().pack() + arr.tobytes()
        with pytest.raises(TimestampRegressionError) as e:
            read_all_pulses(io.BytesIO(blob))
        assert e.value.record_index == 1

    def test_regression_detected_across_chunks(self):
        arr = make_pulses([(0, 0, 100), (0, 1, 100), (0, 1, 50)])
        blob = EventFileHeader().pack() + arr.tobytes()
        with EventReader(io.BytesIO(blob), chunk_records=1) as r:
            with pytest.raises(TimestampRegressionError) as e:
                list(r.iter_chunks())
        assert e.value.record_index == 2

    def test_timestamp_beyond_int64_is_a_range_error(self):
        for stamps, index in (([2**63 + 5], 0), ([5, 2**63 + 5], 1)):
            arr = make_pulses([(0, 0, t) for t in stamps])
            blob = EventFileHeader().pack() + arr.tobytes()
            with pytest.raises(TimestampRangeError) as e:
                read_all_pulses(io.BytesIO(blob))
            assert e.value.record_index == index
            assert e.value.offset == HEADER_SIZE + index * RECORD_SIZE

    def test_rejected_header_closes_the_file(self, tmp_path):
        path = tmp_path / "bad.dlde"
        path.write_bytes(b"XXXX" + bytes(12))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(BadMagicError):
                EventReader(path)
            gc.collect()
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]

    def test_channel_out_of_range(self):
        arr = make_pulses([(0, 0, 1)])
        arr["channel"][0] = 9
        blob = EventFileHeader().pack() + arr.tobytes()
        with pytest.raises(ChannelRangeError) as e:
            read_all_pulses(io.BytesIO(blob))
        assert e.value.record_index == 0

    def test_detector_out_of_range(self):
        arr = make_pulses([(0, 0, 1)])
        arr["detector"][0] = 3
        blob = EventFileHeader().pack() + arr.tobytes()
        with pytest.raises(DetectorRangeError):
            read_all_pulses(io.BytesIO(blob))

    def test_unsupported_version(self):
        hdr = bytearray(EventFileHeader().pack())
        hdr[4] = 99
        with pytest.raises(Exception, match="version"):
            read_all_pulses(io.BytesIO(bytes(hdr)))

    def test_memory_bounded_chunking(self):
        # streaming contract: chunks never exceed the configured size
        n = 10_000
        pulses = np.zeros(n, dtype=PULSE_DTYPE)
        pulses["timestamp"] = np.arange(n)
        buf = io.BytesIO()
        write_events(pulses, EventFileHeader(), buf)
        buf.seek(0)
        sizes = [c.size for c in EventReader(buf, chunk_records=512).iter_chunks()]
        assert max(sizes) <= 512
        assert sum(sizes) == n

    @pytest.mark.parametrize("chunk_records", [0, -3, 2.7, 2.0, True, "512"])
    def test_chunk_size_that_is_not_a_positive_integer_rejected(self, tmp_path, chunk_records):
        # checked before the source is opened: a missing path is not reached
        with pytest.raises(ValueError, match="chunk_records"):
            EventReader(tmp_path / "missing.dlde", chunk_records=chunk_records)

    def test_numpy_integer_chunk_size_accepted(self):
        blob = EventFileHeader().pack() + make_pulses([(0, 0, 1), (0, 1, 2), (0, 2, 3)]).tobytes()
        with EventReader(io.BytesIO(blob), chunk_records=np.int64(2)) as r:
            assert [c.size for c in r.iter_chunks()] == [2, 1]


@given(pulse_lists())
@settings(max_examples=120, deadline=None)
def test_parse_write_identity_property(pulses):
    buf = io.BytesIO()
    n = write_events(pulses, EventFileHeader(), buf)
    assert n == HEADER_SIZE + RECORD_SIZE * pulses.size
    buf.seek(0)
    header, arr = read_all_pulses(buf)
    assert header == EventFileHeader()
    assert np.array_equal(arr, pulses)
