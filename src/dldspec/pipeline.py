"""End-to-end runs: simulate to a `.dlde` file, decode it back, analyze, report.

Simulation streams the laser pulse train through fixed-size blocks so memory
stays bounded for arbitrarily long acquisitions; dead-time filtering and the
globally sorted serialization carry small boundary buffers between blocks.
Every block takes one path: it tells the dead-time stage that every later
trigger lies at or above the next block's first pulse time less the jitter
reach, and the writer flushes the pulses below the lowest trigger the stage
can still emit. The last block promises no later trigger and flushes
everything. The block size is a constant of the implementation, not configuration: it is part
of the identity of the sampled random stream for a given seed. A block draws
only the photons qe converts, and its emitted and qe-lost counts go into an
`EmissionTally`. A block sorts once per ordering decision: group order
after dead time, by (t_mcp, detector), and file order, taken a slice of
SERIALIZE_SLICE_GROUPS groups at a time, where the writer's carry is merged
into the slice's pulses by the same sort. Emissions
and detections are in no time order: two groups with equal (t_mcp, detector)
keys always collide, so the dead-time survivors and their order depend only
on the set of groups. Emissions, detections and hit groups travel through a
block as `Columns`, one plain array per field. Pulses are packed into
PULSE_DTYPE records once, for the writer: the file record is the only packed
row, and the writer checks it with the reader's validator.

A block is drawn on the calling thread: `generate_emissions`, `detect`,
`encode_groups` and the dead-time stage, with every tally, so every random
number is drawn there, in block order. It is serialized (`groups_to_pulses`,
the flush and `EventWriter.write_chunk`) on one worker thread while the
calling thread draws the next block. Before it hands over block k+1 the
calling thread waits for block k, so at most one block is in flight, the
blocks reach the file in order and a worker error is raised there, which
discards the staged file. The last block has nothing left to overlap with
and is serialized on the calling thread, so a one-block run starts no
thread. Serialization draws no random number and gets the same survivors and
carry whichever thread runs it, so the threads cannot change a byte.

Decoding streams the file in fixed-size record chunks. Each chunk is split
once, by one stable radix sort of its `detector * 5 + channel` key, into ten
time-sorted int64 timestamp columns, and each detector's five go to its
`HitMatcher`, which returns hit-group `Columns`; the decoded events are
`Columns` too. A decoded table's detector is the slot it sits in, never a
column. Threading is decided once, from the file's record count. A file of
at most DECODE_INLINE_CHUNKS chunks is read, validated, split and matched on
the calling thread with nothing read ahead, and starts no thread. A longer
file reads ahead from its first chunk: the calling thread splits the first
chunk, and from then on one worker thread reads, validates and splits chunk
k+1 while the calling thread matches chunk k. The calling thread waits for
chunk k+1 before the worker starts chunk k+2, so at most one chunk is
ahead, and a worker error is raised there as itself.
Matching, position recovery and the counts stay on the calling thread.
Reading and splitting hold no matcher state, and the matchers get the same
columns in the same order whichever thread split them, so the threads cannot
change a decoded event. An event is 16 bytes: its time and its two anode
differences (`groups_to_events`); x, y and the wavelength are derived where
they are read (`hit_positions`). Each chunk's events are written, at a running
offset, straight into their detector's final event columns, allocated once
for `_event_capacity` of the file's record count; the decoded tables are views
of those columns' first rows, and nothing is joined at the end. Memory is
bounded by two chunks plus the event columns plus each matcher's carry: the
longest run of triggers less than a collection window apart, and its pulses
(`HitMatcher`). The result does not depend on the chunk size.

Analysis puts every figure of the report, the side-peak-normalized g2
included, in an `AnalysisResult`; the report only writes them out. It makes
one pair search and consumes its pairs ANALYZE_SLICE_PAIRS at a time: each
slice's integer delays add to one count per integer delay of the searched
span (`DelayCells`), from which the g2 histogram and every window count are
derived once, at the end. Each slice keeps the indices of its pairs in the
coincidence and in the accidental window, from which each joint spectrum is
filled once, so beyond the events its memory is the pair arrays, 8 bytes a
pair (two int32 indices, `select_coincidences`), those indices, the cells
(8 bytes per picosecond of the span, 0.96 MB with the default correlation
section) and one slice. It derives wavelengths a block of events at a time
for the singles spectra, and for the joint spectra only those of the
in-window pairs, so no run-sized float column is built.
"""

from __future__ import annotations

import bisect
import math
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

import numpy as np

from .config import AnodeGeometry, Calibration, ConfigError, RunConfig, pulse_count
from .correlation import (
    DelayCells,
    FitError,
    FwhmFit,
    Histogram1D,
    JsiReport,
    build_jsi,
    fit_fwhm,
    fmt_number,
    g2_histogram,
    in_window,
    select_coincidences,
    spectrum_1d,
    subtract_accidental,
    write_bin_rows,
)
from .detector_sim import (
    DeadTimeFilter,
    detect,
    encode_groups,
    groups_to_pulses,
    jitter_reach_ps,
)
from .event_format import (
    DEFAULT_CHUNK_RECORDS,
    Columns,
    EventFileHeader,
    EventReader,
    EventWriter,
    FormatError,
    StagedFile,
    check_picosecond_range,
)
from .reconstruction import (
    HitMatcher,
    anode_position,
    channel_columns,
    groups_to_events,
    position_to_wavelength,
    write_events_csv,
)
from .render import svg_heatmap, svg_histogram
from .source_sim import EmissionTally, generate_emissions

SIM_BLOCK_PULSES = 1 << 20
# Groups per file-order sort. It bounds the serializer's working memory, about
# 30 bytes per pulse: under glibc the worker thread allocates from its own
# malloc arena, whose freed memory stays resident after the run, out of the
# calling thread's reach.
SERIALIZE_SLICE_GROUPS = 1 << 12
# Chunks matched with nothing read ahead. A file of at most this many chunks
# starts no thread, and every default-size run is one at DEFAULT_CHUNK_RECORDS.
# Decode gains from the read-ahead at 2 chunks already, but under glibc the
# worker allocates from its own malloc arena, which stays resident after the
# run: a thread on every file raised seed-sweep's peak RSS by 1.8 MiB
# (BENCH_20.json).
DECODE_INLINE_CHUNKS = 2
# Pairs analyze_events consumes at a time: its delays and its two window
# masks are a slice's size however many pairs the run has
ANALYZE_SLICE_PAIRS = 1 << 16
# Events whose wavelengths analyze_events derives at a time for the singles
# spectra
ANALYZE_BLOCK_EVENTS = 1 << 16


@dataclass
class SimulationSummary:
    seed: int
    duration_ps: float
    laser_pulses: int = 0
    emitted_pairs: int = 0
    emitted_pump: int = 0
    emitted_dark: int = 0
    qe_lost: int = 0
    off_sensor: int = 0
    negative_time_dropped: int = 0
    detections: list[int] = field(default_factory=lambda: [0, 0])
    dead_time_discarded: list[int] = field(default_factory=lambda: [0, 0])
    groups_written: list[int] = field(default_factory=lambda: [0, 0])
    records_written: int = 0
    bytes_written: int = 0

    def lines(self) -> list[str]:
        return [
            f"seed={self.seed}",
            f"duration_ps={fmt_number(self.duration_ps)}",
            f"laser_pulses={self.laser_pulses}",
            f"emitted_pairs={self.emitted_pairs}",
            f"emitted_pump={self.emitted_pump}",
            f"emitted_dark={self.emitted_dark}",
            f"qe_lost={self.qe_lost}",
            f"off_sensor={self.off_sensor}",
            f"negative_time_dropped={self.negative_time_dropped}",
            f"detections_det1={self.detections[0]}",
            f"detections_det2={self.detections[1]}",
            f"dead_time_discarded_det1={self.dead_time_discarded[0]}",
            f"dead_time_discarded_det2={self.dead_time_discarded[1]}",
            f"groups_det1={self.groups_written[0]}",
            f"groups_det2={self.groups_written[1]}",
            f"records_written={self.records_written}",
            f"bytes_written={self.bytes_written}",
        ]


def _serialize_block(writer: EventWriter, survivors: Columns, carry: np.ndarray | None,
                     flush_below: int | None) -> np.ndarray:
    """Write a block's dead-time survivors, merged with the writer's carry,
    below tick `flush_below` (everything for None); return the rest, the next
    block's carry.

    The survivors go SERIALIZE_SLICE_GROUPS at a time. They are in trigger
    order and no pulse of a group lies below its trigger, so every pulse of a
    later slice or block lies at or above the next slice's first trigger,
    which is where a slice flushes: the file does not depend on the slice
    size.
    """
    t_mcp = survivors["t_mcp"]
    # one pass at least: a block without survivors still flushes the carry
    for a in range(0, max(survivors.size, 1), SERIALIZE_SLICE_GROUPS):
        b = a + SERIALIZE_SLICE_GROUPS
        floor = flush_below if b >= survivors.size else int(t_mcp[b])
        buf = groups_to_pulses(survivors[a:b], carry)
        # a binary search that reads the record field in place: np.searchsorted
        # would first copy the whole strided field; a negative floor flushes nothing
        n = buf.size if floor is None else bisect.bisect_left(buf["timestamp"], floor)
        writer.write_chunk(buf[:n])
        carry = buf[n:].copy()  # drop the reference to the slice's buffer
    return carry


def simulate_to_file(cfg: RunConfig, path, block_pulses: int = SIM_BLOCK_PULSES) -> SimulationSummary:
    """Run one seeded acquisition and serialize its raw pulse stream.

    Blocks are drawn on the calling thread and serialized on one worker
    thread, one block behind; the last block is serialized on the calling
    thread, so a one-block run starts no thread. At most one block is in
    flight, and an error raised while serializing comes out of this call as
    itself.

    Deterministic: the same (config, seed, block_pulses) yields a
    byte-identical file. Every random number is drawn on the calling thread,
    in block order; serialization draws none and writes the blocks in order.
    """
    sim, geometry = cfg.simulation, cfg.geometry
    period = sim.pulse_period_ps
    n_pulses = pulse_count(sim)
    rng = np.random.default_rng(np.random.SeedSequence(sim.seed))
    header = EventFileHeader(tick_ps=geometry.tick_ps, detector_count=2)
    summary = SimulationSummary(seed=sim.seed, duration_ps=sim.duration_ps, laser_pulses=n_pulses)
    dead_filter = DeadTimeFilter(sim.dead_time_ps, geometry.tick_ps)
    jitter_reach = jitter_reach_ps(sim)
    emitted = EmissionTally()
    pending = None  # the previous block's serialization; its result is the writer's carry
    with EventWriter(path, header) as writer, ThreadPoolExecutor(max_workers=1) as serializer:
        for k0 in range(0, n_pulses, block_pulses):
            k1 = min(k0 + block_pulses, n_pulses)
            emissions = generate_emissions(sim, range(k0, k1), rng, emitted)
            detections, tally = detect(emissions, cfg, rng)
            # each stage's input is dropped once used, so it is not live under
            # the next stages' temporaries, which set the peak memory
            del emissions
            summary.off_sensor += tally.n_off_sensor
            summary.negative_time_dropped += tally.n_negative_time
            for det in (0, 1):
                summary.detections[det] += int(np.count_nonzero(detections["path"] == det))
            groups = encode_groups(detections, geometry)
            del detections
            # the last block promises no later trigger and flushes everything
            future_floor = (None if k1 == n_pulses
                            else int(math.floor((k1 * period - jitter_reach) / geometry.tick_ps)) - 1)
            survivors = dead_filter.feed(groups, future_floor)
            del groups
            for det in (0, 1):
                summary.groups_written[det] += int(np.count_nonzero(survivors["detector"] == det))
            # waiting here keeps one block in flight, writes the blocks in
            # order and re-raises a worker error
            carry = None if pending is None else pending.result()
            if future_floor is None:
                _serialize_block(writer, survivors, carry, None)
            else:
                pending = serializer.submit(_serialize_block, writer, survivors, carry,
                                            dead_filter.emitted_floor_ticks(future_floor))
            del survivors, carry
        summary.bytes_written = writer.bytes_written
        summary.records_written = writer.records_written
    summary.dead_time_discarded = list(dead_filter.discards)
    summary.emitted_pairs, summary.emitted_pump, summary.emitted_dark = emitted.pairs, emitted.pump, emitted.dark
    summary.qe_lost = emitted.qe_lost
    return summary


@dataclass
class DecodeResult:
    header: EventFileHeader
    # event Columns (t_ps, dt_x, dt_y), detector 0's then detector 1's; each
    # column is a view of the first rows of its decode column
    events: tuple[Columns, Columns]
    records: int
    records_per_detector: list[int]
    groups: list[int]
    orphans: list[int]
    malformed: list[int]
    # what the events were decoded with: their x, y and wavelength are
    # `hit_positions(dt_x, dt_y, geometry, calibration)`
    geometry: AnodeGeometry
    calibration: Calibration


def _event_capacity(records: int) -> int:
    """Events each detector's decode columns have room for, in a file of
    `records` records: a group is five records and two detectors of equal
    physics split the records about evenly, so each decodes at most about
    records / 10 events, and 1/64 more keeps the larger of the two within
    its share. At criterion-9 scale (seed 42, 10.2M records) the first
    detector wrote 607 groups more than records / 10, and the 1/64 is 15,964."""
    share = records // 10
    return share + share // 64


class _EventColumns:
    """One detector's decoded events: each chunk's events are written at a
    running offset into columns allocated once, by the first write, with its
    names and dtypes and `capacity` rows. A detector that outgrows them
    doubles them, a column at a time, so the old and new columns overlap by
    one column only."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.columns: dict[str, np.ndarray] = {}
        self.size = 0

    def write(self, events: Columns) -> None:
        start, end = self.size, self.size + events.size
        if not self.columns:
            self.capacity = max(self.capacity, end)
            self.columns = {name: np.empty(self.capacity, col.dtype) for name, col in events.items()}
        elif end > self.capacity:
            self.capacity = max(2 * self.capacity, end)
            for name, old in self.columns.items():
                grown = np.empty(self.capacity, old.dtype)
                grown[:start] = old[:start]
                self.columns[name] = grown
        for name, col in events.items():
            self.columns[name][start:end] = col
        self.size = end

    def table(self) -> Columns:
        """The events written so far: views of the columns' first rows, not a
        trimmed copy. Rows never written are never touched; trimming with
        `ndarray.resize` was measured to raise seed-sweep's peak RSS by 4-7 MiB."""
        return Columns({name: col[: self.size] for name, col in self.columns.items()})


def _split_chunks(reader: EventReader) -> Iterator[list[list[np.ndarray]]]:
    """`channel_columns` of each chunk of `reader`, in file order, the way
    `decode_file` describes: a file of at most DECODE_INLINE_CHUNKS chunks is
    split on the calling thread, and a longer one reads ahead from its first
    chunk. Close the generator before the reader: that shuts the worker down.
    """
    chunks = reader.iter_chunks()

    def split_next() -> list[list[np.ndarray]] | None:
        chunk = next(chunks, None)
        if chunk is None:
            return None
        check_picosecond_range(chunk, reader.header.tick_ps, reader.records_read - chunk.size)
        return channel_columns(chunk)

    inline = reader.file_records() <= DECODE_INLINE_CHUNKS * reader.chunk_records
    # the first chunk is split here in either case: splitting it on the worker
    # made a process that decodes the dense seed-7 file 8 times peak at about
    # 160 MiB RSS in 5 of 11 runs, against 122-149 MiB split here, through
    # where glibc's heap puts the first large arrays
    columns = split_next()
    # an executor that is given nothing starts no thread
    with ThreadPoolExecutor(max_workers=1) as read_ahead:
        while columns is not None:
            ahead = split_next if inline else read_ahead.submit(split_next).result
            yield columns
            # waiting here keeps one chunk ahead and re-raises a worker error
            columns = ahead()


def decode_file(
    path,
    geometry,
    calibration,
    chunk_records: int = DEFAULT_CHUNK_RECORDS,
) -> DecodeResult:
    """Parse a `.dlde` file and reconstruct photon events per detector.

    A file of at most DECODE_INLINE_CHUNKS chunks, counted from its size, is
    read, validated, split and matched on the calling thread and starts no
    thread. A longer file reads ahead from its first chunk: once the calling
    thread has split it, one worker thread reads, validates and splits chunk
    k+1 while the calling thread matches chunk k, and at most one chunk is
    ahead. Matching,
    position recovery and the counts run on the calling thread.
    The events live in per-detector columns allocated once, for
    `_event_capacity(records)` rows of the open file: each chunk's events
    are written into them at a running offset, and a detector that outgrows
    them doubles them. The returned tables are views of their first rows.
    Memory is bounded by two chunks plus those columns plus the longest run
    of a detector's triggers less than a collection window apart, which its
    matcher carries: no chunk's events are kept, and nothing is joined at the
    end.
    A record whose time in picoseconds, timestamp * tick_ps, is 2**63 or more
    raises `TimestampRangeError` (`check_picosecond_range`): int64 `t_ps`
    cannot hold it. A header tick_ps other than `geometry.tick_ps` raises
    `ConfigError`.
    The matchers see the same columns in the same order on either thread, so
    the result cannot depend on the threads. An error raised on the worker
    comes out of this call as itself; the worker is shut down before the file
    is closed, on every exit.
    """
    matchers = [HitMatcher(geometry), HitMatcher(geometry)]
    malformed = [0, 0]
    per_det = [0, 0]

    with EventReader(path, chunk_records) as reader:
        header = reader.header
        if header.detector_count != 2:
            raise FormatError(
                f"header detector_count={header.detector_count}; the decoder reads exactly 2 detectors",
                offset=10,  # the header's detector_count byte
            )
        if header.tick_ps != geometry.tick_ps:
            raise ConfigError(f"geometry.tick_ps: {geometry.tick_ps} does not match the file's tick_ps={header.tick_ps}")
        capacity = _event_capacity(reader.file_records())
        events = [_EventColumns(capacity), _EventColumns(capacity)]

        def consume(det: int, groups: Columns) -> None:
            ev, bad = groups_to_events(groups, geometry)
            malformed[det] += bad
            events[det].write(ev)

        with closing(_split_chunks(reader)) as chunks:
            for split in chunks:
                for det, columns in enumerate(split):
                    per_det[det] += sum(col.size for col in columns)
                    consume(det, matchers[det].feed(columns))
                # not live while the worker splits the chunk after next
                del split, columns
        for det in (0, 1):
            consume(det, matchers[det].finish())
        tables = (events[0].table(), events[1].table())
        return DecodeResult(
            header=header,
            events=tables,
            records=reader.records_read,
            records_per_detector=per_det,
            groups=[ev.size + bad for ev, bad in zip(tables, malformed)],
            orphans=[m.orphans for m in matchers],
            malformed=malformed,
            geometry=geometry,
            calibration=calibration,
        )


@dataclass
class AnalysisResult:
    spectra: tuple[Histogram1D, Histogram1D]
    g2: Histogram1D
    # g2.counts rescaled so a side-peak window averages 1.0 per bin; NaN
    # when the side windows are empty
    g2_normalized: np.ndarray
    fit: FwhmFit | None
    fit_error: str
    side_window_counts: list[int]
    side_window_mean: float
    center_to_side_ratio: float
    coincidence_count: int
    accidental_count: int
    jsi_report: JsiReport
    warnings: list[str]


def analyze_events(events: tuple[Columns, Columns], cfg: RunConfig) -> AnalysisResult:
    """Run the full analysis chain on reconstructed events of both detectors,
    decoded with `cfg.geometry` and `cfg.calibration`, under `cfg.correlation`.

    Center/side-peak statistics are event counts in equal-width delay windows
    (the coincidence window and its images, `corr.side_windows_ps`), not
    histogram-bin sums, so they carry no binning bias.

    One pair search serves every figure: `select_coincidences` over
    `corr.delay_span_ps`, the closed window spanning the g2 domain and every
    closed window. Its pairs are consumed ANALYZE_SLICE_PAIRS at a time, so no
    run-sized delay array or window mask is built: each slice's integer
    delays are counted, one int64 cell per integer delay of the span
    (`DelayCells`), and the slice keeps the indices of its pairs in the
    coincidence and in the accidental window (`in_window`, two masks). After
    the last slice, `g2_histogram` bins the delays of the occupied cells
    weighted by their counts, with the float computation a fill of each
    pair's delay makes, so its `fill` drops the same delays outside the
    half-open domain and every bin gets the same count. Each closed window's
    count is the sum of its cells, ceil(lo) to floor(hi), and each joint
    spectrum is filled once from the kept indices. The side windows' mean,
    per bin of the g2 axis, normalizes the g2 curve.

    The wavelengths are derived from the events' x differences, as
    `hit_positions` derives them: for the singles spectra
    ANALYZE_BLOCK_EVENTS events at a time, each block's spectrum merging into
    the run's, and for the joint spectra only those of the in-window pairs.
    Memory is the events (16 bytes each), the pairs at 8 bytes each (two
    int32 indices), the in-window pair indices and their wavelengths, the
    cells (at most `config.MAX_DELAY_CELLS`, which the config enforces) and
    one slice or block; no run-sized float column is built.
    """
    corr = cfg.correlation
    warnings: list[str] = []
    ev0, ev1 = events

    def wavelengths(ev: Columns, rows) -> np.ndarray:
        """The wavelengths of the events `rows` (a slice or an index array) of
        `ev`, as `hit_positions` derives them, without their y."""
        return position_to_wavelength(anode_position(ev["dt_x"][rows], cfg.geometry)[0], cfg.calibration)

    def singles(ev: Columns) -> Histogram1D:
        hist = Histogram1D(corr.spectrum_axis)
        # one block at least, so an empty table is binned too
        for b in range(0, max(ev.size, 1), ANALYZE_BLOCK_EVENTS):
            hist = hist.merge(spectrum_1d(wavelengths(ev, slice(b, b + ANALYZE_BLOCK_EVENTS)), corr))
        return hist

    spectra = (singles(ev0), singles(ev1))
    t0, t1 = ev0["t_ps"], ev1["t_ps"]
    span = corr.delay_span_ps
    pair_i, pair_j = select_coincidences(t0, t1, span)
    cells = DelayCells(span)
    # positions in the pair arrays of the pairs in the coincidence window and
    # in the accidental window, a run per slice
    joint = ([np.empty(0, np.intp)], [np.empty(0, np.intp)])
    for start in range(0, pair_i.size, ANALYZE_SLICE_PAIRS):
        i = pair_i[start : start + ANALYZE_SLICE_PAIRS]
        j = pair_j[start : start + ANALYZE_SLICE_PAIRS]
        # take, not []: through int32 indices it gathers about a quarter faster
        delays = t1.take(j) - t0.take(i)
        cells.add(delays)
        for picked, window in zip(joint, (corr.coincidence_window_ps, corr.accidental_window_ps)):
            picked.append(start + np.flatnonzero(in_window(delays, window)))
    jsi, accidental = (build_jsi(wavelengths(ev0, pair_i[k]), wavelengths(ev1, pair_j[k]), corr)
                       for k in map(np.concatenate, joint))
    delays, counts = cells.occupied()
    g2 = g2_histogram(delays, corr, counts)
    # the coincidence window, then the side windows; the first side window is the accidental window
    center, *side_counts = (cells.window_count(w) for w in (corr.coincidence_window_ps, *corr.side_windows_ps))
    fit = None
    fit_error = ""
    try:
        fit = fit_fwhm(g2, 0.0)
    except FitError as exc:
        fit_error = str(exc)
        warnings.append(f"g2 peak fit unavailable: {exc}")
    if center == 0:
        warnings.append("no coincidences inside the coincidence window")
    side_mean = float(np.mean(side_counts))
    ratio = center / side_mean if side_mean > 0 else math.nan
    bins_per_window = (corr.coincidence_window_ps[1] - corr.coincidence_window_ps[0]) / g2.axis.width
    g2_normalized = g2.counts * (bins_per_window / side_mean if side_mean > 0 else math.nan)
    report = subtract_accidental(jsi, accidental, corr.signal_regions_nm)
    return AnalysisResult(
        spectra=spectra,
        g2=g2,
        g2_normalized=g2_normalized,
        fit=fit,
        fit_error=fit_error,
        side_window_counts=side_counts,
        side_window_mean=side_mean,
        center_to_side_ratio=ratio,
        coincidence_count=center,
        accidental_count=side_counts[0],
        jsi_report=report,
        warnings=warnings,
    )


def analyze_file(
    path, cfg: RunConfig, chunk_records: int = DEFAULT_CHUNK_RECORDS
) -> tuple[DecodeResult, AnalysisResult]:
    decode = decode_file(path, cfg.geometry, cfg.calibration, chunk_records=chunk_records)
    analysis = analyze_events(decode.events, cfg)
    if decode.records == 0:
        analysis.warnings.insert(0, "input file contains no records")
    return decode, analysis


def summary_lines(decode: DecodeResult, analysis: AnalysisResult) -> list[str]:
    """Flat key=value summary; stable key order, machine-greppable."""
    f = analysis.fit
    rep = analysis.jsi_report
    lines = [
        f"records={decode.records}",
        f"tick_ps={decode.header.tick_ps}",
    ]
    for det in (0, 1):
        label = f"det{det + 1}"
        lines += [
            f"{label}_records={decode.records_per_detector[det]}",
            f"{label}_groups={decode.groups[det]}",
            f"{label}_orphans={decode.orphans[det]}",
            f"{label}_malformed={decode.malformed[det]}",
            f"{label}_events={decode.events[det].size}",
        ]
    lines += [
        f"g2_total_pairs={int(analysis.g2.counts.sum())}",
        f"g2_center_counts={analysis.coincidence_count}",
        f"g2_side_mean={fmt_number(analysis.side_window_mean)}",
        f"g2_center_side_ratio={fmt_number(analysis.center_to_side_ratio)}",
        f"g2_fit_ok={int(f is not None)}",
        f"g2_fit_fwhm_ps={fmt_number(f.fwhm) if f else 'nan'}",
        f"g2_fit_center_ps={fmt_number(f.center) if f else 'nan'}",
        f"g2_fit_sigma_ps={fmt_number(f.sigma) if f else 'nan'}",
        f"g2_fit_amplitude={fmt_number(f.amplitude) if f else 'nan'}",
        f"g2_fit_offset={fmt_number(f.offset) if f else 'nan'}",
        f"coincidences={analysis.coincidence_count}",
        f"accidentals={analysis.accidental_count}",
        f"car_raw={fmt_number(rep.car_raw)}",
        f"car_raw_defined={int(rep.car_raw_defined)}",
        f"car_subtracted={fmt_number(rep.car_subtracted)}",
        f"car_subtracted_defined={int(rep.car_subtracted_defined)}",
    ]
    for i, (px, py) in enumerate(rep.peaks_nm, start=1):
        lines.append(f"jsi_peak{i}_det1_nm={fmt_number(px)}")
        lines.append(f"jsi_peak{i}_det2_nm={fmt_number(py)}")
    lines.append(f"warnings={';'.join(analysis.warnings)}")
    return lines


REPORT_ARTIFACTS = ("spectrum", "g2", "jsi")


def write_report_bundle(
    out_dir,
    decode: DecodeResult,
    analysis: AnalysisResult,
    events_csv: bool = False,
    artifacts: tuple[str, ...] = REPORT_ARTIFACTS,
) -> list[Path]:
    """Write CSV + SVG artifacts and the flat summary; returns written paths.

    Each file is staged beside its path and moved onto it once complete, so a
    failure part-way leaves every file either whole and new or untouched.
    ValueError, before any file is written, for an artifact name not in
    REPORT_ARTIFACTS.
    """
    unknown = [name for name in artifacts if name not in REPORT_ARTIFACTS]
    if unknown:
        raise ValueError(f"unknown artifact {unknown[0]!r}; the known ones are {', '.join(REPORT_ARTIFACTS)}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths: list[Path] = []

    def emit(name: str, write) -> None:
        """`write(file)` puts the artifact's text into its open staged file."""
        p = out / name
        with StagedFile(p, "x") as fh:
            write(fh)
        paths.append(p)

    def emit_text(name: str, make, *args, **kwargs) -> None:
        """`make(*args, **kwargs)` returns the artifact's text."""
        emit(name, lambda fh: fh.write(make(*args, **kwargs)))

    wl1, wl2 = "detector 1 wavelength [nm]", "detector 2 wavelength [nm]"
    if "spectrum" in artifacts:
        for det in (0, 1):
            hist = analysis.spectra[det]
            emit(f"spectrum_det{det + 1}.csv", hist.to_csv)
            emit_text(f"spectrum_det{det + 1}.svg", svg_histogram,
                      hist.axis, hist.counts, f"singles spectrum, detector {det + 1}", "wavelength [nm]")
    if "g2" in artifacts:
        emit("g2.csv", analysis.g2.to_csv)
        axis = analysis.g2.axis
        emit_text("g2.svg", svg_histogram, axis, analysis.g2.counts, "inter-detector delay histogram", "delay [ps]")
        emit("g2_normalized.csv", lambda fh: write_bin_rows(fh, axis, "g2", analysis.g2_normalized))
        emit_text("g2_normalized.svg", svg_histogram, axis, analysis.g2_normalized,
                  "delay histogram, side-peak mean normalized to 1", "delay [ps]", y_label="g2")
    if "jsi" in artifacts:
        rep = analysis.jsi_report
        emit("jsi.csv", rep.jsi.to_csv)
        emit_text("jsi.svg", svg_heatmap, rep.jsi, "joint spectrum (coincidence window)", wl1, wl2)
        emit("jsi_accidental.csv", rep.accidental.to_csv)
        emit_text("jsi_accidental.svg", svg_heatmap, rep.accidental, "joint spectrum (accidental window)", wl1, wl2)
        emit("jsi_subtracted.csv", rep.subtracted.to_csv)
        emit_text("jsi_subtracted.svg", svg_heatmap, rep.subtracted, "joint spectrum, accidentals subtracted", wl1, wl2)
    if events_csv:
        for det in (0, 1):
            emit(f"events_det{det + 1}.csv",
                 lambda fh: write_events_csv(decode.events[det], decode.geometry, decode.calibration, det, fh))
    emit("summary.txt", lambda fh: fh.write("\n".join(summary_lines(decode, analysis)) + "\n"))
    return paths
