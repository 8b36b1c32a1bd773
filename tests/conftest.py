from __future__ import annotations

import numpy as np
import pytest

from dldspec.config import RunConfig, SimConfig, pulse_count, run_config_from_dict
from dldspec.correlation import Axis, Histogram1D, select_coincidences
from dldspec.event_format import (
    GROUP_TIMES,
    PULSE_DTYPE,
    Channel,
    Columns,
    EventFileHeader,
    EventReader,
    EventWriter,
)
from dldspec.pipeline import ANALYZE_SLICE_PAIRS
from dldspec.reconstruction import HitMatcher, channel_columns
from dldspec.source_sim import EventKind


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)


@pytest.fixture
def default_config() -> RunConfig:
    return run_config_from_dict({})


@pytest.fixture
def small_config() -> RunConfig:
    """Short default-physics run for fast end-to-end tests (~15k pulses)."""
    return run_config_from_dict({"simulation": {"duration_ps": 2e8, "seed": 7}})


def make_config(**sim_overrides) -> RunConfig:
    doc: dict = {"simulation": {}}
    geometry = sim_overrides.pop("geometry", None)
    correlation = sim_overrides.pop("correlation", None)
    doc["simulation"].update(sim_overrides)
    if geometry:
        doc["geometry"] = geometry
    if correlation:
        doc["correlation"] = correlation
    return run_config_from_dict(doc)


def pulse_times(sim: SimConfig) -> np.ndarray:
    """The laser pulse times of a run: k * period for k < pulse_count(sim)."""
    return np.arange(pulse_count(sim)) * sim.pulse_period_ps


def detection_rows(rows) -> Columns:
    """Detection columns from (path, time_ps, x_mm, y_mm) rows: pump photons at 389.2 nm."""
    path, time_ps, x_mm, y_mm = zip(*rows)
    return Columns({
        "path": np.array(path, dtype=np.uint8),
        "kind": np.full(len(rows), EventKind.PUMP, dtype=np.uint8),
        "time_ps": np.array(time_ps, dtype=np.float64),
        "x_mm": np.array(x_mm, dtype=np.float64),
        "y_mm": np.array(y_mm, dtype=np.float64),
        "wavelength_nm": np.full(len(rows), 389.2),
    })


def packed(columns: Columns) -> np.ndarray:
    """The rows of `columns` as one structured array, a field per column in
    column order, so tables compare with `np.array_equal`, sort with
    `np.sort(order=...)` and join with `np.concatenate`."""
    out = np.empty(columns.size, dtype=[(name, column.dtype) for name, column in columns.items()])
    for name, column in columns.items():
        out[name] = column
    return out


def group_times(groups: Columns) -> Columns:
    """The `GROUP_TIMES` columns of hit groups: what the decoder recovers of
    simulated groups, which also carry their detector."""
    return Columns({name: groups[name] for name in GROUP_TIMES})


def match_hits(pulses: np.ndarray, geometry) -> tuple[Columns, int]:
    """One detector's time-sorted PULSE_DTYPE records through a single final
    `HitMatcher.feed`: (hit groups, orphan count)."""
    if pulses.size and (pulses["detector"].min() != pulses["detector"].max()):
        raise ValueError("match_hits expects pulses from a single detector")
    ts = pulses["timestamp"]
    if np.any(ts[1:] < ts[:-1]):
        raise ValueError("pulses must be time-sorted")
    detector = int(pulses["detector"][0]) if pulses.size else 0
    matcher = HitMatcher(geometry)
    return matcher.feed(channel_columns(pulses)[detector], final=True), matcher.orphans


def stray_pulse_stream(geometry) -> tuple[np.ndarray, int, int]:
    """A hand-built stream of time-sorted PULSE_DTYPE records for both
    detectors, with the groups and orphans each detector decodes to, counted
    by hand: (records, groups, orphans).

    Each block is a few rows, `spacing` ticks after the last, so no window
    reaches from one block into another. Detector 1 gets detector 0's blocks
    `spacing / 2` later. A clean hit lands at (3/8, 5/8) of the anode."""
    spacing = 10**6
    mcp, xa, xb, ya, yb = Channel
    prop = geometry.propagation_ticks
    a, b = 3 * prop // 8, 5 * prop // 8
    hit = [(0, mcp), (a, xa), (prop - a, xb), (b, ya), (prop - b, yb)]
    blocks = [  # (rows as (tick, channel), groups, orphans)
        (hit, 1, 0),
        ([(0, mcp)], 0, 1),  # a trigger with no partners
        ([(0, xa), (100, xb), (200, ya), (300, yb)], 0, 4),  # anode pulses with no trigger
        (hit + [(prop - 1, xa)], 1, 1),  # a later second XA pulse is no candidate
        (hit[:3], 0, 3),  # no YA or YB pulse in the window: the trigger, XA and XB
        (hit[:2] + [(prop - a + 10, xb)] + hit[3:], 0, 5),  # the x timing sum is 10 ticks off
        (hit + [(5, mcp)], 1, 1),  # a second trigger 5 ticks on: both its sums are 10 ticks short
        ([(-1, c) for c in (xa, xb, ya, yb)] + hit, 1, 4),  # a pulse on each anode channel just before
        ([(0, mcp)], 0, 1),  # a trigger with no partners at the end, decided by `finish`
    ]
    rows = [(spacing * (k + 1) + det * spacing // 2 + t, det, int(c))
            for k, (block, _, _) in enumerate(blocks) for det in (0, 1) for t, c in block]
    rows.sort()
    pulses = np.empty(len(rows), dtype=PULSE_DTYPE)
    pulses["timestamp"], pulses["detector"], pulses["channel"] = zip(*rows)
    return pulses, sum(g for _, g, _ in blocks), sum(o for _, _, o in blocks)


def write_events(pulses: np.ndarray, header: EventFileHeader, sink) -> int:
    """Serialize header + PULSE_DTYPE records as one `EventWriter` chunk;
    returns the byte count (16 + 10 * N)."""
    with EventWriter(sink, header) as w:
        w.write_chunk(pulses)
        return w.bytes_written


def read_all_pulses(source) -> tuple[EventFileHeader, np.ndarray]:
    """Every record of a `.dlde` source, read eagerly through `EventReader`."""
    with EventReader(source) as r:
        chunks = list(r.iter_chunks())
        arr = np.concatenate(chunks) if chunks else np.empty(0, dtype=PULSE_DTYPE)
        return r.header, arr


def delay_histogram(t1: np.ndarray, t2: np.ndarray, lo: float, hi: float, width: float) -> Histogram1D:
    """Pairwise delays t2 - t1 binned on [lo, lo + nbins * width), the way
    `analyze_events` bins its g2: one `select_coincidences` over the closed
    window [lo, upper], whose pairs are binned ANALYZE_SLICE_PAIRS at a time
    into histograms that merge on their equal axis; `fill` drops the delays at
    the excluded upper edge. The axis is any axis, not only a config's
    symmetric g2 axis, so each slice fills a `Histogram1D` as `g2_histogram`
    does. A helper over the library, not an oracle."""
    hist = Histogram1D(Axis.spanning(lo, hi, width))
    i, j = select_coincidences(t1, t2, (lo, hist.axis.upper))
    for start in range(0, i.size, ANALYZE_SLICE_PAIRS):
        part = Histogram1D(hist.axis)
        part.fill(t2[j[start : start + ANALYZE_SLICE_PAIRS]] - t1[i[start : start + ANALYZE_SLICE_PAIRS]])
        hist = hist.merge(part)
    return hist
