from __future__ import annotations

import numpy as np
import pytest

from dldspec.config import RunConfig, SimConfig, pulse_count, run_config_from_dict
from dldspec.correlation import Axis, Histogram1D, select_coincidences
from dldspec.event_format import GROUP_TIMES, PULSE_DTYPE, Columns, EventFileHeader, EventReader, EventWriter
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
