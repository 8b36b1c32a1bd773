from __future__ import annotations

import gc
import hashlib
import json
import math
import threading
import time
import tracemalloc

import numpy as np
import pytest

from dldspec import correlation, event_format, pipeline
from dldspec.config import pulse_count
from dldspec.correlation import build_jsi, g2_axis, select_coincidences, spectrum_1d
from dldspec.detector_sim import DeadTimeFilter, DetectTally, detect, encode_groups, groups_to_pulses, jitter_reach_ps
from dldspec.event_format import (
    DEFAULT_CHUNK_RECORDS,
    GROUP_TIMES,
    HEADER_SIZE,
    PULSE_DTYPE,
    RECORD_SIZE,
    EventFileHeader,
    Columns,
    EventReader,
    FormatError,
    TimestampRangeError,
)
from dldspec.pipeline import analyze_events, analyze_file, decode_file, simulate_to_file, summary_lines, write_report_bundle
from dldspec.reconstruction import HitMatcher, channel_columns, groups_to_events
from dldspec.source_sim import EmissionTally, EventKind, generate_emissions

from _oracles import brute_coincidences, brute_dead_time, brute_delay_histogram, brute_serialize
from conftest import detection_rows, make_config, match_hits, packed, read_all_pulses, stray_pulse_stream, write_events


def test_simulate_deterministic(tmp_path, small_config):
    p1, p2 = tmp_path / "a.dlde", tmp_path / "b.dlde"
    simulate_to_file(small_config, p1)
    simulate_to_file(small_config, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_zero_rates_header_only(tmp_path):
    cfg = make_config(pair_rate_per_pulse=0.0, pump_scatter_rate_per_pulse=0.0,
                      dark_rate_hz=0.0, duration_ps=1e8)
    out = tmp_path / "empty.dlde"
    s = simulate_to_file(cfg, out)
    assert s.records_written == 0
    assert out.stat().st_size == 16


def test_default_run_counts_on_both_detectors(tmp_path, default_config):
    s = simulate_to_file(default_config, tmp_path / "d.dlde")
    assert s.detections[0] > 0 and s.detections[1] > 0
    assert s.groups_written[0] > 0 and s.groups_written[1] > 0
    assert s.records_written == 5 * sum(s.groups_written)
    assert s.bytes_written == 16 + 10 * s.records_written


def _detection_table(cfg, n_rows, seed) -> Columns:
    """Detections at `n_rows` random (pulse, path) draws, uniform on the
    anode, each timed at its pulse plus a jitter clipped at the reach `detect`
    clips to. The jitter is drawn at half the reach, so a few rows sit exactly
    on it; rows at negative times are dropped, as `detect` drops them."""
    sim, geometry = cfg.simulation, cfg.geometry
    rng = np.random.default_rng(seed)
    reach = jitter_reach_ps(sim)
    pulse = rng.integers(0, pulse_count(sim), n_rows)
    table = Columns(
        pulse=pulse,
        path=rng.integers(0, 2, n_rows).astype(np.uint8),
        time_ps=pulse * sim.pulse_period_ps + np.clip(rng.normal(0.0, reach / 2, n_rows), -reach, reach),
        x_mm=rng.random(n_rows) * geometry.size_mm,
        y_mm=rng.random(n_rows) * geometry.size_mm,
    )
    return table[table["time_ps"] >= 0.0]


def _assert_file_is_whole_table_referee(tmp_path, monkeypatch, dead_time_ps, block_pulses):
    """With `generate_emissions` and `detect` replaced by one fixed detection
    table, the file equals the brute-force dead time and serialization of the
    whole table, record for record."""
    cfg = make_config(seed=3, duration_ps=2e7, dead_time_ps=dead_time_ps)
    table = _detection_table(cfg, 300, seed=11)

    def emissions(sim, pulses, rng, tally):
        return table[(table["pulse"] >= pulses.start) & (table["pulse"] < pulses.stop)]

    monkeypatch.setattr(pipeline, "generate_emissions", emissions)
    monkeypatch.setattr(pipeline, "detect", lambda events, cfg, rng: (events, DetectTally()))
    out = tmp_path / "referee.dlde"
    s = simulate_to_file(cfg, out, block_pulses=block_pulses)
    groups = encode_groups(table, cfg.geometry)
    kept, discards = brute_dead_time(groups["detector"], groups["t_mcp"], dead_time_ps, cfg.geometry.tick_ps)
    kept.sort(key=lambda i: (groups["t_mcp"][i], groups["detector"][i]))  # the dead-time stage's group order
    rows = [(groups["detector"][i], *(groups[name][i] for name in GROUP_TIMES)) for i in kept]
    pulses = read_all_pulses(out)[1]
    assert [(int(p["detector"]), int(p["channel"]), int(p["timestamp"])) for p in pulses] == brute_serialize([], rows)
    assert s.dead_time_discarded == list(discards)
    assert sum(discards) > 0 or dead_time_ps == 0.0  # the table exercises the dead time


@pytest.mark.parametrize("block_pulses", [1, 2, 7, 50, 500, pipeline.SIM_BLOCK_PULSES])
@pytest.mark.parametrize("dead_time_ps", [0.0, 1e4, 4e4])
def test_block_carries_match_whole_table_referee(tmp_path, monkeypatch, dead_time_ps, block_pulses):
    """The dead-time and writer carries between blocks lose no group, keep no
    colliding one and reorder nothing. At 4e4 ps, three laser periods, the
    first blocks' flush floor is below tick 0."""
    _assert_file_is_whole_table_referee(tmp_path, monkeypatch, dead_time_ps, block_pulses)


@pytest.mark.parametrize("slice_groups", [1, 2, 7])
@pytest.mark.parametrize("block_pulses", [50, pipeline.SIM_BLOCK_PULSES])
@pytest.mark.parametrize("dead_time_ps", [0.0, 1e4])
def test_serialization_slices_match_whole_table_referee(tmp_path, monkeypatch, dead_time_ps, block_pulses,
                                                        slice_groups):
    """A block serialized a slice of groups at a time, on the worker thread or
    on the calling thread, loses and reorders nothing."""
    monkeypatch.setattr(pipeline, "SERIALIZE_SLICE_GROUPS", slice_groups)
    _assert_file_is_whole_table_referee(tmp_path, monkeypatch, dead_time_ps, block_pulses)


@pytest.mark.parametrize(
    "overrides, block_pulses, digest",
    [
        # 92 blocks; 1 MCP pulse shares a tick with a pulse of the other detector
        ({"seed": 23, "duration_ps": 6e8}, 500,
         "ae0432a3a92073a246047b7d8c8ff1e70baef75bbe0e31bebb728b72a9313e0d"),
        # high occupancy: 26 MCP pulses share a tick with a pulse of the other detector
        ({"seed": 7, "duration_ps": 1e9, "pair_rate_per_pulse": 0.5,
          "pump_scatter_rate_per_pulse": 0.5, "qe": 0.4}, 2000,
         "30533697cdde81c36e5e5e06ab29d0db4454252856f345bdbf21737ce44f9548"),
        ({}, pipeline.SIM_BLOCK_PULSES,
         "2676b23c6f4932dabd32d4b8636656c9079a1500f43bfb0e341c5b81d9081e7b"),
        # zero line widths, zero jitter and zero dead time
        ({"seed": 5, "duration_ps": 1e9, "line_fwhm_nm": 0.0, "detuning_fwhm_nm": 0.0,
          "jitter_fwhm_ps": 0.0, "dead_time_ps": 0.0}, 5000,
         "6f07becf38f2e0d760a927edcdd60e516c134105026ceca1e2edb4ed4f7d42d0"),
        # darks only: empty pair and pump columns in every block
        ({"seed": 11, "duration_ps": 1e9, "pair_rate_per_pulse": 0.0, "pump_scatter_rate_per_pulse": 0.0,
          "dark_rate_hz": 5e6, "qe": 1.0}, 5000,
         "9ee77cd1a0f92d8a04337b82b86fa28891428bf7cdb6e27f0821e314825e4f1f"),
    ],
    ids=["seed23-blocks500", "dense-seed7-blocks2000", "default-seed1", "zero-widths-seed5-blocks5000",
         "darks-only-seed11-blocks5000"],
)
def test_simulated_file_bytes_are_pinned(tmp_path, overrides, block_pulses, digest):
    """The `.dlde` bytes for a seed are part of the behaviour contract: any
    change to the random stream, the dead-time rule or the order of equal
    timestamps in the file shows up here."""
    out = tmp_path / "pinned.dlde"
    simulate_to_file(make_config(**overrides), out, block_pulses=block_pulses)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_simulation_sorts_twice_per_block(tmp_path, monkeypatch):
    """One sort per ordering decision: group order after dead time and file
    order. Emissions are drawn in no time order."""
    calls = []
    for name in ("argsort", "lexsort"):
        def counting(*args, _original=getattr(np, name), **kwargs):
            calls.append(1)
            return _original(*args, **kwargs)

        monkeypatch.setattr(np, name, counting)
    cfg = make_config(seed=23, duration_ps=6e8)
    simulate_to_file(cfg, tmp_path / "s.dlde", block_pulses=500)
    blocks = math.ceil(pulse_count(cfg.simulation) / 500)
    assert blocks == 92
    assert len(calls) == 2 * blocks


def test_detection_order_does_not_reach_the_file(tmp_path, monkeypatch):
    """Group order is decided downstream of `detect`: permuting its rows
    leaves the file's bytes unchanged."""
    cfg = make_config(seed=23, duration_ps=6e8)
    plain = tmp_path / "plain.dlde"
    simulate_to_file(cfg, plain, block_pulses=500)
    real = pipeline.detect
    shuffle = np.random.default_rng(5)
    permuted = []

    def permuting(*args, **kwargs):
        detections, tally = real(*args, **kwargs)
        order = shuffle.permutation(detections.size)
        permuted.append(not np.array_equal(order, np.arange(order.size)))
        return detections[order], tally

    monkeypatch.setattr(pipeline, "detect", permuting)
    shuffled = tmp_path / "shuffled.dlde"
    simulate_to_file(cfg, shuffled, block_pulses=500)
    assert any(permuted)
    assert shuffled.read_bytes() == plain.read_bytes()


@pytest.mark.parametrize(
    "overrides, block_pulses",
    [
        ({}, pipeline.SIM_BLOCK_PULSES),
        ({"seed": 7, "duration_ps": 1e9, "pair_rate_per_pulse": 0.5, "pump_scatter_rate_per_pulse": 0.5, "qe": 0.4},
         pipeline.SIM_BLOCK_PULSES),
        ({"seed": 5, "duration_ps": 1e9, "dark_rate_hz": 1e6}, pipeline.SIM_BLOCK_PULSES),
        ({"seed": 3, "duration_ps": 1e9, "dark_rate_hz": 1e6, "qe": 0.0}, pipeline.SIM_BLOCK_PULSES),
        ({"seed": 4, "duration_ps": 1e9, "dark_rate_hz": 1e6, "qe": 1.0}, pipeline.SIM_BLOCK_PULSES),
        ({"seed": 23, "duration_ps": 6e8, "dark_rate_hz": 1e6}, 500),
    ],
    ids=["default", "dense", "darks-1e6", "qe0", "qe1", "blocks500"],
)
def test_photon_ledger_balances(tmp_path, overrides, block_pulses):
    """Every emitted photon is lost to qe, off the sensor or at negative time,
    or detected; every detection is written or discarded by the dead time; and
    every written group is five records."""
    s = simulate_to_file(make_config(**overrides), tmp_path / "s.dlde", block_pulses=block_pulses)
    emitted = 2 * s.emitted_pairs + s.emitted_pump + s.emitted_dark
    assert s.emitted_pairs > 0 and s.emitted_pump > 0 and s.emitted_dark > 0
    assert emitted == s.qe_lost + s.off_sensor + s.negative_time_dropped + sum(s.detections)
    for det in (0, 1):
        assert s.detections[det] == s.groups_written[det] + s.dead_time_discarded[det]
    assert s.records_written == 5 * sum(s.groups_written)
    qe = make_config(**overrides).simulation.qe
    if qe == 0.0:
        assert s.qe_lost == emitted and s.records_written == 0
    if qe == 1.0:
        assert s.qe_lost == 0


def test_full_loop_fidelity_no_noise(tmp_path):
    """Zero jitter, no background, unit QE: decode recovers every surviving
    detection exactly, with wavelengths equal to the emitted ones within the
    quantisation bound dispersion * v * tick / 2."""
    cfg = make_config(
        seed=5,
        duration_ps=3e8,
        pair_rate_per_pulse=0.05,
        pump_scatter_rate_per_pulse=0.0,
        dark_rate_hz=0.0,
        qe=1.0,
        jitter_fwhm_ps=0.0,
        dead_time_ps=45_000.0,  # exceeds the matching window: no collisions
    )
    sim = cfg.simulation
    rng = np.random.default_rng(5)
    emissions = generate_emissions(sim, range(pulse_count(sim)), rng, EmissionTally())
    detections, _ = detect(emissions, cfg, rng)
    groups = encode_groups(detections, cfg.geometry)
    kept = DeadTimeFilter(sim.dead_time_ps, cfg.geometry.tick_ps).feed(groups, None)
    chunked = DeadTimeFilter(sim.dead_time_ps, cfg.geometry.tick_ps)
    parts = [
        packed(chunked.feed(groups[lo : lo + 100], int(groups["t_mcp"][lo + 99]) if lo + 100 < groups.size else None))
        for lo in range(0, groups.size, 100)
    ]
    assert np.array_equal(np.concatenate(parts), packed(kept))
    keep_idx, _ = brute_dead_time(groups["detector"], groups["t_mcp"], sim.dead_time_ps, cfg.geometry.tick_ps)
    order = ("t_mcp", "detector")  # the filter lists same-tick triggers detector by detector
    assert np.array_equal(np.sort(packed(kept), order=order), np.sort(packed(groups)[keep_idx], order=order))
    # a pair's photons share a trigger tick, and dead time may keep one and drop the other
    keep_mask = np.isin(groups["t_mcp"] * 2 + groups["detector"], kept["t_mcp"] * 2 + kept["detector"])
    bound = cfg.calibration.dispersion_nm_per_mm * cfg.geometry.signal_speed_mm_per_ps * cfg.geometry.tick_ps / 2
    for det in (0, 1):
        truth = (detections["path"] == det) & keep_mask
        pulses = groups_to_pulses(kept[kept["detector"] == det])
        hits, orphans = match_hits(pulses, cfg.geometry)
        assert orphans == 0
        assert hits.size == np.count_nonzero(truth)  # exactly one group per surviving detection
        events, bad = groups_to_events(hits, cfg.geometry, cfg.calibration)
        assert bad == 0
        lam_err = np.abs(events["wavelength_nm"] - detections["wavelength_nm"][truth])  # the emitted wavelength
        assert lam_err.max() <= bound + 1e-12
        assert np.abs(events["x_mm"] - detections["x_mm"][truth]).max() <= 0.0005 + 1e-12


def test_decode_chunk_size_invariant(tmp_path, small_config):
    path = tmp_path / "r.dlde"
    simulate_to_file(small_config, path)
    ref = decode_file(path, small_config.geometry, small_config.calibration)
    assert ref.records == sum(ref.records_per_detector) > 0
    ref_lines = summary_lines(ref, analyze_events(ref.events, small_config.correlation))
    for chunk_records in (5, 997):
        got = decode_file(path, small_config.geometry, small_config.calibration, chunk_records=chunk_records)
        for det in (0, 1):
            assert np.array_equal(packed(got.events[det]), packed(ref.events[det]))
            assert got.groups[det] == got.events[det].size + got.malformed[det]
        assert got.orphans == ref.orphans
        assert got.groups == ref.groups
        assert got.records_per_detector == ref.records_per_detector
        assert summary_lines(got, analyze_events(got.events, small_config.correlation)) == ref_lines


@pytest.mark.parametrize("chunk_records", [0, 2.7])
def test_decode_rejects_a_chunk_size_that_is_not_a_positive_integer(tmp_path, small_config, chunk_records):
    path = tmp_path / "r.dlde"
    simulate_to_file(small_config, path)
    with pytest.raises(ValueError, match="chunk_records"):
        decode_file(path, small_config.geometry, small_config.calibration, chunk_records=chunk_records)
    with pytest.raises(ValueError, match="chunk_records"):
        analyze_file(path, small_config, chunk_records=chunk_records)


def test_decoded_tables_carry_no_detector_column(tmp_path, small_config):
    """A decoded table belongs to one detector, its slot in the result: groups
    hold exactly the GROUP_TIMES columns and events exactly four columns."""
    path = tmp_path / "r.dlde"
    simulate_to_file(small_config, path)
    dec = decode_file(path, small_config.geometry, small_config.calibration)
    for det, columns in enumerate(channel_columns(read_all_pulses(path)[1])):
        groups = HitMatcher(small_config.geometry).feed(columns, final=True)
        assert groups.size > 0 and list(groups) == list(GROUP_TIMES)
        assert dec.events[det].size > 0 and list(dec.events[det]) == ["t_ps", "x_mm", "y_mm", "wavelength_nm"]


def test_decode_matches_default_at_tiny_chunk_sizes(tmp_path):
    # a high-occupancy run, so equal timestamps and carried triggers meet
    # every chunk boundary
    cfg = make_config(seed=7, duration_ps=2e7, pair_rate_per_pulse=0.5, pump_scatter_rate_per_pulse=0.5, qe=0.4)
    path = tmp_path / "dense.dlde"
    simulate_to_file(cfg, path)
    ref = decode_file(path, cfg.geometry, cfg.calibration)
    assert min(ref.groups) > 0 and min(ref.orphans) > 0
    for chunk_records in (1, 2, 5):
        got = decode_file(path, cfg.geometry, cfg.calibration, chunk_records=chunk_records)
        for det in (0, 1):
            assert np.array_equal(packed(got.events[det]), packed(ref.events[det]))
        assert (got.records, got.records_per_detector, got.groups, got.orphans, got.malformed) == (
            ref.records, ref.records_per_detector, ref.groups, ref.orphans, ref.malformed)


@pytest.mark.parametrize("chunk_records", [1, 2, 5, DEFAULT_CHUNK_RECORDS])
def test_stray_pulses_and_lone_triggers_are_orphans_at_every_chunk_size(tmp_path, chunk_records):
    """Orphans of a hand-built stream with stray pulses on every channel and
    triggers without partners equal the count made by hand, whichever feed
    decides a trigger or expires a pulse."""
    cfg = make_config()
    pulses, groups, orphans = stray_pulse_stream(cfg.geometry)
    assert (groups, orphans) == (4, 20)
    path = tmp_path / "strays.dlde"
    write_events(pulses, EventFileHeader(tick_ps=cfg.geometry.tick_ps), path)
    d = decode_file(path, cfg.geometry, cfg.calibration, chunk_records=chunk_records)
    assert d.records_per_detector == [5 * groups + orphans] * 2
    assert (d.groups, d.malformed, d.orphans) == ([groups] * 2, [0, 0], [orphans] * 2)


@pytest.mark.parametrize("shape", ["one-detector", "lopsided"])
def test_a_detector_past_its_share_grows_its_columns(tmp_path, shape):
    """A file whose first detector holds all or most of the records: that
    detector outgrows its event columns, and its events, counts and orphans
    still equal a one-record-chunk decode and the one-feed `match_hits`."""
    cfg = make_config(seed=9, duration_ps=1e8)
    source = tmp_path / "source.dlde"
    simulate_to_file(cfg, source)
    header, pulses = read_all_pulses(source)
    keep = pulses["detector"] == 0
    if shape == "lopsided":  # the second detector's first tenth of the run
        keep |= pulses["timestamp"] < pulses["timestamp"][-1] // 10
    pulses = pulses[keep]
    path = tmp_path / f"{shape}.dlde"
    write_events(pulses, header, path)
    oracle = []
    for det in (0, 1):
        hits, orphans = match_hits(pulses[pulses["detector"] == det], cfg.geometry)
        events, bad = groups_to_events(hits, cfg.geometry, cfg.calibration)
        oracle.append((events, hits.size, orphans, bad, int(np.count_nonzero(pulses["detector"] == det))))
    # the premise: the first detector outgrows its share
    assert oracle[0][0].size > pipeline._event_capacity(pulses.size)
    for chunk_records in (1, 997, DEFAULT_CHUNK_RECORDS):
        got = decode_file(path, cfg.geometry, cfg.calibration, chunk_records=chunk_records)
        for det, (events, groups, orphans, bad, records) in enumerate(oracle):
            assert np.array_equal(packed(got.events[det]), packed(events)), (chunk_records, det)
            assert (got.groups[det], got.orphans[det], got.malformed[det], got.records_per_detector[det]) == (
                groups, orphans, bad, records)


def test_decode_memory_is_bounded_by_the_chunks(tmp_path, monkeypatch):
    """The traced peak of a decode, less its event columns' buffers, is the
    chunks' working memory: a run of about 85 chunks peaks as one of 21
    does. The decode keeps no per-chunk events and joins nothing. Every chunk
    is decoded on the calling thread, so the peak does not depend on how far
    a read-ahead worker has got; `test_read_ahead_keeps_one_chunk_ahead` pins
    the worker's depth."""
    chunk_records = 1 << 12

    def peak_above_the_columns(scale):
        cfg = make_config(seed=4, duration_ps=scale * 1.5e9)
        path = tmp_path / f"{scale}.dlde"
        simulate_to_file(cfg, path)
        records = (path.stat().st_size - HEADER_SIZE) // RECORD_SIZE
        monkeypatch.setattr(pipeline, "DECODE_INLINE_CHUNKS", -(-records // chunk_records))
        tracemalloc.start()
        try:
            dec = decode_file(path, cfg.geometry, cfg.calibration, chunk_records=chunk_records)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        buffers = {id(b): b.nbytes for ev in dec.events for col in ev.values()
                   for b in [col if col.base is None else col.base]}
        return peak - sum(buffers.values())

    one, four = peak_above_the_columns(1), peak_above_the_columns(4)
    assert abs(four - one) <= 0.1 * one, (one, four)


DENSE_PHYSICS = {"pair_rate_per_pulse": 0.5, "pump_scatter_rate_per_pulse": 0.5, "qe": 0.4}
SHARED_CANDIDATE = pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "two accepted triggers take the same anode pulse of detector 2, which the ledger then counts twice; "
    "ROADMAP item 1's rule 'no other accepted trigger shares a candidate' balances it"))


@pytest.mark.parametrize("overrides", [
    *(pytest.param({"seed": seed}, id=f"default-seed{seed}") for seed in (1, 2, 3)),
    *(pytest.param({"seed": seed, "duration_ps": 3.5e9, **DENSE_PHYSICS}, marks=SHARED_CANDIDATE,
                   id=f"dense-seed{seed}") for seed in (7, 1)),
])
def test_every_pulse_ends_in_a_group_or_as_an_orphan(tmp_path, overrides):
    """The decode ledger: a detector's records are five per accepted group
    plus its orphans."""
    cfg = make_config(**overrides)
    path = tmp_path / "run.dlde"
    simulate_to_file(cfg, path)
    d = decode_file(path, cfg.geometry, cfg.calibration)
    assert [d.records_per_detector[k] for k in (0, 1)] == [5 * d.groups[k] + d.orphans[k] for k in (0, 1)]


@pytest.mark.parametrize(
    "overrides, chunk_records, digest",
    [
        ({"seed": 1}, None, "2a7c302435b19ef2b730f7f8cfa2660af2736301316ba3d56e85f6f4f6907b37"),
        ({"seed": 1}, 997, "2a7c302435b19ef2b730f7f8cfa2660af2736301316ba3d56e85f6f4f6907b37"),
        ({"seed": 7, "duration_ps": 1e9, "pair_rate_per_pulse": 0.5, "pump_scatter_rate_per_pulse": 0.5, "qe": 0.4},
         None, "b75887360de87707aa60333b61628c22282cd0e5ecfdc12679fcfb80c6a67311"),
    ],
    ids=["default-seed1", "default-seed1-chunks997", "dense-seed7"],
)
def test_report_bundle_bytes_are_pinned(tmp_path, overrides, chunk_records, digest):
    """The report bundle for a seed is part of the behaviour contract: the
    SHA-256 over `name + "\n" + bytes` of every written file, in name order,
    events CSVs included. A decoder change that moves any decoded group,
    orphan count or analysis figure shows up here. The sum-consistent matcher
    and the Poisson pair source (ROADMAP items 1 and 2) change the bundle on
    purpose and re-pin these digests."""
    cfg = make_config(**overrides)
    path = tmp_path / "run.dlde"
    simulate_to_file(cfg, path)
    kwargs = {} if chunk_records is None else {"chunk_records": chunk_records}
    decode, analysis = analyze_file(path, cfg, **kwargs)
    written = write_report_bundle(tmp_path / "bundle", decode, analysis, events_csv=True)
    h = hashlib.sha256()
    for p in sorted(written, key=lambda p: p.name):
        h.update(p.name.encode() + b"\n" + p.read_bytes())
    assert h.hexdigest() == digest


# small_config's run, its integer-valued float keys spelled as integers
INTEGER_VALUED_SIMULATION = {
    "seed": 7, "duration_ps": 200000000, "rep_rate_hz": 76000000, "dark_rate_hz": 1000,
    "jitter_fwhm_ps": 263, "dead_time_ps": 10000,
}
# every float key of the correlation section, integer-valued
INTEGER_VALUED_CORRELATION = {
    "g2_bin_width_ps": 88, "g2_range_ps": 60000, "coincidence_window_ps": [-500, 500],
    "accidental_center_ps": 13158, "spectrum_lo_nm": 388, "spectrum_hi_nm": 391, "spectrum_bin_nm": 1,
    "jsi_lo_nm": 388, "jsi_hi_nm": 391, "jsi_bin_nm": 1,
    "signal_regions_nm": [[388, 389, 389, 390], [389, 390, 388, 389]],
}


def test_integer_spelled_config_values_give_the_float_spelled_bundle(tmp_path):
    """A config value written as a JSON integer is the same number as its
    float spelling: the `.dlde` file, the simulate summary and the report
    bundle cannot tell them apart."""
    text = json.dumps({"simulation": INTEGER_VALUED_SIMULATION, "correlation": INTEGER_VALUED_CORRELATION})
    runs = []
    for name, parse_int in (("ints", int), ("floats", float)):
        doc = json.loads(text, parse_int=parse_int)
        cfg = make_config(**doc["simulation"], correlation=doc["correlation"])
        path = tmp_path / f"{name}.dlde"
        lines = simulate_to_file(cfg, path).lines()
        decode, analysis = analyze_file(path, cfg)
        written = write_report_bundle(tmp_path / name, decode, analysis)
        runs.append((lines, path.read_bytes(), {p.name: p.read_bytes() for p in written}))
    (lines, dlde, bundle), (float_lines, float_dlde, float_bundle) = runs
    assert lines == float_lines
    assert "duration_ps=2e+08" in lines
    assert dlde == float_dlde
    assert bundle.keys() == float_bundle.keys()
    for name in bundle:
        assert bundle[name] == float_bundle[name], name
    assert bundle["jsi.csv"].splitlines()[1].startswith(b"388.000000,")


def test_decode_rejects_other_detector_counts(tmp_path, small_config):
    # The decoder reads detectors 0 and 1 only; a third detector's records
    # must not vanish silently.
    path = tmp_path / "three.dlde"
    pulses = np.zeros(5, dtype=PULSE_DTYPE)
    pulses["detector"] = 2
    pulses["channel"] = np.arange(5)
    pulses["timestamp"] = 1000
    write_events(pulses, EventFileHeader(tick_ps=small_config.geometry.tick_ps, detector_count=3), path)
    with pytest.raises(FormatError, match="detector_count") as e:
        analyze_file(path, small_config)
    assert e.value.offset == 10


def test_interrupted_simulation_leaves_no_file(tmp_path, monkeypatch):
    cfg = make_config(seed=23, duration_ps=6e8)
    real = pipeline.generate_emissions
    calls = []

    def interrupted(*args, **kwargs):
        calls.append(1)
        if len(calls) == 3:
            raise RuntimeError("interrupted in the third block")
        return real(*args, **kwargs)

    monkeypatch.setattr(pipeline, "generate_emissions", interrupted)
    out = tmp_path / "run.dlde"
    with pytest.raises(RuntimeError, match="third block"):
        simulate_to_file(cfg, out, block_pulses=500)
    assert list(tmp_path.iterdir()) == []
    out.write_bytes(b"an earlier run")
    calls.clear()
    with pytest.raises(RuntimeError, match="third block"):
        simulate_to_file(cfg, out, block_pulses=500)
    assert list(tmp_path.iterdir()) == [out]
    assert out.read_bytes() == b"an earlier run"


class SerializeError(Exception):
    pass


def test_serializer_error_reaches_the_caller_and_leaves_no_file(tmp_path, monkeypatch):
    """A block serialized on the worker thread raises: the error comes out of
    `simulate_to_file` as itself, the staged file is discarded, a file already
    at the path keeps its bytes and the worker thread is gone."""
    cfg = make_config(seed=23, duration_ps=6e8)
    real = pipeline.groups_to_pulses
    callers = []

    def failing(*args, **kwargs):
        callers.append(threading.current_thread())
        if len(callers) == 2:
            raise SerializeError("serializing the second block")
        return real(*args, **kwargs)

    monkeypatch.setattr(pipeline, "groups_to_pulses", failing)
    out = tmp_path / "run.dlde"
    threads = threading.active_count()
    with pytest.raises(SerializeError, match="^serializing the second block$"):
        simulate_to_file(cfg, out, block_pulses=500)
    assert callers[1] is not threading.current_thread()
    assert threading.active_count() == threads
    assert list(tmp_path.iterdir()) == []
    out.write_bytes(b"an earlier run")
    callers.clear()
    with pytest.raises(SerializeError, match="^serializing the second block$"):
        simulate_to_file(cfg, out, block_pulses=500)
    assert threading.active_count() == threads
    assert list(tmp_path.iterdir()) == [out]
    assert out.read_bytes() == b"an earlier run"


def test_one_block_run_serializes_on_the_calling_thread(tmp_path, monkeypatch, default_config):
    """The last block has nothing left to overlap with, so a one-block run
    starts no thread."""
    assert pulse_count(default_config.simulation) <= pipeline.SIM_BLOCK_PULSES
    real = pipeline.groups_to_pulses
    threads = threading.active_count()
    callers = []

    def recording(*args, **kwargs):
        callers.append((threading.current_thread(), threading.active_count()))
        return real(*args, **kwargs)

    monkeypatch.setattr(pipeline, "groups_to_pulses", recording)
    simulate_to_file(default_config, tmp_path / "d.dlde")
    assert callers and set(callers) == {(threading.current_thread(), threads)}


def test_simulation_memory_is_one_block_in_flight(tmp_path, monkeypatch):
    """Block k is serialized while block k+1 is drawn, never more: the traced
    peak (the worker thread's allocations included) of an 8-block run is that
    of a 2-block run. The worker starts each block only once the next block's
    dead time is done, so every run meets its worst overlap: the serialized
    block's survivors live through the whole of the next block's draw."""
    block = 200_000
    caller = threading.current_thread()
    drawn = threading.Condition()
    fed = []
    served = []
    real_feed = DeadTimeFilter.feed
    real = pipeline.groups_to_pulses

    def feed(self, *args):
        survivors = real_feed(self, *args)
        with drawn:
            fed.append(1)
            drawn.notify_all()
        return survivors

    def after_the_next_draw(*args):
        if threading.current_thread() is not caller:
            served.append(1)
            with drawn:
                assert drawn.wait_for(lambda: len(fed) > len(served), timeout=60)
        return real(*args)

    monkeypatch.setattr(DeadTimeFilter, "feed", feed)
    monkeypatch.setattr(pipeline, "groups_to_pulses", after_the_next_draw)
    monkeypatch.setattr(pipeline, "SERIALIZE_SLICE_GROUPS", block)  # one call per block

    def peak_bytes(blocks):
        fed.clear()
        served.clear()
        cfg = make_config(seed=5, duration_ps=blocks * block * make_config().simulation.pulse_period_ps)
        assert pulse_count(cfg.simulation) == blocks * block
        tracemalloc.start()
        try:
            simulate_to_file(cfg, tmp_path / f"{blocks}.dlde", block_pulses=block)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    two, eight = peak_bytes(2), peak_bytes(8)
    assert served == [1] * 7
    assert abs(eight - two) <= 0.1 * two, (two, eight)


def test_default_file_decodes_on_the_calling_thread(tmp_path, monkeypatch, default_config):
    """A default-size file is at most two chunks, so its decode reads nothing
    ahead and starts no thread."""
    path = tmp_path / "d.dlde"
    records = simulate_to_file(default_config, path).records_written
    assert DEFAULT_CHUNK_RECORDS < records <= 2 * DEFAULT_CHUNK_RECORDS
    real = HitMatcher.feed
    threads = threading.active_count()
    callers = []

    def recording(self, *args, **kwargs):
        callers.append((threading.current_thread(), threading.active_count()))
        return real(self, *args, **kwargs)

    monkeypatch.setattr(HitMatcher, "feed", recording)
    decode_file(path, default_config.geometry, default_config.calibration)
    assert len(callers) == 6  # two chunks and the finish, per detector
    assert set(callers) == {(threading.current_thread(), threads)}


def _decode_error(path, cfg, chunk_records):
    with pytest.raises(FormatError) as info:
        decode_file(path, cfg.geometry, cfg.calibration, chunk_records=chunk_records)
    err = info.value
    return type(err), err.offset, err.record_index, str(err)


@pytest.mark.parametrize("fault", ["truncated-last-record", "regression-in-chunk-4"])
def test_read_ahead_error_is_the_one_chunk_error(tmp_path, monkeypatch, small_config, fault):
    """A fault met on the read-ahead worker comes out of `decode_file` as the
    error a one-chunk decode of the same bytes raises, never as the end of
    the file, and the worker is gone once it does."""
    path = tmp_path / "r.dlde"
    records = simulate_to_file(small_config, path).records_written
    chunk = records // 8  # 8 or 9 chunks
    data = bytearray(path.read_bytes())
    if fault == "truncated-last-record":
        del data[-4:]
    else:
        i = 3 * chunk + chunk // 2  # inside the 4th chunk, which the worker reads
        pulses = np.frombuffer(data, dtype=PULSE_DTYPE, offset=16)
        pulses["timestamp"][i] = pulses["timestamp"][i - 1] - 1
    path.write_bytes(data)
    want = _decode_error(path, small_config, records + 1)
    real = event_format._validate_chunk
    validators = []

    def recording(*args):
        validators.append(threading.current_thread())
        return real(*args)

    monkeypatch.setattr(event_format, "_validate_chunk", recording)
    threads = threading.active_count()
    assert _decode_error(path, small_config, chunk) == want
    # the last chunk checked, the faulty one or the one before it, was read on the worker
    assert validators[0] is threading.current_thread() is not validators[-1]
    assert threading.active_count() == threads
    gc.collect()  # an unclosed file would warn here, which the suite makes an error


class MatchError(Exception):
    pass


def test_matcher_error_with_a_chunk_in_flight_stops_the_worker(tmp_path, monkeypatch, small_config):
    """`groups_to_events` raises while the worker splits the next chunk: the
    error keeps its type and message, the worker is done before the file is
    closed, and no thread is left."""
    path = tmp_path / "r.dlde"
    records = simulate_to_file(small_config, path).records_written
    chunk = records // 8
    # the second detector's groups of the first chunk matched with one read ahead
    failing_call = 2 * (pipeline.DECODE_INLINE_CHUNKS + 1)
    real_split, real_events, real_close = pipeline.channel_columns, pipeline.groups_to_events, EventReader.close
    caller = threading.current_thread()
    in_flight, raised, split_done = threading.Event(), threading.Event(), threading.Event()
    calls = []
    closed_after_split = []

    def held_split(pulses):
        if threading.current_thread() is caller:
            return real_split(pulses)
        in_flight.set()
        assert raised.wait(timeout=60)
        time.sleep(0.05)  # a close that does not wait for the worker comes first
        columns = real_split(pulses)
        split_done.set()
        return columns

    def close(self):
        closed_after_split.append(split_done.is_set())
        real_close(self)

    def failing(*args):
        calls.append(1)
        if len(calls) == failing_call:
            assert in_flight.wait(timeout=60)
            raised.set()
            raise MatchError("matching with a chunk in flight")
        return real_events(*args)

    monkeypatch.setattr(pipeline, "channel_columns", held_split)
    monkeypatch.setattr(pipeline, "groups_to_events", failing)
    monkeypatch.setattr(EventReader, "close", close)
    threads = threading.active_count()
    with pytest.raises(MatchError, match="^matching with a chunk in flight$"):
        decode_file(path, small_config.geometry, small_config.calibration, chunk_records=chunk)
    assert closed_after_split == [True]
    assert threading.active_count() == threads
    gc.collect()


def test_read_ahead_keeps_one_chunk_ahead(tmp_path, monkeypatch, small_config):
    """Chunks split but not yet matched never exceed two: the one being
    matched and the one read ahead. Each feed of a chunk with a worker behind
    it waits until the chunk ahead is split, then gives a worker that runs
    further ahead a moment to show it."""
    path = tmp_path / "r.dlde"
    records = simulate_to_file(small_config, path).records_written
    chunk = records // 8
    n_chunks = -(-records // chunk)
    assert n_chunks >= pipeline.DECODE_INLINE_CHUNKS + 3
    real_split, real_feed = pipeline.channel_columns, HitMatcher.feed
    split = threading.Condition()
    splits = []
    feeds = []
    ahead = []

    def counting_split(pulses):
        with split:
            splits.append(1)
            split.notify_all()
        return real_split(pulses)

    def counting_feed(self, columns, final=False):
        if not final:
            k = len(feeds) // 2 + 1  # the 1-based chunk being matched
            if pipeline.DECODE_INLINE_CHUNKS < k < n_chunks:
                with split:
                    assert split.wait_for(lambda: len(splits) > k, timeout=60)
                    split.wait_for(lambda: len(splits) > k + 1, timeout=0.02)
            ahead.append(len(splits) - (k - 1))
            feeds.append(1)
        return real_feed(self, columns, final)

    monkeypatch.setattr(pipeline, "channel_columns", counting_split)
    monkeypatch.setattr(HitMatcher, "feed", counting_feed)
    decode_file(path, small_config.geometry, small_config.calibration, chunk_records=chunk)
    assert len(splits) == n_chunks and len(feeds) == 2 * n_chunks
    assert max(ahead) == 2


def test_decode_rejects_tick_mismatch(tmp_path, small_config):
    path = tmp_path / "r.dlde"
    simulate_to_file(small_config, path)
    other = make_config(geometry={"tick_ps": 2, "signal_speed_mm_per_ps": 1e-3, "size_mm": 40.0})
    with pytest.raises(ValueError, match="tick_ps"):
        decode_file(path, other.geometry, other.calibration)


def test_decode_rejects_picosecond_times_past_int64(tmp_path):
    """At tick_ps=4 a tick of 2**61 or more is 2**63 ps or more, which an
    int64 t_ps cannot hold: decode names the first such record."""
    cfg = make_config(geometry={"tick_ps": 4})
    group = groups_to_pulses(encode_groups(detection_rows([(0, 1000.0, 20.0, 20.0)]), cfg.geometry))
    t0 = int(group["timestamp"][0])

    def decode_with_second_group_at(tick):
        far = group.copy()
        far["timestamp"] += np.uint64(tick - t0)
        path = tmp_path / f"{tick}.dlde"
        write_events(np.concatenate([group, far]), EventFileHeader(tick_ps=4), path)
        return decode_file(path, cfg.geometry, cfg.calibration)

    last = (2**63 - 1) // 4  # the last tick below 2**63 ps
    decoded = decode_with_second_group_at(last - 20_000)
    assert decoded.events[0]["t_ps"].tolist() == [4 * t0, 4 * (last - 20_000)]
    with pytest.raises(TimestampRangeError) as e:
        decode_with_second_group_at(last + 1000)
    assert e.value.record_index == 5 and e.value.offset == HEADER_SIZE + 5 * RECORD_SIZE


def test_analyze_empty_file_warns(tmp_path):
    cfg = make_config(pair_rate_per_pulse=0.0, pump_scatter_rate_per_pulse=0.0,
                      dark_rate_hz=0.0, duration_ps=1e8)
    path = tmp_path / "empty.dlde"
    simulate_to_file(cfg, path)
    decode, analysis = analyze_file(path, cfg)
    assert any("no records" in w for w in analysis.warnings)
    assert any("no coincidences" in w for w in analysis.warnings)
    assert not analysis.jsi_report.car_raw_defined


def test_jsi_transpose_symmetry_under_detector_swap(tmp_path, small_config):
    path = tmp_path / "r.dlde"
    simulate_to_file(small_config, path)
    dec = decode_file(path, small_config.geometry, small_config.calibration)
    corr = small_config.correlation
    ev0, ev1 = dec.events
    i, j = select_coincidences(ev0["t_ps"], ev1["t_ps"], corr.coincidence_window_ps)
    jsi = build_jsi(ev0["wavelength_nm"][i], ev1["wavelength_nm"][j], corr)
    # swapping detector labels negates delays: mirror the window
    w = corr.coincidence_window_ps
    js, is_ = select_coincidences(ev1["t_ps"], ev0["t_ps"], (-w[1], -w[0]))
    jsi_swapped = build_jsi(ev1["wavelength_nm"][js], ev0["wavelength_nm"][is_], corr)
    assert np.array_equal(jsi_swapped.counts, jsi.counts.T)


def test_side_peak_windows_statistically_identical(tmp_path, small_config):
    """Accidental joint spectra from the +13.2 ns and -13.2 ns windows agree
    cell by cell within 5 sigma Poisson."""
    path = tmp_path / "r.dlde"
    cfg = make_config(seed=31, duration_ps=1.5e9)
    simulate_to_file(cfg, path)
    dec = decode_file(path, cfg.geometry, cfg.calibration)
    corr = cfg.correlation
    ev0, ev1 = dec.events
    lo, hi = corr.accidental_window_ps
    ip, jp = select_coincidences(ev0["t_ps"], ev1["t_ps"], (lo, hi))
    im, jm = select_coincidences(ev0["t_ps"], ev1["t_ps"], (-hi, -lo))
    plus = build_jsi(ev0["wavelength_nm"][ip], ev1["wavelength_nm"][jp], corr)
    minus = build_jsi(ev0["wavelength_nm"][im], ev1["wavelength_nm"][jm], corr)
    diff = np.abs(plus.counts - minus.counts)
    sigma = np.sqrt(np.maximum(plus.counts + minus.counts, 1))
    assert np.all(diff <= 5 * sigma)


def test_spectrum_shows_three_lines(tmp_path, default_config):
    """Default run singles spectra peak at the high-energy pair line, the
    scattered pump line and the low-energy pair line."""
    path = tmp_path / "r.dlde"
    simulate_to_file(default_config, path)
    dec = decode_file(path, default_config.geometry, default_config.calibration)
    corr = default_config.correlation
    for det in (0, 1):
        hist = spectrum_1d(dec.events[det]["wavelength_nm"], corr)
        centers = hist.axis.centers()
        valley = (np.abs(centers - 389.0) <= 0.05) | (np.abs(centers - 389.5) <= 0.05)
        floor = max(int(hist.counts[valley].max()), 1)
        for line in (388.8, 389.2, 389.8):
            near = np.abs(centers - line) <= 0.15
            peak_bin = np.nonzero(near)[0][int(np.argmax(hist.counts[near]))]
            # each line sits on a bin centre; counted in bins, so that float
            # rounding of the centres cannot reject the bin above the line
            assert abs(peak_bin - int(np.argmin(np.abs(centers - line)))) <= 1
            # a real line towers over the valleys between the three peaks
            assert hist.counts[peak_bin] > 3 * floor


def test_accidental_window_dominated_by_background_combinations(tmp_path, default_config):
    """Pairs selected at the +13.2 ns window are uncorrelated singles: their
    joint spectrum populates the nine combinations of the three lines, with
    substantial weight off the true-pair cells."""
    path = tmp_path / "r.dlde"
    simulate_to_file(default_config, path)
    dec = decode_file(path, default_config.geometry, default_config.calibration)
    corr = default_config.correlation
    ev0, ev1 = dec.events
    ai, aj = select_coincidences(ev0["t_ps"], ev1["t_ps"], corr.accidental_window_ps)
    acc = build_jsi(ev0["wavelength_nm"][ai], ev1["wavelength_nm"][aj], corr)
    lines = (388.8, 389.2, 389.8)
    total = acc.counts.sum()
    assert total > 0
    near_grid = 0
    xc, yc = acc.x.centers(), acc.y.centers()
    for lx in lines:
        for ly in lines:
            cell = (np.abs(xc[:, None] - lx) <= 0.25) & (np.abs(yc[None, :] - ly) <= 0.25)
            peak = int(acc.counts[cell].max())
            assert peak > 0, (lx, ly)  # every combination is populated
            near_grid += int(acc.counts[cell].sum())
    assert near_grid / total > 0.9
    # pump-involved combinations dominate the off-pair background
    pair_cells = (np.abs(xc[:, None] - 388.8) <= 0.25) & (np.abs(yc[None, :] - 389.8) <= 0.25)
    pair_cells |= (np.abs(xc[:, None] - 389.8) <= 0.25) & (np.abs(yc[None, :] - 388.8) <= 0.25)
    assert acc.counts[~pair_cells].sum() > 0.4 * total


def test_report_bundle_written_and_deterministic(tmp_path, small_config):
    path = tmp_path / "r.dlde"
    simulate_to_file(small_config, path)
    outs = []
    for name in ("rep1", "rep2"):
        decode, analysis = analyze_file(path, small_config)
        paths = write_report_bundle(tmp_path / name, decode, analysis, events_csv=True)
        outs.append({p.name: p.read_bytes() for p in paths})
    assert outs[0].keys() == outs[1].keys()
    for name in outs[0]:
        assert outs[0][name] == outs[1][name], name
    expected = {
        "spectrum_det1.csv", "spectrum_det1.svg", "spectrum_det2.csv", "spectrum_det2.svg",
        "g2.csv", "g2.svg", "g2_normalized.csv", "g2_normalized.svg",
        "jsi.csv", "jsi.svg", "jsi_accidental.csv", "jsi_accidental.svg",
        "jsi_subtracted.csv", "jsi_subtracted.svg",
        "events_det1.csv", "events_det2.csv", "summary.txt",
    }
    assert set(outs[0].keys()) == expected


@pytest.mark.parametrize("failing", ["jsi_accidental.svg", "jsi_accidental.csv"])
def test_failed_bundle_keeps_old_files_and_leaves_no_temporaries(tmp_path, small_config, monkeypatch, failing):
    path = tmp_path / "r.dlde"
    simulate_to_file(small_config, path)
    decode, analysis = analyze_file(path, small_config)
    out = tmp_path / "rep"
    write_report_bundle(out, decode, analysis, events_csv=True)
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    for name in ("jsi.svg", failing, "summary.txt"):
        (out / name).write_text(f"an earlier {name}")
    accidental = analysis.jsi_report.accidental
    if failing.endswith(".svg"):  # fails while rendering
        real_svg = pipeline.svg_heatmap

        def svg_heatmap(hist, *args, **kwargs):
            if hist is accidental:
                raise RuntimeError("write failed")
            return real_svg(hist, *args, **kwargs)

        monkeypatch.setattr(pipeline, "svg_heatmap", svg_heatmap)
    else:  # fails with part of the file written
        real_csv = correlation.Histogram2D.to_csv

        def to_csv(self, sink, *args, **kwargs):
            if self is accidental:
                sink.write("x_bin,y_bin,count\n")
                raise RuntimeError("write failed")
            return real_csv(self, sink, *args, **kwargs)

        monkeypatch.setattr(correlation.Histogram2D, "to_csv", to_csv)
    with pytest.raises(RuntimeError, match="write failed"):
        write_report_bundle(out, decode, analysis, events_csv=True)
    after = {p.name: p.read_bytes() for p in out.iterdir()}
    assert after.keys() == before.keys()  # no temporary file left behind
    assert after["jsi.svg"] == before["jsi.svg"]  # written whole before the failure
    assert after[failing] == f"an earlier {failing}".encode()
    assert after["summary.txt"] == b"an earlier summary.txt"  # not reached


def test_summary_contains_stable_keys(tmp_path, small_config):
    path = tmp_path / "r.dlde"
    simulate_to_file(small_config, path)
    decode, analysis = analyze_file(path, small_config)
    text = "\n".join(summary_lines(decode, analysis))
    for key in (
        "records=", "det1_events=", "det2_events=", "g2_center_counts=",
        "g2_center_side_ratio=", "g2_fit_fwhm_ps=", "coincidences=",
        "car_raw=", "car_subtracted=", "jsi_peak1_det1_nm=",
    ):
        assert key in text


def _photons(times, rng):
    """Event columns at the sorted `times`, random wavelengths, zero positions."""
    n = len(times)
    return Columns({
        "t_ps": np.sort(np.asarray(times, dtype=np.int64)),
        "x_mm": np.zeros(n),
        "y_mm": np.zeros(n),
        "wavelength_nm": rng.uniform(388.5, 390.0, n),
    })


def _side_windows(corr):
    """The +-k images (k = 1..4) of the coincidence window, + before -."""
    cw, aw = corr.coincidence_window_ps, corr.accidental_window_ps
    half = (cw[1] - cw[0]) / 2.0
    step = (aw[0] + aw[1]) / 2.0
    return [(s * k * step - half, s * k * step + half) for k in range(1, 5) for s in (1, -1)]


def _window_edge_delays(corr):
    """Integer delays on, just inside and just outside every window edge."""
    out = set()
    for lo, hi in [corr.coincidence_window_ps, corr.accidental_window_ps, *_side_windows(corr)]:
        for edge in (lo, hi):
            out |= {math.floor(edge) - 1, math.floor(edge), math.ceil(edge), math.ceil(edge) + 1}
    return out


def _g2_edge_delays(corr):
    """Integer delays at the g2 domain edges: on and just below -R, the last
    in-domain integer and the first integer at or past the upper edge."""
    axis = g2_axis(corr)
    lo, upper = axis.lo, axis.upper
    return {math.floor(lo) - 1, math.floor(lo), math.ceil(lo), math.ceil(upper) - 1, math.ceil(upper)}


def _edge_delays(corr):
    return sorted(_window_edge_delays(corr) | _g2_edge_delays(corr))


def _check_windows_against_brute(ev0, ev1, corr):
    """analyze_events window statistics and g2 histogram equal the all-pairs
    oracle, window by window."""
    a = analyze_events((ev0, ev1), corr)
    t0, t1 = ev0["t_ps"], ev1["t_ps"]
    r = corr.g2_range_ps
    assert np.array_equal(a.g2.counts, brute_delay_histogram(t0, t1, -r, r, corr.g2_bin_width_ps))
    coinc = brute_coincidences(t0, t1, corr.coincidence_window_ps)
    acc = brute_coincidences(t0, t1, corr.accidental_window_ps)
    assert a.coincidence_count == len(coinc)
    assert a.accidental_count == len(acc)
    assert a.side_window_counts == [len(brute_coincidences(t0, t1, w)) for w in _side_windows(corr)]
    for hist, pairs in ((a.jsi_report.jsi, coinc), (a.jsi_report.accidental, acc)):
        i = np.array([p[0] for p in pairs], dtype=np.int64)
        j = np.array([p[1] for p in pairs], dtype=np.int64)
        expected = build_jsi(ev0["wavelength_nm"][i], ev1["wavelength_nm"][j], corr)
        assert np.array_equal(hist.counts, expected.counts)
    return a


# accidental window 1250.625 +- 250.375 = [1000.25, 1501.0]
NON_INTEGER_WINDOWS = {"coincidence_window_ps": [-250.5, 250.25], "accidental_center_ps": 1250.625}
# the g2 upper edge lo + nbins * width is exactly 17.0, where (17 - lo) / width
# rounds to bin 99 of 100
NARROW_G2 = {"g2_range_ps": 17.0, "g2_bin_width_ps": 0.34}


@pytest.mark.parametrize("corr_overrides", [{}, NON_INTEGER_WINDOWS, NARROW_G2],
                         ids=["integer", "non-integer", "narrow-g2"])
def test_window_counts_on_edges_match_brute_force(corr_overrides, rng):
    corr = make_config(correlation=corr_overrides).correlation
    bases = [0, 1_000_000]  # far enough apart that only same-base pairs fall in any window
    t1 = [b + d for b in bases for d in _edge_delays(corr)]
    a = _check_windows_against_brute(_photons(bases, rng), _photons(t1, rng), corr)
    # per base and window: two window-edge delays each side land inside, the
    # rest outside; a g2-edge delay adds to the window it falls in
    g2_only = _g2_edge_delays(corr) - _window_edge_delays(corr)
    windows = [corr.coincidence_window_ps, corr.accidental_window_ps, *_side_windows(corr)]
    expected = [len(bases) * (4 + sum(lo <= d <= hi for d in g2_only)) for lo, hi in windows]
    assert [a.coincidence_count, a.accidental_count, *a.side_window_counts] == expected
    assert a.g2.counts.sum() > 0


@pytest.mark.parametrize("corr_overrides", [{}, NON_INTEGER_WINDOWS], ids=["integer", "non-integer"])
def test_window_counts_random_streams_match_brute_force(corr_overrides, rng):
    corr = make_config(correlation=corr_overrides).correlation
    span = int(4 * max(abs(w[0]) for w in _side_windows(corr)))
    ev0 = _photons(rng.integers(0, span, 150), rng)
    ev1 = _photons(rng.integers(0, span, 150), rng)
    a = _check_windows_against_brute(ev0, ev1, corr)
    assert a.coincidence_count > 0 and min(a.side_window_counts) > 0


def test_side_windows_beyond_g2_range(rng):
    cfg = make_config(correlation={"g2_range_ps": 20_000.0})
    cfg.validate()  # side windows past the g2 range are still a valid config
    corr = cfg.correlation
    assert max(w[1] for w in _side_windows(corr)) > corr.g2_range_ps
    ev0 = _photons([100_000], rng)
    ev1 = _photons([d + 100_000 for d in _edge_delays(corr)], rng)
    # the check also holds the g2 histogram to its range
    a = _check_windows_against_brute(ev0, ev1, corr)
    assert a.side_window_counts == [4] * 8


@pytest.mark.parametrize("sizes", [(0, 5), (5, 0), (0, 0)])
def test_window_counts_with_empty_streams(sizes, rng):
    corr = make_config().correlation
    ev0, ev1 = (_photons(rng.integers(0, 20_000, n), rng) for n in sizes)
    a = _check_windows_against_brute(ev0, ev1, corr)
    assert a.coincidence_count == a.accidental_count == 0
    assert a.side_window_counts == [0] * 8
    assert "no coincidences inside the coincidence window" in a.warnings


@pytest.mark.parametrize("slice_pairs", [1, 7, pipeline.ANALYZE_SLICE_PAIRS])
def test_analysis_slices_match_brute_force(slice_pairs, monkeypatch, rng):
    """Whatever the slice, every window count, the g2 and both joint spectra
    equal the all-pairs oracle, on random events plus delays on every window
    and g2 edge."""
    monkeypatch.setattr(pipeline, "ANALYZE_SLICE_PAIRS", slice_pairs)
    corr = make_config(correlation=NON_INTEGER_WINDOWS).correlation
    bases = np.arange(4) * 1_000_000
    t0 = np.concatenate([bases, rng.integers(0, 4_000_000, 200)])
    t1 = np.concatenate([[b + d for b in bases for d in _edge_delays(corr)], rng.integers(0, 4_000_000, 200)])
    a = _check_windows_against_brute(_photons(t0, rng), _photons(t1, rng), corr)
    assert a.g2.counts.sum() > 100 and min(a.side_window_counts) > 0  # many slices of 1 and 7


def test_analyze_makes_one_pair_pass(monkeypatch, rng):
    """One closed pair search covers the g2 domain and every closed window."""
    passes = []
    original = correlation.iter_window_pairs

    def counting(*args, **kwargs):
        passes.append(args[2:4])
        return original(*args, **kwargs)

    monkeypatch.setattr(correlation, "iter_window_pairs", counting)
    ev0 = _photons(rng.integers(0, 200_000, 200), rng)
    ev1 = _photons(rng.integers(0, 200_000, 200), rng)
    corr = make_config().correlation
    analyze_events((ev0, ev1), corr)
    assert len(passes) == 1
    (lo, hi), = passes
    g2 = g2_axis(corr)
    for w_lo, w_hi in [(g2.lo, g2.upper), corr.coincidence_window_ps, corr.accidental_window_ps,
                       *_side_windows(corr)]:
        assert lo <= w_lo and w_hi <= hi
