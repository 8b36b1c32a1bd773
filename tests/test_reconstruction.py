from __future__ import annotations

import io
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dldspec import reconstruction
from dldspec.config import run_config_from_dict
from dldspec.detector_sim import encode_groups, groups_to_pulses, wavelength_to_position
from dldspec.event_format import PULSE_DTYPE, Channel, Columns
from dldspec.reconstruction import (
    DEFAULT_SUM_TOL_TICKS,
    HitMatcher,
    channel_columns,
    default_window_ticks,
    groups_to_events,
    hit_positions,
    position_to_wavelength,
    write_events_csv,
)

from _oracles import brute_match_hits, events_csv_text, position_from_times
from conftest import detection_rows, group_times, match_hits, packed


def _encode_detections(rows, geometry):
    return encode_groups(detection_rows(rows), geometry)


def _hit(t_mcp, t_xa, t_xb, t_ya, t_yb):
    """One hit group as columns of one row."""
    times = {"t_mcp": t_mcp, "t_xa": t_xa, "t_xb": t_xb, "t_ya": t_ya, "t_yb": t_yb}
    return Columns({name: np.array([t], dtype=np.int64) for name, t in times.items()})


class TestPositionInversion:
    def test_zero_difference_is_center(self, default_config):
        x, y, bad = hit_positions(_hit(0, 20_000, 20_000, 20_000, 20_000), default_config.geometry)
        assert x[0] == pytest.approx(20.0)
        assert y[0] == pytest.approx(20.0)
        assert not bad[0]

    def test_hand_evaluated_offset(self, default_config):
        # dt_x = 1e4 ps -> 25 mm for v = 1e-3, full propagation 4e4
        x, _, _ = hit_positions(_hit(0, 25_000, 15_000, 20_000, 20_000), default_config.geometry)
        assert x[0] == pytest.approx(25.0)
        assert x[0] == pytest.approx(position_from_times(25_000, 15_000, 4e4, 1e-3))

    def test_boundary_difference(self, default_config):
        x, _, _ = hit_positions(_hit(0, 0, 40_000, 20_000, 20_000), default_config.geometry)
        assert x[0] == pytest.approx(0.0)

    def test_clamp_within_one_tick(self, default_config):
        # half-tick rounding overshoot is clamped to the anode edge
        x, _, bad = hit_positions(_hit(0, 0, 40_001, 20_000, 20_000), default_config.geometry)
        assert x[0] == 0.0
        assert not bad[0]

    def test_malformed_beyond_margin(self, default_config):
        _, _, bad = hit_positions(_hit(0, 0, 40_010, 20_000, 20_000), default_config.geometry)
        assert bad.tolist() == [True]


class TestCalibration:
    def test_center_wavelength(self, default_config):
        assert position_to_wavelength(20.0, default_config.calibration) == pytest.approx(389.25)

    def test_linear_map_hand_value(self, default_config):
        # x = 8 mm -> 389.25 + (8 - 20) * 0.0375 = 388.80 (the high-energy line)
        assert position_to_wavelength(8.0, default_config.calibration) == pytest.approx(388.80)

    def test_inverse_pair(self, default_config):
        cal = default_config.calibration
        xs = np.linspace(0.0, 40.0, 41)
        back = wavelength_to_position(position_to_wavelength(xs, cal), cal)
        assert np.max(np.abs(back - xs)) < 1e-9

    def test_monotone(self, default_config):
        cal = default_config.calibration
        lam = position_to_wavelength(np.linspace(0, 40, 100), cal)
        assert np.all(np.diff(lam) > 0)


class TestMatchHits:
    def test_clean_group_inverts_encode(self, default_config):
        g = default_config.geometry
        groups = _encode_detections([(0, 1000.0, 12.5, 31.25)], g)
        pulses = groups_to_pulses(groups)
        hits, orphans = match_hits(pulses, g)
        assert hits.size == 1
        assert orphans == 0
        assert np.array_equal(packed(hits), packed(group_times(groups)))

    def test_missing_channel_orphans_rest(self, default_config):
        g = default_config.geometry
        pulses = groups_to_pulses(_encode_detections([(0, 1000.0, 12.5, 31.25)], g))
        ablated = pulses[pulses["channel"] != int(Channel.XA)]
        hits, orphans = match_hits(ablated, g)
        assert hits.size == 0
        assert orphans == 4

    def test_timing_sum_violation_rejected(self, default_config):
        g = default_config.geometry
        tol = DEFAULT_SUM_TOL_TICKS
        pulses = groups_to_pulses(_encode_detections([(0, 1000.0, 20.0, 20.0)], g))
        shifted = pulses.copy()
        xa = shifted["channel"] == int(Channel.XA)
        shifted["timestamp"][xa] += 10 * tol
        order = np.argsort(shifted["timestamp"].astype(np.int64), kind="stable")
        hits, orphans = match_hits(shifted[order], g)
        assert hits.size == 0
        assert orphans == 5

    def test_cross_paired_pulses_rejected(self, default_config):
        # Two detections 5 ns apart; the second loses its XA pulse, so the
        # only XA candidate in its window belongs to the first detection. The
        # cross-paired timing sum is off by the 5 ns trigger separation and
        # the gate must reject it; the intact first detection still matches.
        g = default_config.geometry
        groups = _encode_detections([(0, 1000.0, 20.0, 20.0), (0, 6000.0, 20.0, 20.0)], g)
        pulses = groups_to_pulses(groups)
        second_xa = (pulses["channel"] == int(Channel.XA)) & (
            pulses["timestamp"] == groups["t_xa"][1]
        )
        ablated = pulses[~second_xa]
        hits, orphans = match_hits(ablated, g)
        assert hits.size == 1
        assert hits["t_mcp"][0] == groups["t_mcp"][0]
        assert orphans == ablated.size - 5

    def test_one_group_per_detection_when_separated(self, default_config, rng):
        g = default_config.geometry
        n = 300
        sep = default_window_ticks(g) + 1000
        rows = [
            (0, float(i * sep + rng.integers(0, 500)), float(rng.uniform(0, 40)), float(rng.uniform(0, 40)))
            for i in range(n)
        ]
        groups = _encode_detections(rows, g)
        hits, orphans = match_hits(groups_to_pulses(groups), g)
        assert hits.size == n
        assert orphans == 0
        assert np.array_equal(packed(hits), packed(group_times(groups)))

    def test_rejects_mixed_detectors(self, default_config):
        g = default_config.geometry
        pulses = groups_to_pulses(
            _encode_detections([(0, 1000.0, 20.0, 20.0), (1, 90_000.0, 20.0, 20.0)], g)
        )
        with pytest.raises(ValueError, match="single detector"):
            match_hits(pulses, g)

    def test_streaming_matcher_equals_batch(self, default_config, rng):
        # Detections closer than the window steal each other's candidates, and
        # stray anode pulses join no group; both matcher entry points must
        # make the per-trigger decisions of the plain-Python oracle.
        g = default_config.geometry
        n = 400
        t = np.cumsum(rng.integers(2_000, 120_000, n)).astype(np.float64)
        rows = [(0, float(tt), float(rng.uniform(0, 40)), float(rng.uniform(0, 40))) for tt in t]
        pulses = groups_to_pulses(_encode_detections(rows, g))
        stray = np.zeros(60, dtype=pulses.dtype)
        stray["channel"] = rng.integers(1, 5, stray.size)
        stray["timestamp"] = rng.integers(0, int(pulses["timestamp"][-1]), stray.size)
        pulses = np.concatenate([pulses, stray])
        pulses = pulses[np.argsort(pulses["timestamp"], kind="stable")]
        want_groups, want_orphans = brute_match_hits(
            pulses["timestamp"], pulses["channel"], g.propagation_ticks, default_window_ticks(g), DEFAULT_SUM_TOL_TICKS
        )
        assert 0 < len(want_groups) < n  # some detections are lost to stealing
        batch_hits, batch_orphans = match_hits(pulses, g)
        batch_hits = packed(batch_hits)
        assert batch_hits[["t_mcp", "t_xa", "t_xb", "t_ya", "t_yb"]].tolist() == want_groups
        assert batch_orphans == want_orphans
        for chunk_size in (7, 97, 1000, pulses.size + 10):
            m = HitMatcher(g)
            got = []
            for lo in range(0, pulses.size, chunk_size):
                c = pulses[lo : lo + chunk_size]
                got.append(packed(m.feed(channel_columns(c)[0])))
            got.append(packed(m.finish()))
            streamed = np.concatenate(got)
            assert np.array_equal(streamed, batch_hits)
            assert m.orphans == want_orphans


_GEOMETRY = run_config_from_dict({}).geometry


@st.composite
def _single_detector_streams(draw):
    """One detector's pulse stream: detections with timing-sum errors around
    the gate, anode pulses on their trigger's tick, triggers on a coarse grid
    (equal-timestamp runs), stray anode pulses, sometimes a channel with no
    pulses at all, and a random file order among equal timestamps."""
    p = _GEOMETRY.propagation_ticks
    step = draw(st.sampled_from([3 * p, p, p // 3, 7, 1]))
    offset = st.one_of(st.just(0), st.integers(0, p))
    error = st.sampled_from([0, 0, 0, 3, -3, 4, -4])  # the gate passes |error| <= 3
    rows = []
    for slot in draw(st.lists(st.integers(0, 12), min_size=1, max_size=6)):
        t = slot * step
        dx, dy = draw(offset), draw(offset)
        ex, ey = draw(error), draw(error)
        rows += [(Channel.MCP, t), (Channel.XA, t + dx), (Channel.XB, max(t + p - dx + ex, 0)),
                 (Channel.YA, t + dy), (Channel.YB, max(t + p - dy + ey, 0))]
    for _ in range(draw(st.integers(0, 6))):
        rows.append((draw(st.integers(1, 4)), draw(st.integers(0, 12)) * step + draw(st.integers(0, p))))
    if draw(st.integers(0, 3)) == 0:  # one stream in four loses a whole channel
        missing = draw(st.integers(1, 4))
        rows = [r for r in rows if r[0] != missing]
    pulses = np.zeros(len(rows), dtype=PULSE_DTYPE)
    if rows:
        pulses["channel"], pulses["timestamp"] = zip(*rows)
    pulses = pulses[np.random.default_rng(draw(st.integers(0, 2**32 - 1))).permutation(pulses.size)]
    return pulses[np.argsort(pulses["timestamp"], kind="stable")]


@settings(max_examples=200, deadline=None)
@given(_single_detector_streams())
def test_streamed_matcher_equals_oracle_for_every_chunk_size(pulses):
    want_groups, want_orphans = brute_match_hits(
        pulses["timestamp"], pulses["channel"], _GEOMETRY.propagation_ticks,
        default_window_ticks(_GEOMETRY), DEFAULT_SUM_TOL_TICKS,
    )
    for chunk_size in range(1, pulses.size + 2):
        m = HitMatcher(_GEOMETRY)
        got = [packed(m.feed(channel_columns(pulses[lo : lo + chunk_size])[0]))
               for lo in range(0, pulses.size, chunk_size)]
        got.append(packed(m.finish()))
        groups = np.concatenate(got)
        assert groups[["t_mcp", "t_xa", "t_xb", "t_ya", "t_yb"]].tolist() == want_groups
        assert m.orphans == want_orphans



def test_matcher_carry_with_a_dead_mcp_channel_stays_within_a_window():
    """10**6 anode pulses and no trigger, fed 1,000 at a time: with no
    trigger to wait for, every feed cuts at its last buffered tick, so the
    carry never holds a pulse more than a window below it, however long the
    stream, and every pulse ends as an orphan."""
    rng = np.random.default_rng(16)
    n, step = 10**6, 1000
    window = default_window_ticks(_GEOMETRY)
    # gaps of up to an eighth of a window, three in ten of them 0 (equal times)
    ts = np.cumsum(rng.integers(0, window // 8, n) * (rng.random(n) < 0.7))
    channel = rng.integers(Channel.XA, Channel.YB + 1, n)
    m = HitMatcher(_GEOMETRY)
    for lo in range(0, n, step):
        t, c = ts[lo : lo + step], channel[lo : lo + step]
        assert m.feed([t[c == k] for k in range(5)]).size == 0
        assert np.concatenate(m._carry).min(initial=t[-1]) >= t[-1] - window
    assert m.finish().size == 0
    assert m.orphans == n

class TestGroupsToEvents:
    def test_wavelength_consistency_field(self, default_config):
        g = default_config.geometry
        cal = default_config.calibration
        groups = _encode_detections([(1, 1000.0, 8.0, 5.0)], g)
        events, bad = groups_to_events(groups, g, cal)
        assert bad == 0
        assert events["wavelength_nm"][0] == pytest.approx(
            position_to_wavelength(events["x_mm"][0], cal)
        )
        assert events["wavelength_nm"][0] == pytest.approx(388.80, abs=1e-3)

    def test_malformed_dropped_and_counted(self, default_config):
        bad_hit = _hit(0, 0, 40_010, 20_000, 20_000)
        events, bad = groups_to_events(bad_hit, default_config.geometry, default_config.calibration)
        assert events.size == 0
        assert bad == 1

    def test_csv_export_format(self, default_config, tmp_path):
        g = default_config.geometry
        groups = _encode_detections([(0, 1000.0, 20.0, 20.0)], g)
        events, _ = groups_to_events(groups, g, default_config.calibration)
        p = tmp_path / "events.csv"
        with open(p, "w") as fh:
            write_events_csv(events, 0, fh)
        lines = p.read_text().splitlines()
        assert lines[0] == "detector,t_ps,x_mm,y_mm,lambda_nm"
        fields = lines[1].split(",")
        assert fields[0] == "1"  # detectors are 1-based in exports
        assert float(fields[2]) == pytest.approx(20.0)
        assert float(fields[4]) == pytest.approx(389.25)

    def test_csv_bytes_match_rowwise_formatter(self, tmp_path, rng, monkeypatch):
        monkeypatch.setattr(reconstruction, "_CSV_BLOCK_ROWS", 64)  # several blocks, one partial
        n = 500
        events = Columns({
            "t_ps": np.sort(rng.integers(0, 2**62, n)),
            "x_mm": rng.uniform(-1.0, 41.0, n),
            "y_mm": rng.uniform(-1.0, 41.0, n),
            "wavelength_nm": rng.uniform(388.0, 390.5, n),
        })
        for name in ("x_mm", "y_mm", "wavelength_nm"):
            # on rows scattered over the blocks: exact ties (odd multiples of 2**-7, so
            # value * 10**6 is a half-integer) with their nextafter neighbours below and above,
            # and the doubles nearest decimal ties, whose product rounds onto a tie it is not on
            exact, near = np.split(rng.choice(n, 180, replace=False), 2)
            ties = (2 * np.floor(events[name][exact] * 64) + 1) / 128
            events[name][exact] = np.nextafter(ties, ties + rng.integers(-1, 2, exact.size))
            events[name][near] = (np.round(events[name][near] * 1e6) + 0.5) / 1e6
        events["x_mm"][:3] = (0.0, -0.0, 1e-7)  # signed zero and sub-resolution values
        for name, arr in (("some", events), ("none", events[:0])):
            for detector in (0, 1):
                p = tmp_path / f"{name}{detector}.csv"
                with open(p, "w") as fh:
                    write_events_csv(arr, detector, fh)
                labelled = Columns({"detector": np.full(arr.size, detector, dtype=np.uint8)} | arr)
                assert p.read_bytes() == events_csv_text(packed(labelled)).encode()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 2.0**53 / 1e6, -1e300])
    def test_csv_block_with_unformattable_value_writes_nothing(self, bad, monkeypatch):
        monkeypatch.setattr(reconstruction, "_CSV_BLOCK_ROWS", 4)
        n = 12
        events = Columns({
            "t_ps": np.arange(n, dtype=np.int64) * 1000,
            "x_mm": np.full(n, 20.0),
            "y_mm": np.full(n, 20.0),
            "wavelength_nm": np.full(n, 389.25),
        })
        events["wavelength_nm"][6] = bad  # in the second block
        sink = io.StringIO()
        with pytest.raises(ValueError):
            write_events_csv(events, 0, sink)
        first_block = Columns({"detector": np.zeros(4, dtype=np.uint8)} | events[:4])
        assert sink.getvalue() == events_csv_text(packed(first_block))

    def test_csv_writer_memory_is_bounded_by_the_block(self):
        class Discard:
            def write(self, text):
                pass

        def peak_bytes(blocks):
            n = blocks * reconstruction._CSV_BLOCK_ROWS
            r = np.random.default_rng(blocks)
            events = Columns({
                "t_ps": np.sort(r.integers(10**10, 10**11, n)),
                "x_mm": r.uniform(0.0, 40.0, n),
                "y_mm": r.uniform(0.0, 40.0, n),
                "wavelength_nm": r.uniform(388.0, 390.5, n),
            })
            tracemalloc.start()
            try:
                write_events_csv(events, 0, Discard())
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        one, eight = peak_bytes(1), peak_bytes(8)
        assert abs(eight - one) <= 0.1 * one, (one, eight)
