from __future__ import annotations

import numpy as np
import pytest

from dldspec import reconstruction
from dldspec.detector_sim import DETECTION_DTYPE, encode_groups, groups_to_pulses
from dldspec.event_format import Channel
from dldspec.reconstruction import (
    DEFAULT_SUM_TOL_TICKS,
    HIT_GROUP_DTYPE,
    HitMatcher,
    MalformedHitError,
    PHOTON_DTYPE,
    default_window_ticks,
    groups_to_events,
    match_hits,
    position_to_wavelength,
    reconstruct_position,
    wavelength_to_position,
    write_events_csv,
)
from dldspec.source_sim import EventKind

from _oracles import brute_match_hits, events_csv_text, position_from_times


def _encode_detections(rows, geometry):
    det = np.zeros(len(rows), dtype=DETECTION_DTYPE)
    for i, (path, t, x, y) in enumerate(rows):
        det[i] = (path, EventKind.PUMP, t, x, y, 389.2)
    return encode_groups(det, geometry)


def _hit(t_mcp, t_xa, t_xb, t_ya, t_yb, detector=0):
    h = np.zeros(1, dtype=HIT_GROUP_DTYPE)
    h[0] = (detector, t_mcp, t_xa, t_xb, t_ya, t_yb)
    return h


class TestPositionInversion:
    def test_zero_difference_is_center(self, default_config):
        x, y = reconstruct_position(_hit(0, 20_000, 20_000, 20_000, 20_000), default_config.geometry)
        assert x[0] == pytest.approx(20.0)
        assert y[0] == pytest.approx(20.0)

    def test_hand_evaluated_offset(self, default_config):
        # dt_x = 1e4 ps -> 25 mm for v = 1e-3, full propagation 4e4
        x, _ = reconstruct_position(_hit(0, 25_000, 15_000, 20_000, 20_000), default_config.geometry)
        assert x[0] == pytest.approx(25.0)
        assert x[0] == pytest.approx(position_from_times(25_000, 15_000, 4e4, 1e-3))

    def test_boundary_difference(self, default_config):
        x, _ = reconstruct_position(_hit(0, 0, 40_000, 20_000, 20_000), default_config.geometry)
        assert x[0] == pytest.approx(0.0)

    def test_clamp_within_one_tick(self, default_config):
        # half-tick rounding overshoot is clamped to the anode edge
        x, _ = reconstruct_position(_hit(0, 0, 40_001, 20_000, 20_000), default_config.geometry)
        assert x[0] == 0.0

    def test_malformed_beyond_margin(self, default_config):
        with pytest.raises(MalformedHitError):
            reconstruct_position(_hit(0, 0, 40_010, 20_000, 20_000), default_config.geometry)


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
        assert np.array_equal(hits, groups)

    def test_missing_channel_orphans_rest(self, default_config):
        g = default_config.geometry
        pulses = groups_to_pulses(_encode_detections([(0, 1000.0, 12.5, 31.25)], g))
        ablated = pulses[pulses["channel"] != int(Channel.XA)]
        hits, orphans = match_hits(ablated, g)
        assert hits.size == 0
        assert orphans == 4

    def test_timing_sum_violation_rejected(self, default_config):
        g = default_config.geometry
        tol = 3
        pulses = groups_to_pulses(_encode_detections([(0, 1000.0, 20.0, 20.0)], g))
        shifted = pulses.copy()
        xa = shifted["channel"] == int(Channel.XA)
        shifted["timestamp"][xa] += 10 * tol
        order = np.argsort(shifted["timestamp"].astype(np.int64), kind="stable")
        hits, orphans = match_hits(shifted[order], g, sum_tol_ticks=tol)
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
        assert np.array_equal(hits, groups)

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
        assert batch_hits[["t_mcp", "t_xa", "t_xb", "t_ya", "t_yb"]].tolist() == want_groups
        assert batch_orphans == want_orphans
        for chunk_size in (7, 97, 1000, pulses.size + 10):
            m = HitMatcher(g)
            got = []
            for lo in range(0, pulses.size, chunk_size):
                c = pulses[lo : lo + chunk_size]
                got.append(m.feed(c["timestamp"].astype(np.int64), c["channel"]))
            got.append(m.finish())
            streamed = np.concatenate(got)
            assert np.array_equal(streamed, batch_hits)
            assert m.orphans == want_orphans
            assert m.n_groups == len(want_groups)


class TestGroupsToEvents:
    def test_wavelength_consistency_field(self, default_config):
        g = default_config.geometry
        cal = default_config.calibration
        groups = _encode_detections([(1, 1000.0, 8.0, 5.0)], g)
        events, bad = groups_to_events(groups, g, cal)
        assert bad == 0
        assert events["detector"][0] == 1
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
        write_events_csv(events, p)
        lines = p.read_text().splitlines()
        assert lines[0] == "detector,t_ps,x_mm,y_mm,lambda_nm"
        fields = lines[1].split(",")
        assert fields[0] == "1"  # detectors are 1-based in exports
        assert float(fields[2]) == pytest.approx(20.0)
        assert float(fields[4]) == pytest.approx(389.25)

    def test_csv_bytes_match_rowwise_formatter(self, tmp_path, rng, monkeypatch):
        monkeypatch.setattr(reconstruction, "_CSV_BLOCK_ROWS", 64)  # several blocks, one partial
        n = 500
        events = np.zeros(n, dtype=PHOTON_DTYPE)
        events["detector"] = rng.integers(0, 2, n)
        events["t_ps"] = np.sort(rng.integers(0, 2**62, n))
        events["x_mm"] = rng.uniform(-1.0, 41.0, n)
        events["y_mm"] = rng.uniform(-1.0, 41.0, n)
        events["wavelength_nm"] = rng.uniform(388.0, 390.5, n)
        events["x_mm"][:3] = (0.0, -0.0, 1e-7)  # signed zero and sub-resolution values
        for name, arr in (("some", events), ("none", events[:0])):
            p = tmp_path / f"{name}.csv"
            write_events_csv(arr, p)
            assert p.read_bytes() == events_csv_text(arr).encode()
