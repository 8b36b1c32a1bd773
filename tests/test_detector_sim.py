from __future__ import annotations

import math

import numpy as np
import pytest

from dldspec.detector_sim import (
    DeadTimeFilter,
    detect,
    encode_groups,
    groups_to_pulses,
)
from dldspec.config import pulse_count
from dldspec.event_format import PULSE_DTYPE, Channel, Columns
from dldspec.source_sim import EmissionTally, EventKind, generate_emissions, sample_background

from _oracles import brute_dead_time, brute_serialize, gaussian_fwhm_from_samples, position_from_times
from conftest import detection_rows as _detections, make_config, packed


def _emissions(n, wavelength=389.2, kind=EventKind.PUMP):
    return Columns({
        "time_ps": np.arange(n, dtype=np.float64) * 13157.9 + 1000.0,
        "path": (np.arange(n) % 2).astype(np.uint8),
        "kind": np.full(n, kind, dtype=np.uint8),
        "wavelength_nm": np.full(n, wavelength, dtype=np.float64),
    })


class TestDetect:
    def test_identity_response_at_unit_qe_zero_jitter(self, rng):
        cfg = make_config(qe=1.0, jitter_fwhm_ps=0.0)
        ev = _emissions(1000)
        out, tally = detect(ev, cfg, rng)
        assert out.size == 1000
        assert tally.n_off_sensor == tally.n_negative_time == 0
        # detection time equals emission time exactly
        assert np.array_equal(np.sort(out["time_ps"]), np.sort(ev["time_ps"]))

    def test_qe_survival_binomial(self, rng):
        # qe is drawn by the sampler: 100,000 pump photons are emitted, one per
        # pulse and path, and about qe of them reach the anode
        cfg = make_config(qe=0.2, jitter_fwhm_ps=0.0, pump_scatter_rate_per_pulse=1.0, dark_rate_hz=0.0)
        emitted = EmissionTally()
        out, tally = detect(sample_background(cfg.simulation, range(50_000), rng, emitted), cfg, rng)
        sigma = math.sqrt(100_000 * 0.2 * 0.8)
        assert abs(out.size - 20_000) < 5 * sigma
        assert emitted.qe_lost + out.size + tally.n_off_sensor + tally.n_negative_time == emitted.pump == 100_000

    def test_jitter_fwhm_reproduced(self, rng):
        cfg = make_config(qe=1.0)  # jitter 263 ps default
        ev = _emissions(100_000)
        ev["time_ps"] += 1e7  # keep far from t=0 so nothing is dropped
        out, _ = detect(ev, cfg, rng)
        order = np.argsort(out["time_ps"], kind="stable")
        # recover per-event jitter by matching sorted outputs against inputs
        emitted = np.sort(ev["time_ps"])
        fwhm = gaussian_fwhm_from_samples(out["time_ps"][order] - emitted)
        assert abs(fwhm - 263.0) < 5.0

    def test_off_sensor_wavelengths_dropped_and_counted(self, rng):
        cfg = make_config(qe=1.0, jitter_fwhm_ps=0.0)
        ev = _emissions(100, wavelength=400.0)  # maps far off the anode
        out, tally = detect(ev, cfg, rng)
        assert out.size == 0
        assert tally.n_off_sensor == 100

    def test_dark_events_land_uniformly(self, rng):
        cfg = make_config(qe=1.0, jitter_fwhm_ps=0.0)
        ev = _emissions(20_000, kind=EventKind.DARK)
        ev["wavelength_nm"][:] = np.nan
        out, tally = detect(ev, cfg, rng)
        assert tally.n_off_sensor == 0
        assert out.size == 20_000
        x = out["x_mm"]
        assert 0 <= x.min() and x.max() <= 40.0
        assert abs(x.mean() - 20.0) < 5 * 40.0 / math.sqrt(12 * out.size)

    def test_raising_qe_never_loses_survivors(self):
        # 100,000 emitted pump photons: the expected survivors 5,000, 20,000,
        # 50,000 and 90,000 lie hundreds of standard deviations apart
        counts = []
        for qe in (0.05, 0.2, 0.5, 0.9):
            cfg = make_config(qe=qe, jitter_fwhm_ps=0.0, pump_scatter_rate_per_pulse=1.0, dark_rate_hz=0.0)
            r = np.random.default_rng(99)
            out, _ = detect(sample_background(cfg.simulation, range(50_000), r, EmissionTally()), cfg, r)
            counts.append(out.size)
        assert counts == sorted(counts)


class TestEncode:
    def _encode_one(self, x, y, t, geometry):
        return encode_groups(_detections([(0, t, x, y)]), geometry)[0]

    def test_center_position_symmetric(self, default_config):
        g = self._encode_one(20.0, 20.0, 5000.0, default_config.geometry)
        assert g["t_xa"] == g["t_xb"] == 5000 + 20_000
        assert g["t_ya"] == g["t_yb"] == 5000 + 20_000
        assert g["t_mcp"] == 5000

    def test_hand_evaluated_offset(self, default_config):
        # x = 25 mm with v = 1e-3 mm/ps, full propagation 4e4 ps
        g = self._encode_one(25.0, 20.0, 0.0, default_config.geometry)
        assert g["t_xa"] - g["t_xb"] == 10_000
        assert position_from_times(g["t_xa"], g["t_xb"], 4e4, 1e-3) == pytest.approx(25.0)

    def test_boundary_zero(self, default_config):
        g = self._encode_one(0.0, 20.0, 0.0, default_config.geometry)
        assert g["t_xa"] - g["t_xb"] == -40_000
        assert position_from_times(g["t_xa"], g["t_xb"], 4e4, 1e-3) == pytest.approx(0.0)

    def test_timing_sum_conservation(self, default_config, rng):
        g = default_config.geometry
        rows = [(0, float(t), float(x), float(y))
                for t, x, y in zip(rng.uniform(0, 1e6, 2000), rng.uniform(0, 40, 2000), rng.uniform(0, 40, 2000))]
        det = _detections(rows)  # encoding is row-wise: no order needed
        groups = encode_groups(det, g)
        sum_x = groups["t_xa"] + groups["t_xb"] - 2 * groups["t_mcp"]
        sum_y = groups["t_ya"] + groups["t_yb"] - 2 * groups["t_mcp"]
        assert np.all(np.abs(sum_x - 40_000) <= 2)
        assert np.all(np.abs(sum_y - 40_000) <= 2)

    def test_pulse_count_is_five_per_detection(self, default_config, rng):
        g = default_config.geometry
        det = _detections([(i % 2, 1000.0 * i, 10.0, 30.0) for i in range(123)])
        pulses = groups_to_pulses(encode_groups(det, g))
        assert pulses.size == 5 * 123
        assert np.all(np.diff(pulses["timestamp"].astype(np.int64)) >= 0)
        for c in Channel:
            assert np.count_nonzero(pulses["channel"] == int(c)) == 123

    def test_rejects_out_of_bounds_position(self, default_config):
        with pytest.raises(ValueError, match="outside the anode"):
            self._encode_one(41.0, 20.0, 0.0, default_config.geometry)


def _hit_groups(rows):
    """Hit-group columns from (detector, t_mcp, t_xa, t_xb, t_ya, t_yb) rows."""
    detector, *times = zip(*rows)
    names = ("t_mcp", "t_xa", "t_xb", "t_ya", "t_yb")
    return Columns({"detector": np.array(detector, dtype=np.uint8)}
                   | {name: np.array(t, dtype=np.int64) for name, t in zip(names, times)})


def _pulse_rows(pulses):
    return [(int(p["detector"]), int(p["channel"]), int(p["timestamp"])) for p in pulses]


class TestSerialize:
    # (detector, channel, timestamp), already in file order
    CARRY = [(1, Channel.XB, 100), (0, Channel.MCP, 200), (1, Channel.YA, 230)]
    GROUPS = [
        (0, 200, 230, 260, 240, 250),  # MCP ties a carry pulse; XA ties another
        (1, 200, 210, 290, 260, 270),  # same t_mcp on the other detector
        (0, 260, 300, 320, 280, 330),  # MCP ties the XB and YA of earlier groups
    ]

    @pytest.mark.parametrize("with_carry", [False, True])
    def test_ties_match_oracle(self, with_carry):
        carry_rows = self.CARRY if with_carry else []
        carry = np.array(carry_rows, dtype=PULSE_DTYPE) if with_carry else None
        got = groups_to_pulses(_hit_groups(self.GROUPS), carry)
        assert _pulse_rows(got) == brute_serialize(carry_rows, self.GROUPS)

    def test_tie_order_by_hand(self):
        got = _pulse_rows(groups_to_pulses(_hit_groups(self.GROUPS), np.array(self.CARRY, dtype=PULSE_DTYPE)))
        at = {}
        for d, c, t in got:
            at.setdefault(t, []).append((d, c))
        assert at[200] == [(0, Channel.MCP), (0, Channel.MCP), (1, Channel.MCP)]  # carry, group 0, group 1
        assert at[230] == [(1, Channel.YA), (0, Channel.XA)]
        assert at[260] == [(0, Channel.XB), (1, Channel.YA), (0, Channel.MCP)]

    def test_random_groups_match_oracle(self, rng):
        times = rng.integers(0, 50, size=(40, 5))
        rows = [(int(rng.integers(0, 2)), *map(int, t)) for t in times]
        carry_rows = sorted(((int(rng.integers(0, 2)), int(rng.integers(0, 5)), int(t))
                             for t in rng.integers(0, 50, 30)), key=lambda r: r[2])
        got = groups_to_pulses(_hit_groups(rows), np.array(carry_rows, dtype=PULSE_DTYPE))
        assert _pulse_rows(got) == brute_serialize(carry_rows, rows)


def filter_dead_time(groups, dead_time_ps, tick_ps=1, chunk=3):
    """DeadTimeFilter output for time-sorted groups, fed whole, in chunks, and
    in chunks each shuffled with detector 1 listed first.

    Every run must agree exactly and list the all-pairs oracle's survivors by
    (t_mcp, detector). Returns (kept groups, per-detector discards).
    """
    whole = DeadTimeFilter(dead_time_ps, tick_ps)
    kept = packed(whole.feed(groups, None))
    rng = np.random.default_rng(chunk)
    for scramble in (False, True):
        stream = DeadTimeFilter(dead_time_ps, tick_ps)
        parts = []
        for lo in range(0, groups.size, chunk):
            block = groups[lo : lo + chunk]
            floor = None if lo + chunk >= groups.size else int(block["t_mcp"][-1])
            if scramble:
                block = block[np.lexsort((rng.random(block.size), block["detector"] == 0))]
            parts.append(packed(stream.feed(block, floor)))
        streamed = np.concatenate([*parts, packed(stream.feed(groups[:0], None))])
        assert np.array_equal(streamed, kept)
        assert stream.discards == whole.discards
    keep_idx, discards = brute_dead_time(groups["detector"], groups["t_mcp"], dead_time_ps, tick_ps)
    assert np.array_equal(kept, np.sort(packed(groups)[keep_idx], order=("t_mcp", "detector")))
    assert tuple(whole.discards) == discards
    return kept, discards


class TestDeadTime:
    def _groups(self, times, detector=0):
        det = _detections([(detector, float(t), 20.0, 20.0) for t in times])
        return encode_groups(det, make_config().geometry)

    def test_single_detection_untouched(self):
        g = self._groups([5000.0])
        kept, discards = filter_dead_time(g, 10_000.0)
        assert kept.size == 1 and discards == (0, 0)

    def test_close_pair_both_dropped(self):
        g = self._groups([5000.0, 5001.0])  # 1 ps apart
        kept, discards = filter_dead_time(g, 10_000.0)
        assert kept.size == 0
        assert discards == (2, 0)

    def test_far_pair_both_kept(self):
        g = self._groups([5000.0, 25_000.0])  # 20 ns apart
        kept, discards = filter_dead_time(g, 10_000.0)
        assert kept.size == 2 and discards == (0, 0)

    def test_chain_collision_drops_all(self):
        g = self._groups([0.0, 9000.0, 18_000.0])
        kept, discards = filter_dead_time(g, 10_000.0)
        assert kept.size == 0 and discards == (3, 0)

    def test_detectors_independent(self):
        a = self._groups([5000.0, 5001.0], detector=0)
        b = self._groups([5000.0], detector=1)
        merged = Columns({name: np.concatenate([a[name], b[name]]) for name in a})
        merged = merged[np.argsort(merged["t_mcp"], kind="stable")]
        kept, discards = filter_dead_time(merged, 10_000.0)
        assert kept.size == 1
        assert kept["detector"][0] == 1
        assert discards == (2, 0)

    def test_same_tick_on_both_detectors_lists_detector_0_first(self):
        a = self._groups([5000.0, 30_000.0], detector=1)
        b = self._groups([5000.0, 30_000.0], detector=0)
        merged = Columns({name: np.concatenate([a[name], b[name]]) for name in a})
        merged = merged[np.argsort(merged["t_mcp"], kind="stable")]  # detector 1 first on each tick
        for chunk in (1, 4):
            kept, discards = filter_dead_time(merged, 10_000.0, chunk=chunk)
        assert kept["detector"].tolist() == [0, 1, 0, 1] and discards == (0, 0)

    def test_trigger_one_dead_time_below_the_floor_waits(self):
        # a later trigger may still land on the floor tick itself, exactly
        # dead_ticks after this one, so the detection is not yet decidable
        g = self._groups([0.0, 10_000.0])
        f = DeadTimeFilter(10_000.0)
        assert f.feed(g[:1], future_floor_ticks=10_000).size == 0
        assert f.feed(g[1:], None).size == 0
        assert f.discards == [2, 0]

    def test_dead_time_boundary_in_ticks(self):
        # tick 4 ps: 10 ns is 2500 ticks, and a 2500-tick gap still collides
        geometry = make_config(geometry={"tick_ps": 4, "signal_speed_mm_per_ps": 1e-3, "size_mm": 40.0}).geometry
        det = _detections([(0, 0.0, 20.0, 20.0), (0, 10_000.0, 20.0, 20.0), (0, 20_004.0, 20.0, 20.0)])
        kept, discards = filter_dead_time(encode_groups(det, geometry), 10_000.0, tick_ps=4)
        assert kept.size == 1 and discards == (2, 0)

    def test_trigger_beyond_the_sort_key_range_rejected(self):
        # the sort key t_mcp * 2 + detector must not overflow int64
        g = self._groups([5000.0, 30_000.0])
        g["t_mcp"][1] = 2**62
        f = DeadTimeFilter(10_000.0)
        with pytest.raises(ValueError, match="2\\*\\*62"):
            f.feed(g, None)
        assert f.feed(g[:1], None).size == 1  # nothing was kept from the rejected call

    def test_streaming_filter_matches_oracle(self):
        rng = np.random.default_rng(5)
        det = _detections([(int(rng.integers(0, 2)), float(t), 20.0, 20.0)
                           for t in np.sort(rng.uniform(0, 5e6, 400))])
        groups = encode_groups(det, make_config().geometry)
        for chunk in (1, 37, 400):
            kept, discards = filter_dead_time(groups, 10_000.0, chunk=chunk)
        assert 0 < kept.size < groups.size and discards[0] > 0 and discards[1] > 0


def test_full_detector_chain_reproducible():
    cfg = make_config(seed=17, duration_ps=3e7)
    pulses = range(pulse_count(cfg.simulation))

    def run():
        r = np.random.default_rng(17)
        em = generate_emissions(cfg.simulation, pulses, r, EmissionTally())
        det, _ = detect(em, cfg, r)
        return groups_to_pulses(encode_groups(det, cfg.geometry))

    assert np.array_equal(run(), run())
