from __future__ import annotations

import bisect
import dataclasses
import io
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize

from dldspec import correlation
from dldspec.config import GAUSSIAN_FWHM_OVER_SIGMA, ConfigError
from dldspec.correlation import (
    Axis,
    AxisMismatchError,
    DegeneratePeakError,
    FitError,
    Histogram1D,
    Histogram2D,
    build_jsi,
    fit_fwhm,
    g2_histogram,
    select_coincidences,
    signal_region_mask,
    spectrum_1d,
    subtract_accidental,
)
from dldspec.pipeline import analyze_events, analyze_file, decode_file, simulate_to_file

from _oracles import brute_coincidences, brute_delay_histogram
from conftest import delay_histogram, make_config


def corr_cfg(**kw):
    return make_config(correlation=kw).correlation


def g2_of(t1, t2, cfg):
    """The delay histogram of two event-time streams on the g2 axis of `cfg`."""
    return delay_histogram(t1, t2, -cfg.g2_range_ps, cfg.g2_range_ps, cfg.g2_bin_width_ps)


class TestAxis:
    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError, match="at least one bin"):
            Axis.spanning(1.0, 1.0, 0.5)
        with pytest.raises(ValueError, match="at least one bin"):
            Axis(0.0, 1.0, 0)

    def test_axis_cannot_be_assigned_to(self):
        axis = Axis.spanning(0.0, 10.0, 1.0)
        for name, value in (("lo", 1.0), ("width", 2.0), ("nbins", 3)):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(axis, name, value)
        assert axis == Axis(0.0, 1.0, 10)

    def test_axes_are_equal_when_their_bins_are(self):
        # hi only sets nbins: 10.0 and 9.5 both give ten unit bins
        assert Axis.spanning(0.0, 10.0, 1.0) == Axis.spanning(0.0, 9.5, 1.0) == Axis(0.0, 1.0, 10)
        assert Axis.spanning(0.0, 10.0, 1.0) != Axis.spanning(0.0, 10.5, 1.0)
        assert Axis.spanning(0.0, 10.0, 1.0) != Axis.spanning(0.5, 10.5, 1.0)
        assert Axis.spanning(0.0, 10.0, 1.0) != Axis.spanning(0.0, 10.0, 2.0)


def fill_peak_bytes(hist, *values):
    """The traced peak of `hist.fill(*values)`, in bytes."""
    tracemalloc.start()
    try:
        hist.fill(*values)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestHistogram1D:
    def test_bin_count_is_ceil(self):
        h = Histogram1D(Axis.spanning(-60000.0, 60000.0, 88.0))
        assert h.axis.nbins == h.counts.size == math.ceil(120000 / 88)

    def test_fill_half_open_domain(self):
        h = Histogram1D(Axis.spanning(0.0, 10.0, 1.0))
        h.fill(np.array([0.0, 9.999, 10.0, -0.001]))
        assert h.counts.sum() == 2
        assert h.counts[0] == 1 and h.counts[9] == 1

    def test_value_on_upper_edge_is_out_where_its_index_rounds_below_nbins(self):
        # (17 - -17) / 0.34 rounds to 99.999..., so bin 99 is where 17.0 would land
        h = Histogram1D(Axis.spanning(-17.0, 17.0, 0.34))
        h.fill(np.array([17.0, 16.9]))
        assert h.counts.sum() == 1 and h.counts[99] == 1
        assert h.axis.nbins == 100 and h.axis.upper == 17.0

    def test_2d_value_on_upper_edge_is_out_on_either_axis(self):
        axis = Axis.spanning(-17.0, 17.0, 0.34)
        for xs, ys in (([17.0], [0.0]), ([0.0], [17.0])):
            h = Histogram2D(axis, axis)
            h.fill(np.array(xs), np.array(ys))
            assert h.counts.sum() == 0
        h.fill(np.array([16.9]), np.array([16.9]))
        assert h.counts[99, 99] == 1

    def test_merge_elementwise(self):
        a = Histogram1D(Axis.spanning(0.0, 10.0, 1.0))
        b = Histogram1D(Axis.spanning(0.0, 10.0, 1.0))
        a.fill(np.array([1.5, 2.5]))
        b.fill(np.array([2.5]))
        m = a.merge(b)
        assert m.counts[1] == 1 and m.counts[2] == 2

    def test_merge_accepts_separately_built_axes_with_equal_bins(self):
        a = Histogram1D(Axis.spanning(0.0, 10.0, 1.0))
        b = Histogram1D(Axis.spanning(0.0, 9.5, 1.0))
        a.fill(np.array([1.5]))
        b.fill(np.array([1.5, 8.5]))
        m = a.merge(b)
        assert m.axis == a.axis == b.axis
        assert m.counts[1] == 2 and m.counts[8] == 1

    def test_merge_rejects_axis_mismatch(self):
        # a different width, bin count or origin each make the bins differ
        for other in (Axis(0.0, 2.0, 10), Axis(0.0, 1.0, 11), Axis(0.5, 1.0, 10)):
            with pytest.raises(AxisMismatchError):
                Histogram1D(Axis(0.0, 1.0, 10)).merge(Histogram1D(other))

    def test_histograms_never_share_counts(self):
        a = Histogram1D(Axis(0.0, 1.0, 10))
        b = Histogram1D(a.axis, a.counts)
        m = a.merge(b)
        a.fill(np.array([0.5]))
        assert b.counts.sum() == 0 and m.counts.sum() == 0

    def test_block_fill_equals_one_bincount(self, monkeypatch):
        r = np.random.default_rng(5)
        values = r.normal(0.0, 4.0, 1000)
        values[:3] = (10.0, -10.0, 9.999)  # on both domain edges
        axis = Axis.spanning(-10.0, 10.0, 0.5)
        idx, ok = axis.index(values)
        want = np.bincount(idx[ok].astype(np.int64), minlength=axis.nbins)
        for block in (1, 7, 999, 1000, 4096):
            monkeypatch.setattr(correlation, "_FILL_BLOCK", block)
            h = Histogram1D(axis)
            h.fill(values)
            assert np.array_equal(h.counts, want), block

    def test_fill_memory_is_bounded_by_the_block(self):
        """The traced peak of a fill is a block's temporaries, whatever the
        number of values: 16 blocks peak as 1 does."""
        axis = Axis.spanning(-60000.0, 60000.0, 88.0)

        def peak_bytes(blocks):
            values = np.random.default_rng(blocks).integers(-70000, 70000, blocks * correlation._FILL_BLOCK)
            return fill_peak_bytes(Histogram1D(axis), values)

        one, sixteen = peak_bytes(1), peak_bytes(16)
        assert abs(sixteen - one) <= 0.1 * one, (one, sixteen)

    def test_2d_block_fill_equals_one_bincount(self, monkeypatch):
        r = np.random.default_rng(6)
        xs, ys = r.normal(0.0, 4.0, (2, 1000))
        xs[:3], ys[:3] = (10.0, 0.0, 9.999), (0.0, -10.0, -10.0)  # on the domain edges
        x, y = Axis.spanning(-10.0, 10.0, 0.5), Axis.spanning(-10.0, 10.0, 0.25)
        want = np.histogram2d(xs, ys, bins=(x.edges(), y.edges()))[0]
        want[-1, :] -= np.histogram(ys[xs == x.upper], bins=y.edges())[0]  # histogram2d closes the last bin
        for block in (1, 7, 999, 1000, 4096):
            monkeypatch.setattr(correlation, "_FILL_BLOCK", block)
            h = Histogram2D(x, y)
            h.fill(xs, ys)
            assert np.array_equal(h.counts, want), block

    def test_2d_fill_memory_is_bounded_by_the_block(self):
        """A joint spectrum's fill is block-bounded too: 16 blocks of value
        pairs trace within 10% of one block's peak."""
        axis = Axis.spanning(388.475, 390.025, 0.05)

        def peak_bytes(blocks):
            xs, ys = np.random.default_rng(blocks).uniform(388.0, 390.5, (2, blocks * correlation._FILL_BLOCK))
            return fill_peak_bytes(Histogram2D(axis, axis), xs, ys)

        one, sixteen = peak_bytes(1), peak_bytes(16)
        assert abs(sixteen - one) <= 0.1 * one, (one, sixteen)

    def test_fill_takes_one_value_array_of_one_shape_per_axis(self):
        axis = Axis.spanning(0.0, 10.0, 1.0)
        for h, values in ((Histogram1D(axis), ([1.0], [1.0])), (Histogram2D(axis, axis), ([1.0],)),
                          (Histogram2D(axis, axis), ([1.0], [1.0, 2.0]))):
            with pytest.raises(ValueError, match="value arrays of one shape"):
                h.fill(*values)
            assert h.counts.sum() == 0

    def test_csv_lines(self, tmp_path):
        h = Histogram1D(Axis.spanning(0.0, 2.0, 1.0))
        h.fill(np.array([0.5]))
        p = tmp_path / "h.csv"
        with open(p, "w") as fh:
            h.to_csv(fh)
        assert p.read_text().splitlines() == [
            "bin_lo,bin_hi,count",
            "0.000000,1.000000,1",
            "1.000000,2.000000,0",
        ]


class TestDelayHistogram:
    def test_shifted_clone_fills_single_bin(self):
        t = np.arange(50, dtype=np.int64) * 100_000
        cfg = corr_cfg()
        hist = g2_of(t, t + 5000, cfg)
        nonzero = np.nonzero(hist.counts)[0]
        assert nonzero.size == 1
        lo_edge = hist.axis.edges()[nonzero[0]]
        assert lo_edge <= 5000 < lo_edge + cfg.g2_bin_width_ps

    def test_hand_enumerated_four_event_case(self):
        # {0, 10} x {3, 12} ns -> delays 3, 12, -7, 2 ns, one count each
        t1 = np.array([0, 10_000], dtype=np.int64)
        t2 = np.array([3_000, 12_000], dtype=np.int64)
        hist = delay_histogram(t1, t2, -15_000.0, 15_000.0, 1_000.0)
        expected = brute_delay_histogram(t1, t2, -15_000.0, 15_000.0, 1_000.0)
        assert np.array_equal(hist.counts, expected)
        assert hist.counts.sum() == 4
        for delay in (3_000, 12_000, -7_000, 2_000):
            assert hist.counts[int((delay + 15_000) // 1000)] == 1

    def test_g2_histogram_bins_the_given_delays_on_the_half_open_axis(self):
        cfg = corr_cfg(g2_range_ps=17.0, g2_bin_width_ps=0.34)
        delays = np.array([-18, -17, 16, 17], dtype=np.int64)
        hist = g2_histogram(delays, cfg)
        assert np.array_equal(hist.counts, brute_delay_histogram([0], delays, -17.0, 17.0, 0.34))
        assert hist.counts.sum() == 2  # -17 and 16; 17 is the excluded upper edge

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_all_pairs_oracle(self, seed):
        r = np.random.default_rng(seed)
        n1, n2 = int(r.integers(0, 400)), int(r.integers(0, 400))
        t1 = np.sort(r.integers(0, 200_000, n1)).astype(np.int64)
        t2 = np.sort(r.integers(0, 200_000, n2)).astype(np.int64)
        lo = float(r.integers(-50_000, 0))
        width = float(r.integers(1, 5_000))
        hi = lo + width * float(r.integers(1, 60))
        hist = delay_histogram(t1, t2, lo, hi, width)
        assert np.array_equal(hist.counts, brute_delay_histogram(t1, t2, lo, hi, width))

    def test_chunk_merge_equals_single_pass(self):
        r = np.random.default_rng(12)
        t1 = np.sort(r.integers(0, 1_000_000, 500)).astype(np.int64)
        t2 = np.sort(r.integers(0, 1_000_000, 500)).astype(np.int64)
        cfg = corr_cfg()
        whole = g2_of(t1, t2, cfg)
        parts = None
        for lo in range(0, 500, 117):
            part = g2_of(t1[lo : lo + 117], t2, cfg)
            parts = part if parts is None else parts.merge(part)
        assert np.array_equal(parts.counts, whole.counts)


class TestSelectCoincidences:
    def test_disjoint_ranges_empty(self):
        i, j = select_coincidences(np.array([0, 10], dtype=np.int64),
                                   np.array([10_000_000], dtype=np.int64), (-500.0, 500.0))
        assert i.size == 0 and j.size == 0

    def test_hand_case_window(self):
        t1 = np.array([0, 10_000], dtype=np.int64)
        t2 = np.array([3_000, 12_000], dtype=np.int64)
        i, j = select_coincidences(t1, t2, (-3_500.0, 3_500.0))
        got = sorted(zip(i.tolist(), j.tolist()))
        assert got == [(0, 0), (1, 1)]  # delays +3 ns and +2 ns survive

    def test_event_may_appear_in_multiple_pairs(self):
        t1 = np.array([0], dtype=np.int64)
        t2 = np.array([-100, 0, 100], dtype=np.int64)
        i, j = select_coincidences(t1, t2, (-500.0, 500.0))
        assert i.size == 3

    def test_sorted_times_far_apart_are_accepted(self):
        # 2**62 - -2**62 is 2**63, which wraps to a negative int64 difference
        i, j = select_coincidences(np.array([-2**62, 2**62]), np.array([0]), (-10.0, 10.0))
        assert i.size == 0 and j.size == 0

    @pytest.mark.parametrize("t1, t2, window, pairs", [
        # t1 + hi and t1 + lo would wrap past the int64 maximum / minimum
        ([2**63 - 100], [2**63 - 50], (0.0, 100.0), 1),
        ([-2**63 + 10], [-2**63 + 5], (-100.0, 0.0), 1),
        # a search key saturated at the bound must not take in a time on it
        ([2**63 - 100], [2**63 - 1], (200.0, 300.0), 0),
        ([-2**63 + 100], [-2**63], (-300.0, -200.0), 0),
        # windows wider than int64 still hold every delay they cover
        ([-2**63, 0, 2**63 - 1], [-2**63, 0, 2**63 - 1], (-2.0**64, 2.0**64), 9),
        ([2**63 - 1], [-2**63], (-1e30, -1.8e19), 1),
    ])
    def test_times_near_the_int64_limits(self, t1, t2, window, pairs):
        i, j = select_coincidences(np.array(t1), np.array(t2), window)
        # delays in Python integers, which do not wrap
        want = [(a, b) for a, x in enumerate(t1) for b, y in enumerate(t2) if window[0] <= y - x <= window[1]]
        assert len(want) == pairs
        assert sorted(zip(i.tolist(), j.tolist())) == want

    @pytest.mark.parametrize("t1, t2", [([0, 5, 3], [0]), ([0], [2, 1])])
    def test_unsorted_times_are_rejected(self, t1, t2):
        with pytest.raises(ValueError, match="must be sorted"):
            select_coincidences(np.array(t1), np.array(t2), (-10.0, 10.0))

    @pytest.mark.parametrize("t1, t2, window, message", [
        # a cast would pair 1.9 with 1.2 at delay 0
        (np.array([0.4, 1.9]), np.array([1.2]), (0.0, 0.0), "integers"),
        (np.array([0, 1]), np.array([1.0]), (0.0, 0.0), "integers"),
        # a cast would wrap 2**63 + 5 to a negative time
        (np.array([2**63 + 5], dtype=np.uint64), np.array([3]), (0.0, 2.0**63), r"below 2\*\*63"),
        (np.array([0]), np.array([2**63], dtype=np.uint64), (0.0, 2.0**64), r"below 2\*\*63"),
    ], ids=["float-first", "float-second", "uint64-first", "uint64-second"])
    def test_times_that_int64_cannot_hold_exactly_are_rejected(self, t1, t2, window, message):
        with pytest.raises(ValueError, match=message):
            select_coincidences(t1, t2, window)

    @pytest.mark.parametrize("dtype", [np.int8, np.int32, np.uint8, np.uint32, np.uint64])
    def test_integer_times_that_fit_convert_exactly(self, dtype):
        top = min(int(np.iinfo(dtype).max), 2**63 - 1)
        t1 = np.array([0, top - 1], dtype=dtype)
        t2 = np.array([1, top], dtype=dtype)
        i, j = select_coincidences(t1, t2, (1.0, 1.0))
        assert sorted(zip(i.tolist(), j.tolist())) == [(0, 0), (1, 1)]

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_brute_force(self, seed):
        r = np.random.default_rng(100 + seed)
        n1, n2 = int(r.integers(0, 120)), int(r.integers(0, 120))
        t1 = np.sort(r.integers(0, 50_000, n1)).astype(np.int64)
        t2 = np.sort(r.integers(0, 50_000, n2)).astype(np.int64)
        lo = float(r.integers(-10_000, 0))
        hi = lo + float(r.integers(1, 20_000))
        i, j = select_coincidences(t1, t2, (lo, hi))
        assert sorted(zip(i.tolist(), j.tolist())) == brute_coincidences(t1, t2, (lo, hi))


def _same(a, b) -> bool:
    """Equal values of equal types, field by field and element by element,
    arrays of equal dtype; NaN equals NaN."""
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and all(_same(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a))
    if isinstance(a, (tuple, list)):
        return type(a) is type(b) and len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, (np.ndarray, float)):
        return np.result_type(a) == np.result_type(b) and np.array_equal(a, b, equal_nan=True)
    return a == b


PAIR_BLOCKS = [1, 7, 1 << 13, correlation._PAIR_BLOCK]
PAIR_WINDOWS = pytest.mark.parametrize("window", [(-2_500.0, 2_500.0), (-400.0, 3_000.5), (0.2, 0.8)],
                                       ids=["symmetric", "asymmetric", "empty"])


class TestWindowPairs:
    @staticmethod
    def _brute_force_case(block, window, monkeypatch):
        """Blocks of `block` events over 152 and 150 times, with every pair,
        against the all-pairs oracle."""
        monkeypatch.setattr(correlation, "_PAIR_BLOCK", block)
        r = np.random.default_rng(block)
        t1 = np.sort(np.concatenate([r.integers(0, 60_000, 150), [-1_000_000, 5_000_000]]))
        t2 = np.sort(r.integers(0, 60_000, 150))  # the two far t1 events have no partner
        blocks = list(correlation.iter_window_pairs(t1, t2, *window))
        got = [(int(a), int(b)) for i, j in blocks for a, b in zip(i, j)]
        assert got == brute_coincidences(t1, t2, window)
        assert all(i.size and i[-1] - i[0] < block for i, _ in blocks)
        assert (len(got) == 0) == (window == (0.2, 0.8))
        return blocks

    @pytest.mark.parametrize("block", PAIR_BLOCKS)
    @PAIR_WINDOWS
    def test_blocks_equal_brute_force(self, block, window, monkeypatch):
        self._brute_force_case(block, window, monkeypatch)

    @pytest.mark.parametrize("window", [(-2_500.0, 2_500.0), (0.2, 0.8)], ids=["pairs", "empty"])
    def test_ordinary_inputs_give_int32_pairs(self, window):
        t = np.arange(0, 60_000, 1_000, dtype=np.int64)
        blocks = list(correlation.iter_window_pairs(t, t + 300, *window))
        i, j = select_coincidences(t, t + 300, window)
        assert all(a.dtype == b.dtype == np.int32 for a, b in [*blocks, (i, j)])
        assert (i.size == 0) == (window == (0.2, 0.8))

    @pytest.mark.parametrize("block", PAIR_BLOCKS)
    @PAIR_WINDOWS
    def test_int64_pairs_equal_int32_pairs(self, block, window, monkeypatch):
        """With the int32 bound below their lengths, the brute-force cases
        give int64 pairs: the same pairs, in the same blocks, as int32."""
        narrow = self._brute_force_case(block, window, monkeypatch)
        monkeypatch.setattr(correlation, "_INT32_EVENTS", 100)
        wide = self._brute_force_case(block, window, monkeypatch)
        assert all(a.dtype == b.dtype == np.int64 for a, b in wide)
        assert len(wide) == len(narrow)
        for (i64, j64), (i32, j32) in zip(wide, narrow):
            assert np.array_equal(i64, i32) and np.array_equal(j64, j32)

    def test_analysis_of_int64_pairs_equals_int32(self, tmp_path, monkeypatch):
        """A default-seed file analyzed from int64 pairs gives the identical
        result, every figure of it, as from int32 pairs."""
        cfg = make_config(seed=1)
        simulate_to_file(cfg, tmp_path / "run.dlde")
        events = decode_file(tmp_path / "run.dlde", cfg.geometry, cfg.calibration).events
        narrow = analyze_events(events, cfg.correlation)
        monkeypatch.setattr(correlation, "_INT32_EVENTS", 1)
        t0, t1 = (ev["t_ps"] for ev in events)
        assert select_coincidences(t0, t1, cfg.correlation.coincidence_window_ps)[0].dtype == np.int64
        wide = analyze_events(events, cfg.correlation)
        assert narrow.coincidence_count > 0
        assert _same(wide, narrow)

    @pytest.mark.parametrize("k", [-2**64, -2**63, -1, 0, 1, 2**63 - 1, 2**64])
    def test_merged_count_equals_a_binary_search(self, k):
        """The merged partner count against `np.searchsorted` under the same
        side rule, and both against the exact count in Python integers."""
        lo, hi = -2**63, 2**63 - 1
        r = np.random.default_rng(k % 1009)
        bounds = np.array([lo, lo, lo + 1, lo + 2, -1, 0, 1, hi - 2, hi - 1, hi, hi])
        cases = {
            "many equal times": (np.sort(r.integers(-20, 20, 300)), np.sort(r.integers(-20, 20, 200))),
            "empty reach": (np.empty(0, np.int64), np.sort(r.integers(-20, 20, 50))),
            "keys past both ends": (np.sort(r.integers(-100, 100, 40)), np.array([-10**6, -10**6, 0, 10**6, 10**6])),
            "times on the int64 bounds": (bounds, bounds),
        }
        for name, (t2, t) in cases.items():
            t2, t = t2.astype(np.int64), t.astype(np.int64)
            if k > 0:  # t2 < t + k exactly when t2 <= t + k - 1
                want = np.searchsorted(t2, correlation._saturating_add(t, k - 1), side="right")
            else:
                want = np.searchsorted(t2, correlation._saturating_add(t, k), side="left")
            values = t2.tolist()
            exact = [bisect.bisect_left(values, x + k) for x in t.tolist()]
            assert want.tolist() == exact, name
            assert correlation._merge_count_below(t2, t, k).tolist() == exact, name
            assert correlation._count_below(t2, t, k).tolist() == exact, name

    def test_memory_is_bounded_by_the_block(self, monkeypatch):
        """The traced peak of consuming every block is one block's worth,
        however many blocks of first-detector events there are."""
        monkeypatch.setattr(correlation, "_PAIR_BLOCK", 1 << 10)

        def peak_bytes(blocks):
            t = np.arange(blocks << 10, dtype=np.int64) * 1_000
            t2 = t + 300
            tracemalloc.start()
            try:
                for _ in correlation.iter_window_pairs(t, t2, -2_500.0, 2_500.0):
                    pass
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        eight, thirty_two = peak_bytes(8), peak_bytes(32)
        assert abs(thirty_two - eight) <= 0.1 * eight, (eight, thirty_two)


class TestSpectrum:
    def test_empty_events_zero_histogram(self):
        h = spectrum_1d(np.empty(0), corr_cfg())
        assert h.counts.sum() == 0

    def test_single_event_single_bin(self):
        cfg = corr_cfg()
        h = spectrum_1d(np.array([389.0]), cfg)
        assert h.counts.sum() == 1
        idx = int((389.0 - cfg.spectrum_lo_nm) / cfg.spectrum_bin_nm)
        assert h.counts[idx] == 1


class TestJsi:
    def test_empty_pairs_zero_matrix(self):
        h = build_jsi(np.empty(0), np.empty(0), corr_cfg())
        assert h.counts.sum() == 0

    def test_single_cell_fill(self):
        cfg = corr_cfg()
        h = build_jsi(np.full(7, 388.8), np.full(7, 389.8), cfg)
        assert h.counts.sum() == 7
        assert h.counts.max() == 7

    def test_axis_swap_transposes(self):
        r = np.random.default_rng(2)
        l1 = r.uniform(388.5, 390.0, 500)
        l2 = r.uniform(388.5, 390.0, 500)
        cfg = corr_cfg()
        a = build_jsi(l1, l2, cfg)
        b = build_jsi(l2, l1, cfg)
        assert np.array_equal(a.counts, b.counts.T)

    def test_filling_one_jsi_leaves_every_other_untouched(self):
        cfg = corr_cfg()
        axis = Axis.spanning(cfg.jsi_lo_nm, cfg.jsi_hi_nm, cfg.jsi_bin_nm)
        a = build_jsi(np.full(3, 388.8), np.full(3, 389.8), cfg)
        b = build_jsi(np.full(2, 389.8), np.full(2, 388.8), cfg)
        others = [b, a.merge(b), Histogram2D(a.x, a.y, a.counts)]
        before = [h.counts.copy() for h in others]
        a.fill(np.full(4, 389.2), np.full(4, 389.2))
        assert a.counts.sum() == 7
        for h, counts in zip(others, before):
            assert np.array_equal(h.counts, counts)
            assert h.x == h.y == a.x == a.y == axis

    def test_csv_triplets_match_rowwise_format(self):
        # edges that are not exact in binary, negative edges, negative counts
        counts = np.random.default_rng(5).integers(-3, 4, (7, 9))
        h = Histogram2D(Axis(387.5, 0.1, 7), Axis(-1.3, 0.3, 9), counts)
        sink = io.StringIO()
        h.to_csv(sink)
        xs, ys = h.x.edges(), h.y.edges()
        rows = [f"{xs[i]:.6f},{ys[j]:.6f},{counts[i, j]}\n" for i, j in zip(*np.nonzero(counts))]
        assert sink.getvalue() == "x_bin,y_bin,count\n" + "".join(rows)


class TestSubtractAccidental:
    def _hist_pair(self, cfg, signal, background):
        jsi = build_jsi(np.empty(0), np.empty(0), cfg)
        acc = build_jsi(np.empty(0), np.empty(0), cfg)
        mask = signal_region_mask(jsi, cfg.signal_regions_nm)
        si, sj = np.argwhere(mask)[0]
        bi, bj = np.argwhere(~mask)[0]
        jsi.counts[si, sj] = signal
        jsi.counts[bi, bj] = background
        return jsi, acc

    def test_reported_contrast_arithmetic_raw(self):
        # peak 289 over max background 27 gives a contrast of 10.7
        cfg = corr_cfg()
        jsi, acc = self._hist_pair(cfg, 289, 27)
        rep = subtract_accidental(jsi, acc, cfg.signal_regions_nm)
        assert rep.car_raw == pytest.approx(289 / 27)
        assert round(rep.car_raw, 1) == 10.7

    def test_reported_contrast_arithmetic_subtracted(self):
        # peak 259 over max background 1 gives a contrast of exactly 259
        cfg = corr_cfg()
        jsi, acc = self._hist_pair(cfg, 259, 1)
        rep = subtract_accidental(jsi, acc, cfg.signal_regions_nm)
        assert rep.car_subtracted == 259.0

    def test_identical_inputs_flagged_undefined(self):
        cfg = corr_cfg()
        jsi, _ = self._hist_pair(cfg, 100, 10)
        rep = subtract_accidental(jsi, jsi, cfg.signal_regions_nm)
        assert np.all(rep.subtracted.counts == 0)
        assert not rep.car_subtracted_defined
        assert math.isnan(rep.car_subtracted)

    def test_background_free_signal_is_infinite(self):
        cfg = corr_cfg()
        jsi, acc = self._hist_pair(cfg, 100, 0)
        rep = subtract_accidental(jsi, acc, cfg.signal_regions_nm)
        assert not rep.car_subtracted_defined
        assert math.isinf(rep.car_subtracted)

    def test_negative_cells_preserved(self):
        cfg = corr_cfg()
        jsi, acc = self._hist_pair(cfg, 10, 0)
        acc.counts[0, 0] = 5
        rep = subtract_accidental(jsi, acc, cfg.signal_regions_nm)
        assert rep.subtracted.counts[0, 0] == -5

    def test_axis_mismatch_rejected(self):
        cfg = corr_cfg()
        other = corr_cfg(jsi_bin_nm=0.1, jsi_lo_nm=388.45, jsi_hi_nm=390.05)
        with pytest.raises(AxisMismatchError):
            subtract_accidental(
                build_jsi(np.empty(0), np.empty(0), cfg),
                build_jsi(np.empty(0), np.empty(0), other),
                cfg.signal_regions_nm,
            )

    @pytest.mark.parametrize("shifted", ["x", "y"])
    def test_mismatch_on_one_axis_rejected(self, shifted):
        # the other histogram differs on one axis only, by half a bin, with
        # the same bin count: counts of equal shape on different bins
        cfg = corr_cfg()
        jsi = build_jsi(np.full(5, 388.8), np.full(5, 389.8), cfg)
        half = cfg.jsi_bin_nm / 2
        axes = {"x": jsi.x, "y": jsi.y}
        axes[shifted] = Axis.spanning(cfg.jsi_lo_nm + half, cfg.jsi_hi_nm + half, cfg.jsi_bin_nm)
        other = Histogram2D(axes["x"], axes["y"])
        assert other.counts.shape == jsi.counts.shape
        assert jsi.merge(Histogram2D(jsi.x, jsi.y)).counts.sum() == 5
        with pytest.raises(AxisMismatchError):
            jsi.merge(other)
        with pytest.raises(AxisMismatchError):
            subtract_accidental(jsi, other, cfg.signal_regions_nm)

    def test_peak_coordinates_reported(self):
        cfg = corr_cfg()
        jsi = build_jsi(np.full(50, 388.8), np.full(50, 389.8), cfg)
        jsi = jsi.merge(build_jsi(np.full(30, 389.8), np.full(30, 388.8), cfg))
        acc = build_jsi(np.empty(0), np.empty(0), cfg)
        rep = subtract_accidental(jsi, acc, cfg.signal_regions_nm)
        (x1, y1), (x2, y2) = rep.peaks_nm
        assert abs(x1 - 388.8) <= cfg.jsi_bin_nm / 2 and abs(y1 - 389.8) <= cfg.jsi_bin_nm / 2
        assert abs(x2 - 389.8) <= cfg.jsi_bin_nm / 2 and abs(y2 - 388.8) <= cfg.jsi_bin_nm / 2

    @pytest.mark.parametrize(
        "rect", [(400.0, 401.0, 400.0, 401.0), (388.51, 388.54, 389.55, 390.05)], ids=["off-axis", "between-centres"]
    )
    def test_rectangle_without_a_cell_centre_rejected(self, rect):
        # the cell centres lie at 388.5, 388.55, ...: neither rectangle holds one,
        # and its peak would otherwise be reported at the axis's first cell
        cfg = corr_cfg()
        jsi = build_jsi(np.full(50, 389.8), np.full(50, 388.8), cfg)
        acc = build_jsi(np.empty(0), np.empty(0), cfg)
        with pytest.raises(ValueError, match=r"signal_regions_nm\[1\] = \[" + str(rect[0])):
            subtract_accidental(jsi, acc, (cfg.signal_regions_nm[0], rect))

    @pytest.mark.parametrize(
        "rect", [(400.0, 401.0, 400.0, 401.0), (388.51, 388.54, 389.55, 390.05)], ids=["off-axis", "between-centres"]
    )
    def test_config_rectangle_without_a_cell_centre_is_a_config_error(self, rect):
        # the joint-spectrum axis is the config's alone, so the config is refused when built
        with pytest.raises(ConfigError, match=r"^correlation\.signal_regions_nm\[1\]: \[" + str(rect[0])):
            corr_cfg(signal_regions_nm=[list(corr_cfg().signal_regions_nm[0]), list(rect)])


class TestFitFwhm:
    def test_noiseless_gaussian_recovered(self):
        # sigma = 158.4 ps sampled exactly at bin centers: FWHM = 373 +- 1
        sigma = 158.4
        h = Histogram1D(Axis.spanning(-60060.0, 60060.0, 88.0))
        c = h.axis.centers()
        h.counts = np.rint(1e4 * np.exp(-0.5 * (c / sigma) ** 2)).astype(np.int64)
        fit = fit_fwhm(h, 0.0)
        assert fit.fwhm == pytest.approx(2.3548 * sigma, abs=1.0)
        assert fit.fwhm == pytest.approx(373.0, abs=1.0)

    def test_single_bin_spike_degenerate(self):
        h = Histogram1D(Axis.spanning(-1000.0, 1000.0, 88.0))
        h.counts[h.axis.nbins // 2] = 500
        with pytest.raises(DegeneratePeakError):
            fit_fwhm(h, 0.0)

    def test_unestimable_covariance_fails(self):
        # a flat histogram leaves center and width unconstrained: the
        # Jacobian at the solution is rank-deficient
        h = Histogram1D(Axis.spanning(-1000.0, 1000.0, 88.0))
        h.counts[:] = 100
        with pytest.raises(FitError, match="rank-deficient"):
            fit_fwhm(h, 0.0)

    def test_no_convergence_fails(self, monkeypatch):
        monkeypatch.setattr(correlation, "_FIT_MAX_STEPS", 1)
        h = Histogram1D(Axis.spanning(-3000.0, 3000.0, 88.0))
        h.counts = np.rint(5000 * np.exp(-0.5 * (h.axis.centers() / 158.4) ** 2)).astype(np.int64)
        with pytest.raises(FitError, match="did not converge in 1 steps"):
            fit_fwhm(h, 0.0)

    def test_offset_absorbed(self):
        sigma = 158.4
        h = Histogram1D(Axis.spanning(-3000.0, 3000.0, 88.0))
        c = h.axis.centers()
        h.counts = np.rint(5000 * np.exp(-0.5 * (c / sigma) ** 2) + 250).astype(np.int64)
        fit = fit_fwhm(h, 0.0)
        assert fit.fwhm == pytest.approx(373.0, abs=2.0)
        assert fit.offset == pytest.approx(250.0, rel=0.05)

    def test_convolved_detector_pair_resolution(self, rng):
        # two 263 ps FWHM detectors in coincidence: expect 263 * sqrt(2)
        sigma1 = 263.0 / 2.3548
        taus = rng.normal(0.0, sigma1 * math.sqrt(2.0), 200_000)
        h = Histogram1D(Axis.spanning(-60060.0, 60060.0, 88.0))
        h.fill(taus)
        fit = fit_fwhm(h, 0.0)
        # binned sampling widens the apparent sigma by w^2/12
        widened = 2.3548 * math.sqrt((sigma1 * math.sqrt(2)) ** 2 + 88.0**2 / 12)
        assert fit.fwhm == pytest.approx(widened, abs=8.0)
        assert abs(fit.fwhm - 372.0) <= 15.0


def gaussian_plus_offset(x, amp, mu, sigma, off):
    return amp * np.exp(-0.5 * ((x - mu) / sigma) ** 2) + off


@pytest.mark.parametrize("overrides", [
    *(pytest.param({"seed": seed, "duration_ps": 2e8}, id=f"short-seed{seed}") for seed in range(1, 21)),
    pytest.param({"seed": 1}, id="default-seed1"),
    pytest.param({"seed": 7, "duration_ps": 1e9, "pair_rate_per_pulse": 0.5, "pump_scatter_rate_per_pulse": 0.5,
                  "qe": 0.4}, id="dense-seed7"),
])
def test_fit_is_at_least_as_good_as_curve_fit(tmp_path, overrides):
    """scipy's `curve_fit` referees the peak fit of a simulated run's g2:
    from the same start, on the same bins, the fit's residual sum of squares
    is at most curve_fit's, and the two FWHMs agree within 1e-4 relative."""
    cfg = make_config(**overrides)
    simulate_to_file(cfg, tmp_path / "run.dlde")
    _, analysis = analyze_file(tmp_path / "run.dlde", cfg)
    g2, fit = analysis.g2, analysis.fit
    centers = g2.axis.centers()
    m = np.abs(centers) <= correlation._FIT_HALFWIDTH_BINS * g2.axis.width * (1 + 1e-12)
    xs, ys = centers[m], g2.counts[m].astype(np.float64)
    p0 = (max(float(ys.max() - ys.min()), 1.0), float(xs[np.argmax(ys)]), 2.0 * g2.axis.width, float(ys.min()))
    ref, _ = optimize.curve_fit(gaussian_plus_offset, xs, ys, p0=p0, maxfev=20000)
    residual = [float(np.sum((gaussian_plus_offset(xs, *p) - ys) ** 2))
                for p in ((fit.amplitude, fit.center, fit.sigma, fit.offset), ref)]
    assert residual[0] <= residual[1]
    assert fit.fwhm == pytest.approx(GAUSSIAN_FWHM_OVER_SIGMA * abs(ref[2]), rel=1e-4)


@given(
    st.lists(st.integers(min_value=0, max_value=10_000), min_size=0, max_size=200),
    st.lists(st.integers(min_value=0, max_value=10_000), min_size=0, max_size=200),
)
@settings(max_examples=60, deadline=None)
def test_histogram_merge_property(vals_a, vals_b):
    """Chunked accumulation is exactly a merge of partial histograms."""
    axis = Axis.spanning(0.0, 10_000.0, 97.0)
    a, b, whole = Histogram1D(axis), Histogram1D(axis), Histogram1D(axis)
    a.fill(np.asarray(vals_a, dtype=np.float64))
    b.fill(np.asarray(vals_b, dtype=np.float64))
    whole.fill(np.asarray(vals_a + vals_b, dtype=np.float64))
    assert np.array_equal(a.merge(b).counts, whole.counts)
    assert np.array_equal(a.merge(b).counts, b.merge(a).counts)
