from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dldspec.correlation import (
    AxisMismatchError,
    DegeneratePeakError,
    FitError,
    Histogram1D,
    build_jsi,
    delay_histogram,
    fit_fwhm,
    g2_histogram,
    select_coincidences,
    signal_region_mask,
    spectrum_1d,
    subtract_accidental,
)

from _oracles import brute_coincidences, brute_delay_histogram
from conftest import make_config


def corr_cfg(**kw):
    return make_config(correlation=kw).correlation


class TestHistogram1D:
    def test_bin_count_is_ceil(self):
        h = Histogram1D(-60000.0, 60000.0, 88.0)
        assert h.nbins == math.ceil(120000 / 88)

    def test_fill_half_open_domain(self):
        h = Histogram1D(0.0, 10.0, 1.0)
        h.fill(np.array([0.0, 9.999, 10.0, -0.001]))
        assert h.counts.sum() == 2
        assert h.counts[0] == 1 and h.counts[9] == 1

    def test_merge_elementwise(self):
        a = Histogram1D(0.0, 10.0, 1.0)
        b = Histogram1D(0.0, 10.0, 1.0)
        a.fill(np.array([1.5, 2.5]))
        b.fill(np.array([2.5]))
        m = a.merge(b)
        assert m.counts[1] == 1 and m.counts[2] == 2

    def test_merge_rejects_axis_mismatch(self):
        with pytest.raises(AxisMismatchError):
            Histogram1D(0.0, 10.0, 1.0).merge(Histogram1D(0.0, 10.0, 2.0))

    def test_csv_lines(self, tmp_path):
        h = Histogram1D(0.0, 2.0, 1.0)
        h.fill(np.array([0.5]))
        p = tmp_path / "h.csv"
        h.to_csv(p)
        assert p.read_text().splitlines() == [
            "bin_lo,bin_hi,count",
            "0.000000,1.000000,1",
            "1.000000,2.000000,0",
        ]


class TestDelayHistogram:
    def test_shifted_clone_fills_single_bin(self):
        t = np.arange(50, dtype=np.int64) * 100_000
        cfg = corr_cfg()
        hist = g2_histogram(t, t + 5000, cfg)
        nonzero = np.nonzero(hist.counts)[0]
        assert nonzero.size == 1
        lo_edge = hist.bin_edges()[nonzero[0]]
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
        whole = g2_histogram(t1, t2, cfg)
        parts = None
        for lo in range(0, 500, 117):
            part = g2_histogram(t1[lo : lo + 117], t2, cfg)
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
        assert np.all(rep.subtracted == 0)
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
        assert rep.subtracted[0, 0] == -5

    def test_axis_mismatch_rejected(self):
        cfg = corr_cfg()
        other = corr_cfg(jsi_bin_nm=0.1, jsi_lo_nm=388.45, jsi_hi_nm=390.05)
        with pytest.raises(AxisMismatchError):
            subtract_accidental(
                build_jsi(np.empty(0), np.empty(0), cfg),
                build_jsi(np.empty(0), np.empty(0), other),
                cfg.signal_regions_nm,
            )

    def test_peak_coordinates_reported(self):
        cfg = corr_cfg()
        jsi = build_jsi(np.full(50, 388.8), np.full(50, 389.8), cfg)
        jsi = jsi.merge(build_jsi(np.full(30, 389.8), np.full(30, 388.8), cfg))
        acc = build_jsi(np.empty(0), np.empty(0), cfg)
        rep = subtract_accidental(jsi, acc, cfg.signal_regions_nm)
        (x1, y1), (x2, y2) = rep.peaks_nm
        assert abs(x1 - 388.8) <= cfg.jsi_bin_nm / 2 and abs(y1 - 389.8) <= cfg.jsi_bin_nm / 2
        assert abs(x2 - 389.8) <= cfg.jsi_bin_nm / 2 and abs(y2 - 388.8) <= cfg.jsi_bin_nm / 2


class TestFitFwhm:
    def test_noiseless_gaussian_recovered(self):
        # sigma = 158.4 ps sampled exactly at bin centers: FWHM = 373 +- 1
        sigma = 158.4
        h = Histogram1D(-60060.0, 60060.0, 88.0)
        c = h.bin_centers()
        h.counts = np.rint(1e4 * np.exp(-0.5 * (c / sigma) ** 2)).astype(np.int64)
        fit = fit_fwhm(h, 0.0)
        assert fit.fwhm == pytest.approx(2.3548 * sigma, abs=1.0)
        assert fit.fwhm == pytest.approx(373.0, abs=1.0)

    def test_single_bin_spike_degenerate(self):
        h = Histogram1D(-1000.0, 1000.0, 88.0)
        h.counts[h.nbins // 2] = 500
        with pytest.raises(DegeneratePeakError):
            fit_fwhm(h, 0.0)

    def test_unestimable_covariance_fails(self):
        # a flat histogram leaves center and width unconstrained: curve_fit
        # only warns that it cannot estimate the covariance
        h = Histogram1D(-1000.0, 1000.0, 88.0)
        h.counts[:] = 100
        with pytest.raises(FitError, match="Covariance"):
            fit_fwhm(h, 0.0)

    def test_offset_absorbed(self):
        sigma = 158.4
        h = Histogram1D(-3000.0, 3000.0, 88.0)
        c = h.bin_centers()
        h.counts = np.rint(5000 * np.exp(-0.5 * (c / sigma) ** 2) + 250).astype(np.int64)
        fit = fit_fwhm(h, 0.0)
        assert fit.fwhm == pytest.approx(373.0, abs=2.0)
        assert fit.offset == pytest.approx(250.0, rel=0.05)

    def test_convolved_detector_pair_resolution(self, rng):
        # two 263 ps FWHM detectors in coincidence: expect 263 * sqrt(2)
        sigma1 = 263.0 / 2.3548
        taus = rng.normal(0.0, sigma1 * math.sqrt(2.0), 200_000)
        h = Histogram1D(-60060.0, 60060.0, 88.0)
        h.fill(taus)
        fit = fit_fwhm(h, 0.0)
        # binned sampling widens the apparent sigma by w^2/12
        widened = 2.3548 * math.sqrt((sigma1 * math.sqrt(2)) ** 2 + 88.0**2 / 12)
        assert fit.fwhm == pytest.approx(widened, abs=8.0)
        assert abs(fit.fwhm - 372.0) <= 15.0


@given(
    st.lists(st.integers(min_value=0, max_value=10_000), min_size=0, max_size=200),
    st.lists(st.integers(min_value=0, max_value=10_000), min_size=0, max_size=200),
)
@settings(max_examples=60, deadline=None)
def test_histogram_merge_property(vals_a, vals_b):
    """Chunked accumulation is exactly a merge of partial histograms."""
    a = Histogram1D(0.0, 10_000.0, 97.0)
    b = Histogram1D(0.0, 10_000.0, 97.0)
    whole = Histogram1D(0.0, 10_000.0, 97.0)
    a.fill(np.asarray(vals_a, dtype=np.float64))
    b.fill(np.asarray(vals_b, dtype=np.float64))
    whole.fill(np.asarray(vals_a + vals_b, dtype=np.float64))
    assert np.array_equal(a.merge(b).counts, whole.counts)
    assert np.array_equal(a.merge(b).counts, b.merge(a).counts)
