"""Report text formatted once per distinct value, byte for byte against the
referees that format one heatmap cell, bar or CSV row at a time."""

from __future__ import annotations

import io

import numpy as np
import pytest

from dldspec.correlation import Axis, Histogram1D, Histogram2D, write_bin_rows
from dldspec.event_format import Columns
from dldspec.pipeline import analyze_events, analyze_file, simulate_to_file
from dldspec.render import svg_heatmap, svg_histogram

from _oracles import brute_bin_rows, brute_svg_heatmap, brute_svg_histogram
from conftest import make_config

BIG = 2**53


def bin_rows(axis, column, values):
    sink = io.StringIO()
    write_bin_rows(sink, axis, column, values)
    return sink.getvalue()


def counts_csv(hist):
    sink = io.StringIO()
    hist.to_csv(sink)
    return sink.getvalue()


def empty_side_windows_g2():
    """The g2 axis and normalized g2 of two pairs at delay 10 ps: every side
    window is empty, so the whole normalized curve is NaN."""
    def events(times):
        n = len(times)
        return Columns({"t_ps": np.array(times, dtype=np.int64), "x_mm": np.zeros(n), "y_mm": np.zeros(n),
                        "wavelength_nm": np.full(n, 389.0)})

    a = analyze_events((events([0, 10**6]), events([10, 10**6 + 10])), make_config().correlation)
    assert a.g2.counts.sum() == 2 and np.isnan(a.g2_normalized).all()
    return a.g2.axis, a.g2_normalized


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_report_text_matches_brute_at_default_seeds(tmp_path, seed):
    cfg = make_config(seed=seed)
    path = tmp_path / "run.dlde"
    simulate_to_file(cfg, path)
    _, a = analyze_file(path, cfg)
    rep = a.jsi_report
    for hist in (rep.jsi, rep.accidental, rep.subtracted):
        assert np.count_nonzero(hist.counts > 0) > 1
        assert svg_heatmap(hist, "jsi", "x", "y") == brute_svg_heatmap(hist, "jsi", "x", "y")
    axis = a.g2.axis
    bars = [(axis, a.g2.counts), (axis, a.g2_normalized), *((s.axis, s.counts) for s in a.spectra)]
    for ax, heights in bars:
        assert svg_histogram(ax, heights, "g2", "delay", "n") == brute_svg_histogram(ax, heights, "g2", "delay", "n")
    assert bin_rows(axis, "g2", a.g2_normalized) == brute_bin_rows(axis, "g2", a.g2_normalized)
    for hist in (a.g2, *a.spectra):
        assert counts_csv(hist) == brute_bin_rows(hist.axis, "count", hist.counts)


def test_heatmap_matches_brute_on_edge_counts():
    x3, y4 = Axis(388.0, 0.5, 3), Axis(389.0, 0.25, 4)
    cases = {
        "all-zero": (x3, y4, np.zeros((3, 4))),
        "all-negative": (x3, y4, -np.arange(1, 13).reshape(3, 4)),
        "1x1": (Axis(388.0, 0.5, 1), Axis(389.0, 0.5, 1), [[5]]),
        "near-2**53": (Axis(388.0, 0.5, 2), Axis(389.0, 0.5, 3), [[BIG - 1, 0, BIG], [1, BIG + 1, -3]]),
        "mixed-signs": (x3, y4, [[3, -1, 0, 7], [0, 2, 2, -5], [9, 0, 1, 3]]),
    }
    for name, (x, y, counts) in cases.items():
        hist = Histogram2D(x, y, counts)
        assert svg_heatmap(hist, name, "x", "y") == brute_svg_heatmap(hist, name, "x", "y"), name


def test_bar_chart_matches_brute_on_edge_heights():
    nan_axis, nan_normalized = empty_side_windows_g2()
    cases = {
        "1-bin": (Axis(-5.0, 10.0, 1), np.array([7])),
        "non-finite": (Axis(0.0, 2.0, 9), np.array([3.0, np.nan, np.inf, 1.0, -np.inf, 3.0, 0.0, -2.0, 5.0])),
        "near-2**53": (Axis(0.0, 1.0, 5), np.array([BIG - 1, BIG, BIG + 1, 1, 0])),
        "all-nan": (nan_axis, nan_normalized),
    }
    for name, (axis, heights) in cases.items():
        assert svg_histogram(axis, heights, name, "x") == brute_svg_histogram(axis, heights, name, "x"), name


def test_bin_rows_match_brute_on_edge_values():
    nan_axis, nan_normalized = empty_side_windows_g2()
    cases = {
        "non-finite-and-signed-zeros": (Axis(-3.0, 0.5, 10), np.array(
            [np.nan, np.inf, -np.inf, -0.0, 0.0, 1.5, -0.0, 1e-300, 123456789.0, -np.nan])),
        "integer": (Axis(0.0, 1.0, 5), np.array([0, -1, BIG + 1, 0, -(2**63)], dtype=np.int64)),
        "all-nan": (nan_axis, nan_normalized),
    }
    for name, (axis, values) in cases.items():
        assert bin_rows(axis, "g2", values) == brute_bin_rows(axis, "g2", values), name
    axis, counts = cases["integer"]
    assert counts_csv(Histogram1D(axis, counts)) == brute_bin_rows(axis, "count", counts)


@pytest.mark.parametrize("n", [1, 2, 4])
def test_curves_refuse_a_value_count_other_than_the_bins(n):
    axis = Axis(0.0, 1.0, 3)
    with pytest.raises(ValueError):
        bin_rows(axis, "g2", np.ones(n))
    with pytest.raises(ValueError):
        svg_histogram(axis, np.ones(n), "g2", "x")
