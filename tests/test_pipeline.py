from __future__ import annotations

import math

import numpy as np
import pytest

from dldspec import correlation, pipeline
from dldspec.correlation import build_jsi, select_coincidences, spectrum_1d
from dldspec.detector_sim import apply_dead_time, detect, encode_groups, groups_to_pulses
from dldspec.event_format import PULSE_DTYPE, EventFileHeader, FormatError, read_all_pulses, write_events
from dldspec.pipeline import analyze_events, analyze_file, decode_file, simulate_to_file, summary_lines, write_report_bundle
from dldspec.reconstruction import PHOTON_DTYPE, match_hits, groups_to_events
from dldspec.source_sim import generate_emissions, pulse_train

from _oracles import brute_coincidences, brute_delay_histogram
from conftest import make_config


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


def test_small_block_stream_is_well_formed(tmp_path):
    # tiny blocks force the dead-time and writer carries across boundaries;
    # the produced file must still be globally sorted and parseable
    cfg = make_config(seed=23, duration_ps=6e8)
    out = tmp_path / "blocks.dlde"
    s = simulate_to_file(cfg, out, block_pulses=500)
    header, arr = read_all_pulses(out)  # validation would raise on disorder
    assert arr.size == s.records_written > 0


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
    emissions = generate_emissions(sim, pulse_train(sim), rng)
    detections, _ = detect(emissions, sim, rng)
    groups = encode_groups(detections, sim.geometry)
    kept, _ = apply_dead_time(groups, sim.dead_time_ps, sim.geometry.tick_ps)
    keep_mask = np.isin(groups["t_mcp"], kept["t_mcp"])
    bound = sim.calibration.dispersion_nm_per_mm * sim.geometry.signal_speed_mm_per_ps * sim.geometry.tick_ps / 2
    for det in (0, 1):
        truth = detections[(detections["path"] == det) & keep_mask]
        pulses = groups_to_pulses(kept[kept["detector"] == det])
        hits, orphans = match_hits(pulses, sim.geometry)
        assert orphans == 0
        assert hits.size == truth.size  # exactly one group per surviving detection
        events, bad = groups_to_events(hits, sim.geometry, sim.calibration)
        assert bad == 0
        lam_err = np.abs(events["wavelength_nm"] - truth["wavelength_nm"])
        assert lam_err.max() <= bound + 1e-12
        assert np.abs(events["x_mm"] - truth["x_mm"]).max() <= 0.0005 + 1e-12


def test_decode_chunk_size_invariant(tmp_path, small_config):
    path = tmp_path / "r.dlde"
    simulate_to_file(small_config, path)
    ref = decode_file(path, small_config.geometry, small_config.calibration)
    assert ref.records == sum(ref.records_per_detector) > 0
    ref_lines = summary_lines(ref, analyze_events(ref.events, small_config.correlation))
    for chunk_records in (5, 997):
        got = decode_file(path, small_config.geometry, small_config.calibration, chunk_records=chunk_records)
        for det in (0, 1):
            assert np.array_equal(got.events[det], ref.events[det])
        assert got.orphans == ref.orphans
        assert got.groups == ref.groups
        assert got.records_per_detector == ref.records_per_detector
        assert summary_lines(got, analyze_events(got.events, small_config.correlation)) == ref_lines


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


def test_decode_rejects_tick_mismatch(tmp_path, small_config):
    path = tmp_path / "r.dlde"
    simulate_to_file(small_config, path)
    other = make_config(geometry={"tick_ps": 2, "signal_speed_mm_per_ps": 1e-3,
                                  "propagation_time_ps": 4e4})
    with pytest.raises(ValueError, match="tick_ps"):
        decode_file(path, other.geometry, other.calibration)


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
        centers = hist.bin_centers()
        valley = (np.abs(centers - 389.0) <= 0.05) | (np.abs(centers - 389.5) <= 0.05)
        floor = max(int(hist.counts[valley].max()), 1)
        for line in (388.8, 389.2, 389.8):
            near = np.abs(centers - line) <= 0.15
            peak_bin = np.nonzero(near)[0][int(np.argmax(hist.counts[near]))]
            assert abs(centers[peak_bin] - line) <= corr.spectrum_bin_nm
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
    xc, yc = acc.x_centers(), acc.y_centers()
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
    ev = np.zeros(len(times), dtype=PHOTON_DTYPE)
    ev["t_ps"] = np.sort(np.asarray(times, dtype=np.int64))
    ev["wavelength_nm"] = rng.uniform(388.5, 390.0, ev.size)
    return ev


def _side_windows(corr):
    """The +-k images (k = 1..4) of the coincidence window, + before -."""
    cw, aw = corr.coincidence_window_ps, corr.accidental_window_ps
    half = (cw[1] - cw[0]) / 2.0
    step = (aw[0] + aw[1]) / 2.0
    return [(s * k * step - half, s * k * step + half) for k in range(1, 5) for s in (1, -1)]


def _edge_delays(corr):
    """Integer delays on, just inside and just outside every window edge."""
    out = set()
    for lo, hi in [corr.coincidence_window_ps, corr.accidental_window_ps, *_side_windows(corr)]:
        for edge in (lo, hi):
            out |= {math.floor(edge) - 1, math.floor(edge), math.ceil(edge), math.ceil(edge) + 1}
    return sorted(out)


def _check_windows_against_brute(ev0, ev1, corr):
    """analyze_events window statistics equal the all-pairs oracle, window by window."""
    a = analyze_events((ev0, ev1), corr)
    t0, t1 = ev0["t_ps"], ev1["t_ps"]
    coinc = brute_coincidences(t0, t1, corr.coincidence_window_ps)
    acc = brute_coincidences(t0, t1, corr.accidental_window_ps)
    assert a.coincidence_count == a.center_window_counts == len(coinc)
    assert a.accidental_count == len(acc)
    assert a.side_window_counts == [len(brute_coincidences(t0, t1, w)) for w in _side_windows(corr)]
    for hist, pairs in ((a.jsi_report.jsi, coinc), (a.jsi_report.accidental, acc)):
        i = np.array([p[0] for p in pairs], dtype=np.int64)
        j = np.array([p[1] for p in pairs], dtype=np.int64)
        expected = build_jsi(ev0["wavelength_nm"][i], ev1["wavelength_nm"][j], corr)
        assert np.array_equal(hist.counts, expected.counts)
    return a


NON_INTEGER_WINDOWS = {"coincidence_window_ps": [-250.5, 250.25], "accidental_window_ps": [1000.25, 1501.0]}


@pytest.mark.parametrize("corr_overrides", [{}, NON_INTEGER_WINDOWS], ids=["integer", "non-integer"])
def test_window_counts_on_edges_match_brute_force(corr_overrides, rng):
    corr = make_config(correlation=corr_overrides).correlation
    bases = [0, 1_000_000]  # far enough apart that only same-base pairs fall in any window
    t1 = [b + d for b in bases for d in _edge_delays(corr)]
    a = _check_windows_against_brute(_photons(bases, rng), _photons(t1, rng), corr)
    # per base and window: two edge delays each side land inside, the rest outside
    assert a.coincidence_count == a.accidental_count == 4 * len(bases)
    assert a.side_window_counts == [4 * len(bases)] * 8


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
    a = _check_windows_against_brute(ev0, ev1, corr)
    assert a.side_window_counts == [4] * 8
    # the g2 histogram still stops at its range
    r = corr.g2_range_ps
    expected = brute_delay_histogram(ev0["t_ps"], ev1["t_ps"], -r, r, corr.g2_bin_width_ps)
    assert np.array_equal(a.g2.counts, expected)


@pytest.mark.parametrize("sizes", [(0, 5), (5, 0), (0, 0)])
def test_window_counts_with_empty_streams(sizes, rng):
    corr = make_config().correlation
    ev0, ev1 = (_photons(rng.integers(0, 20_000, n), rng) for n in sizes)
    a = _check_windows_against_brute(ev0, ev1, corr)
    assert a.coincidence_count == a.accidental_count == 0
    assert a.side_window_counts == [0] * 8
    assert "no coincidences inside the coincidence window" in a.warnings


def test_analyze_makes_two_pair_passes(monkeypatch, rng):
    """One half-open pass for g2 and one closed pass shared by every window."""
    passes = []
    original = correlation.iter_window_pairs

    def counting(*args, **kwargs):
        passes.append(args[2:4])
        return original(*args, **kwargs)

    monkeypatch.setattr(correlation, "iter_window_pairs", counting)
    ev0 = _photons(rng.integers(0, 200_000, 200), rng)
    ev1 = _photons(rng.integers(0, 200_000, 200), rng)
    analyze_events((ev0, ev1), make_config().correlation)
    assert len(passes) == 2
