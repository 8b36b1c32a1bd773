from __future__ import annotations

import json
import math
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dldspec.config import (
    Calibration,
    ConfigError,
    MAX_DELAY_CELLS,
    MAX_HISTOGRAM_CELLS,
    CorrelationConfig,
    RunConfig,
    SimConfig,
    apply_overrides,
    load_run_config,
    run_config_from_dict,
)
from dldspec.event_format import Columns, EventFileHeader
from dldspec.pipeline import analyze_events, simulate_to_file


def test_defaults_validate():
    cfg = run_config_from_dict({})
    assert cfg.simulation.rep_rate_hz == 76e6
    assert cfg.simulation.lambda_hep_nm == 388.8
    assert cfg.simulation.qe == 0.2
    assert cfg.geometry.size_mm == 40.0
    assert cfg.calibration.dispersion_nm_per_mm == 0.0375
    assert cfg.correlation.g2_bin_width_ps == 88.0


@pytest.mark.parametrize(
    "doc,message",
    [
        ({"simulation": {"pari_rate": 0.1}}, "simulation.pari_rate: unknown key"),
        ({"simulatoin": {}}, "simulatoin: unknown section"),
        # values derived from other keys are not keys
        ({"geometry": {"size_x_mm": 40.0}}, "geometry.size_x_mm: unknown key"),
        ({"geometry": {"size_y_mm": 40.0}}, "geometry.size_y_mm: unknown key"),
        ({"geometry": {"propagation_time_ps": 4e4}}, "geometry.propagation_time_ps: unknown key"),
        ({"correlation": {"accidental_window_ps": [12658.0, 13658.0]}}, "correlation.accidental_window_ps: unknown key"),
    ],
    ids=["pari_rate", "simulatoin", "size_x_mm", "size_y_mm", "propagation_time_ps", "accidental_window_ps"],
)
def test_unknown_key_rejected_with_path(doc, message):
    with pytest.raises(ConfigError, match=message):
        run_config_from_dict(doc)


@pytest.mark.parametrize(
    "section,key,value,fragment",
    [
        ("simulation", "pair_rate_per_pulse", 1.5, "pair_rate_per_pulse"),
        ("simulation", "qe", -0.1, "qe"),
        ("simulation", "duration_ps", 0, "duration_ps"),
        ("simulation", "rep_rate_hz", -76e6, "rep_rate_hz"),
        ("simulation", "lambda_pump_nm", 391.0, "lambda_hep_nm < lambda_pump_nm"),
        ("calibration", "dispersion_nm_per_mm", 0.0, "dispersion"),
        ("geometry", "tick_ps", 0, "tick_ps"),
        ("geometry", "tick_ps", 2**32, r"geometry\.tick_ps"),  # past the file header's u32 field
        ("correlation", "g2_bin_width_ps", -1, "g2_bin_width_ps"),
    ],
)
def test_invariant_violations_rejected(section, key, value, fragment):
    with pytest.raises(ConfigError, match=fragment):
        run_config_from_dict({section: {key: value}})


def test_the_largest_tick_the_header_holds_is_a_valid_config():
    cfg = run_config_from_dict({"geometry": {"tick_ps": 2**32 - 1}})
    header = EventFileHeader(tick_ps=cfg.geometry.tick_ps)
    assert EventFileHeader.unpack(header.pack()) == header


@pytest.mark.parametrize(
    "sim,where",
    [({"seed": True}, "simulation.seed"), ({"qe": "0.2"}, "simulation.qe")],
    ids=["bool-seed", "string-qe"],
)
def test_config_built_in_code_gets_the_document_type_checks(sim, where):
    with pytest.raises(ConfigError, match=where):
        SimConfig(**sim)


def test_a_section_built_in_code_holds_the_document_types(tmp_path):
    """An integer in a float field is converted when the section is built, so
    the run prints it as the loaded document's number does."""
    built = RunConfig(simulation=SimConfig(duration_ps=20000000))
    loaded = run_config_from_dict({"simulation": {"duration_ps": 2e7}})
    assert built == loaded and isinstance(built.simulation.duration_ps, float)
    lines = simulate_to_file(built, tmp_path / "built.dlde").lines()
    assert lines == simulate_to_file(loaded, tmp_path / "loaded.dlde").lines()
    assert "duration_ps=2e+07" in lines


@pytest.mark.parametrize(
    "corr,where",
    [
        ({"coincidence_window_ps": (500.0, -500.0)}, r"correlation\.coincidence_window_ps"),
        ({"g2_bin_width_ps": 0.0}, r"correlation\.g2_bin_width_ps: must be > 0"),
    ],
    ids=["reversed-window", "zero-bin-width"],
)
def test_a_correlation_section_built_in_code_is_range_checked(corr, where):
    with pytest.raises(ConfigError, match=where):
        CorrelationConfig(**corr)


@pytest.mark.parametrize(
    "corr,key",
    [
        ({"g2_range_ps": 2.0**23, "g2_bin_width_ps": 1.0}, "g2_bin_width_ps"),
        ({"spectrum_lo_nm": 388.0, "spectrum_hi_nm": 388.0 + 2.0**14, "spectrum_bin_nm": 2.0**-10}, "spectrum_bin_nm"),
        ({"jsi_lo_nm": 388.0, "jsi_hi_nm": 392.0, "jsi_bin_nm": 2.0**-10}, "jsi_bin_nm"),
    ],
    ids=["g2", "spectrum", "jsi"],
)
def test_a_histogram_of_more_than_the_cell_cap_is_refused(corr, key):
    """Each axis at exactly MAX_HISTOGRAM_CELLS cells (jsi: 4096 bins a side)
    builds; one more bin a side is refused, naming the key."""
    assert MAX_HISTOGRAM_CELLS == 2**24
    CorrelationConfig(**corr)
    finer = {**corr, key: corr[key] * (1 - 1e-9)}
    with pytest.raises(ConfigError, match=rf"^correlation\.{key}: .*at most {MAX_HISTOGRAM_CELLS} cells"):
        CorrelationConfig(**finer)


def test_a_delay_span_of_more_than_the_delay_cap_is_refused():
    """2**24 two-picosecond g2 bins from -(2**24 - 0.5) span exactly
    MAX_DELAY_CELLS integer delays, from 1 - 2**24 to 2**24, and build; from
    -2**24 they span one more and are refused, naming the g2 range."""
    assert MAX_DELAY_CELLS == 2**25
    lo, hi = CorrelationConfig(g2_range_ps=2.0**24 - 0.5, g2_bin_width_ps=2.0).delay_span_ps
    assert (math.ceil(lo), math.floor(hi)) == (1 - 2**24, 2**24)
    with pytest.raises(ConfigError, match=rf"^correlation\.g2_range_ps: .*at most {MAX_DELAY_CELLS} integer delays"):
        CorrelationConfig(g2_range_ps=2.0**24, g2_bin_width_ps=2.0)


def _bin_width(draw, span):
    """A width that leaves an axis of `span` 1 to about 1,000 bins or, one
    time in five, about the 1e12 spans from which `Axis.spanning` counts none."""
    if draw(st.integers(0, 4)) == 0:
        return span * 10.0 ** draw(st.floats(11.9, 13.0))
    return span / draw(st.floats(0.9, 1000.0))


@st.composite
def correlation_sections(draw):
    """CorrelationConfig keys around the defaults: the three axes hold 0 to
    about 1,000 bins, and each signal rectangle's edges lie on, between or
    off the joint spectrum's cell centres."""
    g2_range = draw(st.floats(1e3, 1e5))
    doc = {"g2_range_ps": g2_range, "g2_bin_width_ps": _bin_width(draw, 2 * g2_range)}
    for label in ("spectrum", "jsi"):
        lo = draw(st.floats(387.0, 390.0))
        span = draw(st.floats(0.01, 3.0))
        doc.update({f"{label}_lo_nm": lo, f"{label}_hi_nm": lo + span, f"{label}_bin_nm": _bin_width(draw, span)})
    lo, width = doc["jsi_lo_nm"], doc["jsi_bin_nm"]
    nbins = max(1, min(1000, int((doc["jsi_hi_nm"] - lo) / width) + 1))
    # edges in bins from lo: k + 0.5 is cell k's centre
    on_centre = st.integers(-2, nbins + 2).map(lambda k: k + 0.5)
    edge = st.one_of(on_centre, st.floats(-2.0, nbins + 2.0))
    rects = []
    for _ in range(2):
        x, y = draw(edge), draw(edge)
        dx, dy = (draw(st.one_of(st.integers(1, 3), st.floats(0.01, 3.0))) for _ in range(2))
        rects.append([lo + width * x, lo + width * (x + dx), lo + width * y, lo + width * (y + dy)])
    doc["signal_regions_nm"] = rects
    return doc


@given(correlation_sections(), st.integers(0, 2**32))
@settings(max_examples=150, deadline=None)
def test_a_correlation_section_that_builds_also_analyzes(doc, seed):
    """A section is refused when built, or the analysis runs on it: no axis
    without a bin and no signal rectangle without a cell centre gets past
    the config to fail in the analysis."""
    try:
        corr = CorrelationConfig(**doc)
    except ConfigError:
        return
    rng = np.random.default_rng(seed)
    # a calibration that maps the anode onto the joint spectrum's axis and
    # half a nanometre either side, so differences over the whole anode give
    # wavelengths over that range
    lo, hi = doc["jsi_lo_nm"] - 0.5, doc["jsi_hi_nm"] + 0.5
    geometry = RunConfig().geometry
    calibration = Calibration(lambda_center_nm=(lo + hi) / 2, dispersion_nm_per_mm=(hi - lo) / geometry.size_mm,
                              x_center_mm=geometry.size_mm / 2)
    cfg = RunConfig(geometry=geometry, calibration=calibration, correlation=corr)
    prop = geometry.propagation_ticks

    def events(n):
        return Columns({
            "t_ps": np.sort(rng.integers(0, 200_000, n)),
            "dt_x": rng.integers(-prop, prop, n, endpoint=True).astype(np.int32),
            "dt_y": np.zeros(n, dtype=np.int32),
        })

    analyze_events((events(0), events(0)), cfg)
    analyze_events((events(60), events(60)), cfg)


def test_propagation_time_derived_from_size_and_speed():
    cfg = run_config_from_dict({"geometry": {"signal_speed_mm_per_ps": 1e-2}})
    assert cfg.geometry.propagation_time_ps == 4000.0
    assert cfg.geometry.propagation_ticks == 4000
    assert run_config_from_dict({}).geometry.propagation_time_ps == 4e4


@pytest.mark.parametrize(
    "corr,window",
    [
        ({}, (12658.0, 13658.0)),
        ({"coincidence_window_ps": [-400.0, 500.0]}, (12708.0, 13608.0)),
        ({"coincidence_window_ps": [-250.5, 250.25], "accidental_center_ps": 1250.625}, (1000.25, 1501.0)),
        ({"accidental_center_ps": -13158.0}, (-13658.0, -12658.0)),
        # the side windows just clear of the coincidence window and of each other
        ({"accidental_center_ps": 1000.5}, (500.5, 1500.5)),
        ({"coincidence_window_ps": [-400.0, 500.0], "accidental_center_ps": -950.5}, (-1400.5, -500.5)),
    ],
    ids=["default", "asymmetric", "non-integer", "negative", "just-clear", "asymmetric-just-clear"],
)
def test_accidental_window_is_the_coincidence_width_at_the_centre(corr, window):
    cfg = run_config_from_dict({"correlation": corr}).correlation
    assert cfg.accidental_window_ps == window
    lo, hi = cfg.coincidence_window_ps
    assert window[1] - window[0] == hi - lo


@pytest.mark.parametrize(
    "corr",
    [
        {"accidental_center_ps": 0.0},
        {"accidental_center_ps": 300.0},
        {"accidental_center_ps": 1000.0},  # a delay of 500 ps is in both windows
        {"accidental_center_ps": -1000.0},
        {"coincidence_window_ps": [-400.0, 500.0], "accidental_center_ps": 950.0},
        {"coincidence_window_ps": [-400.0, 500.0], "accidental_center_ps": -950.0},
    ],
    ids=["zero", "inside", "touching", "touching-negative", "asymmetric-touching", "asymmetric-negative"],
)
def test_side_windows_that_meet_the_coincidence_window_are_rejected(corr):
    with pytest.raises(ConfigError, match=r"correlation\.accidental_center_ps"):
        run_config_from_dict({"correlation": corr})


def test_overrides_dotted_paths():
    doc = apply_overrides({}, ["simulation.seed=99", "simulation.qe=0.5", "geometry.tick_ps=2"])
    cfg = run_config_from_dict(doc)
    assert cfg.simulation.seed == 99
    assert cfg.simulation.qe == 0.5
    assert cfg.geometry.tick_ps == 2


def test_override_requires_section_and_key():
    with pytest.raises(ConfigError):
        apply_overrides({}, ["seed=1"])
    with pytest.raises(ConfigError):
        apply_overrides({}, ["simulation.seed"])


def test_load_round_trip(tmp_path):
    cfg = run_config_from_dict({"simulation": {"seed": 5, "pair_rate_per_pulse": 0.3}})
    p = tmp_path / "run.json"
    p.write_text(json.dumps(asdict(cfg)))
    loaded = load_run_config(p)
    assert loaded == cfg


def test_load_rejects_a_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="absent.json"):
        load_run_config(tmp_path / "absent.json")


@pytest.mark.parametrize("overrides", [[], ["simulation.seed=9", "correlation.g2_bin_width_ps=44"],
                                       ["geometry.tick_ps=2"]])
def test_overrides_on_empty_doc_equal_overrides_on_defaults(overrides):
    defaults = asdict(run_config_from_dict({}))
    assert run_config_from_dict(apply_overrides({}, overrides)) == run_config_from_dict(
        apply_overrides(defaults, overrides)
    )


def test_load_rejects_bad_json(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_run_config(p)


def test_example_config_is_the_whole_default_document():
    example = Path(__file__).resolve().parents[1] / "example_config.json"
    assert json.loads(example.read_text()) == json.loads(json.dumps(asdict(RunConfig())))
