from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path

import pytest

from dldspec.config import (
    ConfigError,
    RunConfig,
    SimConfig,
    apply_overrides,
    load_run_config,
    run_config_from_dict,
)
from dldspec.event_format import EventFileHeader
from dldspec.pipeline import simulate_to_file


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
    [(SimConfig(seed=True), "simulation.seed"), (SimConfig(qe="0.2"), "simulation.qe")],
    ids=["bool-seed", "string-qe"],
)
def test_config_built_in_code_gets_the_document_type_checks(tmp_path, sim, where):
    cfg = RunConfig(simulation=sim)
    with pytest.raises(ConfigError, match=where):
        cfg.validate()
    with pytest.raises(ConfigError, match=where):
        simulate_to_file(cfg, tmp_path / "r.dlde")


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
