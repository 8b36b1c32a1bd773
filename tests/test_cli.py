from __future__ import annotations

import json

import numpy as np
import pytest

from dldspec import pipeline
from dldspec.cli import EXIT_FAILURE, EXIT_OK, EXIT_WARNINGS, main
from dldspec.event_format import PULSE_DTYPE, EventFileHeader

from conftest import write_events


def run_cli(args):
    return main([str(a) for a in args])


@pytest.fixture
def cfg_file(tmp_path):
    p = tmp_path / "run.json"
    p.write_text(json.dumps({"simulation": {"duration_ps": 1.5e8, "seed": 3}}))
    return p


def test_simulate_writes_file_and_summary(tmp_path, cfg_file, capsys):
    out = tmp_path / "run.dlde"
    assert run_cli(["simulate", "--config", cfg_file, "--out", out]) == EXIT_OK
    captured = capsys.readouterr().out
    assert out.exists()
    assert "records_written=" in captured
    assert (tmp_path / "run.dlde.summary.txt").read_text() == captured


def test_simulate_deterministic_across_runs(tmp_path, cfg_file):
    a, b = tmp_path / "a.dlde", tmp_path / "b.dlde"
    assert run_cli(["simulate", "--config", cfg_file, "--out", a]) == EXIT_OK
    assert run_cli(["simulate", "--config", cfg_file, "--out", b]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_seed_flag_changes_stream(tmp_path, cfg_file):
    a, b = tmp_path / "a.dlde", tmp_path / "b.dlde"
    run_cli(["simulate", "--config", cfg_file, "--out", a])
    run_cli(["simulate", "--config", cfg_file, "--out", b, "--seed", 99])
    assert a.read_bytes() != b.read_bytes()


def test_analyze_produces_bundle(tmp_path, cfg_file, capsys):
    data = tmp_path / "run.dlde"
    report = tmp_path / "report"
    run_cli(["simulate", "--config", cfg_file, "--out", data])
    code = run_cli(["analyze", "--config", cfg_file, "--input", data, "--out", report])
    assert code == EXIT_OK
    assert (report / "summary.txt").exists()
    assert (report / "jsi_subtracted.svg").exists()
    assert "car_raw=" in capsys.readouterr().out


def test_analyze_rerun_identical_bundle(tmp_path, cfg_file):
    data = tmp_path / "run.dlde"
    run_cli(["simulate", "--config", cfg_file, "--out", data])
    r1, r2 = tmp_path / "r1", tmp_path / "r2"
    run_cli(["analyze", "--config", cfg_file, "--input", data, "--out", r1])
    run_cli(["analyze", "--config", cfg_file, "--input", data, "--out", r2])
    f1 = sorted(p.name for p in r1.iterdir())
    f2 = sorted(p.name for p in r2.iterdir())
    assert f1 == f2
    for name in f1:
        assert (r1 / name).read_bytes() == (r2 / name).read_bytes(), name


def test_analyze_empty_input_warns(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"simulation": {
        "duration_ps": 1e8, "pair_rate_per_pulse": 0.0,
        "pump_scatter_rate_per_pulse": 0.0, "dark_rate_hz": 0.0}}))
    data = tmp_path / "empty.dlde"
    run_cli(["simulate", "--config", cfg, "--out", data])
    code = run_cli(["analyze", "--config", cfg, "--input", data, "--out", tmp_path / "rep"])
    assert code == EXIT_WARNINGS
    assert (tmp_path / "rep" / "summary.txt").exists()


def test_subcommands_write_subsets(tmp_path, cfg_file):
    data = tmp_path / "run.dlde"
    run_cli(["simulate", "--config", cfg_file, "--out", data])
    run_cli(["g2", "--config", cfg_file, "--input", data, "--out", tmp_path / "g2rep"])
    names = {p.name for p in (tmp_path / "g2rep").iterdir()}
    assert "g2.csv" in names and "summary.txt" in names
    assert "jsi.csv" not in names
    run_cli(["spectrum", "--config", cfg_file, "--input", data, "--out", tmp_path / "sprep"])
    assert (tmp_path / "sprep" / "spectrum_det1.csv").exists()
    run_cli(["jsi", "--config", cfg_file, "--input", data, "--out", tmp_path / "jsirep"])
    assert (tmp_path / "jsirep" / "jsi_subtracted.csv").exists()


def test_set_overrides_apply(tmp_path, cfg_file, capsys):
    out = tmp_path / "a.dlde"
    code = run_cli(["simulate", "--config", cfg_file, "--out", out,
                    "--set", "simulation.pair_rate_per_pulse=0.0",
                    "--set", "simulation.pump_scatter_rate_per_pulse=0.0",
                    "--set", "simulation.dark_rate_hz=0.0"])
    assert code == EXIT_OK
    assert "records_written=0" in capsys.readouterr().out


def test_bad_config_fails_with_field_path(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"simulation": {"qe": 2.0}}))
    code = run_cli(["simulate", "--config", cfg, "--out", tmp_path / "x.dlde"])
    assert code == EXIT_FAILURE
    assert "simulation.qe" in capsys.readouterr().err


@pytest.mark.parametrize(
    "override,error",
    [
        ("correlation.signal_regions_nm=[[400,401,400,401],[389.55,390.05,388.55,389.05]]",
         "correlation.signal_regions_nm[0]: [400.0, 401.0, 400.0, 401.0]"),
        ("correlation.g2_bin_width_ps=1e18", "correlation.g2_bin_width_ps:"),
    ],
    ids=["rectangle", "g2-bin"],
)
def test_signal_rectangle_without_a_cell_centre_fails_before_the_decode(
    tmp_path, cfg_file, capsys, monkeypatch, override, error
):
    """The histogram axes are the config's alone, so a signal rectangle that
    holds none of the joint spectrum's cell centres, or an axis with no bin,
    is a config error, raised before the file is decoded."""
    data = tmp_path / "run.dlde"
    assert run_cli(["simulate", "--config", cfg_file, "--out", data]) == EXIT_OK
    capsys.readouterr()

    def decode_file(*args, **kwargs):
        raise AssertionError("the file was decoded")

    monkeypatch.setattr(pipeline, "decode_file", decode_file)
    code = run_cli(["analyze", "--config", cfg_file, "--input", data, "--out", tmp_path / "rep", "--set", override])
    assert code == EXIT_FAILURE
    assert capsys.readouterr().err.startswith(f"config error: {error}")
    assert not (tmp_path / "rep").exists()


def test_corrupt_input_fails(tmp_path, cfg_file, capsys):
    bad = tmp_path / "bad.dlde"
    bad.write_bytes(b"XXXX" + bytes(12))
    code = run_cli(["analyze", "--config", cfg_file, "--input", bad, "--out", tmp_path / "rep"])
    assert code == EXIT_FAILURE
    assert "magic" in capsys.readouterr().err


def test_other_detector_count_fails(tmp_path, cfg_file, capsys):
    data = tmp_path / "three.dlde"
    pulses = np.zeros(5, dtype=PULSE_DTYPE)
    pulses["detector"] = 2
    pulses["channel"] = np.arange(5)
    write_events(pulses, EventFileHeader(detector_count=3), data)
    code = run_cli(["analyze", "--config", cfg_file, "--input", data, "--out", tmp_path / "rep"])
    assert code == EXIT_FAILURE
    assert "input format error" in capsys.readouterr().err


def test_workers_option_is_gone(tmp_path, cfg_file):
    with pytest.raises(SystemExit) as e:
        run_cli(["analyze", "--config", cfg_file, "--input", tmp_path / "x.dlde", "--workers", "2"])
    assert e.value.code == 2


def test_missing_input_argument_fails(tmp_path, cfg_file, capsys):
    code = run_cli(["analyze", "--config", cfg_file, "--out", tmp_path / "rep"])
    assert code == EXIT_FAILURE
    assert "no input" in capsys.readouterr().err


def test_defaults_used_without_config(tmp_path):
    out = tmp_path / "def.dlde"
    code = run_cli(["simulate", "--out", out, "--set", "simulation.duration_ps=5e7"])
    assert code == EXIT_OK
    assert out.exists()


def test_missing_config_file_fails(tmp_path, capsys):
    missing = tmp_path / "absent.json"
    code = run_cli(["simulate", "--config", missing, "--out", tmp_path / "x.dlde"])
    assert code == EXIT_FAILURE
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "absent.json" in err
    assert not (tmp_path / "x.dlde").exists()


def test_non_json_config_fails(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text("{not json")
    code = run_cli(["simulate", "--config", cfg, "--out", tmp_path / "x.dlde"])
    assert code == EXIT_FAILURE
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "not valid JSON" in err


@pytest.mark.parametrize(
    "override",
    [
        "simulation.duration_ps=abc",
        "simulation.qe=true",
        "simulation.seed=true",
        "simulation.seed=1.5",
        "geometry.tick_ps=false",
        f"geometry.tick_ps={2**32}",  # an integer past the file header's u32 field
        "calibration.x_center_mm=[20]",
        "correlation.coincidence_window_ps=[-500]",
        "correlation.accidental_center_ps=\"13158\"",
        "correlation.signal_regions_nm=5",
        "correlation.signal_regions_nm=[[388.55, 389.05, 389.55]]",
        "io.out_dir=5",
        "simulation.jitter_fwhm_ps=NaN",
        "simulation.dead_time_ps=NaN",
        "simulation.dark_rate_hz=Infinity",
        "simulation.duration_ps=NaN",
        "correlation.g2_bin_width_ps=NaN",
        "correlation.coincidence_window_ps=[-Infinity, 500]",
        "simulation.duration_ps=1" + "0" * 400,  # an int beyond the float range
        # a bin width that leaves its axis no bin, or more than a float counts
        "correlation.g2_bin_width_ps=1e18",
        "correlation.g2_bin_width_ps=1e-320",
        "correlation.spectrum_bin_nm=1e13",
        "correlation.jsi_bin_nm=1e13",
        # a bin width that gives a histogram more cells than the config allows
        "correlation.g2_bin_width_ps=1e-6",
        "correlation.jsi_bin_nm=1e-7",
    ],
)
def test_value_of_the_wrong_type_fails_with_field_path(tmp_path, capsys, override):
    out = tmp_path / "r.dlde"
    assert run_cli(["simulate", "--set", override, "--out", out]) == EXIT_FAILURE
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {override.split('=')[0]}:")
    assert not out.exists()
