from __future__ import annotations

import math

import numpy as np
import pytest

from dldspec.source_sim import (
    EventKind,
    generate_emissions,
    pulse_count,
    sample_background,
    sample_pairs,
)

from conftest import make_config, pulse_times


def test_pulse_spacing_matches_rep_rate():
    cfg = make_config(duration_ps=1e6).simulation
    times = pulse_times(cfg)
    spacing = times[1] - times[0]
    assert spacing == pytest.approx(1e12 / 76e6)
    # the laser period rounds to the 13.2 ns side-peak spacing
    assert round(spacing / 100.0) * 100.0 == 13200.0


def test_pulse_train_hand_enumeration():
    # 1 GHz for 10 ns: pulses at 0, 1000, ..., 9000 ps
    cfg = make_config(rep_rate_hz=1e9, duration_ps=10000.0).simulation
    assert pulse_count(cfg) == 10
    assert np.array_equal(pulse_times(cfg), np.arange(10) * 1000.0)
    # a pulse exactly at duration_ps is outside the half-open run [0, duration)
    assert pulse_count(make_config(rep_rate_hz=1e9, duration_ps=10000.5).simulation) == 11
    # 29 periods at 76 MHz: duration / period rounds to 29.000000000000004, but
    # pulse 29 lands exactly on duration_ps and is out
    assert pulse_count(make_config(duration_ps=29 * (1e12 / 76e6)).simulation) == 29


def test_pulse_train_single_pulse_at_zero():
    cfg = make_config(duration_ps=1.0).simulation
    assert pulse_count(cfg) == 1
    assert np.array_equal(pulse_times(cfg), np.array([0.0]))


def _with(cfg, **kw):
    from dataclasses import replace

    return replace(cfg, **kw)


def test_zero_pair_rate_gives_no_pairs(rng):
    cfg = make_config(pair_rate_per_pulse=0.0).simulation
    out = sample_pairs(cfg, pulse_times(_with(cfg, duration_ps=1e6)), rng)
    assert out.size == 0


def test_hep_path_assignment_is_fair(rng):
    # binomial oracle: fraction 0.5 +- 5 sigma with sigma = 0.5/sqrt(n)
    cfg = make_config(pair_rate_per_pulse=1.0).simulation
    pulses = np.arange(10_000, dtype=np.float64) * cfg.pulse_period_ps
    out = sample_pairs(cfg, pulses, rng)
    hep_path = out["path"][out["kind"] == EventKind.HEP]
    assert hep_path.size == 10_000
    frac = np.mean(hep_path == 0)
    assert abs(frac - 0.5) < 5 * 0.5 / math.sqrt(10_000)


def test_zero_detuning_pins_pair_wavelengths(rng):
    cfg = make_config(pair_rate_per_pulse=1.0, detuning_fwhm_nm=0.0).simulation
    out = sample_pairs(cfg, np.arange(100, dtype=np.float64) * 13157.9, rng)
    assert np.all(out["wavelength_nm"][out["kind"] == EventKind.HEP] == 388.8)
    assert np.all(out["wavelength_nm"][out["kind"] == EventKind.LEP] == 389.8)


def test_pair_members_share_time_and_paths_are_complementary(rng):
    cfg = make_config(pair_rate_per_pulse=0.7).simulation
    out = sample_pairs(cfg, np.arange(5000, dtype=np.float64) * 13157.9, rng)
    t, path, kind = out["time_ps"], out["path"], out["kind"]
    assert np.array_equal(t[0::2], t[1::2])  # exact sharing
    assert np.all(path[0::2] != path[1::2])
    assert np.all(kind[0::2] == EventKind.HEP)
    assert np.all(kind[1::2] == EventKind.LEP)


def test_energy_conservation_to_first_order(rng):
    # 1/l_hep + 1/l_lep stays at its detuning-free value to first order:
    # relative error <= 1e-4 for detunings as large as 1 nm.
    cfg = make_config(pair_rate_per_pulse=1.0, detuning_fwhm_nm=2.3548).simulation  # sigma = 1 nm
    out = sample_pairs(cfg, np.arange(20_000, dtype=np.float64) * 13157.9, rng)
    hep, lep = out["wavelength_nm"][0::2], out["wavelength_nm"][1::2]
    inv_sum = 1.0 / hep + 1.0 / lep
    ref = 1.0 / 388.8 + 1.0 / 389.8
    delta = hep - 388.8
    within = np.abs(delta) <= 1.0
    rel = np.abs(inv_sum[within] - ref) / ref
    assert rel.max() <= 1e-4


def test_background_empty_when_rates_zero(rng):
    cfg = make_config(pump_scatter_rate_per_pulse=0.0, dark_rate_hz=0.0).simulation
    out = sample_background(cfg, np.arange(1000, dtype=np.float64) * 13157.9, rng)
    assert out.size == 0


def test_dark_counts_poisson_rate(rng):
    # Poisson oracle: mean 1e6 over 1 s, fluctuation bounded at 5 sqrt(mean)
    cfg = make_config(dark_rate_hz=1e6, duration_ps=1e12, pump_scatter_rate_per_pulse=0.0).simulation
    out = sample_background(cfg, np.empty(0, dtype=np.float64), rng)
    n = out.size  # both detector paths together: 2e6 expected
    assert abs(n - 2e6) < 5 * math.sqrt(2e6)
    assert np.all(np.isnan(out["wavelength_nm"]))
    assert np.all((out["time_ps"] >= 0) & (out["time_ps"] <= 1e12))


def test_pump_wavelength_mean(rng):
    cfg = make_config(pump_scatter_rate_per_pulse=1.0).simulation
    out = sample_background(cfg, np.arange(20_000, dtype=np.float64) * 13157.9, rng)
    pump = out["wavelength_nm"][out["kind"] == EventKind.PUMP]
    sem = (0.18 / 2.3548) / math.sqrt(pump.size)
    assert abs(float(pump.mean()) - 389.2) < 5 * sem


def test_reproducible_and_sorted():
    cfg = make_config(seed=3).simulation
    pulses = pulse_times(_with(cfg, duration_ps=5e7))
    a = generate_emissions(cfg, pulses, np.random.default_rng(3))
    b = generate_emissions(cfg, pulses, np.random.default_rng(3))
    assert a.keys() == b.keys()
    assert all(a[name].tobytes() == b[name].tobytes() for name in a)  # bit-identical, NaN wavelengths included
    assert np.all(np.diff(a["time_ps"]) >= 0)


def test_rejects_unsorted_pulse_times(rng):
    cfg = make_config().simulation
    with pytest.raises(ValueError, match="sorted"):
        sample_pairs(cfg, np.array([100.0, 0.0]), rng)
