from __future__ import annotations

import math

import numpy as np
import pytest
from scipy import stats

from dldspec.config import pulse_count
from dldspec.source_sim import (
    EmissionTally,
    EventKind,
    _thin,
    generate_emissions,
    sample_background,
    sample_pairs,
)

from _oracles import per_photon_qe_emissions
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


def test_pulse_count_keeps_a_pulse_that_the_quotient_rounds_away():
    # duration_ps is the next float above 163205 periods at 76 MHz, so pulse
    # 163205 is inside the run, but duration / period rounds to exactly 163205
    period = 1e12 / 76e6
    duration = float(np.nextafter(163205 * period, np.inf))
    assert math.ceil(duration / period) == 163205 and 163205 * period < duration
    assert pulse_count(make_config(duration_ps=duration).simulation) == 163206


def test_pulse_train_single_pulse_at_zero():
    cfg = make_config(duration_ps=1.0).simulation
    assert pulse_count(cfg) == 1
    assert np.array_equal(pulse_times(cfg), np.array([0.0]))


def test_zero_pair_rate_gives_no_pairs(rng):
    cfg = make_config(pair_rate_per_pulse=0.0, duration_ps=1e6).simulation
    tally = EmissionTally()
    out = sample_pairs(cfg, range(pulse_count(cfg)), rng, tally)
    assert out.size == 0
    assert tally == EmissionTally()


# At qe 1 every emitted photon is converted, so the samplers return them all.


def test_hep_path_assignment_is_fair(rng):
    # binomial oracle: fraction 0.5 +- 5 sigma with sigma = 0.5/sqrt(n)
    cfg = make_config(pair_rate_per_pulse=1.0, qe=1.0).simulation
    out = sample_pairs(cfg, range(10_000), rng, EmissionTally())
    hep_path = out["path"][out["kind"] == EventKind.HEP]
    assert hep_path.size == 10_000
    frac = np.mean(hep_path == 0)
    assert abs(frac - 0.5) < 5 * 0.5 / math.sqrt(10_000)


def test_zero_detuning_pins_pair_wavelengths(rng):
    cfg = make_config(pair_rate_per_pulse=1.0, detuning_fwhm_nm=0.0, qe=1.0).simulation
    out = sample_pairs(cfg, range(100), rng, EmissionTally())
    assert np.all(out["wavelength_nm"][out["kind"] == EventKind.HEP] == 388.8)
    assert np.all(out["wavelength_nm"][out["kind"] == EventKind.LEP] == 389.8)


def test_pair_members_share_time_and_paths_are_complementary(rng):
    cfg = make_config(pair_rate_per_pulse=0.7, qe=1.0).simulation
    out = sample_pairs(cfg, range(5000), rng, EmissionTally())
    t, path, kind = out["time_ps"], out["path"], out["kind"]
    assert np.array_equal(t[0::2], t[1::2])  # exact sharing
    assert np.all(path[0::2] != path[1::2])
    assert np.all(kind[0::2] == EventKind.HEP)
    assert np.all(kind[1::2] == EventKind.LEP)


def test_energy_conservation_to_first_order(rng):
    # 1/l_hep + 1/l_lep stays at its detuning-free value to first order:
    # relative error <= 1e-4 for detunings as large as 1 nm.
    cfg = make_config(pair_rate_per_pulse=1.0, detuning_fwhm_nm=2.3548, qe=1.0).simulation  # sigma = 1 nm
    out = sample_pairs(cfg, range(20_000), rng, EmissionTally())
    hep, lep = out["wavelength_nm"][0::2], out["wavelength_nm"][1::2]
    inv_sum = 1.0 / hep + 1.0 / lep
    ref = 1.0 / 388.8 + 1.0 / 389.8
    delta = hep - 388.8
    within = np.abs(delta) <= 1.0
    rel = np.abs(inv_sum[within] - ref) / ref
    assert rel.max() <= 1e-4


def test_background_empty_when_rates_zero(rng):
    cfg = make_config(pump_scatter_rate_per_pulse=0.0, dark_rate_hz=0.0).simulation
    out = sample_background(cfg, range(1000), rng, EmissionTally())
    assert out.size == 0


def test_dark_counts_poisson_rate(rng):
    # Poisson oracle: mean 1e6 over 1 s, fluctuation bounded at 5 sqrt(mean)
    cfg = make_config(dark_rate_hz=1e6, duration_ps=1e12, pump_scatter_rate_per_pulse=0.0, qe=1.0).simulation
    out = sample_background(cfg, range(pulse_count(cfg)), rng, EmissionTally())
    n = out.size  # both detector paths together: 2e6 expected
    assert abs(n - 2e6) < 5 * math.sqrt(2e6)
    assert np.all(np.isnan(out["wavelength_nm"]))
    assert np.all((out["time_ps"] >= 0) & (out["time_ps"] <= 1e12))


def test_pump_wavelength_mean(rng):
    cfg = make_config(pump_scatter_rate_per_pulse=1.0, qe=1.0).simulation
    out = sample_background(cfg, range(20_000), rng, EmissionTally())
    pump = out["wavelength_nm"][out["kind"] == EventKind.PUMP]
    sem = (0.18 / 2.3548) / math.sqrt(pump.size)
    assert abs(float(pump.mean()) - 389.2) < 5 * sem


def test_emissions_reproducible():
    cfg = make_config(seed=3, duration_ps=5e7).simulation
    tallies = EmissionTally(), EmissionTally()
    a = generate_emissions(cfg, range(pulse_count(cfg)), np.random.default_rng(3), tallies[0])
    b = generate_emissions(cfg, range(pulse_count(cfg)), np.random.default_rng(3), tallies[1])
    assert a.keys() == b.keys()
    assert all(a[name].tobytes() == b[name].tobytes() for name in a)  # bit-identical, NaN wavelengths included
    assert tallies[0] == tallies[1]


class _UnitGaps:
    """A generator stand-in whose geometric gaps are all 1 and that loses nothing."""

    def geometric(self, p, size):
        return np.ones(size, dtype=np.int64)

    def binomial(self, n, p):
        return 0


def test_thinning_draws_more_gaps_when_the_first_fall_short():
    # 100 trials at p = 0.01 draw 23 gaps at a time; gaps of 1 convert every trial
    index, lost = _thin(100, 0.01, 0.0, _UnitGaps())
    assert np.array_equal(index, np.arange(100)) and lost == 0


def test_thinning_at_certain_conversion_loses_nothing(rng):
    index, lost = _thin(1000, 1.0, 0.0, rng)
    assert np.array_equal(index, np.arange(1000)) and lost == 0


# Statistical referee: the thinned sampler against the per-photon-qe oracle.
# Each test rejects at REFEREE_ALPHA, fixed before the first run; the ten
# tests below reject a correct sampler with probability about 1%.
REFEREE_ALPHA = 1e-3
REFEREE_SEEDS = 60
REFEREE_PULSES = 40_000


def _outcomes(rows, emitted, period):
    """Per-trial outcome counts of one draw, and its qe-lost photon count.

    pairs (a trial per pulse): both photons converted with the HEP on path 0
    or 1, the HEP only on path 0 or 1, the LEP only on path 0 or 1, the pair
    lost, no pair. pump (a trial per pulse and path): converted on path 0 or
    1, lost, none. dark (a trial per emitted dark): converted on path 0 or 1,
    lost.
    """
    kind, path = rows["kind"], rows["path"]
    pulse = np.rint(rows["time_ps"] / period).astype(np.int64)
    hep, lep = kind == EventKind.HEP, kind == EventKind.LEP
    both = np.isin(pulse[hep], pulse[lep])  # per HEP row
    lep_only = ~np.isin(pulse[lep], pulse[hep])  # per LEP row
    hep_path, lep_path = path[hep], path[lep]
    lost_pairs = emitted["pairs"] - both.size - np.count_nonzero(lep_only)
    pairs = [np.count_nonzero(mask) for mask in (
        both & (hep_path == 0), both & (hep_path == 1), ~both & (hep_path == 0), ~both & (hep_path == 1),
        lep_only & (lep_path == 0), lep_only & (lep_path == 1))]
    pairs += [lost_pairs, REFEREE_PULSES - emitted["pairs"]]
    pump = [np.count_nonzero((kind == EventKind.PUMP) & (path == p)) for p in (0, 1)]
    pump += [emitted["pump"] - sum(pump), 2 * REFEREE_PULSES - emitted["pump"]]
    dark = [np.count_nonzero((kind == EventKind.DARK) & (path == p)) for p in (0, 1)]
    dark += [emitted["dark"] - sum(dark)]
    qe_lost = sum(pairs[2:6]) + 2 * lost_pairs + pump[2] + dark[2]
    return {"pairs": pairs, "pump": pump, "dark": dark}, qe_lost


@pytest.fixture(scope="module")
def referee():
    """Outcome tables and pooled rows of both samplers over REFEREE_SEEDS seeds."""
    cfg = make_config(dark_rate_hz=1e6).simulation
    period = cfg.pulse_period_ps
    out = {}
    for name in ("thinned", "per-photon"):
        tables = {"pairs": 0, "pump": 0, "dark": 0}
        pooled = []
        for seed in range(REFEREE_SEEDS):
            if name == "thinned":
                tally = EmissionTally()
                rows = generate_emissions(cfg, range(REFEREE_PULSES), np.random.default_rng(seed), tally)
                emitted = {"pairs": tally.pairs, "pump": tally.pump, "dark": tally.dark, "qe_lost": tally.qe_lost}
            else:
                rows, emitted = per_photon_qe_emissions(cfg, REFEREE_PULSES, np.random.default_rng(10_000 + seed))
            counts, qe_lost = _outcomes(rows, emitted, period)
            assert emitted["qe_lost"] == qe_lost  # every lost photon is counted once
            tables = {k: tables[k] + np.array(counts[k]) for k in tables}
            pooled.append(rows)
        out[name] = tables, {k: np.concatenate([r[k] for r in pooled]) for k in pooled[0]}
    return period, out


@pytest.mark.parametrize("trial", ["pairs", "pump", "dark"])
def test_outcome_counts_match_the_per_photon_oracle(referee, trial):
    """Chi-square homogeneity of the per-trial outcome counts, which hold the
    converted counts per (kind, path) and the emitted and qe-lost totals."""
    _, out = referee
    table = np.array([out["thinned"][0][trial], out["per-photon"][0][trial]])
    assert table.min() > 0
    assert stats.chi2_contingency(table).pvalue > REFEREE_ALPHA


def test_emitted_dark_totals_match_the_per_photon_oracle(referee):
    """Poisson totals of equal mean split binomially at 1/2."""
    _, out = referee
    a, b = (int(out[name][0]["dark"].sum()) for name in ("thinned", "per-photon"))
    assert stats.binomtest(a, a + b, 0.5).pvalue > REFEREE_ALPHA


@pytest.mark.parametrize("kind, column", [
    (EventKind.HEP, "wavelength_nm"), (EventKind.LEP, "wavelength_nm"), (EventKind.PUMP, "wavelength_nm"),
    (EventKind.HEP, "pulse"), (EventKind.PUMP, "pulse"), (EventKind.DARK, "time_ps"),
], ids=["hep-wavelength", "lep-wavelength", "pump-wavelength", "hep-pulse", "pump-pulse", "dark-time"])
def test_distributions_match_the_per_photon_oracle(referee, kind, column):
    """Two-sample Kolmogorov-Smirnov test of the converted photons' values."""
    period, out = referee
    samples = []
    for name in ("thinned", "per-photon"):
        rows = out[name][1]
        values = np.rint(rows["time_ps"] / period) if column == "pulse" else rows[column]
        samples.append(values[rows["kind"] == kind])
    assert min(s.size for s in samples) > 10_000
    assert stats.ks_2samp(*samples).pvalue > REFEREE_ALPHA
