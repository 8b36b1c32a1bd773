"""Ground-truth emission streams: photon pairs, scatter and darks.

The samplers draw only the photons the detector's quantum efficiency
converts: qe is an independent coin per photon, so the converted photons of
each source are an exact thinning of its emissions (Kingman, *Poisson
Processes*, 1993), and the lost ones are only counted. Converted photons are
`Columns`, one row per photon: emission time, collection path (0 or 1, one per
detector arm), `kind` and wavelength, in no time order. Pair photons are
energy anti-correlated around the two polariton lines; the high-energy member
takes a uniformly random path and its partner the other. `EventKind`, a
photon's origin, is simulation truth: it lives here, where the analysis
cannot import it. The pulse count is `config.pulse_count`.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .config import SimConfig, fwhm_to_sigma, pulse_count
from .event_format import Columns


class EventKind(enum.IntEnum):
    HEP = 0  # high-energy pair member
    LEP = 1  # low-energy pair member
    PUMP = 2  # scattered excitation light
    DARK = 3  # photocathode dark count, no wavelength


@dataclass
class EmissionTally:
    """Photons emitted and photons qe lost, summed over a run's blocks."""

    pairs: int = 0
    pump: int = 0
    dark: int = 0
    qe_lost: int = 0


def _thin(n: int, p_converted: float, p_lost: float, rng: np.random.Generator) -> tuple[np.ndarray, int]:
    """n independent trials, each converted, lost or neither: the sorted
    indices of the converted trials and the number of lost ones.

    The gaps between converted trials are i.i.d. geometric, so the draw costs
    O(n * p_converted), not O(n); a gap is clipped at n + 1, past the last
    trial either way, so the running sums cannot overflow. The lost count is a
    binomial draw over the trials left.
    """
    index = np.empty(0, dtype=np.int64)
    if p_converted > 0.0:
        size = int(n * p_converted + 6.0 * math.sqrt(n * p_converted)) + 16
        index = np.cumsum(np.minimum(rng.geometric(p_converted, size), n + 1)) - 1
        while index[-1] < n:  # rare: the gaps fell short of the last trial
            index = np.append(index, index[-1] + np.cumsum(np.minimum(rng.geometric(p_converted, size), n + 1)))
        index = index[: np.searchsorted(index, n)]
    p_lost_left = min(p_lost / (1.0 - p_converted), 1.0) if p_converted < 1.0 else 0.0
    return index, int(rng.binomial(n - index.size, p_lost_left))


def sample_pairs(config: SimConfig, pulses: range, rng: np.random.Generator, tally: EmissionTally) -> Columns:
    """Draw the photons of pairs that qe converts, over a range of pulse indices.

    A pulse emits a pair with probability p (pair_rate_per_pulse) and qe
    converts each photon with probability q, so it has both photons converted
    (p q^2), the HEP only or the LEP only (p q (1-q) each), its pair lost
    (p (1-q)^2) or no pair. Only pulses with a converted photon get a
    detuning and a HEP path; lost pairs are counted into `tally`.

    A pair detuned by delta carries wavelengths (hep + delta, lep - delta * r^2)
    with r = lep/hep, which keeps 1/lambda_hep + 1/lambda_lep constant to first
    order in delta (energy conservation linearised in wavelength). Rows come in
    pulse order, a HEP before its partner LEP at the same pulse time, so at
    qe 1 even rows are HEP and odd rows their LEP.
    """
    p, q = config.pair_rate_per_pulse, config.qe
    k, lost = _thin(len(pulses), p * q * (2.0 - q), p * (1.0 - q) ** 2, rng)
    m = k.size
    u = rng.random(m) * (2.0 - q)  # u < q: both converted; q <= u < 1: the HEP only; else the LEP only
    delta = rng.normal(0.0, fwhm_to_sigma(config.detuning_fwhm_nm), m)
    hep_path = rng.integers(0, 2, m).astype(np.uint8)
    converted = np.empty(2 * m, dtype=bool)
    converted[0::2] = u < 1.0
    converted[1::2] = (u < q) | (u >= 1.0)
    wavelength = np.empty(2 * m)
    wavelength[0::2] = config.lambda_hep_nm + delta
    wavelength[1::2] = config.lambda_lep_nm - delta * (config.lambda_lep_nm / config.lambda_hep_nm) ** 2
    rows = Columns({
        "time_ps": np.repeat((pulses.start + k) * config.pulse_period_ps, 2),
        "path": np.repeat(hep_path, 2) ^ np.tile(np.array([0, 1], dtype=np.uint8), m),
        "kind": np.tile(np.array([EventKind.HEP, EventKind.LEP], dtype=np.uint8), m),
        "wavelength_nm": wavelength,
    })[np.flatnonzero(converted)]  # rows by index: a mask this random selects about 8x slower
    tally.pairs += m + lost
    tally.qe_lost += 2 * (m + lost) - rows.size
    return rows


def sample_background(config: SimConfig, pulses: range, rng: np.random.Generator, tally: EmissionTally) -> Columns:
    """Draw the pump-scatter and dark-count events that qe converts.

    Pump scatter is pulse-locked: per pulse and per path one Bernoulli trial
    (pump_scatter_rate_per_pulse) at the pump line (Gaussian width
    line_fwhm_nm), converted with probability qe. Darks are a homogeneous
    Poisson process of rate dark_rate_hz per path over the pulses' span,
    [start, stop) * period and up to duration_ps after the run's last pulse:
    a Poisson count per path, of which qe converts a binomial share, uniform
    in time with NaN wavelength (a dark count carries no spectral information
    until the anode assigns it a position). So the dark rate at the anode is
    qe * dark_rate_hz (ROADMAP item 2 changes this). Rows come out as pump
    path 0, pump path 1, dark path 0, dark path 1.
    """
    rho, q, period = config.pump_scatter_rate_per_pulse, config.qe, config.pulse_period_ps
    n = len(pulses)
    trial, lost = _thin(2 * n, rho * q, rho * (1.0 - q), rng)
    pump_path, pump_pulse = np.divmod(trial, n)
    pump_wavelength = rng.normal(config.lambda_pump_nm, fwhm_to_sigma(config.line_fwhm_nm), trial.size)
    lo = pulses.start * period
    hi = pulses.stop * period if pulses.stop < pulse_count(config) else config.duration_ps
    emitted_dark = rng.poisson(config.dark_rate_hz * (hi - lo) * 1e-12, 2)
    dark = rng.binomial(emitted_dark, q)
    n_emitted_dark, n_dark = int(emitted_dark.sum()), int(dark.sum())
    tally.pump += trial.size + lost
    tally.dark += n_emitted_dark
    tally.qe_lost += lost + n_emitted_dark - n_dark
    return Columns({
        "time_ps": np.concatenate([(pulses.start + pump_pulse) * period, rng.uniform(lo, hi, n_dark)]),
        "path": np.concatenate([pump_path, np.repeat([0, 1], dark)]).astype(np.uint8),
        "kind": np.repeat(np.array([EventKind.PUMP, EventKind.DARK], dtype=np.uint8), [trial.size, n_dark]),
        "wavelength_nm": np.concatenate([pump_wavelength, np.full(n_dark, np.nan)]),
    })


def generate_emissions(config: SimConfig, pulses: range, rng: np.random.Generator, tally: EmissionTally) -> Columns:
    """The converted photons of a range of pulse indices: pairs, then pump
    scatter and darks, in no time order (group order is decided downstream,
    after dead time)."""
    pairs = sample_pairs(config, pulses, rng, tally)
    background = sample_background(config, pulses, rng, tally)
    return Columns({name: np.concatenate([pairs[name], background[name]]) for name in pairs})
