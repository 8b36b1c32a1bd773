"""Ground-truth emission streams: pulse count, photon pairs, scatter and darks.

Everything here is pre-detector physics. Each emitted photon is a row of an
EMISSION_DTYPE array: emission time, which collection path it entered (0 or 1,
one path per detector arm), what produced it, and its wavelength. Pair photons
are energy anti-correlated around the two polariton lines; the high-energy
member is routed to a uniformly random path and its partner to the other, so
both orderings occur with equal weight.
"""

from __future__ import annotations

import enum
import math

import numpy as np

from .config import SimConfig, fwhm_to_sigma

EMISSION_DTYPE = np.dtype(
    [
        ("time_ps", "<f8"),
        ("path", "u1"),
        ("kind", "u1"),
        ("wavelength_nm", "<f8"),
    ]
)


class EventKind(enum.IntEnum):
    HEP = 0  # high-energy pair member
    LEP = 1  # low-energy pair member
    PUMP = 2  # scattered excitation light
    DARK = 3  # photocathode dark count, no wavelength


def pulse_count(config: SimConfig) -> int:
    """Number of laser pulses: one at k * period for every k >= 0 with k * period < duration."""
    period = config.pulse_period_ps
    n = math.ceil(config.duration_ps / period)
    while n > 1 and (n - 1) * period >= config.duration_ps:
        n -= 1
    return n


def sample_pairs(config: SimConfig, pulse_times: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Draw photon pairs, one Bernoulli trial per pulse.

    A pair detuned by delta carries wavelengths (hep + delta, lep - delta * r^2)
    with r = lep/hep, which keeps 1/lambda_hep + 1/lambda_lep constant to first
    order in delta (energy conservation linearised in wavelength). Rows come
    out interleaved: even rows HEP, odd rows the partner LEP, sharing the pulse
    time exactly.
    """
    _check_sorted(pulse_times)
    emitted = rng.random(pulse_times.size) < config.pair_rate_per_pulse
    m = int(np.count_nonzero(emitted))
    out = np.empty(2 * m, dtype=EMISSION_DTYPE)
    if m == 0:
        return out
    sigma = fwhm_to_sigma(config.detuning_fwhm_nm)
    delta = rng.normal(0.0, sigma, m) if sigma > 0 else np.zeros(m)
    hep_path = rng.integers(0, 2, m).astype(np.uint8)
    ratio_sq = (config.lambda_lep_nm / config.lambda_hep_nm) ** 2
    t = pulse_times[emitted]
    out["time_ps"][0::2] = t
    out["time_ps"][1::2] = t
    out["kind"][0::2] = EventKind.HEP
    out["kind"][1::2] = EventKind.LEP
    out["path"][0::2] = hep_path
    out["path"][1::2] = 1 - hep_path
    out["wavelength_nm"][0::2] = config.lambda_hep_nm + delta
    out["wavelength_nm"][1::2] = config.lambda_lep_nm - delta * ratio_sq
    return out


def sample_background(
    config: SimConfig,
    pulse_times: np.ndarray,
    rng: np.random.Generator,
    time_range_ps: tuple[float, float] | None = None,
) -> np.ndarray:
    """Draw pump-scatter and dark-count events.

    Pump scatter is pulse-locked: per pulse and per path one Bernoulli trial at
    the pump line (Gaussian width line_fwhm_nm). Darks are a homogeneous
    Poisson process per detector path, uniform over time_range_ps (defaults to
    [0, duration)), with NaN wavelength: a dark count carries no spectral
    information until the anode assigns it a position.
    """
    _check_sorted(pulse_times)
    lo, hi = time_range_ps if time_range_ps is not None else (0.0, config.duration_ps)
    parts = []
    sigma = fwhm_to_sigma(config.line_fwhm_nm)
    for path in (0, 1):
        hit = rng.random(pulse_times.size) < config.pump_scatter_rate_per_pulse
        k = int(np.count_nonzero(hit))
        ev = np.empty(k, dtype=EMISSION_DTYPE)
        ev["time_ps"] = pulse_times[hit]
        ev["path"] = path
        ev["kind"] = EventKind.PUMP
        ev["wavelength_nm"] = (
            rng.normal(config.lambda_pump_nm, sigma, k) if sigma > 0 else config.lambda_pump_nm
        )
        parts.append(ev)
    span_s = max(hi - lo, 0.0) * 1e-12
    for path in (0, 1):
        n_dark = int(rng.poisson(config.dark_rate_hz * span_s)) if config.dark_rate_hz > 0 else 0
        ev = np.empty(n_dark, dtype=EMISSION_DTYPE)
        ev["time_ps"] = rng.uniform(lo, hi, n_dark)
        ev["path"] = path
        ev["kind"] = EventKind.DARK
        ev["wavelength_nm"] = np.nan
        parts.append(ev)
    return np.concatenate(parts) if parts else np.empty(0, dtype=EMISSION_DTYPE)


def generate_emissions(
    config: SimConfig,
    pulse_times: np.ndarray,
    rng: np.random.Generator,
    time_range_ps: tuple[float, float] | None = None,
) -> np.ndarray:
    """Pairs plus background, merged and stably time-sorted."""
    pairs = sample_pairs(config, pulse_times, rng)
    background = sample_background(config, pulse_times, rng, time_range_ps)
    events = np.concatenate([pairs, background])
    order = np.argsort(events["time_ps"], kind="stable")
    return events[order]


def _check_sorted(pulse_times: np.ndarray) -> None:
    if pulse_times.size > 1 and np.any(np.diff(pulse_times) < 0):
        raise ValueError("pulse_times must be sorted")
