"""Ground-truth emission streams: pulse count, photon pairs, scatter and darks.

Everything here is pre-detector physics. Emitted photons are `Columns`, the
package's table type, one row per photon: emission time, which collection
path it entered (0 or 1, one path per detector arm), what produced it (its
`kind`, which is also how emitted photons are counted), and its wavelength.
Pair photons are energy anti-correlated around the two polariton lines; the
high-energy member is routed to a uniformly random path and its partner to
the other, so both orderings occur with equal weight.
"""

from __future__ import annotations

import enum
import math

import numpy as np

from .config import SimConfig, fwhm_to_sigma


class EventKind(enum.IntEnum):
    HEP = 0  # high-energy pair member
    LEP = 1  # low-energy pair member
    PUMP = 2  # scattered excitation light
    DARK = 3  # photocathode dark count, no wavelength


class Columns(dict):
    """A table: equal-length 1-D arrays by name, one row per entry.

    Every in-memory table of the package is one: emissions and detections in
    the simulate chain, hit groups on both sides of the file, and decoded
    photon events. Simulated groups of both detectors share one table with a
    `detector` column; a decoded table holds one detector's rows and has no
    such column. A table holds its columns and nothing else, so a row
    selection keeps all of it. Packed records exist only at the `.dlde`
    boundary (`event_format.PULSE_DTYPE`). Gathering or joining a plain
    column is one contiguous copy, a packed record is copied field by field.

    `table["name"]` is a column; any other index (a slice, an index array or
    a mask) selects those rows of every column, as on a structured array.
    `size` is the row count.
    """

    def __getitem__(self, key):
        if isinstance(key, str):
            return super().__getitem__(key)
        return Columns({name: column[key] for name, column in self.items()})

    @property
    def size(self) -> int:
        return len(next(iter(self.values()), ()))


def pulse_count(config: SimConfig) -> int:
    """Number of laser pulses: one at k * period for every k >= 0 with k * period < duration."""
    period = config.pulse_period_ps
    n = math.ceil(config.duration_ps / period)
    while n > 1 and (n - 1) * period >= config.duration_ps:
        n -= 1
    return n


def sample_pairs(config: SimConfig, pulse_times: np.ndarray, rng: np.random.Generator) -> Columns:
    """Draw photon pairs, one Bernoulli trial per pulse.

    A pair detuned by delta carries wavelengths (hep + delta, lep - delta * r^2)
    with r = lep/hep, which keeps 1/lambda_hep + 1/lambda_lep constant to first
    order in delta (energy conservation linearised in wavelength). Rows come
    out interleaved: even rows HEP, odd rows the partner LEP, sharing the pulse
    time exactly.
    """
    _check_sorted(pulse_times)
    emitted = rng.random(pulse_times.size) < config.pair_rate_per_pulse
    t = pulse_times.take(np.flatnonzero(emitted))
    m = t.size
    time_ps = np.empty(2 * m)
    path = np.empty(2 * m, dtype=np.uint8)
    kind = np.empty(2 * m, dtype=np.uint8)
    wavelength = np.empty(2 * m)
    if m:
        sigma = fwhm_to_sigma(config.detuning_fwhm_nm)
        delta = rng.normal(0.0, sigma, m) if sigma > 0 else np.zeros(m)
        hep_path = rng.integers(0, 2, m).astype(np.uint8)
        ratio_sq = (config.lambda_lep_nm / config.lambda_hep_nm) ** 2
        time_ps[0::2] = t
        time_ps[1::2] = t
        path[0::2] = hep_path
        path[1::2] = 1 - hep_path
        kind[0::2] = EventKind.HEP
        kind[1::2] = EventKind.LEP
        wavelength[0::2] = config.lambda_hep_nm + delta
        wavelength[1::2] = config.lambda_lep_nm - delta * ratio_sq
    return Columns({"time_ps": time_ps, "path": path, "kind": kind, "wavelength_nm": wavelength})


def sample_background(
    config: SimConfig,
    pulse_times: np.ndarray,
    rng: np.random.Generator,
    time_range_ps: tuple[float, float] | None = None,
) -> Columns:
    """Draw pump-scatter and dark-count events.

    Pump scatter is pulse-locked: per pulse and per path one Bernoulli trial at
    the pump line (Gaussian width line_fwhm_nm). Darks are a homogeneous
    Poisson process of rate dark_rate_hz per detector path, uniform over
    time_range_ps (defaults to [0, duration)), with NaN wavelength: a dark
    count carries no spectral information until the anode assigns it a
    position. `detect` then applies qe to darks as to photons, so the dark
    rate at the anode is qe * dark_rate_hz (ROADMAP item 2 changes this). Rows
    come out as pump path 0, pump path 1, dark path 0, dark path 1.
    """
    _check_sorted(pulse_times)
    lo, hi = time_range_ps if time_range_ps is not None else (0.0, config.duration_ps)
    times, wavelengths = [], []
    sigma = fwhm_to_sigma(config.line_fwhm_nm)
    for _path in (0, 1):
        hit = rng.random(pulse_times.size) < config.pump_scatter_rate_per_pulse
        t = pulse_times.take(np.flatnonzero(hit))
        times.append(t)
        wavelengths.append(
            rng.normal(config.lambda_pump_nm, sigma, t.size) if sigma > 0 else np.full(t.size, config.lambda_pump_nm)
        )
    span_s = max(hi - lo, 0.0) * 1e-12
    for _path in (0, 1):
        n_dark = int(rng.poisson(config.dark_rate_hz * span_s)) if config.dark_rate_hz > 0 else 0
        times.append(rng.uniform(lo, hi, n_dark))
        wavelengths.append(np.full(n_dark, np.nan))
    sizes = [t.size for t in times]
    return Columns({
        "time_ps": np.concatenate(times),
        "path": np.repeat(np.array([0, 1, 0, 1], dtype=np.uint8), sizes),
        "kind": np.repeat(np.array([EventKind.PUMP] * 2 + [EventKind.DARK] * 2, dtype=np.uint8), sizes),
        "wavelength_nm": np.concatenate(wavelengths),
    })


def generate_emissions(
    config: SimConfig,
    pulse_times: np.ndarray,
    rng: np.random.Generator,
    time_range_ps: tuple[float, float] | None = None,
) -> Columns:
    """Pairs plus background, merged and stably time-sorted."""
    pairs = sample_pairs(config, pulse_times, rng)
    background = sample_background(config, pulse_times, rng, time_range_ps)
    # each part's column is dropped once merged, and each merged column once
    # gathered, so at most one column is live twice
    merged = {name: np.concatenate([pairs.pop(name), background.pop(name)]) for name in list(pairs)}
    order = np.argsort(merged["time_ps"], kind="stable")
    return Columns({name: merged.pop(name).take(order) for name in list(merged)})


def _check_sorted(pulse_times: np.ndarray) -> None:
    if pulse_times.size > 1 and np.any(pulse_times[1:] < pulse_times[:-1]):
        raise ValueError("pulse_times must be sorted")
