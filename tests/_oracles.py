"""Independent brute-force reference implementations used as test oracles.

These deliberately share no code with the library paths they check: all-pairs
delay enumeration instead of the sliding window, direct arithmetic instead of
vectorised kernels.
"""

from __future__ import annotations

import bisect
import math

import numpy as np


def all_pairs_delays(t1, t2):
    """Every t2 - t1 difference, unordered; O(n1 * n2)."""
    t1 = np.asarray(t1, dtype=np.int64)
    t2 = np.asarray(t2, dtype=np.int64)
    return (t2[None, :] - t1[:, None]).reshape(-1)


def brute_delay_histogram(t1, t2, lo, hi, width):
    """All-pairs histogram over [lo, lo + nbins * width)."""
    nbins = math.ceil((hi - lo) / width - 1e-12)
    taus = all_pairs_delays(t1, t2).astype(np.float64)
    upper = lo + nbins * width
    taus = taus[(taus >= lo) & (taus < upper)]
    idx = np.floor((taus - lo) / width).astype(np.int64)
    return np.bincount(idx, minlength=nbins)


def brute_coincidences(t1, t2, window):
    """All (i, j) with t2[j] - t1[i] in the closed window, i-major order."""
    lo, hi = window
    out = []
    for i, a in enumerate(np.asarray(t1, dtype=np.int64)):
        for j, b in enumerate(np.asarray(t2, dtype=np.int64)):
            if lo <= b - a <= hi:
                out.append((i, j))
    return out


def brute_match_hits(timestamps, channels, propagation_ticks, window_ticks, sum_tol_ticks):
    """Group one detector's time-sorted pulses trigger by trigger.

    Channels are 0=MCP and 1-4=XA, XB, YA, YB. For each MCP pulse at t, the
    first pulse of each anode channel in [t, t + window] is its candidate; the
    group is kept when both timing sums are within tolerance of the
    propagation time. Returns ((t_mcp, t_xa, t_xb, t_ya, t_yb) tuples, number
    of pulses in no kept group).
    """
    ts = [int(t) for t in timestamps]
    ch = [int(c) for c in channels]
    claimed = [False] * len(ts)
    groups = []
    for i in range(len(ts)):
        if ch[i] != 0:
            continue
        t = ts[i]
        picks = []
        for want in (1, 2, 3, 4):
            k = bisect.bisect_left(ts, t)
            while k < len(ts) and ts[k] <= t + window_ticks and ch[k] != want:
                k += 1
            if k < len(ts) and ts[k] <= t + window_ticks:
                picks.append(k)
        if len(picks) < 4:
            continue
        xa, xb, ya, yb = (ts[k] for k in picks)
        if abs(xa + xb - 2 * t - propagation_ticks) <= sum_tol_ticks and abs(
            ya + yb - 2 * t - propagation_ticks
        ) <= sum_tol_ticks:
            groups.append((t, xa, xb, ya, yb))
            for k in (i, *picks):
                claimed[k] = True
    return groups, claimed.count(False)


def brute_dead_time(detectors, triggers, dead_time_ps, tick_ps=1):
    """Dead-time survivors by comparing every pair of triggers.

    Per detector, both detections of any pair whose MCP triggers are at most
    floor(dead_time_ps / tick_ps) ticks apart are dropped. Returns (indices of
    the kept detections in input order, per-detector discard counts for
    detectors 0 and 1).
    """
    dead_ticks = math.floor(dead_time_ps / tick_ps)
    dets = [int(d) for d in detectors]
    ts = [int(t) for t in triggers]
    dropped = [False] * len(ts)
    for i in range(len(ts)):
        for j in range(i + 1, len(ts)):
            if dets[i] == dets[j] and abs(ts[i] - ts[j]) <= dead_ticks:
                dropped[i] = dropped[j] = True
    kept = [i for i in range(len(ts)) if not dropped[i]]
    discards = tuple(sum(1 for i in range(len(ts)) if dropped[i] and dets[i] == d) for d in (0, 1))
    return kept, discards


def brute_serialize(carry_rows, group_rows):
    """File order of pulses: a sorted carry merged with flattened hit groups.

    `carry_rows` are (detector, channel, timestamp) tuples already in file
    order; `group_rows` are (detector, t_mcp, t_xa, t_xb, t_ya, t_yb) tuples,
    each giving channels 0-4 in that order. Pulses are listed by timestamp;
    equal timestamps keep carry pulses first, then group order, then channel
    order. Returns (detector, channel, timestamp) tuples.
    """
    keyed = [((int(t), 0, i, 0), (int(d), int(c), int(t))) for i, (d, c, t) in enumerate(carry_rows)]
    for g, (d, *times) in enumerate(group_rows):
        keyed += [((int(t), 1, g, c), (int(d), c, int(t))) for c, t in enumerate(times)]
    return [row for _, row in sorted(keyed)]


def events_csv_text(events):
    """Events CSV formatted row by row from numpy fields, header included."""
    lines = ["detector,t_ps,x_mm,y_mm,lambda_nm\n"]
    for row in events:
        lines.append(
            f"{int(row['detector']) + 1},{int(row['t_ps'])},"
            f"{row['x_mm']:.6f},{row['y_mm']:.6f},{row['wavelength_nm']:.6f}\n"
        )
    return "".join(lines)


def position_from_times(t_xa, t_xb, propagation_time_ps, speed_mm_per_ps):
    """Direct evaluation of the time-difference-to-position line."""
    return ((t_xa - t_xb) + propagation_time_ps) * speed_mm_per_ps / 2.0


def gaussian_fwhm_from_samples(samples):
    """Sample-standard-deviation estimate of a Gaussian FWHM."""
    return 2.0 * math.sqrt(2.0 * math.log(2.0)) * float(np.std(samples))


def per_photon_qe_emissions(config, n_pulses, rng):
    """Every photon of pulses [0, n_pulses), then one qe coin per photon.

    `config` is a simulation config read by attribute. Each pulse makes one
    Bernoulli pair trial (a HEP row then its LEP row at the pulse time, the
    HEP on a uniformly random path, wavelengths detuned by a Gaussian delta as
    (hep + delta, lep - delta * (lep / hep)^2)) and, per path, one Bernoulli
    pump-scatter trial at a Gaussian pump line. Darks are a Poisson count per
    path, uniform over [0, n_pulses * period), with NaN wavelength. Each row
    then survives with probability qe. Kinds are 0 HEP, 1 LEP, 2 pump, 3 dark.

    Returns (the surviving rows as a dict of time_ps, path, kind and
    wavelength_nm columns, a dict of the emitted pair, pump and dark counts
    and the qe-lost photons).
    """
    def sigma(fwhm):
        return fwhm / (2.0 * math.sqrt(2.0 * math.log(2.0)))

    period = 1e12 / config.rep_rate_hz
    times = np.arange(n_pulses) * period
    t_pair = times[rng.random(n_pulses) < config.pair_rate_per_pulse]
    m = t_pair.size
    delta = rng.normal(0.0, sigma(config.detuning_fwhm_nm), m)
    hep_path = rng.integers(0, 2, m)
    lep_shift = delta * (config.lambda_lep_nm / config.lambda_hep_nm) ** 2
    time_ps = [np.repeat(t_pair, 2)]
    path = [np.column_stack([hep_path, 1 - hep_path]).ravel()]
    kind = [np.tile([0, 1], m)]
    wavelength = [np.column_stack([config.lambda_hep_nm + delta, config.lambda_lep_nm - lep_shift]).ravel()]
    for p in (0, 1):
        t_pump = times[rng.random(n_pulses) < config.pump_scatter_rate_per_pulse]
        time_ps.append(t_pump)
        path.append(np.full(t_pump.size, p))
        kind.append(np.full(t_pump.size, 2))
        wavelength.append(rng.normal(config.lambda_pump_nm, sigma(config.line_fwhm_nm), t_pump.size))
    span = n_pulses * period
    n_dark = [int(rng.poisson(config.dark_rate_hz * span * 1e-12)) for _ in (0, 1)]
    for p in (0, 1):
        time_ps.append(rng.uniform(0.0, span, n_dark[p]))
        path.append(np.full(n_dark[p], p))
        kind.append(np.full(n_dark[p], 3))
        wavelength.append(np.full(n_dark[p], np.nan))
    rows = {"time_ps": time_ps, "path": path, "kind": kind, "wavelength_nm": wavelength}
    rows = {name: np.concatenate(parts) for name, parts in rows.items()}
    survive = rng.random(rows["kind"].size) < config.qe
    emitted = {"pairs": m, "pump": int(np.count_nonzero(rows["kind"] == 2)), "dark": sum(n_dark),
               "qe_lost": int(survive.size - np.count_nonzero(survive))}
    return {name: column[survive] for name, column in rows.items()}, emitted
