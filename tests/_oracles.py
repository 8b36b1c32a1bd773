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
