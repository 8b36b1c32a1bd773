"""Independent brute-force reference implementations used as test oracles.

These deliberately share no code with the library paths they check: all-pairs
delay enumeration instead of the sliding window, direct arithmetic instead of
vectorised kernels.
"""

from __future__ import annotations

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
