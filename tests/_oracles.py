"""Independent brute-force reference implementations used as test oracles.

These deliberately share no code with the library paths they check: all-pairs
delay enumeration instead of the sliding window, direct arithmetic instead of
vectorised kernels. The report-text referees format one cell, bar or row at a
time, with their own copy of the figure layout, colour ramp and number format.
"""

from __future__ import annotations

import bisect
import math
from collections import Counter

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


def brute_sum_match(timestamps, channels, propagation_ticks, window_ticks):
    """Group one detector's time-sorted pulses by the two-stage sum-consistent
    rule of ROADMAP item 1, trigger by trigger.

    Channels are 0=MCP and 1-4=XA, XB, YA, YB; an axis's sum is a + b - 2t
    for its pulses a and b and the trigger t, and P is `propagation_ticks`.
    Stage 1: a trigger's candidates are the earliest pulse of each anode
    channel in [t, t + window]. It passes with all four and both sums within
    2 ticks of P, and is accepted when no candidate of it is a candidate of
    another passing trigger (nothing is claimed before stage 1 of a whole
    stream). Stage 2, in trigger order, for every other trigger, over the
    pulses no accepted group holds: per axis, the triples (t, a, b) with a
    and b in [t, t + window] and the sum within 3 ticks of P; the one with
    the smallest |sum - P|, then the earliest a, then the earliest b. The
    trigger is accepted when both axes have a triple, and its pulses are
    claimed. Returns ((t_mcp, t_xa, t_xb, t_ya, t_yb) tuples in trigger
    order, number of pulses in no group).
    """
    ts = [int(t) for t in timestamps]
    by_channel = [[] for _ in range(5)]
    for k, c in enumerate(channels):
        by_channel[int(c)].append(k)
    times = [[ts[k] for k in col] for col in by_channel]

    def in_window(c, t):
        """Channel c's pulses in [t, t + window], as record indices in time order."""
        return by_channel[c][bisect.bisect_left(times[c], t) : bisect.bisect_right(times[c], t + window_ticks)]

    def off(t, a, b):
        return abs(ts[a] + ts[b] - 2 * t - propagation_ticks)

    passing = {}
    for i in by_channel[0]:
        picks = [in_window(c, ts[i])[:1] for c in (1, 2, 3, 4)]
        if all(picks):
            xa, xb, ya, yb = (p[0] for p in picks)
            if off(ts[i], xa, xb) <= 2 and off(ts[i], ya, yb) <= 2:
                passing[i] = (xa, xb, ya, yb)
    uses = Counter(k for picks in passing.values() for k in picks)
    accepted = {i: picks for i, picks in passing.items() if all(uses[k] == 1 for k in picks)}
    claimed = {k for i, picks in accepted.items() for k in (i, *picks)}
    for i in by_channel[0]:
        if i in accepted:
            continue
        t = ts[i]
        best = [min(((off(t, a, b), ts[a], a, ts[b], b)
                     for a in in_window(a_ch, t) if a not in claimed
                     for b in in_window(a_ch + 1, t) if b not in claimed and off(t, a, b) <= 3), default=None)
                for a_ch in (1, 3)]
        if None not in best:
            accepted[i] = (best[0][2], best[0][4], best[1][2], best[1][4])
            claimed.update((i, *accepted[i]))
    groups = [tuple(ts[k] for k in (i, *accepted[i])) for i in sorted(accepted)]
    return groups, len(ts) - len(claimed)


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


def group_floats(groups, geometry, calibration):
    """x and y in mm, the wavelength in nm and the malformed mask of hit
    groups, from their tick columns: the float operations, in their order,
    that decoded events stored before they kept only integers. A referee for
    `reconstruction.hit_positions`, whose floats must equal these bit for bit
    (no tolerance) on the groups that are not malformed."""
    v = geometry.signal_speed_mm_per_ps
    tick = geometry.tick_ps
    t_prop = geometry.propagation_time_ps
    dx = (groups["t_xa"] - groups["t_xb"]).astype(np.float64) * tick
    dy = (groups["t_ya"] - groups["t_yb"]).astype(np.float64) * tick
    x = (dx + t_prop) * v / 2.0
    y = (dy + t_prop) * v / 2.0
    margin = v * tick
    size = geometry.size_mm
    bad = (x < -margin) | (x > size + margin) | (y < -margin) | (y > size + margin)
    np.clip(x, 0.0, size, out=x)
    np.clip(y, 0.0, size, out=y)
    wavelength = calibration.lambda_center_nm + (x - calibration.x_center_mm) * calibration.dispersion_nm_per_mm
    return x, y, wavelength, bad


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


# render's page size, margins and colour ramp
_SVG_W, _SVG_H = 900, 420
_SVG_ML, _SVG_MR, _SVG_MT, _SVG_MB = 70, 20, 34, 48
_SVG_RAMP = ((13, 8, 60), (40, 80, 160), (40, 170, 190), (250, 230, 85))


def _report_number(v):
    """6 significant digits for a float, `str` for anything else."""
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def _svg_color(frac):
    """The ramp colour at `frac` in [0, 1], linear between its four stops."""
    f = min(max(frac, 0.0), 1.0) * 3
    i = min(int(f), 2)
    t = f - i
    lo, hi = _SVG_RAMP[i], _SVG_RAMP[i + 1]
    return "#" + "".join(f"{round(a + (b - a) * t):02x}" for a, b in zip(lo, hi))


def _svg_header(title):
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W}" height="{_SVG_H}" '
        f'viewBox="0 0 {_SVG_W} {_SVG_H}" font-family="monospace" font-size="12">',
        f'<rect width="{_SVG_W}" height="{_SVG_H}" fill="white"/>',
        f'<text x="{_SVG_W / 2:.1f}" y="20" text-anchor="middle" font-size="14">{title}</text>',
    ]


def _svg_axis_labels(x_label, y_label):
    mid_y = (_SVG_MT + _SVG_H - _SVG_MB) / 2
    return [
        f'<text x="{(_SVG_ML + _SVG_W - _SVG_MR) / 2:.1f}" y="{_SVG_H - 10}" text-anchor="middle">{x_label}</text>',
        f'<text x="16" y="{mid_y:.1f}" text-anchor="middle" transform="rotate(-90 16 {mid_y:.1f})">{y_label}</text>',
    ]


def brute_svg_histogram(axis, heights, title, x_label, y_label="counts"):
    """`render.svg_histogram` drawing its bars bin by bin."""
    plot_w = _SVG_W - _SVG_ML - _SVG_MR
    plot_h = _SVG_H - _SVG_MT - _SVG_MB
    counts = np.nan_to_num(np.asarray(heights, dtype=np.float64), nan=0.0, posinf=0.0, neginf=0.0)
    top = float(counts.max()) if counts.size and counts.max() > 0 else 1.0
    parts = _svg_header(title)
    parts.append(
        f'<rect x="{_SVG_ML}" y="{_SVG_MT}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="black"/>'
    )
    n = axis.nbins
    bw = plot_w / n
    for i in range(n):
        c = counts[i]
        if c <= 0:
            continue
        h = c / top * plot_h
        x = _SVG_ML + i * bw
        parts.append(
            f'<rect x="{x:.2f}" y="{_SVG_MT + plot_h - h:.2f}" width="{max(bw, 0.5):.2f}" '
            f'height="{h:.2f}" fill="#27608f"/>'
        )
    edges = axis.edges()
    for frac, value in ((0.0, edges[0]), (0.5, (edges[0] + edges[-1]) / 2), (1.0, edges[-1])):
        x = _SVG_ML + frac * plot_w
        parts.append(f'<line x1="{x:.1f}" y1="{_SVG_MT + plot_h}" x2="{x:.1f}" y2="{_SVG_MT + plot_h + 5}" stroke="black"/>')
        parts.append(f'<text x="{x:.1f}" y="{_SVG_MT + plot_h + 18}" text-anchor="middle">{_report_number(value)}</text>')
    parts.append(f'<text x="{_SVG_ML}" y="{_SVG_MT - 6}">max {_report_number(top)}</text>')
    parts.extend(_svg_axis_labels(x_label, y_label))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def brute_svg_heatmap(hist, title, x_label, y_label):
    """`render.svg_heatmap` drawing its cells one by one, x outer, y inner."""
    m = np.log10(1.0 + np.maximum(hist.counts.astype(np.float64), 0.0))
    top = float(m.max()) if m.size and m.max() > 0 else 1.0
    side = min(_SVG_W - _SVG_ML - _SVG_MR, _SVG_H - _SVG_MT - _SVG_MB)
    nx, ny = m.shape
    cw = side / nx
    ch = side / ny
    parts = _svg_header(title)
    for i in range(nx):
        col = m[i]
        for j in range(ny):
            v = col[j]
            if v <= 0:
                continue
            x = _SVG_ML + i * cw
            y = _SVG_MT + side - (j + 1) * ch
            parts.append(
                f'<rect x="{x:.2f}" y="{y:.2f}" width="{cw + 0.05:.2f}" height="{ch + 0.05:.2f}" '
                f'fill="{_svg_color(v / top)}"/>'
            )
    parts.append(f'<rect x="{_SVG_ML}" y="{_SVG_MT}" width="{side:.1f}" height="{side:.1f}" fill="none" stroke="black"/>')
    for frac, value in ((0.0, hist.x.lo), (1.0, hist.x.upper)):
        x = _SVG_ML + frac * side
        parts.append(f'<text x="{x:.1f}" y="{_SVG_MT + side + 18}" text-anchor="middle">{_report_number(value)}</text>')
    for frac, value in ((0.0, hist.y.lo), (1.0, hist.y.upper)):
        y = _SVG_MT + side - frac * side
        parts.append(f'<text x="{_SVG_ML - 6:.1f}" y="{y:.1f}" text-anchor="end">{_report_number(value)}</text>')
    parts.append(f'<text x="{_SVG_ML + side + 12:.1f}" y="{_SVG_MT + 10}">log10(1+n), max {_report_number(top)}</text>')
    parts.extend(_svg_axis_labels(x_label, y_label))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def brute_bin_rows(axis, column, values):
    """`correlation.write_bin_rows`'s text, formatted row by row."""
    lines = [f"bin_lo,bin_hi,{column}\n"]
    edges = axis.edges().tolist()
    for lo, hi, v in zip(edges[:-1], edges[1:], values.tolist(), strict=True):
        lines.append(f"{lo:.6f},{hi:.6f},{_report_number(v)}\n")
    return "".join(lines)
