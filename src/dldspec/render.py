"""Dependency-free SVG rendering of bar charts and joint-spectrum heatmaps.

A bar chart draws one height per bin of an `Axis`: a histogram's counts or
a curve derived from them, such as the normalized g2. A heatmap draws a
`Histogram2D`. Hand-rolled on purpose: the generated markup is a pure
function of the data, so report bundles are byte-identical across reruns,
which the plotting libraries do not guarantee. Figures are diagnostic, not
publication art.

A figure has few distinct values: a heatmap's x and y positions and counts, a
bar chart's heights. Each distinct value's text is formatted once
(`csvtext.distinct_texts`), and each cell or bar line indexes those texts, so
no Python code runs per cell.
"""

from __future__ import annotations

import numpy as np

from .correlation import Axis, Histogram2D, fmt_number
from .csvtext import distinct_texts

_W, _H = 900, 420
_ML, _MR, _MT, _MB = 70, 20, 34, 48

# Dark-blue -> cyan -> yellow ramp; perceptually ordered enough for counts.
_RAMP = ((13, 8, 60), (40, 80, 160), (40, 170, 190), (250, 230, 85))


def _color(frac: float) -> str:
    f = min(max(frac, 0.0), 1.0) * (len(_RAMP) - 1)
    i = min(int(f), len(_RAMP) - 2)
    t = f - i
    r, g, b = (round(a + (b_ - a) * t) for a, b_ in zip(_RAMP[i], _RAMP[i + 1]))
    return f"#{r:02x}{g:02x}{b:02x}"


def _header(title: str) -> list[str]:
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}" font-family="monospace" font-size="12">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2:.1f}" y="20" text-anchor="middle" font-size="14">{title}</text>',
    ]


def _axis_labels(x_label: str, y_label: str) -> list[str]:
    return [
        f'<text x="{(_ML + _W - _MR) / 2:.1f}" y="{_H - 10}" text-anchor="middle">{x_label}</text>',
        f'<text x="16" y="{(_MT + _H - _MB) / 2:.1f}" text-anchor="middle" '
        f'transform="rotate(-90 16 {(_MT + _H - _MB) / 2:.1f})">{y_label}</text>',
    ]


def svg_histogram(axis: Axis, heights: np.ndarray, title: str, x_label: str, y_label: str = "counts") -> str:
    """Bar chart on a linear scale, one bar per bin of `axis`: a histogram's
    counts or any other curve on its bins. A non-finite height draws no bar;
    a number of heights other than the bins' raises ValueError.
    """
    plot_w = _W - _ML - _MR
    plot_h = _H - _MT - _MB
    if np.shape(heights) != (axis.nbins,):
        raise ValueError(f"{np.shape(heights)} heights for {axis.nbins} bins")
    counts = np.nan_to_num(np.asarray(heights, dtype=np.float64), nan=0.0, posinf=0.0, neginf=0.0)
    top = float(counts.max()) if counts.size and counts.max() > 0 else 1.0
    parts = _header(title)
    parts.append(
        f'<rect x="{_ML}" y="{_MT}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="black"/>'
    )
    bw = plot_w / axis.nbins
    bars = np.flatnonzero(counts > 0)

    def tail(c: float) -> str:
        h = c / top * plot_h
        return f'" y="{_MT + plot_h - h:.2f}" width="{max(bw, 0.5):.2f}" height="{h:.2f}" fill="#27608f"/>'

    rects = distinct_texts(_ML + bars * bw, '<rect x="{:.2f}'.format) + distinct_texts(counts[bars], tail)
    parts += rects.tolist()
    edges = axis.edges()
    for frac, value in ((0.0, edges[0]), (0.5, (edges[0] + edges[-1]) / 2), (1.0, edges[-1])):
        x = _ML + frac * plot_w
        parts.append(f'<line x1="{x:.1f}" y1="{_MT + plot_h}" x2="{x:.1f}" y2="{_MT + plot_h + 5}" stroke="black"/>')
        parts.append(f'<text x="{x:.1f}" y="{_MT + plot_h + 18}" text-anchor="middle">{fmt_number(value)}</text>')
    parts.append(f'<text x="{_ML}" y="{_MT - 6}">max {fmt_number(top)}</text>')
    parts.extend(_axis_labels(x_label, y_label))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def svg_heatmap(hist: Histogram2D, title: str, x_label: str, y_label: str) -> str:
    """Log-scale heatmap, log10(1 + n), of a 2D histogram, ticked at `lo` and
    `upper` of its `x` and `y` axes.

    Negative cells (possible after subtraction) are floored to zero for
    display, matching the log-scale plotting convention.
    """
    m = np.log10(1.0 + np.maximum(hist.counts.astype(np.float64), 0.0))
    top = float(m.max()) if m.size and m.max() > 0 else 1.0
    side = min(_W - _ML - _MR, _H - _MT - _MB)
    nx, ny = m.shape
    cw = side / nx
    ch = side / ny
    size = f'" width="{cw + 0.05:.2f}" height="{ch + 0.05:.2f}" fill="'
    # x axis -> horizontal, y axis -> vertical, origin bottom-left
    x_texts = distinct_texts(_ML + np.arange(nx) * cw, '<rect x="{:.2f}" y="'.format)
    y_texts = distinct_texts(_MT + side - (np.arange(ny) + 1) * ch, lambda y: f"{y:.2f}{size}")
    i, j = np.nonzero(m > 0)  # row-major: x outer, y inner
    rects = x_texts[i] + y_texts[j] + distinct_texts(m[i, j], lambda v: _color(v / top)) + '"/>'
    parts = _header(title) + rects.tolist()
    parts.append(f'<rect x="{_ML}" y="{_MT}" width="{side:.1f}" height="{side:.1f}" fill="none" stroke="black"/>')
    for frac, value in ((0.0, hist.x.lo), (1.0, hist.x.upper)):
        x = _ML + frac * side
        parts.append(f'<text x="{x:.1f}" y="{_MT + side + 18}" text-anchor="middle">{fmt_number(value)}</text>')
    for frac, value in ((0.0, hist.y.lo), (1.0, hist.y.upper)):
        y = _MT + side - frac * side
        parts.append(f'<text x="{_ML - 6:.1f}" y="{y:.1f}" text-anchor="end">{fmt_number(value)}</text>')
    parts.append(f'<text x="{_ML + side + 12:.1f}" y="{_MT + 10}">log10(1+n), max {fmt_number(top)}</text>')
    parts.extend(_axis_labels(x_label, y_label))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
