"""Coincidence analysis: delay histograms, peak fits, spectra, joint spectra.

Conventions, shared by every operation and by the brute-force test oracles:

* Delays are always t2 - t1 (detector 2 minus detector 1).
* `Axis` is the one binning type: an immutable value of nbins fixed-width
  bins on the half-open domain [lo, lo + nbins * width), built from a config's
  (lo, hi, width) with nbins = ceil((hi - lo) / width). A value exactly at the
  upper domain edge is out: `fill` drops it, whatever its bin index rounds to.
* A histogram is axes plus counts: `Histogram1D` counts on one `Axis`, and
  `Histogram2D` (a joint spectrum, its accidental estimate or their signed
  difference) on two. Histograms share axes freely and never share counts.
* A histogram's `to_csv` formats whole columns (`csvtext.csv_rows`); any other
  curve on an axis's bins is a `bin_lo,bin_hi,<column>` CSV (`write_bin_rows`).
* Coincidence selection windows are closed, [lo, hi] inclusive on both ends.
  Delays are integer picoseconds, so a delay d is inside [lo, hi] exactly when
  ceil(lo) <= d <= floor(hi) (`in_window`).
* Pair search never materialises the all-pairs product: both streams are
  time-sorted, so for each left event the partner range is found with two
  binary searches and only in-window pairs are expanded, block by block.
* An analysis makes one pair search: `pipeline.analyze_events` selects the
  pairs of one closed window spanning the g2 domain and every closed window,
  and derives everything from their delays. The g2 histogram bins them (its
  half-open upper edge is enforced by `fill`, not by the search), and
  `in_window` filters them per closed window.

Merging chunk-partial histograms on equal axes is exact, so histograms
accumulated over chunks or separate runs add up to the single-pass result.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np
from scipy import optimize

from .config import CorrelationConfig, GAUSSIAN_FWHM_OVER_SIGMA
from .csvtext import csv_rows, distinct_texts

_PAIR_BLOCK = 1 << 17
# Histogram1D.fill bins this many values at a time, so its temporaries are
# a block's size however many values it counts
_FILL_BLOCK = 1 << 16
# fit_fwhm fits the bins within this many bin widths of the peak center
_FIT_HALFWIDTH_BINS = 5


class FitError(RuntimeError):
    """Gaussian peak fit failed to converge or is ill-posed."""


class DegeneratePeakError(FitError):
    """Too few populated bins around the requested peak to fit."""


class AxisMismatchError(ValueError):
    """Histograms with different axes cannot be merged or subtracted."""


def fmt_number(v) -> str:
    """Report number format: 6 significant digits for floats (`nan`, `inf` and
    `-inf` included), `str` for anything else."""
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def _counts(counts, shape: tuple[int, ...]) -> np.ndarray:
    """A fresh int64 array of `shape`: zeros when `counts` is None, else a copy
    of `counts`, so no histogram shares another's counts."""
    counts = np.zeros(shape, dtype=np.int64) if counts is None else np.array(counts, dtype=np.int64)
    if counts.shape != shape:
        raise ValueError(f"counts shape {counts.shape} != {shape}")
    return counts


@dataclass(frozen=True)
class Axis:
    """`nbins` bins of `width` on the half-open domain [lo, upper); a value,
    equal to every axis with the same bins."""

    lo: float
    width: float
    nbins: int

    def __post_init__(self):
        # floats even when a config spells them as integers, so edges print as floats
        object.__setattr__(self, "lo", float(self.lo))
        object.__setattr__(self, "width", float(self.width))
        if self.nbins <= 0:
            raise ValueError("histogram axis must span at least one bin")

    @classmethod
    def spanning(cls, lo: float, hi: float, width: float) -> "Axis":
        """The axis from `lo` in bins of `width`, ceil((hi - lo) / width) of them."""
        return cls(lo, width, int(math.ceil((hi - lo) / width - 1e-12)))

    @property
    def upper(self) -> float:
        """The excluded upper domain edge, lo + nbins * width."""
        return self.lo + self.nbins * self.width

    def edges(self) -> np.ndarray:
        return self.lo + self.width * np.arange(self.nbins + 1)

    def centers(self) -> np.ndarray:
        return self.lo + self.width * (np.arange(self.nbins) + 0.5)

    def index(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Each value's bin index and the mask of the values inside the domain.

        A value at or above `upper` is out even where its index rounds below
        nbins; an index that rounds up to nbins is out too.
        """
        v = np.asarray(values, dtype=np.float64)
        idx = (v - self.lo) / self.width
        np.floor(idx, out=idx)
        return idx, (v >= self.lo) & (v < self.upper) & (idx < self.nbins)


def write_bin_rows(sink, axis: Axis, column: str, values: np.ndarray) -> None:
    """`bin_lo,bin_hi,<column>` lines, one per bin of `axis`, to an open text
    file; `values` holds one number per bin, in `fmt_number`'s format.

    The edges print as `%.6f` (`csvtext.csv_rows`). Each distinct value's text
    is formatted once and each row indexes it (`csvtext.distinct_texts`)."""
    if np.shape(values) != (axis.nbins,):
        raise ValueError(f"{np.shape(values)} values for {axis.nbins} bins")
    edges = axis.edges()
    rows = np.array(csv_rows([edges[:-1], edges[1:]]).splitlines(), dtype=object)
    sink.write(f"bin_lo,bin_hi,{column}\n")
    sink.write("".join((rows + "," + distinct_texts(values, fmt_number) + "\n").tolist()))


@dataclass
class Histogram1D:
    """Counts per bin of `axis`."""

    axis: Axis
    counts: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        self.counts = _counts(self.counts, (self.axis.nbins,))

    def fill(self, values: np.ndarray) -> None:
        """Count each value inside the domain in its bin, _FILL_BLOCK values at a time."""
        values = np.asarray(values)
        for b in range(0, values.size, _FILL_BLOCK):
            idx, ok = self.axis.index(values[b : b + _FILL_BLOCK])
            counts = np.bincount(idx[ok].astype(np.int64))
            self.counts[: counts.size] += counts
            del idx, ok  # not live under the next block's temporaries

    def merge(self, other: "Histogram1D") -> "Histogram1D":
        if self.axis != other.axis:
            raise AxisMismatchError("1D histogram axes differ")
        return Histogram1D(self.axis, self.counts + other.counts)

    def to_csv(self, sink) -> None:
        """`bin_lo,bin_hi,count` lines to an open text file (`csvtext.csv_rows`)."""
        edges = self.axis.edges()
        sink.write("bin_lo,bin_hi,count\n")
        sink.write(csv_rows([edges[:-1], edges[1:], self.counts]))


@dataclass
class Histogram2D:
    """Counts[i, j] of bin i of axis `x` and bin j of axis `y`."""

    x: Axis
    y: Axis
    counts: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        self.counts = _counts(self.counts, (self.x.nbins, self.y.nbins))

    def fill(self, xs: np.ndarray, ys: np.ndarray) -> None:
        xi, x_ok = self.x.index(xs)
        yi, y_ok = self.y.index(ys)
        nx, ny = self.counts.shape
        ok = x_ok & y_ok
        if np.any(ok):
            flat = xi[ok].astype(np.int64) * ny + yi[ok].astype(np.int64)
            self.counts += np.bincount(flat, minlength=nx * ny).reshape(nx, ny)

    def merge(self, other: "Histogram2D") -> "Histogram2D":
        if (self.x, self.y) != (other.x, other.y):
            raise AxisMismatchError("2D histogram axes differ")
        return Histogram2D(self.x, self.y, self.counts + other.counts)

    def to_csv(self, sink) -> None:
        """Sparse `x_bin,y_bin,count` triplets (bin lower edges) to an open text
        file, edges as `%.6f` and counts as `%d` (`csvtext.csv_rows`); zeros
        skipped."""
        i, j = np.nonzero(self.counts)
        sink.write("x_bin,y_bin,count\n")
        sink.write(csv_rows([self.x.edges()[i], self.y.edges()[j], self.counts[i, j]]))


def _event_times(events) -> np.ndarray:
    arr = np.asarray(events).astype(np.int64, copy=False)
    # neighbours compared, not differenced: a difference wraps for times 2**63 or more apart
    if np.any(arr[1:] < arr[:-1]):
        raise ValueError("event times must be sorted")
    return arr


def _closed_bounds(lo: float, hi: float) -> tuple[int, int]:
    """Integer delay range [first, last] of the closed window [lo, hi]."""
    return int(math.ceil(lo)), int(math.floor(hi))


def in_window(delays: np.ndarray, window: tuple[float, float]) -> np.ndarray:
    """Mask of integer delays inside the closed window, as `select_coincidences` selects them."""
    first, last = _closed_bounds(*window)
    return (delays >= first) & (delays <= last)


def iter_window_pairs(t1: np.ndarray, t2: np.ndarray, lo: float, hi: float) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield (i, j) index blocks of all pairs with t2[j] - t1[i] in the closed
    window [lo, hi].

    Cost is O(n1 log n2 + pairs); memory is bounded by the block size,
    _PAIR_BLOCK first-detector events.
    """
    first, last = _closed_bounds(lo, hi)
    starts = np.searchsorted(t2, t1 + first, side="left")
    ends = np.searchsorted(t2, t1 + last, side="right")
    ends = np.maximum(ends, starts)
    for b in range(0, t1.size, _PAIR_BLOCK):
        s = starts[b : b + _PAIR_BLOCK]
        e = ends[b : b + _PAIR_BLOCK]
        counts = e - s
        total = int(counts.sum())
        if total == 0:
            continue
        i = np.repeat(np.arange(b, b + s.size, dtype=np.int64), counts)
        cum = np.concatenate([[0], np.cumsum(counts)])
        j = np.repeat(s, counts) + (np.arange(total, dtype=np.int64) - np.repeat(cum[:-1], counts))
        yield i, j


def g2_axis(config: CorrelationConfig) -> Axis:
    """The g2 delay axis: g2_bin_width_ps bins from -g2_range_ps, enough to reach g2_range_ps."""
    return Axis.spanning(-config.g2_range_ps, config.g2_range_ps, config.g2_bin_width_ps)


def g2_histogram(delays: np.ndarray, config: CorrelationConfig) -> Histogram1D:
    """Second-order correlation histogram: pair delays t2 - t1 binned on the
    g2 axis. Delays outside its half-open domain are not counted, so the
    delays of any window search that covers the domain give the same result."""
    hist = Histogram1D(g2_axis(config))
    hist.fill(delays)
    return hist


def select_coincidences(events1, events2, window: tuple[float, float]) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs (i, j) with t2[j] - t1[i] inside the closed window.

    An event may appear in several pairs; nothing is deduplicated, matching the
    counting convention of the delay histogram.
    """
    t1 = _event_times(events1)
    t2 = _event_times(events2)
    blocks = list(iter_window_pairs(t1, t2, window[0], window[1]))
    if not blocks:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    return np.concatenate([b[0] for b in blocks]), np.concatenate([b[1] for b in blocks])


def spectrum_1d(wavelengths: np.ndarray, config: CorrelationConfig) -> Histogram1D:
    """Singles wavelength spectrum; no coincidence filtering."""
    hist = Histogram1D(Axis.spanning(config.spectrum_lo_nm, config.spectrum_hi_nm, config.spectrum_bin_nm))
    hist.fill(np.asarray(wavelengths, dtype=np.float64))
    return hist


def build_jsi(lambda1: np.ndarray, lambda2: np.ndarray, config: CorrelationConfig) -> Histogram2D:
    """Joint spectrum: detector-1 wavelength on x, detector-2 on y, both on
    the same jsi axis."""
    axis = Axis.spanning(config.jsi_lo_nm, config.jsi_hi_nm, config.jsi_bin_nm)
    hist = Histogram2D(axis, axis)
    hist.fill(np.asarray(lambda1, dtype=np.float64), np.asarray(lambda2, dtype=np.float64))
    return hist


@dataclass(frozen=True)
class FwhmFit:
    amplitude: float
    center: float
    sigma: float
    offset: float
    fwhm: float


def fit_fwhm(hist: Histogram1D, peak_center: float) -> FwhmFit:
    """Least-squares Gaussian-plus-offset fit around peak_center.

    Uses the bins whose centers lie within _FIT_HALFWIDTH_BINS bin widths of
    peak_center; needs at least 5 populated bins there. FWHM = 2 sqrt(2 ln 2)
    * sigma.
    """
    centers = hist.axis.centers()
    half = _FIT_HALFWIDTH_BINS * hist.axis.width
    m = np.abs(centers - peak_center) <= half * (1 + 1e-12)
    xs = centers[m]
    ys = hist.counts[m].astype(np.float64)
    populated = int(np.count_nonzero(ys > 0))
    if populated < 5:
        raise DegeneratePeakError(
            f"only {populated} populated bins within {half:g} of {peak_center:g}"
        )

    def model(x, amp, mu, sigma, off):
        return amp * np.exp(-0.5 * ((x - mu) / sigma) ** 2) + off

    amp0 = float(ys.max() - ys.min())
    mu0 = float(xs[int(np.argmax(ys))])
    p0 = (max(amp0, 1.0), mu0, 2.0 * hist.axis.width, float(ys.min()))
    try:
        # curve_fit only warns when it cannot estimate the covariance; make that fail too
        with warnings.catch_warnings():
            warnings.simplefilter("error", optimize.OptimizeWarning)
            popt, _ = optimize.curve_fit(model, xs, ys, p0=p0, maxfev=20000)
    except (RuntimeError, optimize.OptimizeWarning) as exc:
        raise FitError(f"peak fit did not converge: {exc}") from None
    amp, mu, sigma, off = (float(v) for v in popt)
    sigma = abs(sigma)
    if not (np.isfinite(sigma) and sigma > 0 and np.isfinite(mu)):
        raise FitError("peak fit produced a degenerate width")
    return FwhmFit(amp, mu, sigma, off, GAUSSIAN_FWHM_OVER_SIGMA * sigma)


def signal_region_mask(hist: Histogram2D, regions: tuple[tuple[float, float, float, float], ...]) -> np.ndarray:
    """Boolean matrix of cells whose centers fall inside any signal rectangle.

    Boundaries carry a small tolerance so a cell center that lands exactly on
    a rectangle edge is not excluded by floating-point representation.
    """
    eps = 1e-9
    xc = hist.x.centers()
    yc = hist.y.centers()
    mask = np.zeros(hist.counts.shape, dtype=bool)
    for x_lo, x_hi, y_lo, y_hi in regions:
        in_x = (xc >= x_lo - eps) & (xc <= x_hi + eps)
        in_y = (yc >= y_lo - eps) & (yc <= y_hi + eps)
        mask |= in_x[:, None] & in_y[None, :]
    return mask


def car_ratio(matrix: np.ndarray, signal_mask: np.ndarray) -> tuple[float, bool]:
    """Peak signal cell over maximum background cell.

    Returns (value, defined). With no positive background the ratio is
    undefined: +inf when signal is present (background-free), NaN when the
    matrix is empty of signal as well.
    """
    signal = int(matrix[signal_mask].max()) if np.any(signal_mask) else 0
    bg_cells = matrix[~signal_mask]
    background = int(bg_cells.max()) if bg_cells.size else 0
    if background > 0:
        return (signal / background if signal > 0 else 0.0), True
    return (math.inf if signal > 0 else math.nan), False


@dataclass
class JsiReport:
    """Joint spectrum with its accidental estimate, difference and contrast."""

    jsi: Histogram2D
    accidental: Histogram2D
    subtracted: Histogram2D  # signed; floored at zero only for display
    car_raw: float
    car_raw_defined: bool
    car_subtracted: float
    car_subtracted_defined: bool
    peaks_nm: tuple[tuple[float, float], ...]
    signal_regions_nm: tuple[tuple[float, float, float, float], ...]


def subtract_accidental(
    jsi: Histogram2D,
    accidental: Histogram2D,
    regions: tuple[tuple[float, float, float, float], ...],
) -> JsiReport:
    """Elementwise accidental subtraction plus contrast (CAR) bookkeeping.

    The side-window histogram estimates what uncorrelated light contributes
    inside the coincidence window; subtracting it leaves the time-correlated
    pairs. Negative cells are kept (they are informative Poisson fluctuations).
    CAR is computed on the raw and on the subtracted matrix against the
    complement of the configured signal rectangles.
    """
    subtracted = jsi.merge(Histogram2D(accidental.x, accidental.y, -accidental.counts))
    mask = signal_region_mask(jsi, regions)
    car_raw, raw_def = car_ratio(jsi.counts, mask)
    car_sub, sub_def = car_ratio(subtracted.counts, mask)
    xc = jsi.x.centers()
    yc = jsi.y.centers()
    peaks = []
    for rect in regions:
        rmask = signal_region_mask(jsi, (rect,))
        vals = np.where(rmask, subtracted.counts, np.iinfo(np.int64).min)
        i, j = np.unravel_index(int(np.argmax(vals)), vals.shape)
        peaks.append((float(xc[i]), float(yc[j])))
    return JsiReport(
        jsi=jsi,
        accidental=accidental,
        subtracted=subtracted,
        car_raw=car_raw,
        car_raw_defined=raw_def,
        car_subtracted=car_sub,
        car_subtracted_defined=sub_def,
        peaks_nm=tuple(peaks),
        signal_regions_nm=tuple(regions),
    )
