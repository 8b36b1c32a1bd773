"""Coincidence analysis: delay histograms, peak fits, spectra, joint spectra.

Conventions, shared by every operation and by the brute-force test oracles:

* Delays are always t2 - t1 (detector 2 minus detector 1).
* Histograms bin the half-open domain [lo, lo + nbins * width); nbins =
  ceil((hi - lo) / width). A value exactly at the upper domain edge is out.
* Coincidence selection windows are closed, [lo, hi] inclusive on both ends.
  Delays are integer picoseconds, so a delay d is inside [lo, hi] exactly when
  ceil(lo) <= d <= floor(hi) (`in_window`).
* Pair search never materialises the all-pairs product: both streams are
  time-sorted, so for each left event the partner range is found with two
  binary searches and only in-window pairs are expanded, block by block.
* Closed windows that are analysed together need one pair search, not one
  each: select the pairs of the hull [min lo, max hi] once, then filter its
  delays with `in_window` per window. `pipeline.analyze_events` does this for
  the coincidence, accidental and side-peak windows; the half-open g2
  histogram keeps its own pass.

Merging chunk-partial histograms with identical axes is exact, which is what
licenses chunked or parallel accumulation.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np
from scipy import optimize

from .config import CorrelationConfig, GAUSSIAN_FWHM_OVER_SIGMA

_PAIR_BLOCK = 1 << 17


class FitError(RuntimeError):
    """Gaussian peak fit failed to converge or is ill-posed."""


class DegeneratePeakError(FitError):
    """Too few populated bins around the requested peak to fit."""


class AxisMismatchError(ValueError):
    """Histograms with different axes cannot be merged or subtracted."""


def _nbins(lo: float, hi: float, width: float) -> int:
    n = int(math.ceil((hi - lo) / width - 1e-12))
    if n <= 0:
        raise ValueError("histogram axis must span at least one bin")
    return n


@dataclass
class Histogram1D:
    """Fixed-width binned counter on [lo, lo + nbins * bin_width)."""

    lo: float
    hi: float
    bin_width: float
    counts: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        n = _nbins(self.lo, self.hi, self.bin_width)
        if self.counts is None:
            self.counts = np.zeros(n, dtype=np.int64)
        else:
            self.counts = np.asarray(self.counts, dtype=np.int64)
            if self.counts.shape != (n,):
                raise ValueError(f"counts shape {self.counts.shape} != ({n},)")

    @property
    def nbins(self) -> int:
        return self.counts.size

    def bin_edges(self) -> np.ndarray:
        return self.lo + self.bin_width * np.arange(self.nbins + 1)

    def bin_centers(self) -> np.ndarray:
        return self.lo + self.bin_width * (np.arange(self.nbins) + 0.5)

    def same_axis(self, other: "Histogram1D") -> bool:
        return (
            self.lo == other.lo
            and self.hi == other.hi
            and self.bin_width == other.bin_width
            and self.nbins == other.nbins
        )

    def fill(self, values: np.ndarray) -> None:
        idx = np.floor((np.asarray(values, dtype=np.float64) - self.lo) / self.bin_width)
        ok = (idx >= 0) & (idx < self.nbins)
        if np.any(ok):
            self.counts += np.bincount(idx[ok].astype(np.int64), minlength=self.nbins)

    def merge(self, other: "Histogram1D") -> "Histogram1D":
        if not self.same_axis(other):
            raise AxisMismatchError("1D histogram axes differ")
        return Histogram1D(self.lo, self.hi, self.bin_width, self.counts + other.counts)

    def to_csv(self, sink) -> None:
        _write_text(sink, self._csv_lines())

    def _csv_lines(self) -> Iterator[str]:
        yield "bin_lo,bin_hi,count\n"
        edges = self.bin_edges()
        for i in range(self.nbins):
            yield f"{edges[i]:.6f},{edges[i + 1]:.6f},{int(self.counts[i])}\n"


@dataclass
class Histogram2D:
    """2D binned counter; axes follow the 1D half-open convention."""

    x_lo: float
    x_hi: float
    x_width: float
    y_lo: float
    y_hi: float
    y_width: float
    counts: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        shape = (
            _nbins(self.x_lo, self.x_hi, self.x_width),
            _nbins(self.y_lo, self.y_hi, self.y_width),
        )
        if self.counts is None:
            self.counts = np.zeros(shape, dtype=np.int64)
        else:
            self.counts = np.asarray(self.counts, dtype=np.int64)
            if self.counts.shape != shape:
                raise ValueError(f"counts shape {self.counts.shape} != {shape}")

    @property
    def shape(self) -> tuple[int, int]:
        return self.counts.shape

    def x_centers(self) -> np.ndarray:
        return self.x_lo + self.x_width * (np.arange(self.shape[0]) + 0.5)

    def y_centers(self) -> np.ndarray:
        return self.y_lo + self.y_width * (np.arange(self.shape[1]) + 0.5)

    def same_axes(self, other: "Histogram2D") -> bool:
        return (
            (self.x_lo, self.x_hi, self.x_width, self.y_lo, self.y_hi, self.y_width)
            == (other.x_lo, other.x_hi, other.x_width, other.y_lo, other.y_hi, other.y_width)
            and self.shape == other.shape
        )

    def fill(self, xs: np.ndarray, ys: np.ndarray) -> None:
        xi = np.floor((np.asarray(xs, dtype=np.float64) - self.x_lo) / self.x_width)
        yi = np.floor((np.asarray(ys, dtype=np.float64) - self.y_lo) / self.y_width)
        nx, ny = self.shape
        ok = (xi >= 0) & (xi < nx) & (yi >= 0) & (yi < ny)
        if np.any(ok):
            flat = xi[ok].astype(np.int64) * ny + yi[ok].astype(np.int64)
            self.counts += np.bincount(flat, minlength=nx * ny).reshape(nx, ny)

    def merge(self, other: "Histogram2D") -> "Histogram2D":
        if not self.same_axes(other):
            raise AxisMismatchError("2D histogram axes differ")
        return Histogram2D(
            self.x_lo, self.x_hi, self.x_width, self.y_lo, self.y_hi, self.y_width,
            self.counts + other.counts,
        )

    def to_csv(self, sink, matrix: np.ndarray | None = None) -> None:
        """Sparse `x_bin,y_bin,count` triplets (bin lower edges); zeros skipped."""
        m = self.counts if matrix is None else matrix

        def lines() -> Iterator[str]:
            yield "x_bin,y_bin,count\n"
            xs = self.x_lo + self.x_width * np.arange(self.shape[0])
            ys = self.y_lo + self.y_width * np.arange(self.shape[1])
            for i, j in zip(*np.nonzero(m)):
                yield f"{xs[i]:.6f},{ys[j]:.6f},{int(m[i, j])}\n"

        _write_text(sink, lines())


def _write_text(sink, lines: Iterator[str]) -> None:
    close = False
    if isinstance(sink, (str, bytes)) or hasattr(sink, "__fspath__"):
        sink = open(sink, "w")
        close = True
    try:
        for line in lines:
            sink.write(line)
    finally:
        if close:
            sink.close()


def _event_times(events) -> np.ndarray:
    arr = np.asarray(events)
    if arr.dtype.names and "t_ps" in arr.dtype.names:
        arr = arr["t_ps"]
    arr = arr.astype(np.int64, copy=False)
    if arr.size > 1 and np.any(np.diff(arr) < 0):
        raise ValueError("event times must be sorted")
    return arr


def _closed_bounds(lo: float, hi: float) -> tuple[int, int]:
    """Integer delay range [first, last] of the closed window [lo, hi]."""
    return int(math.ceil(lo)), int(math.floor(hi))


def in_window(delays: np.ndarray, window: tuple[float, float]) -> np.ndarray:
    """Mask of integer delays inside the closed window, as `select_coincidences` selects them."""
    first, last = _closed_bounds(*window)
    return (delays >= first) & (delays <= last)


def iter_window_pairs(
    t1: np.ndarray,
    t2: np.ndarray,
    lo: float,
    hi: float,
    closed: bool = True,
    block: int = _PAIR_BLOCK,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield (i, j) index blocks of all pairs with t2[j] - t1[i] in the window.

    Cost is O(n1 log n2 + pairs); memory is bounded by the block size. The
    window is [lo, hi] when closed else [lo, hi).
    """
    first, last = _closed_bounds(lo, hi)
    starts = np.searchsorted(t2, t1 + first, side="left")
    side = "right" if closed else "left"
    bound = last if closed else int(math.ceil(hi))
    ends = np.searchsorted(t2, t1 + bound, side=side)
    ends = np.maximum(ends, starts)
    for b in range(0, t1.size, block):
        s = starts[b : b + block]
        e = ends[b : b + block]
        counts = e - s
        total = int(counts.sum())
        if total == 0:
            continue
        i = np.repeat(np.arange(b, b + s.size, dtype=np.int64), counts)
        cum = np.concatenate([[0], np.cumsum(counts)])
        j = np.repeat(s, counts) + (np.arange(total, dtype=np.int64) - np.repeat(cum[:-1], counts))
        yield i, j


def delay_histogram(t1: np.ndarray, t2: np.ndarray, lo: float, hi: float, width: float) -> Histogram1D:
    """Histogram of pairwise delays t2 - t1 over [lo, lo + nbins * width)."""
    hist = Histogram1D(lo, hi, width)
    upper = lo + hist.nbins * width
    for i, j in iter_window_pairs(t1, t2, lo, upper, closed=False):
        hist.fill((t2[j] - t1[i]).astype(np.float64))
    return hist


def g2_histogram(events1, events2, config: CorrelationConfig) -> Histogram1D:
    """Second-order correlation histogram between the two detectors' triggers."""
    t1 = _event_times(events1)
    t2 = _event_times(events2)
    return delay_histogram(t1, t2, -config.g2_range_ps, config.g2_range_ps, config.g2_bin_width_ps)


def select_coincidences(events1, events2, window: tuple[float, float]) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs (i, j) with t2[j] - t1[i] inside the closed window.

    An event may appear in several pairs; nothing is deduplicated, matching the
    counting convention of the delay histogram.
    """
    t1 = _event_times(events1)
    t2 = _event_times(events2)
    blocks = list(iter_window_pairs(t1, t2, window[0], window[1], closed=True))
    if not blocks:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    return np.concatenate([b[0] for b in blocks]), np.concatenate([b[1] for b in blocks])


def spectrum_1d(wavelengths: np.ndarray, config: CorrelationConfig) -> Histogram1D:
    """Singles wavelength spectrum; no coincidence filtering."""
    hist = Histogram1D(config.spectrum_lo_nm, config.spectrum_hi_nm, config.spectrum_bin_nm)
    hist.fill(np.asarray(wavelengths, dtype=np.float64))
    return hist


def jsi_axes(config: CorrelationConfig) -> Histogram2D:
    return Histogram2D(
        config.jsi_lo_nm, config.jsi_hi_nm, config.jsi_bin_nm,
        config.jsi_lo_nm, config.jsi_hi_nm, config.jsi_bin_nm,
    )


def build_jsi(lambda1: np.ndarray, lambda2: np.ndarray, config: CorrelationConfig) -> Histogram2D:
    """Joint spectrum: detector-1 wavelength on axis 0, detector-2 on axis 1."""
    hist = jsi_axes(config)
    hist.fill(np.asarray(lambda1, dtype=np.float64), np.asarray(lambda2, dtype=np.float64))
    return hist


@dataclass(frozen=True)
class FwhmFit:
    amplitude: float
    center: float
    sigma: float
    offset: float
    fwhm: float


def fit_fwhm(hist: Histogram1D, peak_center: float, halfwidth_bins: int = 5) -> FwhmFit:
    """Least-squares Gaussian-plus-offset fit around peak_center.

    Uses the bins whose centers lie within halfwidth_bins * bin_width of
    peak_center; needs at least 5 populated bins there. FWHM = 2 sqrt(2 ln 2)
    * sigma.
    """
    centers = hist.bin_centers()
    half = halfwidth_bins * hist.bin_width
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
    p0 = (max(amp0, 1.0), mu0, 2.0 * hist.bin_width, float(ys.min()))
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
    xc = hist.x_centers()
    yc = hist.y_centers()
    mask = np.zeros(hist.shape, dtype=bool)
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
    subtracted: np.ndarray  # signed; floor at zero only for display
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
    if not jsi.same_axes(accidental):
        raise AxisMismatchError("joint spectra have different axes")
    subtracted = jsi.counts - accidental.counts
    mask = signal_region_mask(jsi, regions)
    car_raw, raw_def = car_ratio(jsi.counts, mask)
    car_sub, sub_def = car_ratio(subtracted, mask)
    xc = jsi.x_centers()
    yc = jsi.y_centers()
    peaks = []
    for rect in regions:
        rmask = signal_region_mask(jsi, (rect,))
        vals = np.where(rmask, subtracted, np.iinfo(np.int64).min)
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
