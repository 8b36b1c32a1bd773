"""Coincidence analysis: delay histograms, peak fits, spectra, joint spectra.

Conventions, shared by every operation and by the brute-force test oracles:

* Delays are always t2 - t1 (detector 2 minus detector 1).
* `Axis` is the one binning type: an immutable value of nbins fixed-width
  bins on the half-open domain [lo, lo + nbins * width). It lives in `config`,
  whose `CorrelationConfig` builds and checks the g2, spectrum and jsi axes.
  A value exactly at the upper domain edge is out: `fill` drops it, whatever
  its bin index rounds to.
* A histogram is axes plus counts: `Histogram1D` counts on one `Axis`, and
  `Histogram2D` (a joint spectrum, its accidental estimate or their signed
  difference) on two, with one block-bounded fill and one merge between them
  (`_Histogram`). Histograms share axes freely and never share counts.
* Every curve on an axis's bins, a `Histogram1D`'s counts included, is a
  `bin_lo,bin_hi,<column>` CSV (`write_bin_rows`); a `Histogram2D` writes
  sparse triplets, formatting whole columns (`csvtext.csv_rows`).
* Coincidence selection windows are closed, [lo, hi] inclusive on both ends.
  Delays are integer picoseconds, so a delay d is inside [lo, hi] exactly when
  ceil(lo) <= d <= floor(hi) (`in_window`).
* Pair search never materialises the all-pairs product: both streams are
  time-sorted, so searches go a block of left events at a time. Two scalar
  binary searches find the stretch of right events the block's window can
  reach, each left event's partner range is found by merging the block with
  that stretch only (one stable sort of two sorted runs per range edge), and
  only in-window pairs are expanded. The search keys saturate at the int64
  bounds, so times anywhere in int64 pair exactly. A pair's indices are
  int32, 8 bytes a pair, when both time arrays hold fewer than 2**31 events,
  and int64 otherwise.
* An analysis makes one pair search: `pipeline.analyze_events` selects the
  pairs of one closed window spanning the g2 domain and every closed window,
  and derives everything from their delays, a fixed slice of pairs at a
  time. Each slice adds its delays to `DelayCells`, one count per integer
  delay of that window; the g2 histogram bins the cells once at the end (its
  half-open upper edge is enforced by `fill`, not by the search), and each
  closed window's count is the sum of its cells. The pairs in the
  coincidence and in the accidental window, which `in_window` picks per
  slice, fill the two joint spectra once, at the end. Its memory is the
  pairs (8 bytes each), their in-window indices, the cells and one slice.

Merging chunk-partial histograms on equal axes is exact, so histograms
accumulated over chunks or separate runs add up to the single-pass result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .config import Axis, CorrelationConfig, GAUSSIAN_FWHM_OVER_SIGMA
from .csvtext import csv_rows, distinct_texts

# iter_window_pairs searches this many first-detector events at a time, so
# the stretch of second-detector times one block reaches stays in cache; of
# 2**12 to 2**15, 2**14 merged fastest at both criterion-9 and dense occupancy
_PAIR_BLOCK = 1 << 14
_INT64 = np.iinfo(np.int64)
# pair indices are int32 when both time arrays hold fewer events than this,
# so every index fits in 4 bytes; int64 otherwise
_INT32_EVENTS = 1 << 31
# a histogram fill bins this many values (value tuples, on two axes) at a
# time, so its temporaries are a block's size however many values it counts
_FILL_BLOCK = 1 << 16
# fit_fwhm fits the bins within this many bin widths of the peak center,
# until no parameter moves by more than _FIT_XTOL of itself, in at most
# _FIT_MAX_STEPS trial steps; an accepted step cuts the damping tenfold, to
# no less than _FIT_MIN_DAMPING, so a failed step later climbs back fast
_FIT_HALFWIDTH_BINS = 5
_FIT_XTOL = 1e-12
_FIT_MAX_STEPS = 200
_FIT_MIN_DAMPING = 1e-9


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


class _Histogram:
    """Counts on the cells of `axes`, one bin of each axis a cell: the one
    counting implementation, which `Histogram1D` and `Histogram2D` share."""

    def __post_init__(self):
        shape = tuple(a.nbins for a in self.axes)
        # a copy, so no histogram shares another's counts
        self.counts = np.zeros(shape, np.int64) if self.counts is None else np.array(self.counts, np.int64)
        if self.counts.shape != shape:
            raise ValueError(f"counts shape {self.counts.shape} != {shape}")

    def fill(self, *values: np.ndarray, weights: np.ndarray | None = None) -> None:
        """Count each tuple of values, one array per axis, in its cell if every
        value is inside its axis's domain, `weights` times (integers, one per
        tuple) or once: one `bincount` of the flattened cells per _FILL_BLOCK
        tuples, so the temporaries are a block's size. A weighted `bincount`
        sums in float64, exactly while a cell's count stays below 2**53."""
        values = [np.asarray(v) for v in values]
        if len(values) != len(self.axes) or len({v.shape for v in values}) != 1:
            raise ValueError(f"fill takes {len(self.axes)} value arrays of one shape")
        for b in range(0, values[0].size, _FILL_BLOCK):
            index = [axis.index(v[b : b + _FILL_BLOCK]) for axis, v in zip(self.axes, values)]
            ok = np.logical_and.reduce([inside for _, inside in index])
            if ok.all():  # the usual case: nothing to select
                ok = slice(None)
            flat = 0
            for (idx, _), nbins in zip(index, self.counts.shape):
                flat = flat * nbins + idx[ok].astype(np.int64)
            w = None if weights is None else weights[b : b + _FILL_BLOCK][ok]
            counts = np.bincount(flat, w, minlength=self.counts.size).astype(np.int64, copy=False)
            self.counts += counts.reshape(self.counts.shape)
            del index, ok, flat, idx, _, w, counts  # not live under the next block's temporaries

    def merge(self, other):
        """A new histogram of the summed counts; AxisMismatchError unless the axes are equal."""
        if self.axes != other.axes:
            raise AxisMismatchError(f"histogram axes differ: {self.axes} != {other.axes}")
        return type(self)(*self.axes, self.counts + other.counts)


@dataclass
class Histogram1D(_Histogram):
    """Counts per bin of `axis`."""

    axis: Axis
    counts: np.ndarray = field(default=None)  # type: ignore[assignment]

    axes = property(lambda self: (self.axis,))

    def to_csv(self, sink) -> None:
        """`bin_lo,bin_hi,count` lines to an open text file (`write_bin_rows`)."""
        write_bin_rows(sink, self.axis, "count", self.counts)


@dataclass
class Histogram2D(_Histogram):
    """Counts[i, j] of bin i of axis `x` and bin j of axis `y`."""

    x: Axis
    y: Axis
    counts: np.ndarray = field(default=None)  # type: ignore[assignment]

    axes = property(lambda self: (self.x, self.y))

    def to_csv(self, sink) -> None:
        """Sparse `x_bin,y_bin,count` triplets (bin lower edges) to an open text
        file, edges as `%.6f` and counts as `%d` (`csvtext.csv_rows`); zeros
        skipped."""
        i, j = np.nonzero(self.counts)
        sink.write("x_bin,y_bin,count\n")
        sink.write(csv_rows([self.x.edges()[i], self.y.edges()[j], self.counts[i, j]]))


def _event_times(events) -> np.ndarray:
    """`events` as int64 times, converted exactly; ValueError for a
    non-integer dtype, an unsigned time of 2**63 or more, or unsorted times."""
    arr = np.asarray(events)
    if arr.dtype.kind not in "iu":
        raise ValueError(f"event times must be integers, not {arr.dtype}")
    if arr.dtype.kind == "u" and arr.size and arr.max() > _INT64.max:
        raise ValueError("event times must be below 2**63")
    arr = arr.astype(np.int64, copy=False)
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


class DelayCells:
    """One int64 count per integer delay of the closed window [lo, hi], from
    `first` = ceil(lo) to floor(hi): pairs' delays are counted once, and the
    g2 histogram and every closed window's count derive from the cells.

    `add` counts a batch of delays in place (`np.add.at`), with no temporary
    of the cells' size. `window_count` sums the cells ceil(lo) to floor(hi)
    of a closed window, as `in_window` selects its delays. `g2_histogram`
    bins the delays of the occupied cells, weighted by their counts
    (`occupied`), with the float computation of a fill of the delays
    themselves, so every bin gets the same count."""

    def __init__(self, window: tuple[float, float]):
        self.first, last = _closed_bounds(*window)
        self.counts = np.zeros(max(last - self.first + 1, 0), np.int64)

    def add(self, delays: np.ndarray) -> None:
        """Count integer delays, each inside the window."""
        np.add.at(self.counts, delays - self.first, 1)

    def occupied(self) -> tuple[np.ndarray, np.ndarray]:
        """The int64 delays of the cells that hold a count, and their counts."""
        delays = np.flatnonzero(self.counts)
        counts = self.counts[delays]
        delays += self.first
        return delays, counts

    def window_count(self, window: tuple[float, float]) -> int:
        """The count of delays in the closed window among the cells."""
        first, last = _closed_bounds(*window)
        if first > last:  # no integer delay in the window
            return 0
        return int(self.counts[max(first - self.first, 0) : max(last - self.first + 1, 0)].sum())


def _saturating_add(t: np.ndarray, k: int) -> np.ndarray:
    """t + k for sorted int64 `t`, saturated at the int64 bounds where it
    would wrap. Only an end of a sorted `t` can leave int64, so the keys are
    clipped only when t[0] + k or t[-1] + k does, and added plainly
    otherwise. A k beyond int64 is added in two steps of its sign, since a
    saturated key stays so; a k of 2**64 or more saturates every key, as
    2**64 does."""
    if not _INT64.min <= k <= _INT64.max:
        k = max(min(k, 2**64), -(2**64))
        half = k // 2
        return _saturating_add(_saturating_add(t, half), k - half)
    if not t.size or _INT64.min <= int(t[0]) + k and int(t[-1]) + k <= _INT64.max:
        return t + k
    return np.clip(t, max(_INT64.min, _INT64.min - k), min(_INT64.max, _INT64.max - k)) + k


def _below_key(t: np.ndarray, k: int) -> tuple[np.ndarray, bool]:
    """The keys that count the `t2` times below t + k, and whether a time
    equal to its key counts.

    The key saturates in k's direction only, and the side is the one a
    saturated key still counts right: every t2 time lies at or below the
    int64 maximum and none lies below the minimum."""
    if k > 0:  # t2 < t + k exactly when t2 <= t + k - 1
        return _saturating_add(t, k - 1), True
    return _saturating_add(t, k), False


def _count_below(t2: np.ndarray, t: np.ndarray, k: int) -> np.ndarray:
    """For each time in sorted `t`, the number of `t2` times below t + k,
    exactly: a binary search per time."""
    key, equal_counts = _below_key(t, k)
    return np.searchsorted(t2, key, side="right" if equal_counts else "left")


def _merge_count_below(t2: np.ndarray, t: np.ndarray, k: int) -> np.ndarray:
    """`_count_below` for sorted `t`, by one stable merge of its keys with
    `t2`: the sort of two sorted runs is a timsort merge, faster than a
    binary search per key once both fit in cache.

    A stable sort keeps equal times in run order, so the t2 run goes first
    when a time equal to its key counts and second when it does not; the
    keys keep their order, and key m's merged position less m is its count."""
    key, equal_counts = _below_key(t, k)
    runs = (t2, key) if equal_counts else (key, t2)
    order = np.argsort(np.concatenate(runs), kind="stable")
    pos = np.flatnonzero(order >= t2.size if equal_counts else order < key.size)
    pos -= np.arange(key.size)
    return pos


def _pair_index_dtype(t1: np.ndarray, t2: np.ndarray) -> type:
    """The dtype of the (i, j) pair indices into `t1` and `t2`: int32 when
    both hold fewer than _INT32_EVENTS events, int64 otherwise."""
    return np.int32 if max(t1.size, t2.size) < _INT32_EVENTS else np.int64


def iter_window_pairs(t1: np.ndarray, t2: np.ndarray, lo: float, hi: float) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield (i, j) index blocks of all pairs with t2[j] - t1[i] in the closed
    window [lo, hi], in i-major order. The indices are int32 when both time
    arrays hold fewer than 2**31 events and int64 otherwise
    (`_pair_index_dtype`), decided once from the two lengths.

    Each block is _PAIR_BLOCK first-detector events. Two scalar binary
    searches find the stretch of t2 that the window of its first and last
    event can reach, and its events' partner ranges come from two merges of
    the block with that stretch only (`_merge_count_below`), so the merges
    stay in cache and memory is bounded by the block size and the pairs of
    one block. Times anywhere in int64 are searched exactly. Cost is
    O(n1 + n2 + pairs), plus a window's span of t2 per block, which the
    stretches of neighbouring blocks share: a merge is linear in its two
    runs, and at cache size it beats a binary search per event.
    """
    first, last = _closed_bounds(lo, hi)
    if first > last:  # no integer delay in the window
        return
    index = _pair_index_dtype(t1, t2)
    for b in range(0, t1.size, _PAIR_BLOCK):
        t = t1[b : b + _PAIR_BLOCK]
        # t is sorted: every partner of the block lies in t2[a:z]
        a = int(_count_below(t2, t[:1], first)[0])
        z = int(_count_below(t2, t[-1:], last + 1)[0])
        reach = t2[a:z]
        s = _merge_count_below(reach, t, first)
        counts = _merge_count_below(reach, t, last + 1) - s
        total = int(counts.sum())
        if total == 0:
            continue
        i = np.repeat(np.arange(t.size, dtype=index), counts)
        # the pair k of event m is partner s[m] + k - (pairs of the events
        # before m); past 2**31 pairs a block the int32 terms wrap, but their
        # sum, an index below t2.size, wraps back exactly
        s += a
        s[1:] -= np.cumsum(counts[:-1])
        j = s.astype(index, copy=False).take(i)  # a gather, several times faster than a second repeat
        j += np.arange(total, dtype=index)
        i += b
        yield i, j


def g2_histogram(delays: np.ndarray, config: CorrelationConfig, counts: np.ndarray | None = None) -> Histogram1D:
    """Second-order correlation histogram: pair delays t2 - t1 binned on the
    g2 axis, each `counts` times (one integer per delay, as `DelayCells`
    keeps them) or once. Delays outside its half-open domain are not counted,
    so the delays of any window search that covers the domain give the same
    result."""
    hist = Histogram1D(config.g2_axis)
    hist.fill(delays, weights=counts)
    return hist


def select_coincidences(events1, events2, window: tuple[float, float]) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs (i, j) with t2[j] - t1[i] inside the closed window.

    An event may appear in several pairs; nothing is deduplicated, matching the
    counting convention of the delay histogram. The indices are int32 when
    both event arrays hold fewer than 2**31 events and int64 otherwise, as
    `iter_window_pairs` yields them.
    """
    t1 = _event_times(events1)
    t2 = _event_times(events2)
    blocks = list(iter_window_pairs(t1, t2, window[0], window[1]))
    if not blocks:
        index = _pair_index_dtype(t1, t2)
        return np.empty(0, dtype=index), np.empty(0, dtype=index)
    return np.concatenate([b[0] for b in blocks]), np.concatenate([b[1] for b in blocks])


def spectrum_1d(wavelengths: np.ndarray, config: CorrelationConfig) -> Histogram1D:
    """Singles wavelength spectrum; no coincidence filtering."""
    hist = Histogram1D(config.spectrum_axis)
    hist.fill(wavelengths)
    return hist


def build_jsi(lambda1: np.ndarray, lambda2: np.ndarray, config: CorrelationConfig) -> Histogram2D:
    """Joint spectrum: detector-1 wavelength on x, detector-2 on y, both on
    `config.jsi_axis`."""
    hist = Histogram2D(config.jsi_axis, config.jsi_axis)
    hist.fill(lambda1, lambda2)
    return hist


@dataclass(frozen=True)
class FwhmFit:
    amplitude: float
    center: float
    sigma: float
    offset: float
    fwhm: float


def _gaussian(p: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """amp * exp(-z**2 / 2) + off with z = (x - mu) / sigma at `x`, for
    p = (amp, mu, sigma, off), and its transposed Jacobian, a row per parameter."""
    amp, mu, sigma, off = p
    z = (x - mu) / sigma
    e = np.exp(-0.5 * z * z)
    d_mu = amp / sigma * e * z
    return amp * e + off, np.array([e, d_mu, d_mu * z, np.ones_like(x)])


def fit_fwhm(hist: Histogram1D, peak_center: float) -> FwhmFit:
    """Least-squares Gaussian-plus-offset fit around peak_center; FWHM =
    2 sqrt(2 ln 2) * sigma.

    Uses the bins whose centers lie within _FIT_HALFWIDTH_BINS bin widths of
    peak_center; needs at least 5 populated bins there (DegeneratePeakError).
    Levenberg-Marquardt (Marquardt, SIAM J. Appl. Math. 11, 431, 1963) with
    the analytic Jacobian runs to convergence, so the result is the optimum,
    not a stopping point. FitError when it does not converge, or when the
    Jacobian at the solution is rank-deficient: a flat histogram leaves the
    center and width undetermined.
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
    amp0 = float(ys.max() - ys.min())
    mu0 = float(xs[int(np.argmax(ys))])
    p = np.array([max(amp0, 1.0), mu0, 2.0 * hist.axis.width, float(ys.min())])
    f, jac = _gaussian(p, xs)
    cost, damping = float(np.sum((f - ys) ** 2)), 1e-3
    ill_posed = "peak fit is ill-posed: its Jacobian is rank-deficient"
    # a trial that overflows is rejected as one that raises the cost is
    with np.errstate(all="ignore"):
        for _ in range(_FIT_MAX_STEPS):
            a = jac @ jac.T
            try:
                step = np.linalg.solve(a + damping * np.diag(np.diag(a)), jac @ (ys - f))
            except np.linalg.LinAlgError:  # a parameter that moves no bin
                raise FitError(ill_posed) from None
            f_trial, jac_trial = _gaussian(p + step, xs)
            cost_trial = float(np.sum((f_trial - ys) ** 2))
            if cost_trial < cost and np.isfinite(jac_trial).all():
                p, f, jac, cost, damping = p + step, f_trial, jac_trial, cost_trial, max(damping / 10, _FIT_MIN_DAMPING)
            else:
                damping *= 10
            if (np.abs(step) <= _FIT_XTOL * np.abs(p)).all():
                break
        else:
            raise FitError(f"peak fit did not converge in {_FIT_MAX_STEPS} steps")
    if np.linalg.matrix_rank(jac) < p.size:  # at the solution
        raise FitError(ill_posed)
    amp, mu, sigma, off = (float(v) for v in p)
    sigma = abs(sigma)
    return FwhmFit(amp, mu, sigma, off, GAUSSIAN_FWHM_OVER_SIGMA * sigma)


def signal_region_mask(hist: Histogram2D, regions: tuple[tuple[float, float, float, float], ...]) -> np.ndarray:
    """Boolean matrix of cells whose centers fall inside any signal rectangle (`Axis.covers`)."""
    mask = np.zeros(hist.counts.shape, dtype=bool)
    for x_lo, x_hi, y_lo, y_hi in regions:
        mask |= hist.x.covers(x_lo, x_hi)[:, None] & hist.y.covers(y_lo, y_hi)[None, :]
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
    complement of the configured signal rectangles. A rectangle that holds no
    cell centre (`signal_region_mask`) has no peak; it raises ValueError.
    """
    subtracted = jsi.merge(Histogram2D(accidental.x, accidental.y, -accidental.counts))
    mask = signal_region_mask(jsi, regions)
    car_raw, raw_def = car_ratio(jsi.counts, mask)
    car_sub, sub_def = car_ratio(subtracted.counts, mask)
    xc = jsi.x.centers()
    yc = jsi.y.centers()
    peaks = []
    for k, rect in enumerate(regions):
        rmask = signal_region_mask(jsi, (rect,))
        if not rmask.any():
            raise ValueError(f"signal_regions_nm[{k}] = {list(rect)} holds no joint-spectrum cell centre")
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
