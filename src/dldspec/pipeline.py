"""End-to-end runs: simulate to a `.dlde` file, decode it back, analyze, report.

Simulation streams the laser pulse train through fixed-size blocks so memory
stays bounded for arbitrarily long acquisitions; dead-time filtering and the
globally sorted serialization carry small boundary buffers between blocks. The
block size is a constant of the implementation, not configuration: it is part
of the identity of the sampled random stream for a given seed.

Decoding streams the file in fixed-size record chunks through one
`HitMatcher` per detector, so memory is bounded by the chunk size plus the
reconstructed events, and the result does not depend on the chunk size.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .config import CorrelationConfig, RunConfig, SimConfig, fwhm_to_sigma
from .correlation import (
    FitError,
    FwhmFit,
    Histogram1D,
    JsiReport,
    build_jsi,
    fit_fwhm,
    g2_histogram,
    in_window,
    select_coincidences,
    spectrum_1d,
    subtract_accidental,
)
from .detector_sim import (
    DeadTimeFilter,
    DetectTally,
    JITTER_CLIP_SIGMAS,
    detect,
    encode_groups,
    groups_to_pulses,
)
from .event_format import (
    DEFAULT_CHUNK_RECORDS,
    EventFileHeader,
    EventReader,
    EventWriter,
    FormatError,
    PULSE_DTYPE,
)
from .reconstruction import (
    DEFAULT_SUM_TOL_TICKS,
    HitMatcher,
    PHOTON_DTYPE,
    groups_to_events,
    write_events_csv,
)
from .render import svg_heatmap, svg_histogram
from .source_sim import EventKind, generate_emissions

SIM_BLOCK_PULSES = 1 << 20
SIDE_PEAK_COUNT = 4


def _fmt(v) -> str:
    if isinstance(v, float):
        if math.isnan(v):
            return "nan"
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
        return f"{v:.6g}"
    return str(v)


@dataclass
class SimulationSummary:
    seed: int
    duration_ps: float
    laser_pulses: int = 0
    emitted_pairs: int = 0
    emitted_pump: int = 0
    emitted_dark: int = 0
    qe_lost: int = 0
    off_sensor: int = 0
    negative_time_dropped: int = 0
    detections: list[int] = field(default_factory=lambda: [0, 0])
    dead_time_discarded: list[int] = field(default_factory=lambda: [0, 0])
    groups_written: list[int] = field(default_factory=lambda: [0, 0])
    records_written: int = 0
    bytes_written: int = 0

    def lines(self) -> list[str]:
        return [
            f"seed={self.seed}",
            f"duration_ps={_fmt(self.duration_ps)}",
            f"laser_pulses={self.laser_pulses}",
            f"emitted_pairs={self.emitted_pairs}",
            f"emitted_pump={self.emitted_pump}",
            f"emitted_dark={self.emitted_dark}",
            f"qe_lost={self.qe_lost}",
            f"off_sensor={self.off_sensor}",
            f"negative_time_dropped={self.negative_time_dropped}",
            f"detections_det1={self.detections[0]}",
            f"detections_det2={self.detections[1]}",
            f"dead_time_discarded_det1={self.dead_time_discarded[0]}",
            f"dead_time_discarded_det2={self.dead_time_discarded[1]}",
            f"groups_det1={self.groups_written[0]}",
            f"groups_det2={self.groups_written[1]}",
            f"records_written={self.records_written}",
            f"bytes_written={self.bytes_written}",
        ]


def simulate_to_file(
    cfg: RunConfig | SimConfig, path, block_pulses: int = SIM_BLOCK_PULSES
) -> SimulationSummary:
    """Run one seeded acquisition and serialize its raw pulse stream.

    Deterministic: the same (config, seed) yields a byte-identical file.
    """
    sim = cfg.simulation if isinstance(cfg, RunConfig) else cfg
    sim.validate()
    geometry = sim.geometry
    period = sim.pulse_period_ps
    n_pulses = int(np.ceil(sim.duration_ps / period))
    while n_pulses > 1 and (n_pulses - 1) * period >= sim.duration_ps:
        n_pulses -= 1
    rng = np.random.default_rng(np.random.SeedSequence(sim.seed))
    header = EventFileHeader(tick_ps=geometry.tick_ps, detector_count=2)
    summary = SimulationSummary(seed=sim.seed, duration_ps=sim.duration_ps, laser_pulses=n_pulses)
    dead_filter = DeadTimeFilter(sim.dead_time_ps, geometry.tick_ps)
    jitter_reach = JITTER_CLIP_SIGMAS * fwhm_to_sigma(sim.jitter_fwhm_ps)
    tally = DetectTally()
    carry = np.empty(0, dtype=PULSE_DTYPE)
    with EventWriter(path, header) as writer:
        for k0 in range(0, n_pulses, block_pulses):
            k1 = min(k0 + block_pulses, n_pulses)
            times = np.arange(k0, k1, dtype=np.float64) * period
            t_hi = k1 * period if k1 < n_pulses else sim.duration_ps
            emissions = generate_emissions(sim, times, rng, (k0 * period, t_hi))
            summary.emitted_pairs += int(np.count_nonzero(emissions["kind"] == EventKind.HEP))
            summary.emitted_pump += int(np.count_nonzero(emissions["kind"] == EventKind.PUMP))
            summary.emitted_dark += int(np.count_nonzero(emissions["kind"] == EventKind.DARK))
            detections, dtally = detect(emissions, sim, rng)
            tally.add(dtally)
            for det in (0, 1):
                summary.detections[det] += int(np.count_nonzero(detections["path"] == det))
            groups = encode_groups(detections, geometry)
            if k1 < n_pulses:
                future_floor = int(math.floor((k1 * period - jitter_reach) / geometry.tick_ps)) - 1
                survivors = dead_filter.feed(groups, future_floor)
                flush_floor = dead_filter.emitted_floor_ticks(future_floor)
            else:
                survivors = dead_filter.feed(groups, future_floor_ticks=None)
                flush_floor = None
            for det in (0, 1):
                summary.groups_written[det] += int(np.count_nonzero(survivors["detector"] == det))
            pulses = groups_to_pulses(survivors)
            buf = np.concatenate([carry, pulses])
            order = np.argsort(buf["timestamp"].astype(np.int64), kind="stable")
            buf = buf[order]
            if flush_floor is None:
                writer.write_chunk(buf)
                carry = np.empty(0, dtype=PULSE_DTYPE)
            else:
                emit = buf["timestamp"].astype(np.int64) < flush_floor
                writer.write_chunk(buf[emit])
                carry = buf[~emit]
        summary.bytes_written = writer.bytes_written
        summary.records_written = writer.records_written
    summary.qe_lost = tally.n_qe_lost
    summary.off_sensor = tally.n_off_sensor
    summary.negative_time_dropped = tally.n_negative_time
    summary.dead_time_discarded = list(dead_filter.discards)
    return summary


@dataclass
class DecodeResult:
    header: EventFileHeader
    events: tuple[np.ndarray, np.ndarray]  # PHOTON_DTYPE arrays, detectors 0 and 1
    records: int
    records_per_detector: list[int]
    groups: list[int]
    orphans: list[int]
    malformed: list[int]


def decode_file(
    path,
    geometry,
    calibration,
    window_ps: float | None = None,
    sum_tol_ticks: int = DEFAULT_SUM_TOL_TICKS,
    chunk_records: int = DEFAULT_CHUNK_RECORDS,
) -> DecodeResult:
    """Parse a `.dlde` file and reconstruct photon events per detector."""
    matchers = [HitMatcher(geometry, window_ps, sum_tol_ticks, detector=d) for d in (0, 1)]
    buffers: list[list[np.ndarray]] = [[], []]
    malformed = [0, 0]
    per_det = [0, 0]

    def consume(det: int, groups: np.ndarray) -> None:
        if groups.size:
            ev, bad = groups_to_events(groups, geometry, calibration)
            malformed[det] += bad
            buffers[det].append(ev)

    with EventReader(path, chunk_records) as reader:
        header = reader.header
        if header.detector_count != 2:
            raise FormatError(
                f"header detector_count={header.detector_count}; the decoder reads exactly 2 detectors",
                offset=10,  # the header's detector_count byte
            )
        if header.tick_ps != geometry.tick_ps:
            raise ValueError(
                f"file tick_ps={header.tick_ps} does not match configured geometry tick_ps={geometry.tick_ps}"
            )
        for chunk in reader.iter_chunks():
            for det in (0, 1):
                mask = chunk["detector"] == det
                per_det[det] += int(np.count_nonzero(mask))
                consume(det, matchers[det].feed(
                    chunk["timestamp"][mask].astype(np.int64), chunk["channel"][mask]
                ))
        for det in (0, 1):
            consume(det, matchers[det].finish())
        events_list = []
        for det in (0, 1):
            ev = np.concatenate(buffers[det]) if buffers[det] else np.empty(0, dtype=PHOTON_DTYPE)
            buffers[det] = []  # release chunk pieces before concatenating the next detector
            events_list.append(ev)
        return DecodeResult(
            header=header,
            events=tuple(events_list),  # type: ignore[arg-type]
            records=reader.records_read,
            records_per_detector=per_det,
            groups=[m.n_groups for m in matchers],
            orphans=[m.orphans for m in matchers],
            malformed=malformed,
        )


@dataclass
class AnalysisResult:
    corr: CorrelationConfig
    spectra: tuple[Histogram1D, Histogram1D]
    g2: Histogram1D
    fit: FwhmFit | None
    fit_error: str
    center_window_counts: int
    side_window_counts: list[int]
    side_window_mean: float
    center_to_side_ratio: float
    coincidence_count: int
    accidental_count: int
    jsi_report: JsiReport
    warnings: list[str]


def analyze_events(events: tuple[np.ndarray, np.ndarray], corr: CorrelationConfig) -> AnalysisResult:
    """Run the full analysis chain on reconstructed events of both detectors.

    Center/side-peak statistics are event counts in equal-width delay windows
    (the coincidence window and its images at multiples of the accidental-
    window center), not histogram-bin sums, so they carry no binning bias.

    The g2 histogram is one half-open pair pass. All closed windows share one
    more: `select_coincidences` over their hull, whose delays are filtered per
    window with `in_window`. The coincidence and accidental windows keep their
    index pairs for the joint spectra; the side windows only count.
    """
    warnings: list[str] = []
    ev0, ev1 = events
    spectra = (
        spectrum_1d(ev0["wavelength_nm"], corr),
        spectrum_1d(ev1["wavelength_nm"], corr),
    )
    g2 = g2_histogram(ev0, ev1, corr)
    fit = None
    fit_error = ""
    try:
        fit = fit_fwhm(g2, 0.0)
    except FitError as exc:
        fit_error = str(exc)
        warnings.append(f"g2 peak fit unavailable: {exc}")
    t0 = ev0["t_ps"]
    t1 = ev1["t_ps"]
    half = (corr.coincidence_window_ps[1] - corr.coincidence_window_ps[0]) / 2.0
    side_center = (corr.accidental_window_ps[0] + corr.accidental_window_ps[1]) / 2.0
    side_windows = [
        (c - half, c + half)
        for k in range(1, SIDE_PEAK_COUNT + 1)
        for c in (k * side_center, -k * side_center)
    ]
    windows = [corr.coincidence_window_ps, corr.accidental_window_ps, *side_windows]
    pair_i, pair_j = select_coincidences(t0, t1, (min(w[0] for w in windows), max(w[1] for w in windows)))
    delays = t1[pair_j] - t0[pair_i]
    c_mask = in_window(delays, corr.coincidence_window_ps)
    a_mask = in_window(delays, corr.accidental_window_ps)
    ci, cj = pair_i[c_mask], pair_j[c_mask]
    ai, aj = pair_i[a_mask], pair_j[a_mask]
    if ci.size == 0:
        warnings.append("no coincidences inside the coincidence window")
    center = int(ci.size)
    side_counts = [int(np.count_nonzero(in_window(delays, w))) for w in side_windows]
    side_mean = float(np.mean(side_counts)) if side_counts else math.nan
    ratio = center / side_mean if side_mean > 0 else math.nan
    jsi = build_jsi(ev0["wavelength_nm"][ci], ev1["wavelength_nm"][cj], corr)
    accidental = build_jsi(ev0["wavelength_nm"][ai], ev1["wavelength_nm"][aj], corr)
    report = subtract_accidental(jsi, accidental, corr.signal_regions_nm)
    return AnalysisResult(
        corr=corr,
        spectra=spectra,
        g2=g2,
        fit=fit,
        fit_error=fit_error,
        center_window_counts=center,
        side_window_counts=side_counts,
        side_window_mean=side_mean,
        center_to_side_ratio=ratio,
        coincidence_count=center,
        accidental_count=int(ai.size),
        jsi_report=report,
        warnings=warnings,
    )


def analyze_file(
    path, cfg: RunConfig, chunk_records: int = DEFAULT_CHUNK_RECORDS
) -> tuple[DecodeResult, AnalysisResult]:
    cfg.validate()
    decode = decode_file(path, cfg.geometry, cfg.calibration, chunk_records=chunk_records)
    analysis = analyze_events(decode.events, cfg.correlation)
    if decode.records == 0:
        analysis.warnings.insert(0, "input file contains no records")
    return decode, analysis


def summary_lines(decode: DecodeResult, analysis: AnalysisResult) -> list[str]:
    """Flat key=value summary; stable key order, machine-greppable."""
    f = analysis.fit
    rep = analysis.jsi_report
    lines = [
        f"records={decode.records}",
        f"tick_ps={decode.header.tick_ps}",
    ]
    for det in (0, 1):
        label = f"det{det + 1}"
        lines += [
            f"{label}_records={decode.records_per_detector[det]}",
            f"{label}_groups={decode.groups[det]}",
            f"{label}_orphans={decode.orphans[det]}",
            f"{label}_malformed={decode.malformed[det]}",
            f"{label}_events={decode.events[det].size}",
        ]
    lines += [
        f"g2_total_pairs={int(analysis.g2.counts.sum())}",
        f"g2_center_counts={analysis.center_window_counts}",
        f"g2_side_mean={_fmt(analysis.side_window_mean)}",
        f"g2_center_side_ratio={_fmt(analysis.center_to_side_ratio)}",
        f"g2_fit_ok={int(f is not None)}",
        f"g2_fit_fwhm_ps={_fmt(f.fwhm) if f else 'nan'}",
        f"g2_fit_center_ps={_fmt(f.center) if f else 'nan'}",
        f"g2_fit_sigma_ps={_fmt(f.sigma) if f else 'nan'}",
        f"g2_fit_amplitude={_fmt(f.amplitude) if f else 'nan'}",
        f"g2_fit_offset={_fmt(f.offset) if f else 'nan'}",
        f"coincidences={analysis.coincidence_count}",
        f"accidentals={analysis.accidental_count}",
        f"car_raw={_fmt(rep.car_raw)}",
        f"car_raw_defined={int(rep.car_raw_defined)}",
        f"car_subtracted={_fmt(rep.car_subtracted)}",
        f"car_subtracted_defined={int(rep.car_subtracted_defined)}",
    ]
    for i, (px, py) in enumerate(rep.peaks_nm, start=1):
        lines.append(f"jsi_peak{i}_det1_nm={_fmt(px)}")
        lines.append(f"jsi_peak{i}_det2_nm={_fmt(py)}")
    lines.append(f"warnings={';'.join(analysis.warnings)}")
    return lines


def _normalized_g2(analysis: AnalysisResult) -> np.ndarray:
    """Delay curve rescaled so the mean side-peak window averages 1.0 per bin."""
    g2 = analysis.g2
    corr = analysis.corr
    window_width = corr.coincidence_window_ps[1] - corr.coincidence_window_ps[0]
    bins_per_window = max(window_width / g2.bin_width, 1e-300)
    if analysis.side_window_mean and analysis.side_window_mean > 0:
        scale = bins_per_window / analysis.side_window_mean
    else:
        scale = math.nan
    return g2.counts.astype(np.float64) * scale


def _normalized_csv(analysis: AnalysisResult, norm: np.ndarray) -> str:
    lines = ["bin_lo,bin_hi,g2\n"]
    edges = analysis.g2.bin_edges()
    for i in range(analysis.g2.nbins):
        lines.append(f"{edges[i]:.6f},{edges[i + 1]:.6f},{_fmt(float(norm[i]))}\n")
    return "".join(lines)


def write_report_bundle(
    out_dir,
    decode: DecodeResult,
    analysis: AnalysisResult,
    events_csv: bool = False,
    artifacts: tuple[str, ...] = ("spectrum", "g2", "jsi"),
) -> list[Path]:
    """Write CSV + SVG artifacts and the flat summary; returns written paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths: list[Path] = []

    def emit(name: str, text: str) -> None:
        p = out / name
        p.write_text(text)
        paths.append(p)

    if "spectrum" in artifacts:
        for det in (0, 1):
            hist = analysis.spectra[det]
            emit(f"spectrum_det{det + 1}.csv", _csv_text(hist))
            emit(
                f"spectrum_det{det + 1}.svg",
                svg_histogram(hist, f"singles spectrum, detector {det + 1}", "wavelength [nm]"),
            )
    if "g2" in artifacts:
        emit("g2.csv", _csv_text(analysis.g2))
        emit("g2.svg", svg_histogram(analysis.g2, "inter-detector delay histogram", "delay [ps]"))
        norm = _normalized_g2(analysis)
        emit("g2_normalized.csv", _normalized_csv(analysis, norm))
        emit("g2_normalized.svg", svg_histogram(
            analysis.g2,
            "delay histogram, side-peak mean normalized to 1",
            "delay [ps]",
            y_label="g2",
            values=np.nan_to_num(norm, nan=0.0, posinf=0.0, neginf=0.0),
        ))
    if "jsi" in artifacts:
        rep = analysis.jsi_report
        emit("jsi.csv", _csv2_text(rep.jsi))
        emit("jsi.svg", svg_heatmap(rep.jsi, "joint spectrum (coincidence window)",
                                    "detector 1 wavelength [nm]", "detector 2 wavelength [nm]"))
        emit("jsi_accidental.csv", _csv2_text(rep.accidental))
        emit("jsi_accidental.svg", svg_heatmap(rep.accidental, "joint spectrum (accidental window)",
                                               "detector 1 wavelength [nm]", "detector 2 wavelength [nm]"))
        emit("jsi_subtracted.csv", _csv2_text(rep.jsi, matrix=rep.subtracted))
        emit("jsi_subtracted.svg", svg_heatmap(rep.jsi, "joint spectrum, accidentals subtracted",
                                               "detector 1 wavelength [nm]", "detector 2 wavelength [nm]",
                                               matrix=rep.subtracted))
    if events_csv:
        for det in (0, 1):
            p = out / f"events_det{det + 1}.csv"
            write_events_csv(decode.events[det], p)
            paths.append(p)
    emit("summary.txt", "\n".join(summary_lines(decode, analysis)) + "\n")
    return paths


def _csv_text(hist: Histogram1D) -> str:
    buf = io.StringIO()
    hist.to_csv(buf)
    return buf.getvalue()


def _csv2_text(hist, matrix=None) -> str:
    buf = io.StringIO()
    hist.to_csv(buf, matrix=matrix)
    return buf.getvalue()
