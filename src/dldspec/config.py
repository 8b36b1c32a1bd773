"""Run configuration: typed parameter records, validation, JSON loading, overrides.

All times are picoseconds, lengths millimetres, wavelengths nanometres unless a
field name says otherwise. A run is fully described by one RunConfig; the same
document drives simulation and analysis so a report is reproducible from the
config file plus the seed alone. The tree mirrors the JSON document: RunConfig
has one field per document section (simulation, geometry, calibration,
correlation, io), each a flat record of that section's keys, so
`dataclasses.asdict` gives the document back.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields as dataclass_fields
from pathlib import Path
from typing import Any

from .event_format import MAX_TICK_PS

# FWHM of a Gaussian = 2*sqrt(2*ln 2) * sigma
GAUSSIAN_FWHM_OVER_SIGMA = 2.0 * math.sqrt(2.0 * math.log(2.0))
SIDE_PEAK_COUNT = 4


class ConfigError(ValueError):
    """Invalid run configuration; the message names the offending field path."""


def fwhm_to_sigma(fwhm: float) -> float:
    return fwhm / GAUSSIAN_FWHM_OVER_SIGMA


@dataclass(frozen=True)
class AnodeGeometry:
    """Square delay-line anode: side length, signal speed and timestamp quantisation.

    The decode arithmetic assumes that the per-axis timing sum of a clean hit
    is the full propagation time, size_mm / signal_speed_mm_per_ps. This holds
    by construction: the propagation time is derived, not set.
    """

    size_mm: float = 40.0
    signal_speed_mm_per_ps: float = 1e-3
    tick_ps: int = 1

    def validate(self, path: str) -> None:
        for name in ("size_mm", "signal_speed_mm_per_ps"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{path}.{name}: must be > 0")
        if not isinstance(self.tick_ps, int) or not 1 <= self.tick_ps <= MAX_TICK_PS:
            raise ConfigError(f"{path}.tick_ps: must be an integer in [1, {MAX_TICK_PS}], the file header's range")

    @property
    def propagation_time_ps(self) -> float:
        return self.size_mm / self.signal_speed_mm_per_ps

    @property
    def propagation_ticks(self) -> int:
        return int(round(self.propagation_time_ps / self.tick_ps))


@dataclass(frozen=True)
class Calibration:
    """Linear position-to-wavelength map of the grating spectrometer."""

    lambda_center_nm: float = 389.25
    dispersion_nm_per_mm: float = 0.0375
    x_center_mm: float = 20.0

    def validate(self, path: str) -> None:
        if self.dispersion_nm_per_mm == 0:
            raise ConfigError(f"{path}.dispersion_nm_per_mm: must be nonzero")


@dataclass(frozen=True)
class SimConfig:
    """Source and detector-response parameters of one simulated acquisition.

    Rates named *_per_pulse are Bernoulli probabilities per laser pulse, valid
    in the low-occupancy counting regime. qe converts each photon independently;
    `source_sim` draws only the converted ones. dark_rate_hz is the homogeneous
    Poisson rate of dark events per detector, which qe thins as it thins
    photons: the dark rate at the anode is qe * dark_rate_hz (ROADMAP item 2
    changes this). The anode geometry and the wavelength calibration are
    sections of their own (RunConfig.geometry, RunConfig.calibration).
    """

    seed: int = 1
    duration_ps: float = 5e9
    rep_rate_hz: float = 76e6
    pair_rate_per_pulse: float = 0.2
    pump_scatter_rate_per_pulse: float = 0.2
    dark_rate_hz: float = 1000.0
    lambda_hep_nm: float = 388.8
    lambda_lep_nm: float = 389.8
    lambda_pump_nm: float = 389.2
    line_fwhm_nm: float = 0.18
    detuning_fwhm_nm: float = 0.18
    qe: float = 0.20
    jitter_fwhm_ps: float = 263.0
    dead_time_ps: float = 10000.0

    def validate(self, path: str) -> None:
        if not isinstance(self.seed, int) or self.seed < 0 or self.seed >= 2**64:
            raise ConfigError(f"{path}.seed: must be an unsigned 64-bit integer")
        if self.duration_ps <= 0:
            raise ConfigError(f"{path}.duration_ps: must be > 0")
        if self.rep_rate_hz <= 0:
            raise ConfigError(f"{path}.rep_rate_hz: must be > 0")
        for name in ("pair_rate_per_pulse", "pump_scatter_rate_per_pulse", "qe"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ConfigError(f"{path}.{name}: probability must lie in [0, 1]")
        for name in ("dark_rate_hz", "line_fwhm_nm", "detuning_fwhm_nm", "jitter_fwhm_ps", "dead_time_ps"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{path}.{name}: must be >= 0")
        if not self.lambda_hep_nm < self.lambda_pump_nm < self.lambda_lep_nm:
            raise ConfigError(
                f"{path}: require lambda_hep_nm < lambda_pump_nm < lambda_lep_nm, "
                f"got {self.lambda_hep_nm}, {self.lambda_pump_nm}, {self.lambda_lep_nm}"
            )
        for name in ("lambda_hep_nm", "lambda_lep_nm", "lambda_pump_nm"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{path}.{name}: must be > 0")

    @property
    def pulse_period_ps(self) -> float:
        return 1e12 / self.rep_rate_hz


def pulse_count(config: SimConfig) -> int:
    """Number of laser pulses: one at k * period for every k >= 0 with k * period < duration."""
    period = config.pulse_period_ps
    n = math.ceil(config.duration_ps / period)
    while n > 1 and (n - 1) * period >= config.duration_ps:
        n -= 1
    while n * period < config.duration_ps:
        n += 1
    return n


@dataclass(frozen=True)
class CorrelationConfig:
    """Delay histogram, coincidence window and spectral binning parameters.

    The accidental window is the coincidence window moved to the side peak at
    accidental_center_ps, so equal widths, which an unbiased accidental
    subtraction needs, hold by construction. The side windows, the coincidence
    window moved to each multiple of the centre, must not overlap it or each
    other, or true coincidences are subtracted as accidentals: for a window
    [lo, hi] of half-width h, |accidental_center_ps| > max(hi + h, h - lo, 2h).
    """

    g2_bin_width_ps: float = 88.0
    g2_range_ps: float = 60000.0
    coincidence_window_ps: tuple[float, float] = (-500.0, 500.0)
    accidental_center_ps: float = 13158.0
    # 1D spectrum axis; bin centres land on the nominal 388.8/389.2/389.8 peaks
    spectrum_lo_nm: float = 388.4875
    spectrum_hi_nm: float = 390.0125
    spectrum_bin_nm: float = 0.025
    # Joint spectrum axes (same for both detectors)
    jsi_lo_nm: float = 388.475
    jsi_hi_nm: float = 390.025
    jsi_bin_nm: float = 0.05
    # Rectangles (x_lo, x_hi, y_lo, y_hi) in nm bounding the two pair peaks.
    # The pair blob is an anti-diagonal ridge ~3 sigma of the detuning wide,
    # so the rectangles span +-0.25 nm around the nominal line centers.
    signal_regions_nm: tuple[tuple[float, float, float, float], ...] = (
        (388.55, 389.05, 389.55, 390.05),
        (389.55, 390.05, 388.55, 389.05),
    )

    def validate(self, path: str) -> None:
        if self.g2_bin_width_ps <= 0:
            raise ConfigError(f"{path}.g2_bin_width_ps: must be > 0")
        if self.g2_range_ps <= 0:
            raise ConfigError(f"{path}.g2_range_ps: must be > 0")
        w = self.coincidence_window_ps
        if len(w) != 2 or not w[0] < w[1]:
            raise ConfigError(f"{path}.coincidence_window_ps: must be an increasing (lo, hi) pair")
        half = (w[1] - w[0]) / 2.0
        if not abs(self.accidental_center_ps) > max(w[1] + half, half - w[0], 2.0 * half):
            raise ConfigError(
                f"{path}.accidental_center_ps: its side windows (the coincidence window moved to each "
                "multiple of it) must not overlap the coincidence window or each other"
            )
        for lo, hi, width, label in (
            (self.spectrum_lo_nm, self.spectrum_hi_nm, self.spectrum_bin_nm, "spectrum"),
            (self.jsi_lo_nm, self.jsi_hi_nm, self.jsi_bin_nm, "jsi"),
        ):
            if width <= 0:
                raise ConfigError(f"{path}.{label}_bin_nm: must be > 0")
            if not lo < hi:
                raise ConfigError(f"{path}.{label}_lo_nm/{label}_hi_nm: must be increasing")
        if len(self.signal_regions_nm) != 2:
            raise ConfigError(f"{path}.signal_regions_nm: expected exactly two rectangles")
        for i, rect in enumerate(self.signal_regions_nm):
            if len(rect) != 4 or not (rect[0] < rect[1] and rect[2] < rect[3]):
                raise ConfigError(
                    f"{path}.signal_regions_nm[{i}]: expected (x_lo, x_hi, y_lo, y_hi) with lo < hi"
                )

    @property
    def side_windows_ps(self) -> tuple[tuple[float, float], ...]:
        """The coincidence window moved to +k, then -k, times accidental_center_ps, k = 1..SIDE_PEAK_COUNT."""
        half = (self.coincidence_window_ps[1] - self.coincidence_window_ps[0]) / 2.0
        return tuple(
            (c - half, c + half)
            for k in range(1, SIDE_PEAK_COUNT + 1)
            for c in (k * self.accidental_center_ps, -k * self.accidental_center_ps)
        )

    @property
    def accidental_window_ps(self) -> tuple[float, float]:
        return self.side_windows_ps[0]


@dataclass(frozen=True)
class IoConfig:
    """Optional default paths; CLI flags override them."""

    events_path: str | None = None
    out_dir: str | None = None

    def validate(self, path: str) -> None:
        return None


@dataclass(frozen=True)
class RunConfig:
    """One field per section of the JSON document, in document order."""

    simulation: SimConfig = field(default_factory=SimConfig)
    geometry: AnodeGeometry = field(default_factory=AnodeGeometry)
    calibration: Calibration = field(default_factory=Calibration)
    correlation: CorrelationConfig = field(default_factory=CorrelationConfig)
    io: IoConfig = field(default_factory=IoConfig)

    def validate(self) -> None:
        """Per section: every value's type check, as a loaded document gets it, then the range checks."""
        for f in dataclass_fields(self):
            section = getattr(self, f.name)
            for key in dataclass_fields(section):
                _coerce(key.type, getattr(section, key.name), f"{f.name}.{key.name}")
            section.validate(f.name)


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _finite(value: int | float, where: str) -> int | float:
    """`value` unchanged; ConfigError naming `where` if it is NaN, infinite or
    an integer beyond the float range."""
    try:
        finite = math.isfinite(value)
    except OverflowError:
        finite = False
    if not finite:
        raise ConfigError(f"{where}: must be a finite number")
    return value


def _numbers(value: Any, n: int, where: str) -> tuple[float, ...] | None:
    """`value` as a tuple of n finite floats, or None if it is not a list of n
    numbers; ConfigError naming `where` if one of them is NaN or infinite."""
    if isinstance(value, (list, tuple)) and len(value) == n and all(map(_is_number, value)):
        return tuple(float(_finite(x, where)) for x in value)
    return None


def _coerce(type_name: str, value: Any, where: str) -> Any:
    """`value` checked against the field type `type_name` (as annotated) and
    converted to it; ConfigError naming `where` if it does not fit."""
    if type_name == "int":
        if isinstance(value, float) and value.is_integer():
            value = int(value)
        if isinstance(value, int) and not isinstance(value, bool):
            return value
        raise ConfigError(f"{where}: must be an integer")
    if type_name == "float":
        if _is_number(value):
            return float(_finite(value, where))
        raise ConfigError(f"{where}: must be a number")
    if type_name == "tuple[float, float]":
        pair = _numbers(value, 2, where)
        if pair is not None:
            return pair
        raise ConfigError(f"{where}: must be a (lo, hi) pair of numbers")
    if type_name == "tuple[tuple[float, float, float, float], ...]":
        if isinstance(value, (list, tuple)):
            rects = tuple(_numbers(rect, 4, where) for rect in value)
            if None not in rects:
                return rects
        raise ConfigError(f"{where}: must be a list of (x_lo, x_hi, y_lo, y_hi) rectangles of numbers")
    if type_name == "str | None":
        if value is None or isinstance(value, str):
            return value
        raise ConfigError(f"{where}: must be a string or null")
    raise AssertionError(f"{where}: no type check for {type_name}")


def _build_section(cls: type, doc: Any, path: str) -> Any:
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: expected an object")
    types = {f.name: f.type for f in dataclass_fields(cls)}
    unknown = set(doc) - set(types)
    if unknown:
        raise ConfigError(f"{path}.{sorted(unknown)[0]}: unknown key")
    return cls(**{name: _coerce(types[name], value, f"{path}.{name}") for name, value in doc.items()})


def run_config_from_dict(doc: dict[str, Any]) -> RunConfig:
    """Build and validate a RunConfig from a nested plain dict.

    Unknown sections or keys are rejected so a typo cannot silently fall back
    to a default value.
    """
    if not isinstance(doc, dict):
        raise ConfigError("config root: expected an object of sections")
    sections = {f.name: f.default_factory for f in dataclass_fields(RunConfig)}
    unknown = set(doc) - set(sections)
    if unknown:
        raise ConfigError(f"{sorted(unknown)[0]}: unknown section")
    cfg = RunConfig(**{name: _build_section(cls, doc.get(name, {}), name) for name, cls in sections.items()})
    cfg.validate()
    return cfg


def _read_config_doc(path: str | Path) -> Any:
    """The JSON document in a config file; ConfigError if unreadable or not JSON."""
    try:
        text = Path(path).read_text()
    except (OSError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON ({exc})") from None


def load_run_config(path: str | Path) -> RunConfig:
    """Load a JSON run configuration file."""
    return run_config_from_dict(_read_config_doc(path))


def apply_overrides(doc: dict[str, Any], overrides: list[str]) -> dict[str, Any]:
    """Apply dotted-path `section.key=value` overrides to a config dict.

    Values are parsed as JSON when possible so numbers and lists work; anything
    unparseable is kept as a string.
    """
    out = json.loads(json.dumps(doc))  # deep copy, JSON types only
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override '{item}': expected section.key=value")
        dotted, raw = item.split("=", 1)
        parts = dotted.strip().split(".")
        if len(parts) < 2:
            raise ConfigError(f"override '{item}': expected section.key=value")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = out
        for p in parts[:-1]:
            node = node.setdefault(p, {})
            if not isinstance(node, dict):
                raise ConfigError(f"override '{item}': {p} is not a section")
        node[parts[-1]] = value
    return out
