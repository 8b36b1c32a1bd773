"""Detector response: efficiency, spectral mapping, jitter, anode encoding.

The chain per emission event is

    survive QE -> add trigger jitter -> land at (x, y) on the anode
    -> split into MCP + four delay-line pulses -> quantise timestamps
    -> discard multi-hit collisions within the dead time.

The five pulses of one detection are kept together as a HIT_GROUP_DTYPE row
until serialization; the analysis side has to undo that bundling from
timestamps alone. The anode encoding is exact by construction: before
quantisation, (t_xa - t0) + (t_xb - t0) equals the full propagation time and
the time difference t_xa - t_xb inverts to the landing position.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import AnodeGeometry, SimConfig, fwhm_to_sigma
from .event_format import Channel, PULSE_DTYPE
from .reconstruction import HIT_GROUP_DTYPE, wavelength_to_position
from .source_sim import EventKind

# Gaussian jitter is clipped here so that a detection time can be bounded by
# its emission time; the clipped mass is ~2e-9 of draws.
JITTER_CLIP_SIGMAS = 6.0

DETECTION_DTYPE = np.dtype(
    [
        ("path", "u1"),
        ("kind", "u1"),
        ("time_ps", "<f8"),
        ("x_mm", "<f8"),
        ("y_mm", "<f8"),
        ("wavelength_nm", "<f8"),
    ]
)


@dataclass
class DetectTally:
    n_qe_lost: int = 0
    n_off_sensor: int = 0
    n_negative_time: int = 0

    def add(self, other: "DetectTally") -> None:
        self.n_qe_lost += other.n_qe_lost
        self.n_off_sensor += other.n_off_sensor
        self.n_negative_time += other.n_negative_time


def detect(
    events: np.ndarray, config: SimConfig, rng: np.random.Generator
) -> tuple[np.ndarray, DetectTally]:
    """Turn emissions into anode landings.

    Each event survives with probability qe. The detection time is the emission
    time plus Gaussian trigger jitter (FWHM jitter_fwhm_ps). The x coordinate
    is the spectrometer image of the wavelength; dark counts land uniformly in
    x. y is uniform over the anode height. Events whose wavelength images
    outside the anode fall off the sensor and are dropped (counted), as are
    detections jittered to negative times at the run start.
    """
    tally = DetectTally()
    geometry = config.geometry
    survive = rng.random(events.size) < config.qe
    tally.n_qe_lost = int(events.size - np.count_nonzero(survive))
    ev = events[survive]
    sigma = fwhm_to_sigma(config.jitter_fwhm_ps)
    if sigma > 0:
        jitter = rng.normal(0.0, sigma, ev.size)
        np.clip(jitter, -JITTER_CLIP_SIGMAS * sigma, JITTER_CLIP_SIGMAS * sigma, out=jitter)
    else:
        jitter = np.zeros(ev.size)
    t = ev["time_ps"] + jitter
    dark_x = rng.random(ev.size) * geometry.size_x_mm
    y = rng.random(ev.size) * geometry.size_y_mm
    is_dark = ev["kind"] == EventKind.DARK
    x = np.where(is_dark, dark_x, wavelength_to_position(ev["wavelength_nm"], config.calibration))
    on_sensor = (x >= 0.0) & (x <= geometry.size_x_mm)
    on_sensor |= is_dark  # dark positions are uniform on-sensor by construction
    tally.n_off_sensor = int(ev.size - np.count_nonzero(on_sensor))
    keep = on_sensor & (t >= 0.0)
    tally.n_negative_time = int(np.count_nonzero(on_sensor & (t < 0.0)))
    out = np.empty(int(np.count_nonzero(keep)), dtype=DETECTION_DTYPE)
    out["path"] = ev["path"][keep]
    out["kind"] = ev["kind"][keep]
    out["time_ps"] = t[keep]
    out["x_mm"] = x[keep]
    out["y_mm"] = y[keep]
    out["wavelength_nm"] = ev["wavelength_nm"][keep]
    order = np.argsort(out["time_ps"], kind="stable")
    return out[order], tally


def encode_groups(detections: np.ndarray, geometry: AnodeGeometry) -> np.ndarray:
    """Vectorised anode encoding of detections into 5-timestamp groups (ticks)."""
    x = detections["x_mm"]
    y = detections["y_mm"]
    if np.any((x < 0) | (x > geometry.size_x_mm) | (y < 0) | (y > geometry.size_y_mm)):
        raise ValueError("landing position outside the anode")
    v = geometry.signal_speed_mm_per_ps
    tick = geometry.tick_ps
    t = detections["time_ps"]
    out = np.empty(detections.size, dtype=HIT_GROUP_DTYPE)
    out["detector"] = detections["path"]
    out["t_mcp"] = np.rint(t / tick).astype(np.int64)
    out["t_xa"] = np.rint((t + x / v) / tick).astype(np.int64)
    out["t_xb"] = np.rint((t + (geometry.size_x_mm - x) / v) / tick).astype(np.int64)
    out["t_ya"] = np.rint((t + y / v) / tick).astype(np.int64)
    out["t_yb"] = np.rint((t + (geometry.size_y_mm - y) / v) / tick).astype(np.int64)
    return out


def _collision_mask(t: np.ndarray, dead_ticks: int) -> np.ndarray:
    """True where a trigger has a neighbour within dead_ticks (inclusive)."""
    collide = np.zeros(t.size, dtype=bool)
    if t.size > 1:
        close = np.diff(t) <= dead_ticks
        collide[:-1] |= close
        collide[1:] |= close
    return collide


class DeadTimeFilter:
    """Dead-time stage: discards whole detections whose MCP triggers collide.

    A square anode cannot untangle overlapping delay-line signals, so when two
    triggers on one detector lie within floor(dead_time_ps / tick_ps) ticks of
    each other *both* detections are removed; `discards` counts them per
    detector.

    Blocks arrive time-sorted per detector; `future_floor_ticks` promises that
    every later trigger lands at or above that tick, which bounds how much must
    be buffered before a detection's fate is decidable. `None` promises no
    later trigger, so `feed(groups, None)` filters a whole stream at once.
    """

    def __init__(self, dead_time_ps: float, tick_ps: int = 1):
        self.dead_ticks = int(np.floor(dead_time_ps / tick_ps))
        self._pending = [np.empty(0, dtype=HIT_GROUP_DTYPE) for _ in (0, 1)]
        self._last_trigger = [None, None]
        self.discards = [0, 0]

    def feed(self, groups: np.ndarray, future_floor_ticks: int | None) -> np.ndarray:
        out = []
        for det in (0, 1):
            new = groups[groups["detector"] == det]
            buf = np.concatenate([self._pending[det], new])
            order = np.argsort(buf["t_mcp"], kind="stable")
            buf = buf[order]
            t = buf["t_mcp"]
            if future_floor_ticks is None:
                decidable = np.ones(t.size, dtype=bool)
            else:
                decidable = t <= future_floor_ticks - self.dead_ticks - 1
            collide = _collision_mask(t, self.dead_ticks)
            last = self._last_trigger[det]
            if t.size and last is not None and t[0] - last <= self.dead_ticks:
                collide[0] = True
            emit = decidable & ~collide
            self.discards[det] += int(np.count_nonzero(decidable & collide))
            n_dec = int(np.count_nonzero(decidable))
            if n_dec:
                self._last_trigger[det] = int(t[n_dec - 1])
            self._pending[det] = buf[~decidable]
            out.append(buf[emit])
        merged = np.concatenate(out)
        order = np.argsort(merged["t_mcp"], kind="stable")
        return merged[order]

    def finish(self) -> np.ndarray:
        return self.feed(np.empty(0, dtype=HIT_GROUP_DTYPE), None)

    def emitted_floor_ticks(self, future_floor_ticks: int) -> int:
        """Lower bound on any trigger tick this stage can still emit."""
        pend = [p["t_mcp"][0] for p in self._pending if p.size]
        lo = future_floor_ticks - self.dead_ticks - 1
        if pend:
            lo = min(lo, int(min(pend)))
        return lo


def groups_to_pulses(groups: np.ndarray) -> np.ndarray:
    """Flatten groups to a timestamp-sorted pulse array (5 rows per group).

    The sort is stable, so pulses with equal timestamps keep group order with
    the MCP pulse first; serialization is deterministic.
    """
    n = groups.size
    detectors = np.repeat(groups["detector"], 5)
    channels = np.tile(
        np.array([Channel.MCP, Channel.XA, Channel.XB, Channel.YA, Channel.YB], dtype=np.uint8), n
    )
    ts = np.empty((n, 5), dtype=np.int64)
    ts[:, 0] = groups["t_mcp"]
    ts[:, 1] = groups["t_xa"]
    ts[:, 2] = groups["t_xb"]
    ts[:, 3] = groups["t_ya"]
    ts[:, 4] = groups["t_yb"]
    flat = ts.reshape(-1)
    order = np.argsort(flat, kind="stable")
    out = np.empty(5 * n, dtype=PULSE_DTYPE)
    out["detector"] = detectors[order]
    out["channel"] = channels[order]
    out["timestamp"] = flat[order].astype(np.uint64)
    return out
