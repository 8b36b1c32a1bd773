"""Detector response: spectral mapping, jitter, anode encoding, dead time.

Quantum efficiency is drawn upstream: `source_sim` samples only the photons
it converts. The chain per converted photon is

    add trigger jitter -> land at (x, y) on the anode (x from the wavelength
    by the spectrometer map `wavelength_to_position`)
    -> split into MCP + four delay-line pulses -> quantise timestamps
    -> discard multi-hit collisions within the dead time.

Detections are `Columns`, one plain array per field. `encode_groups` turns
them into hit-group `Columns`: a detector column and the five timestamp
columns of each detection's pulses, which stay one row until serialization;
the analysis side has to undo that bundling from timestamps alone. The anode
encoding is exact by construction: before quantisation, (t_xa - t0) +
(t_xb - t0) equals the full propagation time and the time difference
t_xa - t_xb inverts to the landing position.

Detections keep the sampler's row order, which is not time order.
`DeadTimeFilter` makes the one decision of group order, a sort by (t_mcp,
detector), and `groups_to_pulses` sorts the surviving groups' pulses into
file order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import AnodeGeometry, Calibration, RunConfig, SimConfig, fwhm_to_sigma
from .event_format import GROUP_TIMES, PULSE_DTYPE, Columns
from .source_sim import EventKind

# Gaussian jitter is clipped here so that a detection time can be bounded by
# its emission time; the clipped mass is ~2e-9 of draws.
JITTER_CLIP_SIGMAS = 6.0


def jitter_reach_ps(sim: SimConfig) -> float:
    """The largest jitter `detect` adds or subtracts: its Gaussian clipped
    at JITTER_CLIP_SIGMAS sigma."""
    return JITTER_CLIP_SIGMAS * fwhm_to_sigma(sim.jitter_fwhm_ps)


def wavelength_to_position(wavelength_nm, calibration: Calibration):
    return calibration.x_center_mm + (wavelength_nm - calibration.lambda_center_nm) / calibration.dispersion_nm_per_mm


@dataclass
class DetectTally:
    n_off_sensor: int = 0
    n_negative_time: int = 0


def detect(
    events: Columns, cfg: RunConfig, rng: np.random.Generator
) -> tuple[Columns, DetectTally]:
    """Turn converted photons into anode landings, row for row.

    Reads three sections of `cfg`: simulation (jitter), geometry (anode size)
    and calibration (wavelength to x). qe is applied upstream: the events are
    the photons it converts. The detection time is the emission time plus
    Gaussian trigger jitter (FWHM jitter_fwhm_ps). The x coordinate is the
    spectrometer image of the wavelength; dark counts land uniformly in x. y
    is uniform over the anode height. Events whose wavelength images outside
    the anode fall off the sensor and are dropped (counted), as are
    detections jittered to negative times at the run start.

    The result has columns path, kind, time_ps, x_mm, y_mm and wavelength_nm
    (the emitted one). Nothing downstream depends on the row order: the
    dead-time stage decides group order.
    """
    tally = DetectTally()
    sim, geometry = cfg.simulation, cfg.geometry
    n = events.size
    reach = jitter_reach_ps(sim)
    t = np.clip(rng.normal(0.0, fwhm_to_sigma(sim.jitter_fwhm_ps), n), -reach, reach)
    t += events["time_ps"]
    dark_x = rng.random(n) * geometry.size_mm
    y = rng.random(n) * geometry.size_mm
    is_dark = events["kind"] == EventKind.DARK
    wavelength = events["wavelength_nm"]
    x = np.where(is_dark, dark_x, wavelength_to_position(wavelength, cfg.calibration))
    on_sensor = (x >= 0.0) & (x <= geometry.size_mm)
    on_sensor |= is_dark  # dark positions are uniform on-sensor by construction
    tally.n_off_sensor = int(n - np.count_nonzero(on_sensor))
    keep = on_sensor & (t >= 0.0)
    tally.n_negative_time = int(np.count_nonzero(on_sensor & (t < 0.0)))
    detections = Columns(path=events["path"], kind=events["kind"], time_ps=t, x_mm=x, y_mm=y, wavelength_nm=wavelength)
    return detections[keep], tally


def encode_groups(detections: Columns, geometry: AnodeGeometry) -> Columns:
    """Vectorised anode encoding of detection columns into hit groups.

    The groups have a `detector` column (u1, the detection's path) and the
    int64 tick columns `t_mcp`, `t_xa`, `t_xb`, `t_ya` and `t_yb`.
    """
    x = detections["x_mm"]
    y = detections["y_mm"]
    size = geometry.size_mm
    if np.any((x < 0) | (x > size) | (y < 0) | (y > size)):
        raise ValueError("landing position outside the anode")
    v = geometry.signal_speed_mm_per_ps
    tick = geometry.tick_ps
    t = detections["time_ps"]

    def ticks(time_ps: np.ndarray) -> np.ndarray:
        return np.rint(time_ps / tick).astype(np.int64)

    return Columns({
        "detector": detections["path"],
        "t_mcp": ticks(t),
        "t_xa": ticks(t + x / v),
        "t_xb": ticks(t + (size - x) / v),
        "t_ya": ticks(t + y / v),
        "t_yb": ticks(t + (size - y) / v),
    })


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

    Blocks may arrive in any order within themselves; `future_floor_ticks`
    promises that every later trigger lands at or above that tick, which
    bounds how much must be buffered before a detection's fate is decidable.
    `None` promises no later trigger, so `feed(groups, None)` filters a whole
    stream at once. Survivors come out sorted by (t_mcp, detector): two
    triggers of one detector at the same tick always collide, so that order
    has no ties.
    """

    def __init__(self, dead_time_ps: float, tick_ps: int = 1):
        self.dead_ticks = int(np.floor(dead_time_ps / tick_ps))
        # sorted by (t_mcp, detector)
        self._pending = Columns({"detector": np.empty(0, dtype=np.uint8)}
                                | {name: np.empty(0, dtype=np.int64) for name in GROUP_TIMES})
        self._last_trigger = [None, None]
        self.discards = [0, 0]

    def feed(self, groups: Columns, future_floor_ticks: int | None) -> Columns:
        if groups.size and groups["t_mcp"].max() >= 2**62:
            raise ValueError("trigger tick out of range (>= 2**62 ticks)")
        buf = Columns({name: np.concatenate([pending, groups[name]]) for name, pending in self._pending.items()})
        # one key orders by (t_mcp, detector); the range check keeps it from overflowing
        order = np.argsort(buf["t_mcp"] * 2 + buf["detector"], kind="stable")
        # collisions are decided on the sorted trigger and detector columns alone
        t = buf["t_mcp"].take(order)
        detector = buf["detector"].take(order)
        if future_floor_ticks is None:
            n_dec = t.size
        else:
            n_dec = int(np.searchsorted(t, future_floor_ticks - self.dead_ticks))
        collide = np.zeros(t.size, dtype=bool)
        for det in (0, 1):
            idx = np.flatnonzero(detector == det)
            t_det = t[idx]
            hit = _collision_mask(t_det, self.dead_ticks)
            last = self._last_trigger[det]
            if t_det.size and last is not None and t_det[0] - last <= self.dead_ticks:
                hit[0] = True
            collide[idx] = hit
            n_det = int(np.searchsorted(idx, n_dec))
            self.discards[det] += int(np.count_nonzero(hit[:n_det]))
            if n_det:
                self._last_trigger[det] = int(t_det[n_det - 1])
        # every column is gathered once, into the survivors or the pending rows
        self._pending = buf[order[n_dec:]]
        return buf[order[:n_dec][~collide[:n_dec]]]

    def emitted_floor_ticks(self, future_floor_ticks: int) -> int:
        """Lower bound on any trigger tick this stage can still emit, right
        after `feed(groups, future_floor_ticks)`: every pending trigger lies
        at or above `future_floor_ticks - dead_ticks`."""
        return future_floor_ticks - self.dead_ticks - 1


def groups_to_pulses(groups: Columns, carry: np.ndarray | None = None) -> np.ndarray:
    """Flatten groups to a timestamp-sorted pulse array (5 rows per group).

    `carry` is an already timestamp-sorted pulse array that is merged in
    ahead of the groups. The single sort is stable, so equal timestamps keep
    the order carry first, then group order with the MCP pulse first;
    serialization is deterministic. Timestamp, detector and channel are
    filled as contiguous columns, each group timestamp column into its stride
    of five, sorted by timestamp, and packed once into file records.
    """
    m = 0 if carry is None else carry.size
    n = m + 5 * groups.size
    timestamp = np.empty(n, dtype=np.uint64)
    detector = np.empty(n, dtype=np.uint8)
    channel = np.empty(n, dtype=np.uint8)
    if m:
        timestamp[:m] = carry["timestamp"]
        detector[:m] = carry["detector"]
        channel[:m] = carry["channel"]
    detector[m:] = np.repeat(groups["detector"], 5)
    for k, name in enumerate(GROUP_TIMES):  # GROUP_TIMES[k] is channel k
        timestamp[m + k :: 5] = groups[name]
        channel[m + k :: 5] = k
    order = np.argsort(timestamp, kind="stable")
    timestamp = timestamp.take(order)  # gathered before `out` exists: a lower peak
    out = np.empty(n, dtype=PULSE_DTYPE)
    out["timestamp"] = timestamp
    out["detector"] = detector.take(order)
    out["channel"] = channel.take(order)
    return out
