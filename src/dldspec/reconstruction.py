"""Hit grouping, time-to-position inversion and wavelength calibration.

A detection appears in the raw stream as an MCP trigger followed by one pulse
on each of the four anode channels, all within the full propagation time. The
landing position comes from the arrival-time differences:

    x = (dt_x + T) * v / 2,   dt_x = t_xa - t_xb

with v the wire signal speed and T the full propagation time, and likewise for
y. A clean hit also satisfies the timing sum t_xa + t_xb - 2 * t_mcp = T up to
quantisation, which is the acceptance gate for grouping: pulse bundles whose
sum statistic is off by more than sum_tol ticks are rejected rather than
mis-localised.
"""

from __future__ import annotations

import numpy as np

from .config import AnodeGeometry, Calibration
from .event_format import Channel

DEFAULT_SUM_TOL_TICKS = 3

HIT_GROUP_DTYPE = np.dtype(
    [
        ("detector", "u1"),
        ("t_mcp", "<i8"),
        ("t_xa", "<i8"),
        ("t_xb", "<i8"),
        ("t_ya", "<i8"),
        ("t_yb", "<i8"),
    ]
)

PHOTON_DTYPE = np.dtype(
    [
        ("detector", "u1"),
        ("t_ps", "<i8"),
        ("x_mm", "<f8"),
        ("y_mm", "<f8"),
        ("wavelength_nm", "<f8"),
    ]
)

EVENTS_CSV_HEADER = "detector,t_ps,x_mm,y_mm,lambda_nm"
_CSV_BLOCK_ROWS = 1 << 10


class MalformedHitError(ValueError):
    """Hit group whose inverted position lies beyond the clamp margin."""


def default_window_ticks(geometry: AnodeGeometry, sum_tol_ticks: int = DEFAULT_SUM_TOL_TICKS) -> int:
    """Collection window after an MCP trigger: full propagation plus slack."""
    return geometry.propagation_ticks + 4 * sum_tol_ticks


def match_hits(
    pulses: np.ndarray,
    geometry: AnodeGeometry,
    window_ps: float | None = None,
    sum_tol_ticks: int = DEFAULT_SUM_TOL_TICKS,
) -> tuple[np.ndarray, int]:
    """Group a single detector's time-sorted pulses into hits.

    For each MCP trigger the earliest pulse per anode channel in
    [t_mcp, t_mcp + window] is taken as candidate; the group is accepted only
    if both timing sums match the propagation time within sum_tol ticks.
    Matching is stateless per trigger (no candidate consumption), so two
    detections closer than the window can steal each other's candidates, fail
    the gate and be lost — the square-anode multi-hit blind spot. Pulses
    absorbed by no accepted group are orphans.

    The whole stream goes through one `HitMatcher` call. Returns (hit groups,
    orphan count).
    """
    if pulses.size and (pulses["detector"].min() != pulses["detector"].max()):
        raise ValueError("match_hits expects pulses from a single detector")
    ts = pulses["timestamp"].astype(np.int64)
    if np.any(np.diff(ts) < 0):
        raise ValueError("pulses must be time-sorted")
    detector = int(pulses["detector"][0]) if pulses.size else 0
    matcher = HitMatcher(geometry, window_ps, sum_tol_ticks, detector)
    return matcher.feed(ts, pulses["channel"], final=True), matcher.orphans


def _match_core(
    ts: np.ndarray,
    ch: np.ndarray,
    propagation_ticks: int,
    window_ticks: int,
    sum_tol_ticks: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Candidate search + timing-sum gate. Returns per-MCP accept mask and
    candidate times/indices (4 x n arrays, rows XA, XB, YA, YB)."""
    mcp_idx = np.nonzero(ch == int(Channel.MCP))[0]
    mcp_t = ts[mcp_idx]
    n = mcp_t.size
    cand_t = np.zeros((4, n), dtype=np.int64)
    cand_idx = np.zeros((4, n), dtype=np.intp)
    ok = np.ones(n, dtype=bool)
    for k, c in enumerate((Channel.XA, Channel.XB, Channel.YA, Channel.YB)):
        gidx = np.nonzero(ch == int(c))[0]
        ct = ts[gidx]
        if ct.size == 0:
            ok[:] = False
            continue
        pos = np.searchsorted(ct, mcp_t, side="left")
        have = pos < ct.size
        safe = np.minimum(pos, ct.size - 1)
        t_c = ct[safe]
        have &= t_c <= mcp_t + window_ticks
        ok &= have
        cand_t[k] = np.where(have, t_c, 0)
        cand_idx[k] = gidx[safe]
    sum_x = cand_t[0] + cand_t[1] - 2 * mcp_t
    sum_y = cand_t[2] + cand_t[3] - 2 * mcp_t
    ok &= np.abs(sum_x - propagation_ticks) <= sum_tol_ticks
    ok &= np.abs(sum_y - propagation_ticks) <= sum_tol_ticks
    return ok, mcp_idx, cand_t, cand_idx


class HitMatcher:
    """Streaming hit grouping for one detector's pulse stream.

    Chunks of the time-sorted stream go in; hit groups come out. A trigger is
    decided exactly once, as soon as its whole candidate window is known to be
    buffered, so results do not depend on the chunking. Orphan accounting
    survives chunk boundaries via carried claim flags: a pulse is counted when
    it expires (no future trigger can reach it) still unclaimed.
    """

    def __init__(
        self,
        geometry: AnodeGeometry,
        window_ps: float | None = None,
        sum_tol_ticks: int = DEFAULT_SUM_TOL_TICKS,
        detector: int = 0,
    ):
        self.geometry = geometry
        self.sum_tol_ticks = sum_tol_ticks
        self.window_ticks = (
            default_window_ticks(geometry, sum_tol_ticks)
            if window_ps is None
            else int(round(window_ps / geometry.tick_ps))
        )
        self.detector = detector
        self._carry_ts = np.empty(0, dtype=np.int64)
        self._carry_ch = np.empty(0, dtype=np.uint8)
        self._carry_claimed = np.empty(0, dtype=bool)
        self.orphans = 0
        self.n_groups = 0

    def feed(self, ts: np.ndarray, ch: np.ndarray, final: bool = False) -> np.ndarray:
        buf_ts = np.concatenate([self._carry_ts, ts.astype(np.int64, copy=False)])
        buf_ch = np.concatenate([self._carry_ch, ch])
        buf_claimed = np.concatenate([self._carry_claimed, np.zeros(ts.size, dtype=bool)])
        if buf_ts.size == 0:
            return np.empty(0, dtype=HIT_GROUP_DTYPE)
        ok, mcp_idx, cand_t, cand_idx = _match_core(
            buf_ts, buf_ch, self.geometry.propagation_ticks, self.window_ticks, self.sum_tol_ticks
        )
        if final:
            decided = np.ones(mcp_idx.size, dtype=bool)
            expire = np.ones(buf_ts.size, dtype=bool)
        else:
            cutoff = int(buf_ts[-1]) - self.window_ticks
            decided = buf_ts[mcp_idx] <= cutoff
            expire = buf_ts <= cutoff
        accept = ok & decided
        claimed_now = np.zeros(buf_ts.size, dtype=bool)
        claimed_now[mcp_idx[accept]] = True
        for k in range(4):
            claimed_now[cand_idx[k][accept]] = True
        buf_claimed |= claimed_now
        self.orphans += int(np.count_nonzero(expire & ~buf_claimed))
        groups = np.empty(int(np.count_nonzero(accept)), dtype=HIT_GROUP_DTYPE)
        groups["detector"] = self.detector
        groups["t_mcp"] = buf_ts[mcp_idx[accept]]
        for k, name in enumerate(("t_xa", "t_xb", "t_ya", "t_yb")):
            groups[name] = cand_t[k][accept]
        self.n_groups += int(groups.size)
        keep = ~expire
        # Deferred triggers stay in the carry along with every still-live pulse.
        self._carry_ts = buf_ts[keep]
        self._carry_ch = buf_ch[keep]
        self._carry_claimed = buf_claimed[keep]
        return groups

    def finish(self) -> np.ndarray:
        return self.feed(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.uint8), final=True)


def reconstruct_position(
    hits: np.ndarray, geometry: AnodeGeometry
) -> tuple[np.ndarray, np.ndarray]:
    """Invert the delay-line timing of hit groups to (x, y) in mm.

    Positions up to one quantisation step outside the anode are clamped to the
    edge (rounding can push an edge hit out by half a step); anything further
    out raises MalformedHitError.
    """
    x, y, bad = _positions_with_validity(hits, geometry)
    if np.any(bad):
        i = int(np.nonzero(bad)[0][0])
        raise MalformedHitError(
            f"hit at tick {int(np.atleast_1d(hits['t_mcp'])[i])} inverts outside the anode"
        )
    if hits.shape == ():
        return float(x[0]), float(y[0])
    return x, y


def _positions_with_validity(
    hits: np.ndarray, geometry: AnodeGeometry
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    h = np.atleast_1d(hits)
    v = geometry.signal_speed_mm_per_ps
    tick = geometry.tick_ps
    t_prop = geometry.propagation_time_ps
    dx = (h["t_xa"] - h["t_xb"]).astype(np.float64) * tick
    dy = (h["t_ya"] - h["t_yb"]).astype(np.float64) * tick
    x = (dx + t_prop) * v / 2.0
    y = (dy + t_prop) * v / 2.0
    margin = v * tick
    bad = (
        (x < -margin)
        | (x > geometry.size_x_mm + margin)
        | (y < -margin)
        | (y > geometry.size_y_mm + margin)
    )
    np.clip(x, 0.0, geometry.size_x_mm, out=x)
    np.clip(y, 0.0, geometry.size_y_mm, out=y)
    return x, y, bad


def position_to_wavelength(x_mm, calibration: Calibration):
    """Linear spectrometer map, strictly monotone in x."""
    return calibration.lambda_center_nm + (x_mm - calibration.x_center_mm) * calibration.dispersion_nm_per_mm


def wavelength_to_position(wavelength_nm, calibration: Calibration):
    return calibration.x_center_mm + (wavelength_nm - calibration.lambda_center_nm) / calibration.dispersion_nm_per_mm


def groups_to_events(
    hits: np.ndarray, geometry: AnodeGeometry, calibration: Calibration
) -> tuple[np.ndarray, int]:
    """Hit groups -> photon events; malformed groups are dropped and counted."""
    x, y, bad = _positions_with_validity(hits, geometry)
    good = ~bad
    out = np.empty(int(np.count_nonzero(good)), dtype=PHOTON_DTYPE)
    h = np.atleast_1d(hits)
    out["detector"] = h["detector"][good]
    out["t_ps"] = h["t_mcp"][good] * geometry.tick_ps
    out["x_mm"] = x[good]
    out["y_mm"] = y[good]
    out["wavelength_nm"] = position_to_wavelength(x[good], calibration)
    return out, int(np.count_nonzero(bad))


def write_events_csv(events: np.ndarray, sink) -> None:
    """One `detector,t_ps,x_mm,y_mm,lambda_nm` line per event, 1-based detector."""
    close = False
    if isinstance(sink, (str, bytes)) or hasattr(sink, "__fspath__"):
        sink = open(sink, "w")
        close = True
    try:
        sink.write(EVENTS_CSV_HEADER + "\n")
        # Python scalars from .tolist() format much faster than numpy row fields;
        # blocks bound the memory those lists take.
        for b in range(0, events.size, _CSV_BLOCK_ROWS):
            block = events[b : b + _CSV_BLOCK_ROWS]
            columns = [block[name].tolist() for name in ("t_ps", "x_mm", "y_mm", "wavelength_nm")]
            detector = (block["detector"].astype(np.int64) + 1).tolist()
            sink.writelines(["%d,%d,%.6f,%.6f,%.6f\n" % row for row in zip(detector, *columns)])
    finally:
        if close:
            sink.close()
