"""Hit grouping, time-to-position inversion and wavelength calibration.

A detection appears in the raw stream as an MCP trigger followed by one pulse
on each of the four anode channels, all within the full propagation time. The
landing position comes from the arrival-time differences:

    x = (dt_x + T) * v / 2,   dt_x = t_xa - t_xb

with v the wire signal speed and T the full propagation time, and likewise for
y. A clean hit also satisfies the timing sum t_xa + t_xb - 2 * t_mcp = T up to
quantisation, which is the acceptance gate for grouping: pulse bundles whose
sum statistic is off by more than DEFAULT_SUM_TOL_TICKS ticks are rejected
rather than mis-localised.

Decoding works on one detector at a time, so its tables carry no detector
column: the caller keeps each detector's tables apart. Decoded hit groups are
`Columns` of the int64 tick columns `GROUP_TIMES` (both from `event_format`);
photon events have `t_ps` (int64), `x_mm`, `y_mm` and `wavelength_nm`.
`write_events_csv` exports them through the column formatter
`csvtext.csv_rows`, a block of rows at a time. The module sees nothing of the
simulator: `position_to_wavelength` inverts the spectrometer map, and its
forward twin, `detector_sim.wavelength_to_position`, belongs to the simulator.
"""

from __future__ import annotations

import numpy as np

from .config import AnodeGeometry, Calibration
from .csvtext import csv_rows
from .event_format import GROUP_TIMES, Columns

DEFAULT_SUM_TOL_TICKS = 3

EVENTS_CSV_HEADER = "detector,t_ps,x_mm,y_mm,lambda_nm"
# write_events_csv formats this many rows at once. A default-run row takes
# about 290 B while its block is formatted: its 18 4-byte slots twice (as
# columns, then as one matrix), the matrix's NUL mask and about 45 B of text.
_CSV_BLOCK_ROWS = 1 << 14


def default_window_ticks(geometry: AnodeGeometry) -> int:
    """Collection window after an MCP trigger: full propagation plus slack."""
    return geometry.propagation_ticks + 4 * DEFAULT_SUM_TOL_TICKS


def channel_columns(pulses: np.ndarray) -> list[list[np.ndarray]]:
    """Split time-sorted PULSE_DTYPE records into per-channel timestamp columns.

    Returns, for detectors 0 and 1, the five int64 columns in channel order
    (MCP, XA, XB, YA, YB), each time-sorted and in file order on ties. One
    stable sort of the u1 key `detector * 5 + channel` (a radix sort) and one
    gather of the timestamps make every column; they are slices of that
    gather. Timestamps must be below 2**63, as the reader checks.
    """
    key = pulses["detector"] * 5 + pulses["channel"]
    order = np.argsort(key, kind="stable")
    ts = pulses["timestamp"].take(order).view(np.int64)
    bounds = np.searchsorted(key.take(order), np.arange(11, dtype=np.uint8)).tolist()
    return [[ts[bounds[5 * d + c] : bounds[5 * d + c + 1]] for c in range(5)] for d in (0, 1)]


def _match_core(
    mcp_t: np.ndarray,
    anodes: list[np.ndarray],
    propagation_ticks: int,
    window_ticks: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Candidate search + timing-sum gate for the triggers `mcp_t` over the
    XA, XB, YA, YB columns. Returns the per-trigger accept mask and each
    candidate's position in its column and time (4 x n arrays)."""
    n = mcp_t.size
    cand_pos = np.zeros((4, n), dtype=np.intp)
    cand_t = np.zeros((4, n), dtype=np.int64)
    ok = np.ones(n, dtype=bool)
    for k, col in enumerate(anodes):
        if col.size == 0:
            ok[:] = False
            continue
        # np.searchsorted(col, mcp_t): a stable sort of the two sorted runs is a
        # timsort merge, faster than binary searches; triggers sort first on ties
        merged = np.argsort(np.concatenate([mcp_t, col]), kind="stable")
        pos = np.flatnonzero(merged < n) - np.arange(n)
        ok &= pos < col.size
        np.minimum(pos, col.size - 1, out=cand_pos[k])
        col.take(cand_pos[k], out=cand_t[k])
        ok &= cand_t[k] <= mcp_t + window_ticks
    ok &= np.abs(cand_t[0] + cand_t[1] - 2 * mcp_t - propagation_ticks) <= DEFAULT_SUM_TOL_TICKS
    ok &= np.abs(cand_t[2] + cand_t[3] - 2 * mcp_t - propagation_ticks) <= DEFAULT_SUM_TOL_TICKS
    return ok, cand_pos, cand_t


class HitMatcher:
    """Streaming hit grouping for one detector's pulse stream.

    Each `feed` takes the next stretch of the stream as five time-sorted int64
    columns, one per channel (MCP, XA, XB, YA, YB; see `channel_columns`),
    and returns the hit groups it decided, as `Columns` of `GROUP_TIMES`.
    For each MCP trigger the earliest pulse per anode channel in
    [t_mcp, t_mcp + window] is its candidate; the group is accepted only if
    both timing sums match the propagation time within DEFAULT_SUM_TOL_TICKS
    ticks.
    Matching is stateless per trigger (no candidate consumption), so two
    detections closer than the window can steal each other's candidates, fail
    the gate and be lost: the square-anode multi-hit blind spot. A trigger is
    decided exactly once, as soon as its whole candidate window is known to be
    buffered (at or before the last buffered tick minus the window), so
    results do not depend on the chunking. Decided triggers and expired
    pulses, which no future trigger can reach, are a prefix of each column;
    what follows is carried, per channel, with a claimed flag for each anode
    pulse. A trigger is decided in the feed that cuts it, so an unaccepted
    trigger is counted as an orphan there; an anode pulse is counted as one
    when it expires still unclaimed.
    """

    def __init__(self, geometry: AnodeGeometry):
        self.geometry = geometry
        self.window_ticks = default_window_ticks(geometry)
        self._carry = [np.empty(0, dtype=np.int64)] * 5
        self._carry_claimed = [np.empty(0, dtype=bool)] * 4  # the anode channels'
        self.orphans = 0

    def feed(self, columns: list[np.ndarray], final: bool = False) -> Columns:
        buf = [np.concatenate([carry, col]) for carry, col in zip(self._carry, columns)]
        claimed = [np.concatenate([flags, np.zeros(col.size, dtype=bool)])
                   for flags, col in zip(self._carry_claimed, columns[1:])]
        if final:
            cuts = [col.size for col in buf]
        else:
            # with nothing buffered every cut is 0, whatever the cutoff
            cutoff = max((int(col[-1]) for col in buf if col.size), default=0) - self.window_ticks
            cuts = [int(np.searchsorted(col, cutoff, side="right")) for col in buf]
        mcp_t = buf[0][: cuts[0]]
        ok, cand_pos, cand_t = _match_core(mcp_t, buf[1:], self.geometry.propagation_ticks, self.window_ticks)
        accept = np.flatnonzero(ok)
        self.orphans += mcp_t.size - accept.size
        for k in range(4):
            claimed[k][cand_pos[k].take(accept)] = True
        for flags, cut in zip(claimed, cuts[1:]):
            self.orphans += cut - int(np.count_nonzero(flags[:cut]))
        groups = Columns({
            "t_mcp": mcp_t.take(accept),
            **{name: cand_t[k].take(accept) for k, name in enumerate(GROUP_TIMES[1:])},
        })
        # deferred triggers stay in the carry along with every still-live pulse
        self._carry = [col[cut:] for col, cut in zip(buf, cuts)]
        self._carry_claimed = [flags[cut:] for flags, cut in zip(claimed, cuts[1:])]
        return groups

    def finish(self) -> Columns:
        return self.feed([np.empty(0, dtype=np.int64)] * 5, final=True)


def hit_positions(hits: Columns, geometry: AnodeGeometry) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Invert the delay-line timing of hit groups to (x, y) in mm, with the
    mask of malformed groups.

    Positions up to one quantisation step outside the anode are clamped to the
    edge (rounding can push an edge hit out by half a step); a group further
    out is malformed.
    """
    v = geometry.signal_speed_mm_per_ps
    tick = geometry.tick_ps
    t_prop = geometry.propagation_time_ps
    dx = (hits["t_xa"] - hits["t_xb"]).astype(np.float64) * tick
    dy = (hits["t_ya"] - hits["t_yb"]).astype(np.float64) * tick
    x = (dx + t_prop) * v / 2.0
    y = (dy + t_prop) * v / 2.0
    margin = v * tick
    size = geometry.size_mm
    bad = (x < -margin) | (x > size + margin) | (y < -margin) | (y > size + margin)
    np.clip(x, 0.0, size, out=x)
    np.clip(y, 0.0, size, out=y)
    return x, y, bad


def position_to_wavelength(x_mm, calibration: Calibration):
    """Linear spectrometer map, strictly monotone in x."""
    return calibration.lambda_center_nm + (x_mm - calibration.x_center_mm) * calibration.dispersion_nm_per_mm


def groups_to_events(hits: Columns, geometry: AnodeGeometry, calibration: Calibration) -> tuple[Columns, int]:
    """Hit groups -> photon events; malformed groups are dropped and counted."""
    x, y, bad = hit_positions(hits, geometry)
    good = ~bad
    x = x[good]
    events = Columns({
        "t_ps": hits["t_mcp"][good] * geometry.tick_ps,
        "x_mm": x,
        "y_mm": y[good],
        "wavelength_nm": position_to_wavelength(x, calibration),
    })
    return events, int(np.count_nonzero(bad))


def write_events_csv(events: Columns, detector: int, sink) -> None:
    """One `detector,t_ps,x_mm,y_mm,lambda_nm` line per event of `detector`,
    written 1-based, to an open text file. `t_ps` prints as `%d`, the rest as
    `%.6f` (`csvtext.csv_rows`), one block of rows at a time."""
    sink.write(EVENTS_CSV_HEADER + "\n")
    prefix = "%d," % (detector + 1)
    for b in range(0, events.size, _CSV_BLOCK_ROWS):
        block = events[b : b + _CSV_BLOCK_ROWS]
        sink.write(csv_rows([block[name] for name in ("t_ps", "x_mm", "y_mm", "wavelength_nm")], prefix))
