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
`Columns` of the int64 tick columns `GROUP_TIMES` (both from `event_format`).
A photon event keeps only integers, 16 bytes a row at every geometry whose
collection window is below 2**31 ticks: `t_ps` (int64) and the anode
differences `dt_x` = t_xa - t_xb and `dt_y` = t_ya - t_yb in ticks (int32,
or int64 for a longer window; `difference_dtype`). Its x, y and wavelength
are fixed functions of the differences, and every reader derives them with
`hit_positions`, from one `anode_position` per axis, so every reader gets the
same floats bit for bit. Decode derives no float per group: the differences
`anode_position` does not mask are one integer interval, which
`anode_difference_bounds` finds once per geometry by evaluating it, and the
malformed check compares the integers with its ends. `write_events_csv`
derives and exports the floats through the column formatter
`csvtext.csv_rows`, a block of rows at a time. The module sees
nothing of the simulator: `position_to_wavelength` inverts the spectrometer
map, and its forward twin, `detector_sim.wavelength_to_position`, belongs to
the simulator.

`HitMatcher` groups a detector's stream as it is read. A trigger reaches
only the pulses of its own window, so the stream falls into independent
parts wherever two consecutive triggers are more than a window apart. Each
feed decides every part that is wholly buffered and carries only the
timestamps of the last, unfinished one: beyond its feed, a matcher holds the
longest run of triggers less than a window apart, and the pulses among them.
"""

from __future__ import annotations

import functools
from typing import Iterable

import numpy as np

from .config import AnodeGeometry, Calibration
from .csvtext import csv_rows
from .event_format import GROUP_TIMES, Columns

DEFAULT_SUM_TOL_TICKS = 3
# decoded events' anode differences are int32 when the collection window is
# below this many ticks, so every difference fits in 4 bytes; int64 otherwise
_INT32_TICKS = 1 << 31

EVENTS_CSV_HEADER = "detector,t_ps,x_mm,y_mm,lambda_nm"
# write_events_csv derives and formats this many rows at once. A default-run
# row peaks at about 280 B (tracemalloc) while its block is formatted: its 18
# 4-byte slots three times (the slot-major matrix, its bytes in row order, and
# translate's output buffer before the NULs shrink it to about 45 B of text),
# the last column's parts, and its three derived floats.
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
    if min(col.size for col in anodes) == 0:  # no trigger has a candidate on every channel
        return np.zeros(n, dtype=bool), np.zeros((4, n), dtype=np.intp), np.zeros((4, n), dtype=np.int64)
    cand_pos = np.empty((4, n), dtype=np.intp)
    cand_t = np.empty((4, n), dtype=np.int64)
    ok = np.ones(n, dtype=bool)
    # the triggers are written once, and each anode column is copied in behind them
    merge = np.empty(n + max(col.size for col in anodes), dtype=np.int64)
    merge[:n] = mcp_t
    rank = np.arange(n)
    reach = mcp_t + window_ticks
    for k, col in enumerate(anodes):
        # np.searchsorted(col, mcp_t): a stable sort of the two sorted runs is a
        # timsort merge, faster than binary searches; triggers sort first on ties
        merge[n : n + col.size] = col
        pos = np.flatnonzero(np.argsort(merge[: n + col.size], kind="stable") < n)
        pos -= rank
        ok &= pos < col.size
        np.minimum(pos, col.size - 1, out=cand_pos[k])
        col.take(cand_pos[k], out=cand_t[k])
        ok &= cand_t[k] <= reach
    # 2 t_mcp plus the propagation time, in reach's buffer; each timing sum
    # less it is formed in place
    base = np.multiply(mcp_t, 2, out=reach)
    base += propagation_ticks
    for a in (0, 2):
        total = cand_t[a] + cand_t[a + 1]
        total -= base
        np.abs(total, out=total)
        ok &= total <= DEFAULT_SUM_TOL_TICKS
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
    the gate and be lost: the square-anode multi-hit blind spot.

    A feed decides the stream below the latest valid cut c, one with no
    trigger in [c - window, c): the last buffered tick when the last trigger
    lies more than a window below it, else the latest trigger more than a
    window after its predecessor (the first of an equal-time run; the first
    buffered trigger qualifies, as the previous cut lies a window past every
    decided trigger). No trigger on one side of c reaches a pulse on the
    other, and every pulse below c is buffered, so the triggers below c are
    decided there, the anode pulses below c expire there, and results do not
    depend on the chunking. Only the five timestamp columns from c on are
    carried: beyond its feed, a matcher holds the longest run of triggers
    less than a window apart, and the pulses among them. A trigger is decided
    in the feed that cuts it, so an unaccepted trigger is counted as an
    orphan there, and so is an anode pulse that expires unclaimed.
    """

    def __init__(self, geometry: AnodeGeometry):
        self.geometry = geometry
        self.window_ticks = default_window_ticks(geometry)
        self._carry = [np.empty(0, dtype=np.int64)] * 5
        self.orphans = 0

    def feed(self, columns: list[np.ndarray], final: bool = False) -> Columns:
        buf = [np.concatenate([carry, col]) for carry, col in zip(self._carry, columns)]
        mcp = buf[0]
        if final:
            cuts = [col.size for col in buf]
        else:
            # the latest valid cut c; with nothing buffered every cut is 0
            c = max((int(col[-1]) for col in buf if col.size), default=0)
            if mcp.size and c - int(mcp[-1]) <= self.window_ticks:
                gaps = np.flatnonzero(np.diff(mcp) > self.window_ticks)
                c = int(mcp[gaps[-1] + 1 if gaps.size else 0])
            cuts = [int(np.searchsorted(col, c)) for col in buf]
        mcp_t = mcp[: cuts[0]]
        ok, cand_pos, cand_t = _match_core(mcp_t, [col[:cut] for col, cut in zip(buf[1:], cuts[1:])],
                                           self.geometry.propagation_ticks, self.window_ticks)
        accept = np.flatnonzero(ok)
        # on each channel an accepted trigger's candidate never precedes an
        # earlier one's, so a pulse that several claim is a run of equal positions
        claimed = cand_pos.take(accept, axis=1)
        distinct = claimed.size and 4 + int(np.count_nonzero(claimed[:, 1:] != claimed[:, :-1]))
        self.orphans += mcp_t.size - accept.size + sum(cuts[1:]) - distinct
        groups = Columns({
            "t_mcp": mcp_t.take(accept),
            **{name: cand_t[k].take(accept) for k, name in enumerate(GROUP_TIMES[1:])},
        })
        self._carry = [col[cut:] for col, cut in zip(buf, cuts)]
        return groups

    def finish(self) -> Columns:
        return self.feed([np.empty(0, dtype=np.int64)] * 5, final=True)


def difference_dtype(geometry: AnodeGeometry) -> type:
    """The dtype of decoded events' anode differences: int32 when the
    collection window is below _INT32_TICKS ticks, int64 otherwise. A
    group's candidates lie within one window of its trigger, so a
    difference is at most a window in size."""
    return np.int32 if default_window_ticks(geometry) < _INT32_TICKS else np.int64


def anode_position(dt: np.ndarray, geometry: AnodeGeometry) -> tuple[np.ndarray, np.ndarray]:
    """Invert one delay line: the position in mm of the anode difference `dt`
    (ticks, any integer dtype), and the mask of positions out of the anode.

    A position up to one quantisation step outside the anode is clamped to
    the edge (rounding can push an edge hit out by half a step); one further
    out is masked, and clamped too.
    """
    v = geometry.signal_speed_mm_per_ps
    tick = geometry.tick_ps
    size = geometry.size_mm
    # (dt * tick + T) * v / 2, in place: the same float operations in the same order
    position = dt.astype(np.float64)
    position *= tick
    position += geometry.propagation_time_ps
    position *= v
    position /= 2.0
    margin = v * tick
    outside = (position < -margin) | (position > size + margin)
    np.clip(position, 0.0, size, out=position)
    return position, outside


def hit_positions(dt_x: np.ndarray, dt_y: np.ndarray, geometry: AnodeGeometry, calibration: Calibration,
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """x and y in mm (`anode_position`) and the wavelength in nm of the anode
    differences `dt_x` and `dt_y`, with the mask of malformed groups: those
    out of the anode on either axis. Every float of a decoded event is
    derived here, or by the same `anode_position` and
    `position_to_wavelength` calls where only the wavelength is read, so the
    same difference always gives the same bits.
    """
    x, bad = anode_position(dt_x, geometry)
    y, bad_y = anode_position(dt_y, geometry)
    bad |= bad_y
    return x, y, position_to_wavelength(x, calibration), bad


def position_to_wavelength(x_mm, calibration: Calibration):
    """Linear spectrometer map, strictly monotone in x."""
    return calibration.lambda_center_nm + (x_mm - calibration.x_center_mm) * calibration.dispersion_nm_per_mm


@functools.lru_cache(maxsize=64)
def anode_difference_bounds(geometry: AnodeGeometry) -> tuple[int, int]:
    """The integer anode differences [lo, hi] that `anode_position` does not
    mask, found by evaluating it, once per geometry.

    Every float step of `anode_position` (the cast, x tick, + T, x v, / 2)
    rounds monotonically, so the position never decreases as the difference
    grows, and the differences it does not mask are one interval, which holds
    0, the anode's centre. Each edge is bracketed by doubling a step away from
    0 until the step is masked, then found by bisection."""
    def masked(dt: int) -> bool:
        return bool(anode_position(np.array([dt], np.int64), geometry)[1][0])

    def last_unmasked(direction: int) -> int:
        inside, outside = 0, direction
        while not masked(outside):
            inside, outside = outside, 2 * outside
        while abs(outside - inside) > 1:
            mid = (inside + outside) // 2
            if masked(mid):
                outside = mid
            else:
                inside = mid
        return inside

    return last_unmasked(-1), last_unmasked(1)


def groups_to_events(hits: Columns, geometry: AnodeGeometry) -> tuple[Columns, int]:
    """Hit groups -> photon events (`t_ps`, `dt_x`, `dt_y`); malformed groups,
    those whose x or y difference `anode_position` masks, are dropped and
    counted. The integer differences are compared with
    `anode_difference_bounds`, with no float derived per group: first by
    their extremes, and group by group only where one is out. They are
    checked in int64 and stored in `difference_dtype`, which holds every one
    that passes."""
    dt_x = hits["t_xa"] - hits["t_xb"]
    dt_y = hits["t_ya"] - hits["t_yb"]
    lo, hi = anode_difference_bounds(geometry)
    if all(lo <= dt.min(initial=lo) and dt.max(initial=hi) <= hi for dt in (dt_x, dt_y)):
        good, malformed = slice(None), 0  # the usual case: every column is kept unselected
    else:
        good = (dt_x >= lo) & (dt_x <= hi) & (dt_y >= lo) & (dt_y <= hi)
        malformed = good.size - int(np.count_nonzero(good))
    dtype = difference_dtype(geometry)
    events = Columns({
        "t_ps": hits["t_mcp"][good] * geometry.tick_ps,
        "dt_x": dt_x[good].astype(dtype, copy=False),
        "dt_y": dt_y[good].astype(dtype, copy=False),
    })
    return events, malformed


def write_event_rows(blocks: Iterable[list[np.ndarray]], detector: int, sink) -> None:
    """The events CSV of `detector`, written 1-based, to an open text file:
    the header, then one `detector,t_ps,x_mm,y_mm,lambda_nm` line per row of
    each block of (t_ps, x, y, wavelength) columns. `t_ps` prints as `%d`,
    the rest as `%.6f` (`csvtext.csv_rows`); a block that cannot be
    formatted raises before any of its text is written."""
    sink.write(EVENTS_CSV_HEADER + "\n")
    prefix = "%d," % (detector + 1)
    for columns in blocks:
        sink.write(csv_rows(columns, prefix))


def write_events_csv(events: Columns, geometry: AnodeGeometry, calibration: Calibration, detector: int,
                     sink) -> None:
    """`write_event_rows` of decoded events: x, y and the wavelength are
    derived (`hit_positions`) one block of _CSV_BLOCK_ROWS rows at a time."""
    def blocks():
        for b in range(0, events.size, _CSV_BLOCK_ROWS):
            block = events[b : b + _CSV_BLOCK_ROWS]
            x, y, wavelength, _ = hit_positions(block["dt_x"], block["dt_y"], geometry, calibration)
            yield [block["t_ps"], x, y, wavelength]

    write_event_rows(blocks(), detector, sink)
