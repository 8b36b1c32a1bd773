"""The closed loop over the config space (ROADMAP item 16, part a).

Each example draws a run config over item 16's ranges (source, detector,
anode and tick), simulates it under `_truth.tap` and decodes it. The draws
are derandomized and their count fixed, so the sweep is the same on every
run. It checks what holds in every draw today:
- the simulate ledger: per detector, detections equal written groups plus
  dead-time discards, and the tap counts as many written groups as the summary;
- every decoded trigger is a written trigger, and its x lies within
  2 ticks * v of its written group's;
- a decode in 997-record chunks equals the default decode, also where
  triggers less than a window apart run on (200 MHz on an 80 ns line), so
  the matcher seldom finds a gap to cut the stream at.
The decode ledger is left to the two strict xfails of
`test_every_pulse_ends_in_a_group_or_as_an_orphan`.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dldspec.pipeline import decode_file, simulate_to_file
from dldspec.reconstruction import hit_positions

from _truth import tap
from conftest import event_floats, make_config, packed

SWEEP_EXAMPLES = 800
# item 16's ranges, each drawn uniformly
SIM_RANGES = {
    "duration_ps": (2e7, 4e8),
    "rep_rate_hz": (20e6, 200e6),
    "pair_rate_per_pulse": (0.0, 0.6),
    "pump_scatter_rate_per_pulse": (0.0, 0.6),
    "qe": (0.05, 0.6),
    "dark_rate_hz": (0.0, 1e6),
    "jitter_fwhm_ps": (0.0, 1000.0),
    "dead_time_ps": (0.0, 50e3),
}
GEOMETRY_RANGES = {"size_mm": (10.0, 80.0), "signal_speed_mm_per_ps": (5e-4, 2e-3)}
TICKS_PS = (1, 2, 5, 25)


def sweep_config(draw_seed: int):
    """A run config drawn uniformly over item 16's ranges from `draw_seed`.
    Hypothesis draws only the seed: its float strategy favours the ends of a
    range and the constants of the code, which would leave the dense corner
    (200 MHz on an 80 ns line) almost undrawn."""
    rng = np.random.default_rng(draw_seed)

    def uniform(ranges):
        return {name: float(rng.uniform(lo, hi)) for name, (lo, hi) in ranges.items()}

    return make_config(seed=draw_seed, **uniform(SIM_RANGES),
                       geometry={"tick_ps": int(rng.choice(TICKS_PS)), **uniform(GEOMETRY_RANGES)})


@settings(max_examples=SWEEP_EXAMPLES, derandomize=True, database=None, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_simulate_and_decode_agree_with_truth_over_the_config_space(draw_seed):
    cfg = sweep_config(draw_seed)
    geometry = cfg.geometry
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.dlde"
        with tap(cfg.simulation) as truth:
            summary = simulate_to_file(cfg, path)
        dec = decode_file(path, geometry, cfg.calibration)
        tiny = decode_file(path, geometry, cfg.calibration, chunk_records=997)
    for det in (0, 1):
        # the simulate ledger: every detection is written or lost to dead time
        written = truth.written(det)
        assert summary.detections[det] == summary.groups_written[det] + summary.dead_time_discarded[det]
        assert written.size == summary.groups_written[det]
        # every decoded trigger is a written one, its x within 2 ticks * v
        t_mcp = dec.events[det]["t_ps"] // geometry.tick_ps
        at = np.searchsorted(written["t_mcp"], t_mcp)
        assert np.all(at < written.size)
        assert np.array_equal(written["t_mcp"][at], t_mcp)
        x_written = hit_positions(written["t_xa"] - written["t_xb"], written["t_ya"] - written["t_yb"], geometry,
                                  cfg.calibration)[0][at]
        bound = 2 * geometry.tick_ps * geometry.signal_speed_mm_per_ps
        assert np.all(np.abs(event_floats(dec.events[det], cfg)["x_mm"] - x_written) <= bound * (1 + 1e-9))
        # the decode does not depend on where the chunks cut the stream
        assert np.array_equal(packed(tiny.events[det]), packed(dec.events[det]))
    assert (tiny.groups, tiny.orphans, tiny.malformed) == (dec.groups, dec.orphans, dec.malformed)
