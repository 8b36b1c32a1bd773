"""Refusals of invalid input: each case raises its error type, with a message
that starts with the key it names where it names one."""

from __future__ import annotations

import numpy as np
import pytest

from dldspec.config import Axis, ConfigError, apply_overrides, run_config_from_dict
from dldspec.correlation import Histogram1D, Histogram2D
from dldspec.event_format import EventFileHeader, FormatError


def _section(section, **keys):
    return lambda: run_config_from_dict({section: keys})


def _case(build, error, pattern, id):
    return pytest.param(build, error, pattern, id=id)


_AXIS = Axis(0.0, 1.0, 10)
_SIGNAL = [389.55, 390.05, 388.55, 389.05]
# a valid header with its u32 tick_ps field, at bytes 6-9, set to 0
_TICK_0_HEADER = EventFileHeader().pack()[:6] + bytes(4) + EventFileHeader().pack()[10:]

CASES = [
    _case(_section("geometry", size_mm=0.0), ConfigError, r"^geometry\.size_mm:", "size_mm-zero"),
    _case(_section("geometry", signal_speed_mm_per_ps=-1e-3), ConfigError,
          r"^geometry\.signal_speed_mm_per_ps:", "signal_speed-negative"),
    _case(_section("simulation", seed=-1), ConfigError, r"^simulation\.seed:", "seed-negative"),
    _case(_section("simulation", seed=2**64), ConfigError, r"^simulation\.seed:", "seed-2^64"),
    *(_case(_section("simulation", **{key: -1.0}), ConfigError, rf"^simulation\.{key}: must be >= 0",
            f"{key}-negative") for key in ("dark_rate_hz", "line_fwhm_nm", "detuning_fwhm_nm", "jitter_fwhm_ps", "dead_time_ps")),
    _case(_section("correlation", g2_range_ps=0.0), ConfigError, r"^correlation\.g2_range_ps:", "g2_range-zero"),
    _case(_section("correlation", spectrum_bin_nm=0.0), ConfigError, r"^correlation\.spectrum_bin_nm:",
          "spectrum_bin-zero"),
    _case(_section("correlation", jsi_bin_nm=-0.05), ConfigError, r"^correlation\.jsi_bin_nm:", "jsi_bin-negative"),
    _case(_section("correlation", spectrum_lo_nm=390.0125), ConfigError,
          r"^correlation\.spectrum_lo_nm/spectrum_hi_nm:", "spectrum-lo-at-hi"),
    _case(_section("correlation", jsi_lo_nm=391.0), ConfigError, r"^correlation\.jsi_lo_nm/jsi_hi_nm:", "jsi-lo-above-hi"),
    _case(_section("correlation", g2_range_ps=2e7), ConfigError,
          r"^correlation\.g2_range_ps: .*at most 33554432 integer delays", "delay-span-g2-range"),
    _case(_section("correlation", accidental_center_ps=1e16), ConfigError,
          r"^correlation\.accidental_center_ps: .*at most 33554432 integer delays", "delay-span-centre-1e16"),
    _case(_section("correlation", signal_regions_nm=[_SIGNAL]), ConfigError, r"^correlation\.signal_regions_nm:",
          "one-signal-region"),
    _case(_section("correlation", signal_regions_nm=[_SIGNAL] * 3), ConfigError, r"^correlation\.signal_regions_nm:",
          "three-signal-regions"),
    _case(_section("correlation", signal_regions_nm=[_SIGNAL, [389.05, 388.55, 389.55, 390.05]]), ConfigError,
          r"^correlation\.signal_regions_nm\[1\]: expected", "signal-region-x-lo-above-hi"),
    _case(_section("correlation", signal_regions_nm=[[388.55, 389.05, 389.55, 389.55], _SIGNAL]), ConfigError,
          r"^correlation\.signal_regions_nm\[0\]: expected", "signal-region-y-lo-at-hi"),
    _case(lambda: run_config_from_dict({"geometry": [40.0]}), ConfigError, r"^geometry: expected an object",
          "section-not-an-object"),
    _case(lambda: run_config_from_dict([]), ConfigError, r"^config root: expected an object", "root-not-an-object"),
    _case(lambda: apply_overrides({"simulation": {"seed": 1}}, ["simulation.seed.x=2"]), ConfigError,
          r"^override 'simulation\.seed\.x=2': seed is not a section", "override-through-a-key"),
    _case(lambda: Histogram1D(_AXIS, np.zeros(11)), ValueError, r"^counts shape \(11,\) != \(10,\)",
          "1d-counts-shape"),
    _case(lambda: Histogram2D(_AXIS, Axis(0.0, 1.0, 3), np.zeros((3, 10))), ValueError,
          r"^counts shape \(3, 10\) != \(10, 3\)", "2d-counts-shape"),
    _case(lambda: EventFileHeader.unpack(_TICK_0_HEADER), FormatError, "tick_ps must be >= 1", "header-tick-0"),
]


@pytest.mark.parametrize("build,error,pattern", CASES)
def test_invalid_input_is_refused(build, error, pattern):
    with pytest.raises(error, match=pattern) as raised:
        build()
    assert type(raised.value) is error
