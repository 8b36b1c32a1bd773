"""Simulation truth for tests: the hit groups a run wrote, with their origin.

`tap(sim)` wraps the `pipeline` globals `encode_groups` and
`groups_to_pulses` for the duration of a `with` block. It records each
encoded group's detector, trigger, kind and laser pulse, and the groups
handed to the serializer: the dead-time survivors, which are the file's
groups. Two groups of one detector with equal triggers always collide in the
dead time, so a written group's (detector, t_mcp) names its encoded group.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from dldspec import pipeline
from dldspec.event_format import GROUP_TIMES, Columns
from dldspec.source_sim import EventKind


class Truth:
    def __init__(self):
        self.encoded: list[Columns] = []
        self.serialized: list[Columns] = []

    def written(self, det: int) -> Columns:
        """Detector `det`'s written groups in trigger order: the GROUP_TIMES
        columns, `kind` (an EventKind), `pulse` (the laser pulse, -1 for a
        dark count) and `pair` (the pulse of a pair photon, else -1; a pulse
        emits at most one pair)."""
        groups, enc = (Columns({name: np.concatenate([c[name] for c in parts]) for name in parts[0]})
                       for parts in (self.serialized, self.encoded))
        groups, enc = groups[groups["detector"] == det], enc[enc["detector"] == det]
        enc = enc[np.argsort(enc["t_mcp"], kind="stable")]
        at = np.searchsorted(enc["t_mcp"], groups["t_mcp"])
        assert np.array_equal(enc["t_mcp"][at], groups["t_mcp"])
        return Columns({**{name: groups[name] for name in GROUP_TIMES},
                        **{name: enc[name][at] for name in ("kind", "pulse", "pair")}})


@contextmanager
def tap(sim):
    """Record the truth of the one run simulated inside the block, whose
    simulation config is `sim`."""
    truth = Truth()
    encode, serialize = pipeline.encode_groups, pipeline.groups_to_pulses

    def encode_groups(detections, geometry):
        groups = encode(detections, geometry)
        kind = detections["kind"]
        pulse = np.where(kind == EventKind.DARK, -1, np.rint(detections["time_ps"] / sim.pulse_period_ps))
        pair = np.where((kind == EventKind.HEP) | (kind == EventKind.LEP), pulse, -1)
        truth.encoded.append(Columns(detector=groups["detector"], t_mcp=groups["t_mcp"], kind=kind,
                                     pulse=pulse.astype(np.int64), pair=pair.astype(np.int64)))
        return groups

    def groups_to_pulses(groups, carry=None):
        truth.serialized.append(groups)
        return serialize(groups, carry)

    pipeline.encode_groups, pipeline.groups_to_pulses = encode_groups, groups_to_pulses
    try:
        yield truth
    finally:
        pipeline.encode_groups, pipeline.groups_to_pulses = encode, serialize
