"""The decoder against simulation truth (ROADMAP item 1).

`_truth.tap` records the groups a run wrote, and `_oracles.brute_sum_match`
is item 1's two-stage sum-consistent rule in plain Python. The referee
decodes every written group; the decoder's matcher, which takes the earliest
pulse per channel, loses about a fifth of them at default physics. Step 1b
replaces that matcher, and the strict xfails here then pass.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from dldspec.detector_sim import jitter_reach_ps
from dldspec.event_format import DEFAULT_CHUNK_RECORDS, GROUP_TIMES, Columns
from dldspec.pipeline import decode_file, simulate_to_file
from dldspec.reconstruction import default_window_ticks, groups_to_events, hit_positions
from dldspec.source_sim import EventKind

from _oracles import brute_sum_match, group_floats
from _truth import tap
from conftest import make_config, match_hits, packed, read_all_pulses

DENSE_PHYSICS = {"pair_rate_per_pulse": 0.5, "pump_scatter_rate_per_pulse": 0.5, "qe": 0.4}
RUNS = {
    **{f"default-seed{seed}": {"seed": seed, "duration_ps": 1e9} for seed in (1, 2, 3)},
    "dense-seed7": {"seed": 7, "duration_ps": 1e9, **DENSE_PHYSICS},
}
# Written groups per detector that the referee decodes with one pulse of
# another: two detections whose pulses on one channel lie within 2 ticks. No
# rule can tell those pulses apart from the timestamps, so they swap.
SWAPPED = {"default-seed1": [0, 0], "default-seed2": [0, 0], "default-seed3": [0, 0], "dense-seed7": [2, 2]}
STEP_1B = pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 1 step 1b: the matcher takes the earliest pulse per channel after a trigger, and a "
    "detection whose late pulses a later trigger took fails the sum gate; step 1b's two-stage "
    "sum-consistent matcher decodes it"))


def referee(pulses, geometry) -> tuple[list[list[tuple]], list[int]]:
    """`brute_sum_match` per detector of a file's records: (groups, orphans)."""
    found = [brute_sum_match(pulses["timestamp"][pulses["detector"] == det],
                             pulses["channel"][pulses["detector"] == det],
                             geometry.propagation_ticks, default_window_ticks(geometry)) for det in (0, 1)]
    return [groups for groups, _ in found], [orphans for _, orphans in found]


def rows(groups: Columns) -> list[tuple]:
    """The GROUP_TIMES of each group, as a tuple."""
    return list(zip(*(groups[name].tolist() for name in GROUP_TIMES)))


@pytest.fixture(scope="module", params=list(RUNS))
def run(request, tmp_path_factory):
    """A simulated file, its written groups and the referee's, per detector."""
    cfg = make_config(**RUNS[request.param])
    path = tmp_path_factory.mktemp(request.param) / "run.dlde"
    with tap(cfg.simulation) as truth:
        simulate_to_file(cfg, path)
    decoded, orphans = referee(read_all_pulses(path)[1], cfg.geometry)
    return SimpleNamespace(name=request.param, cfg=cfg, path=path, written=[truth.written(det) for det in (0, 1)],
                           decoded=decoded, orphans=orphans)


def swapped(decoded: list[tuple], written: list[tuple]) -> int:
    """The written groups that `decoded` gives with a pulse swapped: on a
    channel where the two differ, by at most 2 ticks, the decoded pulse is
    another written group's, and that group was decoded with this one's.
    Every other written group must be decoded exactly, and nothing else."""
    by_trigger = {g[0]: g for g in decoded}
    assert len(by_trigger) == len(decoded)
    assert sorted(by_trigger) == sorted(g[0] for g in written)
    owner = {(c, g[c]): g[0] for g in written for c in range(1, 5)}
    count = 0
    for w in written:
        d = by_trigger[w[0]]
        for c in (c for c in range(1, 5) if d[c] != w[c]):
            assert abs(d[c] - w[c]) <= 2 and by_trigger[owner[(c, d[c])]][c] == w[c], (w, d)
        count += d != w
    return count


def test_referee_decodes_every_written_group(run):
    assert min(w.size for w in run.written) > 0
    assert [swapped(d, rows(w)) for d, w in zip(run.decoded, run.written)] == SWAPPED[run.name]
    assert run.orphans == [0, 0]


def test_referee_gives_a_shared_candidate_to_one_trigger():
    """Two triggers 1 tick apart pass stage 1 with the same four pulses:
    neither is accepted there, and stage 2 gives the pulses to the first."""
    groups, orphans = brute_sum_match([0, 1, 20000, 20000, 20000, 20000], [0, 0, 1, 2, 3, 4], 40000, 40012)
    assert (groups, orphans) == ([(0, 20000, 20000, 20000, 20000)], 1)


def test_referee_search_takes_the_smallest_sum_then_the_earliest_pulse():
    """The earliest XA pulse fails stage 1. On x, stage 2 passes over 19998
    (sum 2 off) for 19999 and 20001 (1 off each) and takes the earlier; on
    y, 19997 is 3 off, within the search's tolerance, and 20004 is 4 off."""
    pulses = sorted([(0, 0), (10000, 1), (19998, 1), (19999, 1), (20001, 1), (20000, 2), (20000, 3), (19997, 4),
                     (20004, 4)])
    groups, orphans = brute_sum_match(*zip(*pulses), 40000, 40012)
    assert (groups, orphans) == ([(0, 19999, 20000, 20000, 19997)], 4)


def test_truth_labels_every_written_group(run):
    """A written group carries its origin: a pair or pump photon its laser
    pulse, within the jitter's reach of its trigger, and a pair photon its
    pair, whose partner, if written, is the other kind on the other
    detector. A dark count has neither."""
    sim, tick = run.cfg.simulation, run.cfg.geometry.tick_ps
    for w in run.written:
        assert np.all(w["t_mcp"][1:] > w["t_mcp"][:-1])
        locked = w["pulse"] >= 0
        assert np.array_equal(locked, w["kind"] != EventKind.DARK)
        lag = w["t_mcp"][locked] * tick - w["pulse"][locked] * sim.pulse_period_ps
        assert np.all(np.abs(lag) <= jitter_reach_ps(sim) + tick)
        in_pair = w["pair"] >= 0
        assert np.array_equal(in_pair, (w["kind"] == EventKind.HEP) | (w["kind"] == EventKind.LEP))
        assert np.array_equal(w["pair"][in_pair], w["pulse"][in_pair])
    pairs = [dict(zip(w["pair"].tolist(), w["kind"].tolist())) for w in run.written]
    both = (pairs[0].keys() & pairs[1].keys()) - {-1}
    assert both and all(pairs[0][p] != pairs[1][p] for p in both)


def test_decoded_events_are_16_bytes_and_derive_the_stored_floats_bit_for_bit(run):
    """A decoded event row is 16 bytes: int64 `t_ps` and int32 anode
    differences. The x, y and wavelength `hit_positions` derives from them
    are, bit for bit, the floats `_oracles.group_floats` computes from the
    matcher's groups, the values decoded events stored as columns before."""
    cfg = run.cfg
    dec = decode_file(run.path, cfg.geometry, cfg.calibration)
    pulses = read_all_pulses(run.path)[1]
    for det, events in enumerate(dec.events):
        assert sum(column.itemsize for column in events.values()) == 16
        groups, _ = match_hits(pulses[pulses["detector"] == det], cfg.geometry)
        *want, bad = group_floats(groups, cfg.geometry, cfg.calibration)
        assert events.size > 0 and np.array_equal(events["t_ps"], groups["t_mcp"][~bad] * cfg.geometry.tick_ps)
        got = hit_positions(events["dt_x"], events["dt_y"], cfg.geometry, cfg.calibration)
        assert not got[3].any()
        for derived, stored in zip(got[:3], want):
            assert np.array_equal(derived.view(np.uint64), stored[~bad].view(np.uint64))


@STEP_1B
def test_decoder_decodes_every_written_group(run):
    dec = decode_file(run.path, run.cfg.geometry, run.cfg.calibration)
    for det, w in enumerate(run.written):
        assert np.array_equal(dec.events[det]["t_ps"], w["t_mcp"] * run.cfg.geometry.tick_ps)


@STEP_1B
@pytest.mark.parametrize("chunk_records", [1, 997, DEFAULT_CHUNK_RECORDS])
@pytest.mark.parametrize("overrides", [
    pytest.param({"seed": 1, "duration_ps": 2e7}, id="default-seed1"),
    pytest.param({"seed": 7, "duration_ps": 5e6, **DENSE_PHYSICS}, id="dense-seed7"),
])
def test_decoder_equals_the_referee(tmp_path, overrides, chunk_records):
    """Short files: a one-record chunk costs about a millisecond."""
    cfg = make_config(**overrides)
    simulate_to_file(cfg, tmp_path / "run.dlde")
    groups, orphans = referee(read_all_pulses(tmp_path / "run.dlde")[1], cfg.geometry)
    dec = decode_file(tmp_path / "run.dlde", cfg.geometry, cfg.calibration, chunk_records=chunk_records)
    for det in (0, 1):
        times = Columns({name: np.array([g[k] for g in groups[det]], dtype=np.int64)
                         for k, name in enumerate(GROUP_TIMES)})
        events, bad = groups_to_events(times, cfg.geometry)
        assert np.array_equal(packed(dec.events[det]), packed(events))
        assert (dec.groups[det], dec.malformed[det], dec.orphans[det]) == (len(groups[det]), bad, orphans[det])
