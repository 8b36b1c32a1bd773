"""In-memory spans around dldspec's layer calls, recorded from outside the package.

No source file is edited. `installed(tracer)` replaces the attributes that
`dldspec.pipeline` looks up at call time (its imported layer functions, a few
layer methods, and `correlation.iter_window_pairs`) with recording wrappers
and puts the originals back on exit, so untraced runs execute the package
unchanged. Span names are `<module>.<operation>`; the module is the layer.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

from dldspec import correlation, detector_sim, event_format, pipeline, reconstruction

LAYERS = ("source_sim", "detector_sim", "event_format", "reconstruction", "correlation", "render", "pipeline")

# (owner, attribute, span name): functions dldspec.pipeline calls through its module globals.
FUNCTIONS = (
    (pipeline, "simulate_to_file", "pipeline.simulate"),
    (pipeline, "analyze_file", "pipeline.analyze_file"),
    (pipeline, "decode_file", "pipeline.decode"),
    (pipeline, "analyze_events", "pipeline.analyze"),
    (pipeline, "write_report_bundle", "pipeline.report"),
    (pipeline, "generate_emissions", "source_sim.generate_emissions"),
    (pipeline, "detect", "detector_sim.detect"),
    (pipeline, "encode_groups", "detector_sim.encode_groups"),
    (pipeline, "groups_to_pulses", "detector_sim.groups_to_pulses"),
    (pipeline, "groups_to_events", "reconstruction.groups_to_events"),
    (pipeline, "write_events_csv", "reconstruction.write_events_csv"),
    (pipeline, "spectrum_1d", "correlation.spectrum_1d"),
    (pipeline, "g2_histogram", "correlation.g2_histogram"),
    (pipeline, "fit_fwhm", "correlation.fit_fwhm"),
    (pipeline, "select_coincidences", "correlation.select_coincidences"),
    (pipeline, "build_jsi", "correlation.build_jsi"),
    (pipeline, "subtract_accidental", "correlation.subtract_accidental"),
    (pipeline, "svg_histogram", "render.svg"),
    (pipeline, "svg_heatmap", "render.svg"),
    # methods, looked up on the class at call time
    (detector_sim.DeadTimeFilter, "feed", "detector_sim.dead_time"),
    (event_format.EventWriter, "write_chunk", "event_format.write"),
    (reconstruction.HitMatcher, "feed", "reconstruction.match"),
    (correlation.Histogram1D, "to_csv", "correlation.to_csv"),
    (correlation.Histogram2D, "to_csv", "correlation.to_csv"),
)

# Counts taken at the same boundaries: span name -> f(args, result) -> [(counter, n)].
COUNTERS = {
    "source_sim.generate_emissions": lambda args, r: [("source_sim.emissions", r.size)],
    "detector_sim.detect": lambda args, r: [("detector_sim.detections", r[0].size)],
    "detector_sim.dead_time": lambda args, r: [("detector_sim.groups_kept", r.size)],
    "event_format.write": lambda args, r: [("event_format.bytes_written", len(args[1]) * event_format.RECORD_SIZE)],
    "pipeline.decode": lambda args, r: [
        ("reconstruction.records", r.records),
        ("reconstruction.events", sum(int(e.size) for e in r.events)),
        ("reconstruction.orphan_pulses", sum(r.orphans)),
    ],
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans; -1 for a root
    phase: str


class Tracer:
    """Spans and counters of one process, kept in memory until the run ends.

    `phase` labels what is being traced ("setup" or "rounds"); spans and
    counts are recorded under the phase current when they happen.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.phase = ""
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        record = Span(name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1, self.phase)
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, n: int) -> None:
        self.counts[self.phase][name] += int(n)

    def to_dict(self) -> dict:
        return {
            "spans": [[s.name, s.start, s.end, s.parent, s.phase] for s in self.spans],
            "counts": {phase: dict(c) for phase, c in self.counts.items()},
        }

    def merge(self, doc: dict) -> None:
        """Append the spans and counts of another process's `to_dict()`."""
        offset = len(self.spans)
        for name, start, end, parent, phase in doc["spans"]:
            self.spans.append(Span(name, start, end, parent + offset if parent >= 0 else -1, phase))
        for phase, counts in doc["counts"].items():
            for name, n in counts.items():
                self.counts[phase][name] += n


def timed(tracer: Tracer | None, name: str, fn):
    """Call `fn()` and return (result, seconds); with a tracer the call is a root span."""
    start = time.perf_counter()
    if tracer is None:
        result = fn()
    else:
        with tracer.span(name):
            result = fn()
    return result, time.perf_counter() - start


def _wrap(tracer: Tracer, name: str, fn):
    counter = COUNTERS.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            result = fn(*args, **kwargs)
        if counter is not None:
            for key, n in counter(args, result):
                tracer.count(key, n)
        return result

    return wrapper


def _wrap_read(tracer: Tracer, iter_chunks):
    """Each `next()` of `EventReader.iter_chunks` is one read span."""

    @functools.wraps(iter_chunks)
    def wrapper(self):
        chunks = iter_chunks(self)
        while True:
            with tracer.span("event_format.read"):
                chunk = next(chunks, None)
            if chunk is None:
                return
            tracer.count("event_format.bytes_read", chunk.nbytes)
            yield chunk

    return wrapper


def _wrap_window_pairs(tracer: Tracer, iter_window_pairs):
    """Counts pair-sweep passes and the pairs they yield; no span, the callers have one."""

    @functools.wraps(iter_window_pairs)
    def wrapper(*args, **kwargs):
        tracer.count("correlation.window_passes", 1)
        for i, j in iter_window_pairs(*args, **kwargs):
            tracer.count("correlation.pairs", i.size)
            yield i, j

    return wrapper


@contextmanager
def installed(tracer: Tracer):
    """Route the layer calls through `tracer` for the duration of the block."""
    patches = [(owner, attr, _wrap(tracer, name, owner.__dict__[attr])) for owner, attr, name in FUNCTIONS]
    patches.append((event_format.EventReader, "iter_chunks",
                    _wrap_read(tracer, event_format.EventReader.__dict__["iter_chunks"])))
    patches.append((correlation, "iter_window_pairs", _wrap_window_pairs(tracer, correlation.iter_window_pairs)))
    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
    for owner, attr, wrapper in patches:
        setattr(owner, attr, wrapper)
    try:
        yield tracer
    finally:
        for owner, attr, original in originals:
            setattr(owner, attr, original)


def layer_metrics(tracer: Tracer, repeats: dict[str, int]) -> dict[str, float]:
    """Busy and self time per span name and per layer, counts and derived ratios.

    The figures are for one set-up plus one round: every span and count is
    divided by `repeats[phase]`, the number of set-ups or rounds traced in its
    phase, so they do not depend on how many rounds fit in a run. Roots are
    the benchmark's own spans around each timed call; a span's self time is
    its duration minus its children's durations.
    """
    child_time = [0.0] * len(tracer.spans)
    for s in tracer.spans:
        if s.parent >= 0:
            child_time[s.parent] += s.end - s.start
    busy: dict[str, float] = defaultdict(float)
    self_time: dict[str, float] = defaultdict(float)
    root_time = analyses = 0.0
    for s, children in zip(tracer.spans, child_time):
        weight = 1.0 / repeats[s.phase]
        if s.parent < 0:
            root_time += weight * (s.end - s.start)
            continue
        busy[s.name] += weight * (s.end - s.start)
        self_time[s.name] += weight * (s.end - s.start - children)
        analyses += weight * (s.name == "pipeline.analyze")
    c: dict[str, float] = defaultdict(float)
    for phase, counts in tracer.counts.items():
        for name, n in counts.items():
            c[name] += n / repeats[phase]
    out: dict[str, float] = {f"{name}.busy_s": v for name, v in busy.items()}
    out.update({f"{name}.self_s": v for name, v in self_time.items()})
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(v for name, v in self_time.items() if name.split(".")[0] == layer)
    out.update(c)
    out["detector_sim.kept_ratio"] = c["detector_sim.groups_kept"] / max(c["detector_sim.detections"], 1)
    # Every written group is 5 records (checked on each analyze op), so groups = records / 5.
    out["reconstruction.decoded_ratio"] = 5 * c["reconstruction.events"] / max(c["reconstruction.records"], 1)
    out["correlation.window_passes"] = c["correlation.window_passes"] / max(analyses, 1e-300)
    out["trace.accounted_share"] = sum(out[f"{layer}.self_s"] for layer in LAYERS) / root_time if root_time else 0.0
    return out
