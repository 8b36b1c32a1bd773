"""The benchmark's workloads, their timed operations and the output checks.

An operation is one `simulate_to_file` call, or one `analyze_file` plus
`write_report_bundle` call (sequential decode, `workers=1`, as the CLI
defaults). Only the public call is timed; the checks run after it. An
operation that raises or fails a check is counted as failed and its time is
not used.
"""

from __future__ import annotations

import hashlib
import json
import math
import subprocess
import sys
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import reduce
from pathlib import Path
from typing import Callable

from dldspec import correlation, pipeline, run_config_from_dict
from dldspec.config import RunConfig

from tracing import Tracer, installed, timed

GENERATE = Path(__file__).resolve().parent / "generate.py"
CHILD_TIMEOUT_S = 150
FWHM_TOLERANCE = 0.10  # fitted g2 FWHM vs sqrt(2) x per-detector jitter FWHM
JSI_PEAK_TOLERANCE_BINS = 1  # as acceptance criterion 5: peaks on the lines within one bin
WARM_UP_SEED = 1
WARM_UP_SIM = {"duration_ps": 1e9}

CRIT9_SIM = {"duration_ps": 1.75e11}
SWEEP_SIM: dict = {}
SWEEP_SEEDS = 10
DENSE_SIM = {"duration_ps": 3.5e10, "pair_rate_per_pulse": 0.5, "pump_scatter_rate_per_pulse": 0.5, "qe": 0.4}


def config_doc(seed: int, sim: dict, scale: float = 1.0) -> dict:
    """Run-config document: default physics with `sim` overrides, duration scaled by `scale`."""
    sim = dict(sim, seed=seed)
    if scale != 1.0:
        sim["duration_ps"] *= scale
    return {"simulation": sim}


def run_config(seed: int, sim: dict, scale: float = 1.0) -> RunConfig:
    return run_config_from_dict(config_doc(seed, sim, scale))


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 22), b""):
            digest.update(block)
    return digest.hexdigest()


@dataclass
class Written:
    """What the simulation reported writing to one `.dlde` file."""

    records: int
    groups: list[int]


@dataclass
class Op:
    kind: str  # "simulate" or "analyze"
    label: str  # identity of the input, e.g. "seed=42"
    seconds: float
    records: int
    problems: list[str] = field(default_factory=list)
    speed: float = 1.0  # host speed factor measured around the op (see calibration.py)

    @property
    def failed(self) -> bool:
        return bool(self.problems)


class Checker:
    """Output checks. Repeated outputs are compared with the first repetition in this process."""

    def __init__(self) -> None:
        self._first: dict[tuple[str, str], object] = {}

    def _same_as_first(self, what: str, label: str, value) -> list[str]:
        first = self._first.setdefault((what, label), value)
        return [] if first == value else [f"{what} of {label} differs from its first repetition"]

    def simulation(self, label: str, path: Path) -> list[str]:
        return self._same_as_first(".dlde sha256", label, sha256_file(path))

    def fwhm(self, fit, fit_error: str, cfg: RunConfig) -> list[str]:
        target = math.sqrt(2.0) * cfg.simulation.jitter_fwhm_ps
        if fit is None:
            return [f"g2 fit failed: {fit_error}"]
        if not abs(fit.fwhm - target) <= FWHM_TOLERANCE * target:
            return [f"g2 FWHM {fit.fwhm:.1f} ps outside {target:.1f} ps +-{FWHM_TOLERANCE:.0%}"]
        return []

    def analysis(self, label: str, cfg: RunConfig, written: Written, decode, analysis, out_dir: Path,
                 check_fwhm: bool = True) -> list[str]:
        problems = []
        expected = [5 * g for g in written.groups]
        if list(decode.records_per_detector) != expected:
            problems.append(f"records per detector {decode.records_per_detector} != 5 x groups written {expected}")
        if decode.records != written.records:
            problems.append(f"records read {decode.records} != records written {written.records}")
        if check_fwhm:
            problems += self.fwhm(analysis.fit, analysis.fit_error, cfg)
        elif analysis.fit is None:
            problems.append(f"g2 fit failed: {analysis.fit_error}")
        sim = cfg.simulation
        lines = ((sim.lambda_hep_nm, sim.lambda_lep_nm), (sim.lambda_lep_nm, sim.lambda_hep_nm))
        tolerance = (JSI_PEAK_TOLERANCE_BINS + 0.5) * cfg.correlation.jsi_bin_nm
        for k, (peak, line) in enumerate(zip(analysis.jsi_report.peaks_nm, lines), start=1):
            if max(abs(p - l) for p, l in zip(peak, line)) >= tolerance:
                problems.append(f"jsi_peak{k} {peak} nm is more than one bin off the lines {line} nm")
        problems += self._same_as_first("summary.txt", label, (out_dir / "summary.txt").read_bytes())
        return problems


def _raised(kind: str, label: str, exc: Exception) -> Op:
    traceback.print_exception(exc, file=sys.stderr)
    return Op(kind, label, math.nan, 0, [f"raised {type(exc).__name__}: {exc}"])


class Workload:
    """Set-up and one round of timed operations; `scale` shrinks the data for the self-test."""

    name = ""
    default_seed = 0
    events_csv = False

    def __init__(self, seed: int, work_dir: Path, scale: float = 1.0):
        self.seed = seed
        self.work_dir = work_dir
        self.scale = scale
        self.checker = Checker()
        self.tracer: Tracer | None = None
        # Test seams for the self-test: corrupt an analyze input or a written report.
        self.tamper_input: Callable[[Path], Path] | None = None
        self.tamper_report: Callable[[Path], None] | None = None
        work_dir.mkdir(parents=True, exist_ok=True)

    def seeds(self) -> list[int]:
        return [self.seed]

    @contextmanager
    def traced(self, tracer: Tracer | None, phase: str):
        """Record this workload's calls in `tracer`, if one is given, for the block."""
        if tracer is None:
            yield
            return
        tracer.phase = phase
        with installed(tracer):
            self.tracer = tracer
            try:
                yield
            finally:
                self.tracer = None

    def prepare(self) -> list[Op]:
        """Generate inputs that the timed rounds only read; returns the operations it ran."""
        return []

    def run_round(self) -> list[Op]:
        raise NotImplementedError

    def set_up(self) -> list[Op]:
        """Input generation, then one small loop that makes every public call the rounds make."""
        ops = self.prepare()
        cfg = run_config(WARM_UP_SEED, WARM_UP_SIM)
        path = self.work_dir / "warm-up.dlde"

        def warm_up() -> None:
            pipeline.simulate_to_file(cfg, path)
            decode, analysis = pipeline.analyze_file(path, cfg)
            pipeline.write_report_bundle(self.work_dir / "warm-up", decode, analysis, events_csv=True)

        timed(self.tracer, "bench.warm_up", warm_up)
        return ops

    def simulate(self, cfg: RunConfig, path: Path) -> tuple[Op, Written | None]:
        label = f"seed={cfg.simulation.seed}"
        try:
            summary, seconds = timed(self.tracer, "bench.simulate", lambda: pipeline.simulate_to_file(cfg, path))
        except Exception as exc:  # noqa: BLE001 - any failure is a counted, reported failed op
            return _raised("simulate", label, exc), None
        op = Op("simulate", label, seconds, summary.records_written, self.checker.simulation(label, path))
        return op, Written(summary.records_written, list(summary.groups_written))

    def analyze(self, cfg: RunConfig, path: Path, written: Written, check_fwhm: bool = True):
        """One analyze + report operation; returns (op, analysis), analysis None when it raised."""
        label = f"seed={cfg.simulation.seed}"
        out_dir = self.work_dir / f"report-{cfg.simulation.seed}"
        if self.tamper_input is not None:
            path = self.tamper_input(path)

        def run():
            decode, analysis = pipeline.analyze_file(path, cfg)
            pipeline.write_report_bundle(out_dir, decode, analysis, events_csv=self.events_csv)
            return decode, analysis

        try:
            (decode, analysis), seconds = timed(self.tracer, "bench.analyze", run)
            if self.tamper_report is not None:
                self.tamper_report(out_dir)
            problems = self.checker.analysis(label, cfg, written, decode, analysis, out_dir, check_fwhm)
        except Exception as exc:  # noqa: BLE001 - any failure is a counted, reported failed op
            return _raised("analyze", label, exc), None
        return Op("analyze", label, seconds, decode.records, problems), analysis


class Crit9Loop(Workload):
    name = "crit9-loop"
    default_seed = 42

    def run_round(self) -> list[Op]:
        cfg = run_config(self.seed, CRIT9_SIM, self.scale)
        path = self.work_dir / "crit9.dlde"
        op, written = self.simulate(cfg, path)
        return [op] if written is None else [op, self.analyze(cfg, path, written)[0]]


class SeedSweep(Workload):
    name = "seed-sweep"
    default_seed = 1
    events_csv = True

    def seeds(self) -> list[int]:
        return list(range(self.seed, self.seed + max(2, round(SWEEP_SEEDS * self.scale))))

    def run_round(self) -> list[Op]:
        """One simulate and one analyze op per seed.

        A default-size file holds ~2.9k coincidences, too few for a +-10% FWHM
        test per file: seeds 37 and 100 of 0-119 fit 435 and 409 ps against
        372 ps. The FWHM is therefore checked on the g2 histogram pooled over
        the round's seeds, and a miss fails every analyze op of the round.
        """
        ops, analyzed, g2s = [], [], []
        for seed in self.seeds():
            cfg = run_config(seed, SWEEP_SIM)
            path = self.work_dir / f"sweep-{seed}.dlde"
            op, written = self.simulate(cfg, path)
            ops.append(op)
            if written is not None:
                op, analysis = self.analyze(cfg, path, written, check_fwhm=False)
                ops.append(op)
                if analysis is not None:
                    analyzed.append(op)
                    g2s.append(analysis.g2)
        if g2s:
            pooled = reduce(lambda a, b: a.merge(b), g2s)
            try:
                problems = self.checker.fwhm(correlation.fit_fwhm(pooled, 0.0), "", cfg)
            except correlation.FitError as exc:
                problems = [f"pooled g2 fit failed: {exc}"]
            for op in analyzed:
                op.problems += [f"pooled over the round: {p}" for p in problems]
        return ops


class DenseReanalyze(Workload):
    """The input is simulated in a child process, so it counts in set-up time but not in peak RSS."""

    name = "dense-reanalyze"
    default_seed = 7

    def __init__(self, seed: int, work_dir: Path, scale: float = 1.0):
        super().__init__(seed, work_dir, scale)
        self.doc = config_doc(seed, DENSE_SIM, scale)
        self.cfg = run_config_from_dict(self.doc)
        self.path = work_dir / "dense.dlde"
        self.written: Written | None = None

    def prepare(self) -> list[Op]:
        label = f"seed={self.seed}"
        cmd = [sys.executable, str(GENERATE), "--out", str(self.path), "--config", json.dumps(self.doc)]
        trace_out = self.work_dir / "generate-trace.json"
        if self.tracer is not None:
            cmd += ["--trace-out", str(trace_out)]
        try:
            done = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True)
        except (subprocess.SubprocessError, OSError) as exc:
            stderr = getattr(exc, "stderr", "") or ""
            return [_raised("simulate", label, RuntimeError(f"{exc}\n{stderr}"))]
        doc = json.loads(done.stdout.splitlines()[-1])
        if self.tracer is not None:
            self.tracer.merge(json.loads(trace_out.read_text()))
        self.written = Written(doc["records_written"], doc["groups_written"])
        op = Op("simulate", label, doc["seconds"], doc["records_written"], self.checker.simulation(label, self.path))
        return [op]

    def run_round(self) -> list[Op]:
        if self.written is None:
            return [Op("analyze", f"seed={self.seed}", math.nan, 0, ["no input: set-up generation failed"])]
        return [self.analyze(self.cfg, self.path, self.written)[0]]


WORKLOADS: dict[str, type[Workload]] = {w.name: w for w in (Crit9Loop, SeedSweep, DenseReanalyze)}
