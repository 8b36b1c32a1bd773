"""Benchmark of dldspec's simulate -> .dlde -> decode -> analyze -> report loop.

Usage:
    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Workloads (BENCHMARK.json records why each was chosen):
    crit9-loop       simulate, analyze and report bundle at criterion-9 scale
    seed-sweep       ten default-size seeds from --seed on, full loop with events CSV
    dense-reanalyze  a high-occupancy file simulated in set-up, then re-analyzed

A run imports the package from this checkout's `src` and sets up
SETUP_REPEATS times: each set-up times the package import in a fresh
interpreter, generates the workload's inputs and runs a small warm-up loop.
It then repeats rounds of timed operations until --seconds (default:
run_seconds of BENCHMARK.json) have passed, at least MIN_ROUNDS of them, and
checks the output of every operation. `--workload all` runs each workload in
its own process, one after the other.

With --trace 0 it reports the end-to-end metrics, each the median of its
samples; time-based ones are scaled to a reference host speed measured by a
calibration kernel run before and after each round and set-up (see
calibration.py). With --trace 1
the set-ups are traced and every untraced round is followed by a traced one;
it reports the per-layer metrics for one set-up plus one round (averaged over
the traced set-ups and rounds), the median traced round wall time and the
tracing overhead (median traced over median untraced round wall time). The last line of stdout is one JSON object; a
fuller record (environment, every sample, every span) is written to
.bench_work/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import bootstrap
import calibration

SETUP_REPEATS = 3
MIN_ROUNDS = 2
WORKLOAD_NAMES = ("crit9-loop", "seed-sweep", "dense-reanalyze")
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, {src!r}); t = time.perf_counter(); "
    "import numpy, scipy, dldspec; print(time.perf_counter() - t)"
)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, help="workload seed (default: the workload's own)")
    parser.add_argument("--seconds", type=float, help="how long to repeat timed rounds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_commit() -> str:
    git = bootstrap.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def tail(samples: list[float], better: str) -> tuple[float, float] | None:
    """(percentile, value) of the worst-side sample with at least ten samples beyond it."""
    n = len(samples)
    if n <= 10:
        return None
    rank = n - 10 if better == "lower" else 11  # 1-based, ascending
    return 100.0 * rank / n, sorted(samples)[rank - 1]


def import_seconds() -> float:
    """Seconds to import numpy, scipy and the package in a fresh interpreter."""
    probe = IMPORT_PROBE.format(src=str(bootstrap.SRC))
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True, timeout=120)
    return float(done.stdout)


def measure(workload, seconds: float, tracer=None) -> tuple[list[list], list[list]]:
    """Untraced rounds for `seconds`, at least MIN_ROUNDS; with a tracer each is followed by a traced one.

    Each untraced op's `speed` is the mean host speed factor measured just
    before and just after its round. Alternating traced and untraced rounds
    keeps both under the same load, so their ratio measures the tracing
    overhead.
    """
    rounds, traced_rounds = [], []
    deadline = time.perf_counter() + seconds
    before = calibration.speed()
    while len(rounds) < MIN_ROUNDS or time.perf_counter() < deadline:
        ops = workload.run_round()
        after = calibration.speed()
        for op in ops:
            op.speed = (before + after) / 2
        before = after
        rounds.append(ops)
        if tracer is not None:
            with workload.traced(tracer, "rounds"):
                traced_rounds.append(workload.run_round())
    return rounds, traced_rounds


def samples(setups: list[tuple[float, float]], setup_ops: list, rounds: list[list], scaled: bool) -> dict:
    """Samples of the time-based end-to-end metrics, raw or scaled to the reference host speed."""
    def at(speed: float) -> float:
        return speed if scaled else 1.0

    good = [op for op in setup_ops + [op for r in rounds for op in r] if not op.failed]
    return {
        "sim_mrec_per_s": [op.records / op.seconds / 1e6 * at(op.speed) for op in good if op.kind == "simulate"],
        "analyze_mrec_per_s": [op.records / op.seconds / 1e6 * at(op.speed) for op in good if op.kind == "analyze"],
        "wall_s": [sum(op.seconds for op in r) / at(r[0].speed) for r in rounds if not any(op.failed for op in r)],
        "setup_s": [seconds / at(speed) for seconds, speed in setups],
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        for name in WORKLOAD_NAMES:
            cmd = [sys.executable, __file__, "--workload", name, "--trace", str(args.trace)]
            cmd += [] if args.seed is None else ["--seed", str(args.seed)]
            cmd += [] if args.seconds is None else ["--seconds", str(args.seconds)]
            subprocess.run(cmd, check=True)
        return 0
    bootstrap.cap_threads()
    bootstrap.import_package()
    import numpy
    import scipy

    import harness
    import tracing

    spec = json.loads((bootstrap.ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    cls = harness.WORKLOADS[args.workload]
    seed = cls.default_seed if args.seed is None else args.seed
    base = bootstrap.ROOT / ".bench_work"
    work_dir = base / f"{args.workload}-{os.getpid()}"
    workload = cls(seed, work_dir)
    tracer = tracing.Tracer() if args.trace else None
    try:
        setups, setup_ops = [], []  # (seconds, speed) per set-up; the ops set-up ran
        with workload.traced(tracer, "setup"):
            before = calibration.speed()
            for _ in range(SETUP_REPEATS):
                import_s = import_seconds()
                start = time.perf_counter()
                ops = workload.set_up()
                elapsed = import_s + time.perf_counter() - start
                after = calibration.speed()
                for op in ops:
                    op.speed = (before + after) / 2
                setups.append((elapsed, (before + after) / 2))
                setup_ops += ops
                before = after
        rounds, traced_rounds = measure(workload, seconds, tracer)
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    all_ops = setup_ops + [op for r in rounds + traced_rounds for op in r]
    raw = samples(setups, setup_ops, rounds, scaled=False)
    scaled = samples(setups, setup_ops, rounds, scaled=True)
    raw["peak_rss_mb"] = scaled["peak_rss_mb"] = [peak_rss_mib]
    env = {
        "nproc": bootstrap.nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(),
        "platform": platform.platform(),
        "thread_caps": {var: os.environ[var] for var in bootstrap.THREAD_VARS},
    }
    failed = sum(op.failed for op in all_ops)
    print(f"perfbench {args.workload} seed={seed} seconds={seconds:g} trace={args.trace}")
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items() if k != "thread_caps")
          + f" blas/omp threads={env['thread_caps']['OMP_NUM_THREADS']}")
    print(f"seeds: {workload.seeds()}  rounds: {len(rounds)} untraced, {len(traced_rounds)} traced")
    print(f"ops_failed: {failed}/{len(all_ops)} = {failed / max(len(all_ops), 1):.1%}")
    for op in all_ops:
        for problem in op.problems:
            print(f"  FAILED {op.kind} {op.label}: {problem}")

    values: dict[str, float] = {}
    for m in spec["end_to_end"]:
        name, unit = m["name"], m["unit"]
        if not scaled[name]:
            raise SystemExit(f"perfbench: no successful samples for {name}")
        values[name] = statistics.median(scaled[name])
        line = f"{name}: median {values[name]:.6g} {unit}"
        if scaled[name] != raw[name]:
            line += f" at reference host speed (raw {statistics.median(raw[name]):.6g})"
        worst = tail(scaled[name], m["better"])
        line += f", p{worst[0]:.0f} {worst[1]:.6g}" if worst else ", no percentile with 10 samples beyond it"
        print(line + f", n={len(scaled[name])}")

    record = {"workload": args.workload, "seed": seed, "seeds": workload.seeds(), "seconds": seconds,
              "trace": args.trace, "env": env, "raw_samples": raw, "samples": scaled,
              "ops": [op.__dict__ for op in all_ops]}
    kind = "end_to_end"
    if tracer:
        kind = "per_layer"
        traced_wall = statistics.median(samples([], [], traced_rounds, scaled=False)["wall_s"] or [float("nan")])
        values.update(tracing.layer_metrics(tracer, {"setup": SETUP_REPEATS, "rounds": len(traced_rounds)}))
        values["trace.wall_s"] = traced_wall
        values["trace.overhead"] = traced_wall / statistics.median(raw["wall_s"])
        record["trace"] = tracer.to_dict()
        for m in spec["per_layer"]:
            print(f"{m['name']}: {values[m['name']]:.6g} {m['unit']}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec[kind]}
    record["metrics"] = metrics
    results = base / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{seed}-trace{args.trace}-{os.getpid()}.json").write_text(json.dumps(record))
    print(json.dumps({"correct": failed == 0, "attempted": len(all_ops), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
