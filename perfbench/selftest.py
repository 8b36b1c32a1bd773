"""Self-test of the benchmark's output checks, at reduced size.

Usage:
    python3 perfbench/selftest.py

For each workload it sets up once and runs two rounds three times: clean,
with the second round analyzing a copied `.dlde` that has one flipped byte,
and with the second round's `summary.txt` altered after it is written. The
clean case must count no failed op; each corrupted case must count at least
one. Exits 0 when every case behaves so.
"""

from __future__ import annotations

import os
import shutil
from pathlib import Path

import bootstrap

SCALE = {"crit9-loop": 0.03, "seed-sweep": 0.2, "dense-reanalyze": 0.05}


def flip_detector_byte(path: Path) -> Path:
    """Copy of `path` with the first record's detector byte flipped (0 <-> 1)."""
    from dldspec.event_format import HEADER_SIZE

    copy = path.with_name(path.stem + "-flipped.dlde")
    shutil.copyfile(path, copy)
    with open(copy, "r+b") as f:
        f.seek(HEADER_SIZE)
        byte = f.read(1)[0]
        f.seek(HEADER_SIZE)
        f.write(bytes([byte ^ 1]))
    return copy


def alter_summary(out_dir: Path) -> None:
    summary = out_dir / "summary.txt"
    lines = summary.read_text().splitlines(keepends=True)
    i = next(k for k, line in enumerate(lines) if line.startswith("coincidences="))
    lines[i] = f"coincidences={int(lines[i].split('=')[1]) + 1}\n"
    summary.write_text("".join(lines))


def run_case(harness, name: str, work_dir: Path, tamper_input=None, tamper_report=None) -> tuple[int, int]:
    cls = harness.WORKLOADS[name]
    workload = cls(cls.default_seed, work_dir, scale=SCALE[name])
    ops = workload.set_up() + workload.run_round()
    workload.tamper_input = tamper_input
    workload.tamper_report = tamper_report
    ops += workload.run_round()
    return len(ops), sum(op.failed for op in ops)


def main() -> int:
    bootstrap.cap_threads()
    bootstrap.import_package()
    import harness

    base = bootstrap.ROOT / ".bench_work" / f"selftest-{os.getpid()}"
    cases = (
        ("clean", {}, lambda failed: failed == 0),
        ("flipped .dlde byte", {"tamper_input": flip_detector_byte}, lambda failed: failed > 0),
        ("altered summary line", {"tamper_report": alter_summary}, lambda failed: failed > 0),
    )
    bad = 0
    try:
        for name in harness.WORKLOADS:
            for k, (case, hooks, expected) in enumerate(cases):
                attempted, failed = run_case(harness, name, base / f"{name}-{k}", **hooks)
                ok = expected(failed)
                bad += not ok
                print(f"{'ok  ' if ok else 'FAIL'} {name:16s} {case:22s} ops_failed={failed}/{attempted}", flush=True)
    finally:
        shutil.rmtree(base, ignore_errors=True)
    print("self-test passed" if not bad else f"self-test: {bad} case(s) misbehaved")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
