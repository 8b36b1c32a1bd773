"""Simulate one benchmark input file in a process of its own.

Usage:
    python3 perfbench/generate.py --out FILE --config JSON [--trace-out FILE]

Prints one JSON line with the seconds spent in `simulate_to_file` and the
records and groups written. With `--trace-out` the simulation's spans are
written to FILE for the parent to merge. Running the simulation here keeps its
memory out of the peak RSS of the process that runs the timed operations.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import bootstrap


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--config", required=True, help="run-config document as JSON")
    parser.add_argument("--trace-out", type=Path)
    args = parser.parse_args()
    bootstrap.cap_threads()
    bootstrap.import_package()
    from contextlib import nullcontext

    from dldspec import pipeline, run_config_from_dict

    import tracing

    cfg = run_config_from_dict(json.loads(args.config))
    tracer = tracing.Tracer() if args.trace_out else None
    if tracer is not None:
        tracer.phase = "setup"
    with tracing.installed(tracer) if tracer else nullcontext():
        summary, seconds = tracing.timed(tracer, "bench.simulate", lambda: pipeline.simulate_to_file(cfg, args.out))
    if tracer is not None:
        args.trace_out.write_text(json.dumps(tracer.to_dict()))
    print(json.dumps({
        "seconds": seconds,
        "records_written": summary.records_written,
        "groups_written": list(summary.groups_written),
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
