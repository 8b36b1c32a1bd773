"""Command-line entry point.

Commands:
    simulate  generate a seeded raw pulse stream (`.dlde`) from a config
    analyze   decode a stream and produce the full report bundle
    g2        delay-histogram outputs only
    spectrum  per-detector singles spectra only
    jsi       joint-spectrum outputs only

One JSON config file drives everything; `--set section.key=value` overrides
individual keys and `--seed` is a shortcut for simulation.seed. Exit codes:
0 success, 1 failure, 3 completed with warnings (e.g. no coincidences).
"""

from __future__ import annotations

import argparse
import sys

from .config import ConfigError, RunConfig, _read_config_doc, apply_overrides, run_config_from_dict
from .event_format import FormatError, StagedFile
from .pipeline import REPORT_ARTIFACTS, analyze_file, simulate_to_file, summary_lines, write_report_bundle

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_WARNINGS = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dldspec", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="JSON run configuration file (defaults used when omitted)")
        p.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="SECTION.KEY=VALUE", help="override one config key")
        p.add_argument("--seed", type=int, help="shortcut for --set simulation.seed=N")

    p_sim = sub.add_parser("simulate", help="simulate a raw pulse stream")
    common(p_sim)
    p_sim.add_argument("--out", required=True, help="output .dlde path")

    for name in ("analyze", *REPORT_ARTIFACTS):
        p = sub.add_parser(name, help=f"{name} outputs from a .dlde stream")
        common(p)
        p.add_argument("--input", required=False, help="input .dlde path (or io.events_path)")
        p.add_argument("--out", required=False, help="report directory (or io.out_dir)")
        p.add_argument("--events-csv", action="store_true", help="also export reconstructed events as CSV")
    return parser


def _load_config(args) -> RunConfig:
    doc = {} if args.config is None else _read_config_doc(args.config)
    overrides = list(args.overrides)
    if args.seed is not None:
        overrides.append(f"simulation.seed={args.seed}")
    doc = apply_overrides(doc, overrides)
    return run_config_from_dict(doc)


def _cmd_simulate(args) -> int:
    cfg = _load_config(args)
    summary = simulate_to_file(cfg, args.out)
    text = "\n".join(summary.lines()) + "\n"
    sys.stdout.write(text)
    with StagedFile(str(args.out) + ".summary.txt", "x") as fh:
        fh.write(text)
    return EXIT_OK


def _cmd_analyze(args, artifacts) -> int:
    cfg = _load_config(args)
    in_path = args.input or cfg.io.events_path
    out_dir = args.out or cfg.io.out_dir
    if not in_path:
        raise ConfigError("no input: pass --input or set io.events_path")
    if not out_dir:
        raise ConfigError("no output directory: pass --out or set io.out_dir")
    decode, analysis = analyze_file(in_path, cfg)
    write_report_bundle(out_dir, decode, analysis, events_csv=args.events_csv, artifacts=artifacts)
    sys.stdout.write("\n".join(summary_lines(decode, analysis)) + "\n")
    if analysis.warnings:
        for w in analysis.warnings:
            sys.stderr.write(f"warning: {w}\n")
        return EXIT_WARNINGS
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "simulate":
            return _cmd_simulate(args)
        return _cmd_analyze(args, REPORT_ARTIFACTS if args.command == "analyze" else (args.command,))
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return EXIT_FAILURE
    except FormatError as exc:
        sys.stderr.write(f"input format error: {exc}\n")
        return EXIT_FAILURE
    except (OSError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
