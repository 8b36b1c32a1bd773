"""Guards on the test oracles, the split of the package into simulator and
analysis, its dependencies, its public names, its record types and the
benchmark's tracing hooks."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
import tomllib
from pathlib import Path

import pytest

import dldspec
from dldspec import pipeline
from dldspec.event_format import GROUP_TIMES, Channel

TESTS = Path(__file__).resolve().parent
PERFBENCH = TESTS.parent / "perfbench"
SRC = TESTS.parent / "src" / "dldspec"


# The package's modules: its two halves, the modules both halves share, and
# the wiring, the only modules that see both halves.
SIMULATOR = {"source_sim", "detector_sim"}
ANALYSIS = {"reconstruction", "correlation", "csvtext", "render"}
SHARED = {"config", "event_format"}
WIRING = {"pipeline", "cli", "__init__"}


def _imported(path: Path) -> list[str]:
    """Every module `path` imports, as written: relative ones with their
    leading dots, and a `from . import x` as `.x`. Calls of `__import__` and
    `import_module` with a literal name count too."""
    imported = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            imported += [base + alias.name for alias in node.names] if node.module is None else [base]
        elif isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", "")) in (
            "__import__", "import_module",
        ):
            imported += [a.value for a in node.args if isinstance(a, ast.Constant) and isinstance(a.value, str)]
    return imported


def _package_modules(path: Path) -> set[str]:
    """The dldspec modules a module of the package imports: `from .x import`,
    `from . import x`, `from dldspec.x import`, `from dldspec import x` and
    `import dldspec.x` all name `x`."""
    found = set()
    for name in _imported(path):
        if name.startswith(".") and not name.startswith(".."):
            found.add(name[1:].split(".")[0])
        elif name.split(".")[0] == "dldspec":
            found.add(name.split(".")[1] if "." in name else "__init__")
    return found


def test_oracles_do_not_import_dldspec():
    imported = _imported(TESTS / "_oracles.py")
    assert imported, "the import scan found nothing; it is not looking at the right file"
    offending = [m for m in imported if m.startswith(".") or m.split(".")[0] == "dldspec"]
    assert offending == []


def test_analysis_and_simulator_import_nothing_of_each_other():
    """Truth referees on the analysis mean something only if the analysis
    cannot see the simulator's truth. So no module of one half imports the
    other, and a shared module imports neither. A new module fails the test
    until it is placed."""
    modules = {path.stem: _package_modules(path) for path in sorted(SRC.glob("*.py"))}
    assert set(modules) == SIMULATOR | ANALYSIS | SHARED | WIRING
    assert modules["pipeline"] >= {"source_sim", "reconstruction"}, "the scan misses the wiring's imports"
    offending = [f"{name} -> {other}" for name in sorted(set(modules) - WIRING)
                 for half in (SIMULATOR, ANALYSIS) if name not in half for other in sorted(modules[name] & half)]
    assert offending == []


def test_the_package_needs_numpy_only():
    """scipy is a test referee, not a dependency: `import dldspec` in a fresh
    interpreter loads no scipy module, and pyproject.toml's dependencies list
    numpy only, with scipy in the test extra."""
    probe = "import sys, dldspec, dldspec.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, check=True, timeout=120)
    assert done.stdout.strip() == "[]"
    project = tomllib.loads((TESTS.parent / "pyproject.toml").read_text())["project"]
    assert [d.split(">")[0] for d in project["dependencies"]] == ["numpy"]
    assert "scipy" in [d.split(">")[0] for d in project["optional-dependencies"]["test"]]


# Every name the package exported before Columns, GROUP_TIMES, pulse_count and
# wavelength_to_position got their present homes.
PUBLIC_NAMES = (
    "AnalysisResult", "AnodeGeometry", "Axis", "AxisMismatchError", "BadMagicError", "Calibration", "Channel",
    "ChannelRangeError", "Columns", "ConfigError", "CorrelationConfig", "DecodeResult", "DegeneratePeakError",
    "DetectorRangeError", "EmissionTally", "EventFileHeader", "EventKind", "EventReader", "EventWriter", "FitError",
    "FormatError", "FwhmFit", "Histogram1D", "Histogram2D", "HitMatcher", "JsiReport", "RunConfig", "SimConfig",
    "SimulationSummary", "TimestampRangeError", "TimestampRegressionError", "TruncatedRecordError",
    "analyze_events", "analyze_file", "build_jsi", "decode_file", "detect", "encode_groups", "fit_fwhm",
    "g2_histogram", "generate_emissions", "load_run_config", "position_to_wavelength", "pulse_count",
    "run_config_from_dict", "sample_background", "sample_pairs", "select_coincidences", "simulate_to_file",
    "spectrum_1d", "subtract_accidental", "wavelength_to_position", "write_report_bundle", "__version__",
)


def test_every_public_name_is_still_exported():
    assert [name for name in PUBLIC_NAMES if not hasattr(dldspec, name)] == []


def _structured_dtype_lines(tree: ast.AST) -> list[int]:
    """Lines that build a structured dtype: `dtype(...)` of a field list,
    tuple or dict (a void view included), or a `dtype=` keyword given one."""
    fields = (ast.List, ast.Tuple, ast.Dict)
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "attr", getattr(node.func, "id", "")) == "dtype":
            if node.args and isinstance(node.args[0], fields):
                lines.append(node.lineno)
        elif isinstance(node, ast.keyword) and node.arg == "dtype" and isinstance(node.value, fields):
            lines.append(node.value.lineno)
    return lines


def test_the_file_record_is_the_only_structured_dtype():
    """Every in-memory table is a `Columns`; packed rows exist only at the
    `.dlde` boundary, so the package builds exactly one structured dtype."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        names = {node.lineno: node.targets[0].id for node in tree.body
                 if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)}
        found += [f"{path.stem}.{names.get(line, line)}" for line in _structured_dtype_lines(tree)]
    assert found == ["event_format.PULSE_DTYPE"]


def test_group_times_are_in_channel_order():
    """`groups_to_pulses` writes the column GROUP_TIMES[k] as channel k."""
    assert [Channel[n[2:].upper()] for n in GROUP_TIMES] == list(Channel)


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    yield tracing
    sys.modules.pop("tracing", None)


def test_benchmark_hooks_exist(tracing):
    missing = [f"{owner.__name__}.{attr}" for owner, attr, _ in tracing.FUNCTIONS if attr not in owner.__dict__]
    assert missing == []


def test_benchmark_tracing_installs_and_restores(tracing, tmp_path, small_config):
    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in tracing.FUNCTIONS]
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        path = tmp_path / "r.dlde"
        pipeline.simulate_to_file(small_config, path)
        decode, analysis = pipeline.analyze_file(path, small_config)
        pipeline.write_report_bundle(tmp_path / "rep", decode, analysis, events_csv=True)
    assert all(owner.__dict__[attr] is original for owner, attr, original in originals)
    # pipeline reaches every hooked layer through the patched names
    names = {s.name for s in tracer.spans}
    assert {name for _, _, name in tracing.FUNCTIONS} <= names
    assert "event_format.read" in names
    assert tracer.counts[""]["correlation.window_passes"] == 1
