"""Guards on the test oracles, the package's record types and the benchmark's tracing hooks."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

from dldspec import pipeline
from dldspec.event_format import Channel
from dldspec.reconstruction import GROUP_TIMES

TESTS = Path(__file__).resolve().parent
PERFBENCH = TESTS.parent / "perfbench"
SRC = TESTS.parent / "src" / "dldspec"


def test_oracles_do_not_import_dldspec():
    tree = ast.parse((TESTS / "_oracles.py").read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported.append("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", "")) in (
            "__import__", "import_module",
        ):
            imported += [a.value for a in node.args if isinstance(a, ast.Constant) and isinstance(a.value, str)]
    assert imported, "the import scan found nothing; it is not looking at the right file"
    offending = [m for m in imported if m.startswith(".") or m.split(".")[0] == "dldspec"]
    assert offending == []


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
