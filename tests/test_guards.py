"""Guards on the test oracles and on the benchmark's tracing hooks."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

from dldspec import pipeline

TESTS = Path(__file__).resolve().parent
PERFBENCH = TESTS.parent / "perfbench"


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
    assert tracer.counts[""]["correlation.window_passes"] == 2
