"""Package layout: traced modules import, every export is a real public name,
every cost tool starts, imports only the standard library and numpy, and
every checked-in report carries the harness header."""

import ast
import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"


def _tracer_modules() -> tuple[str, ...]:
    # read the tuple from the source: importing the tracer would pull in
    # the benchmark harness
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "MODULES" for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no MODULES assignment in {TRACER}")


def test_every_traced_module_imports():
    modules = _tracer_modules()
    for name in modules:
        importlib.import_module(f"siwave.{name}")


def test_every_exported_name_exists():
    for name in _tracer_modules():
        module = importlib.import_module(f"siwave.{name}")
        missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
        assert not missing, f"siwave.{name}.__all__ names missing symbols {missing}"


def test_package_imports_only_exported_names():
    init = Path(importlib.import_module("siwave").__file__)
    for node in ast.parse(init.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            exported = importlib.import_module(f"siwave.{node.module}").__all__
            for alias in node.names:
                assert alias.name in exported, f"siwave.{node.module}.{alias.name} is not in __all__"


@pytest.mark.parametrize("tool", sorted((ROOT / "tools").glob("*_cost.py")), ids=lambda p: p.stem)
def test_cost_tool_prints_its_help(tool):
    # a tool that imports what another tool no longer defines fails here
    done = subprocess.run(
        [sys.executable, str(tool), "--help"], capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("tool", sorted((ROOT / "tools").glob("*.py")), ids=lambda p: p.stem)
def test_tool_imports_only_stdlib_and_numpy(tool):
    # the cost tools measure any checkout, so they bring no dependency of their own
    allowed = set(sys.stdlib_module_names) | {"numpy", "_harness"}
    for node in ast.walk(ast.parse(tool.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module if node.level == 0 else "." * node.level]
        else:
            continue
        for name in names:
            assert name.split(".")[0] in allowed, f"{tool.name} imports {name}"


@pytest.mark.parametrize("report", sorted(ROOT.glob("BENCH_*.json")), ids=lambda p: p.stem)
def test_bench_report_has_the_harness_header(report):
    data = json.loads(report.read_text(encoding="ascii"))
    assert {"metric", "method", "host", "revisions"} <= data.keys()
    assert "checkout" in data["revisions"]
    assert "second_cpu_share" not in data
