"""Package layout: every module the benchmark tracer names must import."""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


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
