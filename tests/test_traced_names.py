"""Every name the benchmark's tracer wraps must exist in permid.

`bench/tracing.py` looks up each entry of its FUNCTIONS and METHODS tables
with getattr, so renaming or deleting a traced function breaks the traced
benchmark runs. The tables are read from the source, without importing the
bench package."""

import ast
import importlib
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _table(name: str) -> dict:
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACING.name} defines no {name} table")


@pytest.mark.parametrize("module, attr", sorted(_table("FUNCTIONS")))
def test_traced_function_exists(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))


@pytest.mark.parametrize("module, cls, method", sorted(_table("METHODS")))
def test_traced_method_exists(module, cls, method):
    assert callable(getattr(getattr(importlib.import_module(module), cls), method))
