"""Every entry point ``perfbench/tracing.py`` wraps must resolve.

The tracer patches layer entry points by module and name, so renaming
one in ``src/`` would otherwise only show when a traced benchmark run
fails.  The tables are read from the file's source (``ast``), without
importing the benchmark harness.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
TABLES = ("FUNCTIONS", "METHODS", "GENERATORS")


def _tables():
    tables = {}
    for node in ast.parse(TRACING.read_text()).body:
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and node.targets[0].id in TABLES
        ):
            tables[node.targets[0].id] = ast.literal_eval(node.value)
    return tables


TRACED = _tables()


def test_every_table_is_found():
    assert sorted(TRACED) == sorted(TABLES)
    assert all(TRACED[name] for name in TABLES)


@pytest.mark.parametrize(
    "layer, module, name", TRACED.get("FUNCTIONS", ()), ids=lambda v: str(v)
)
def test_function_resolves(layer, module, name):
    assert callable(getattr(importlib.import_module(module), name))


@pytest.mark.parametrize(
    "layer, module, cls, method", TRACED.get("METHODS", ()), ids=lambda v: str(v)
)
def test_method_resolves(layer, module, cls, method):
    assert callable(getattr(getattr(importlib.import_module(module), cls), method))


@pytest.mark.parametrize(
    "layer, module, cls, method", TRACED.get("GENERATORS", ()), ids=lambda v: str(v)
)
def test_generator_resolves(layer, module, cls, method):
    owner = getattr(importlib.import_module(module), cls)
    assert inspect.isgeneratorfunction(getattr(owner, method))
