"""Every function the benchmark tracer wraps must exist under its name.

`benchmarks/run.py --trace 1` looks each traced function up by module and
attribute, so renaming one in `src/` would break the traced run.  The
names are read from `benchmarks/tracing.py` as literals; the file is not
imported.
"""

import ast
import importlib
from pathlib import Path

import numpy as np
import pytest

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def _literal(name):
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{name} is not assigned in {TRACING}")


@pytest.mark.parametrize("metric, module, attribute", _literal("SPANS"),
                         ids=lambda v: v if isinstance(v, str) else None)
def test_span_resolves(metric, module, attribute):
    obj = importlib.import_module(module)
    for part in attribute.split("."):
        obj = getattr(obj, part)
    assert callable(obj), metric


def test_boundaries_and_lapack_resolve():
    esd = importlib.import_module("cavres.esd")
    for name in _literal("BOUNDARIES"):
        assert callable(getattr(esd, name))
    for name in _literal("LAPACK"):
        assert callable(getattr(np.linalg, name))
