"""The names `import cavres` exposes.

The package root exports the states, the measures and the boundaries.  The
generic matrix helpers that no code in the package calls stay at their
module paths, where the tests and the benchmark tracer reach them, and are
not part of the root namespace.
"""

import ast
import inspect
from pathlib import Path

import cavres
from cavres import entanglement, linalg

INIT = Path(cavres.__file__)
HELPERS = {
    "partial_trace": (linalg, ["rho", "keep"]),
    "hermitian_eigenvalues": (linalg, ["h"]),
    "trace_norm": (linalg, ["m"]),
    "psd_sqrt": (linalg, ["m"]),
    "wootters_concurrence": (entanglement, ["rho"]),
}


def _imported_public_names():
    tree = ast.parse(INIT.read_text())
    return {alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names
            if not (alias.asname or alias.name).startswith("_")}


def test_every_exported_name_resolves():
    assert len(set(cavres.__all__)) == len(cavres.__all__)
    for name in cavres.__all__:
        assert hasattr(cavres, name), name


def test_all_lists_exactly_the_imported_public_names():
    assert set(cavres.__all__) - {"__version__"} == _imported_public_names()


def test_runtime_dead_helpers_are_not_exported():
    for name in HELPERS:
        assert name not in cavres.__all__
        assert not hasattr(cavres, name), name


def test_helpers_keep_their_module_paths_and_signatures():
    for name, (module, params) in HELPERS.items():
        fn = getattr(module, name)
        assert callable(fn)
        assert list(inspect.signature(fn).parameters) == params
