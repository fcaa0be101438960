"""The package's modules import one way, down the layers the paper builds its objects in.

``fock`` (one mode) -> ``multimode`` (the register) -> ``quadrature`` (the
phase-space integrals) -> ``graphs`` (the operator graphs and anticliques)
-> ``config`` -> ``report`` -> ``runner`` -> ``cli``.  A module imports only
modules before it, and only at module level: an import inside a function or
class hides a cycle until the call runs.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "fockgraph"
LAYERS = ("fock", "multimode", "quadrature", "graphs", "config", "report", "runner", "cli")


def parse(module: str) -> ast.Module:
    return ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))


def package_modules(node) -> list:
    """The fockgraph modules an import statement names, written relative or absolute."""
    if isinstance(node, ast.Import):
        return [alias.name.split(".")[1] for alias in node.names if alias.name.startswith("fockgraph.")]
    if not isinstance(node, ast.ImportFrom):
        return []
    path = node.module.split(".") if node.module else []
    if node.level == 0:
        if path[0] != "fockgraph":
            return []
        path = path[1:]
    return path[:1] or [alias.name for alias in node.names]


def test_every_module_has_a_layer():
    modules = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__", "__main__"}
    assert modules == set(LAYERS)


@pytest.mark.parametrize("module", LAYERS)
def test_no_import_inside_a_function_or_class(module):
    scopes = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)
    nested = {
        f"{module}.py:{node.lineno}"
        for scope in ast.walk(parse(module))
        if isinstance(scope, scopes)
        for node in ast.walk(scope)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    }
    assert not nested


@pytest.mark.parametrize("module", LAYERS)
def test_imports_point_down_the_layers(module):
    upward = [
        f"{module}.py:{node.lineno} imports {name}"
        for node in ast.walk(parse(module))
        for name in package_modules(node)
        if name not in LAYERS[: LAYERS.index(module)]
    ]
    assert not upward


@pytest.mark.parametrize("module", [layer for layer in LAYERS if layer != "fock"])
def test_only_fock_freezes_arrays(module):
    # fock._read_only and fock._RebuildOnCopy are the package's one read-only rule: no other module assigns
    # ``flags.writeable`` or writes its own ``__reduce__``.
    sites = [
        f"{module}.py:{node.lineno}"
        for node in ast.walk(parse(module))
        if (isinstance(node, ast.Attribute) and node.attr == "writeable" and isinstance(node.ctx, ast.Store))
        or (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == "__reduce__")
    ]
    assert not sites
