"""Every module of the package uses each name it imports."""

from __future__ import annotations

import ast
import time
from pathlib import Path

import nasflat

PACKAGE = Path(nasflat.__file__).parent


_SCOPES = (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef)


def _imported(tree: ast.Module) -> dict[tuple[ast.AST, str], int]:
    """(innermost enclosing module or function, each name an import binds) -> its line."""
    bound = {}

    def visit(node: ast.AST, scope: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Import):
                for alias in child.names:
                    bound[scope, alias.asname or alias.name.split(".")[0]] = child.lineno
            elif isinstance(child, ast.ImportFrom) and child.module != "__future__":
                for alias in child.names:
                    bound[scope, alias.asname or alias.name] = child.lineno
            visit(child, child if isinstance(child, _SCOPES) else scope)

    visit(tree, tree)
    return bound


def _annotations(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = node.args
            for arg in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg]:
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used(tree: ast.AST) -> set[str]:
    """Names read anywhere in `tree`, plus the names inside string annotations."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                parsed = ast.parse(node.value, mode="eval")
                used |= {n.id for n in ast.walk(parsed) if isinstance(n, ast.Name)}
    return used


def unused_imports(source: str) -> list[tuple[str, int]]:
    """Imported names that their scope never uses: a module-level import may be
    used anywhere in the module, one inside a function only in that function."""
    tree = ast.parse(source)
    imported = _imported(tree)
    used = {scope: _used(scope) for scope in {scope for scope, _ in imported}}  # one walk each
    return sorted((name, line) for (scope, name), line in imported.items() if name not in used[scope])


def test_unused_imports_are_found():
    source = (
        "from __future__ import annotations\n"
        "import math\n"
        "import os.path\n"
        "from typing import Sequence\n"
        "from .errors import DimMismatch, ParseError as PE\n"
        "def f(x: 'Sequence[int]') -> None:\n"
        "    raise PE(os.path.join(x))\n"
    )
    assert unused_imports(source) == [("DimMismatch", 5), ("math", 2)]


def test_function_local_imports_are_checked_in_their_function():
    source = (
        "import json\n"
        "def load(text):\n"
        "    from .archspace import get_space, read_architectures\n"
        "    import numpy as np\n"
        "    def inner():\n"
        "        return np.zeros(1)\n"
        "    return get_space(json.loads(text)), inner\n"
        "def read(path):\n"
        "    return read_architectures(path)\n"
    )
    assert unused_imports(source) == [("read_architectures", 3)]


def test_no_module_imports_a_name_it_never_uses():
    start = time.perf_counter()
    found = {
        path.name: unused
        for path in sorted(PACKAGE.glob("*.py"))
        if (unused := unused_imports(path.read_text(encoding="utf-8")))
    }
    assert found == {}
    assert time.perf_counter() - start < 1.0
