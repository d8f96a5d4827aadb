"""Every error class of the package is raised somewhere in it."""

from __future__ import annotations

import ast
from pathlib import Path

import nasflat

PACKAGE = Path(nasflat.__file__).parent


def _raised(tree: ast.Module) -> set[str]:
    """Names of the classes a `raise` statement raises: `raise X(...)`, `raise X`, `raise mod.X(...)`."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                names.add(exc.id)
            elif isinstance(exc, ast.Attribute):
                names.add(exc.attr)
    return names


def dead_error_classes(errors_source: str, raised: set[str]) -> list[str]:
    """Classes in `errors_source` that are neither raised nor a base of one that is."""
    bases = {}
    for node in ast.parse(errors_source).body:
        if isinstance(node, ast.ClassDef):
            bases[node.name] = [b.id for b in node.bases if isinstance(b, ast.Name)]
    live = set()
    todo = [name for name in bases if name in raised]
    while todo:
        name = todo.pop()
        if name not in live:
            live.add(name)
            todo += [b for b in bases.get(name, []) if b in bases]
    return sorted(set(bases) - live)


def test_dead_error_classes_are_found():
    source = (
        "class Base(Exception): pass\n"
        "class Group(Base): pass\n"
        "class Leaf(Group): pass\n"
        "class Unused(Base): pass\n"
        "class Appended(Base): pass\n"
    )
    code = (
        "def f(errors):\n"
        "    errors.append(Appended('x'))\n"
        "    raise errors_module.Leaf('y')\n"
    )
    assert dead_error_classes(source, _raised(ast.parse(code))) == ["Appended", "Unused"]


def test_every_error_class_is_raised():
    raised = set()
    for path in sorted(PACKAGE.glob("*.py")):
        raised |= _raised(ast.parse(path.read_text(encoding="utf-8")))
    errors_source = (PACKAGE / "errors.py").read_text(encoding="utf-8")
    assert dead_error_classes(errors_source, raised) == []
