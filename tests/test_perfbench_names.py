"""The library names that the benchmark under perfbench/ binds still exist.

The benchmark's tracer wraps some methods and private functions by name, and
its block profile imports predictor layers directly, so renaming one of them
breaks only the benchmark's traced runs. These checks read perfbench/ and
change nothing there.
"""

from __future__ import annotations

import importlib
import importlib.util
import types
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str) -> types.ModuleType:
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_block_profile_imports():
    _load("blocks")


def test_traced_methods_are_defined_on_their_classes():
    tracer = _load("tracer")
    for short, cls_name, attr in tracer.METHOD_SPANS:
        cls = getattr(importlib.import_module(f"nasflat.{short}"), cls_name)
        assert attr in cls.__dict__, f"nasflat.{short}.{cls_name}.{attr}"


def test_traced_private_names_are_functions_of_their_modules():
    tracer = _load("tracer")
    for short, attr in tracer.PRIVATE_SPANS:
        fn = getattr(importlib.import_module(f"nasflat.{short}"), attr, None)
        assert isinstance(fn, types.FunctionType), f"nasflat.{short}.{attr}"
        assert fn.__module__ == f"nasflat.{short}", f"nasflat.{short}.{attr}"
