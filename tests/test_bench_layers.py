"""The benchmark's per-layer trace finds library functions by name
(bench/child.py LAYERS); a renamed function would silently show up there
as `missing` instead of failing."""

import importlib
import importlib.util
from pathlib import Path

CHILD = Path(__file__).resolve().parents[1] / "bench" / "child.py"


def test_every_traced_layer_is_a_library_function():
    spec = importlib.util.spec_from_file_location("bench_child", CHILD)
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    missing = [
        f"{module}.{function}"
        for module, functions in child.LAYERS.items()
        for function in functions
        if not callable(
            getattr(importlib.import_module(f"gyrograph.{module}"), function, None)
        )
    ]
    assert child.LAYERS and missing == []
