"""The benchmark's per-layer trace finds library functions by name
(bench/child.py LAYERS); a renamed function would silently show up there
as `missing` instead of failing."""

import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

CHILD = Path(__file__).resolve().parents[1] / "bench" / "child.py"


def load_child():
    spec = importlib.util.spec_from_file_location("bench_child", CHILD)
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    return child


def test_every_traced_layer_is_a_library_function():
    child = load_child()
    missing = [
        f"{module}.{function}"
        for module, functions in child.LAYERS.items()
        for function in functions
        if not callable(
            getattr(importlib.import_module(f"gyrograph.{module}"), function, None)
        )
    ]
    assert child.LAYERS and missing == []


def test_importing_the_cli_registers_every_traced_layer():
    # The tracer wraps the functions of the modules in sys.modules right
    # after `import gyrograph.cli`, before any layer has run; a layer that
    # is imported only when first called would be traced as missing.
    modules = sorted(f"gyrograph.{module}" for module in load_child().LAYERS)
    r = subprocess.run(
        [sys.executable, "-c",
         f"import sys, gyrograph.cli\nprint([m for m in {modules!r} if m not in sys.modules])"],
        capture_output=True, text=True,
    )
    assert r.returncode == 0, r.stderr
    assert modules and r.stdout == "[]\n"
