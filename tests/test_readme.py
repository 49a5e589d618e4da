"""The README's fenced python blocks run, in order, as one script in a
fresh interpreter with src on the path, so the quick tour cannot drift
away from the library's API."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def python_blocks():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    return re.findall(r"^```python\n(.*?)^```$", text, re.DOTALL | re.MULTILINE)


def test_readme_python_blocks_run():
    blocks = python_blocks()
    assert len(blocks) >= 2
    path = os.environ.get("PYTHONPATH")
    src = str(ROOT / "src")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    proc = subprocess.run(
        [sys.executable, "-c", "\n".join(blocks)],
        capture_output=True, text=True, env=env, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    assert "18x^2 + 10x + 8" in proc.stdout
    assert "(12, 19, 8, 1)" in proc.stdout
