"""The README's fenced python blocks run, in order, as one script in a
fresh interpreter with src on the path, and each `gyrograph ...` line of
its shell blocks exits with its documented code, so the quick tour
cannot drift away from the library's API or the CLI's behaviour."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from gyrograph.gyrogroups import BUNDLED_TABLES, bundled_table_text

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")


def fenced_blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```$", README, re.DOTALL | re.MULTILINE)


def cli_lines():
    """The `gyrograph` command lines of the shell blocks, comments dropped."""
    return [
        shlex.split(line, comments=True)
        for block in fenced_blocks("sh")
        for line in block.splitlines()
        if line.startswith("gyrograph ")
    ]


def src_env():
    path = os.environ.get("PYTHONPATH")
    src = str(ROOT / "src")
    return {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}


def test_readme_python_blocks_run():
    blocks = fenced_blocks("python")
    assert len(blocks) >= 2
    proc = subprocess.run(
        [sys.executable, "-c", "\n".join(blocks)],
        capture_output=True, text=True, env=src_env(), cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    assert "18x^2 + 10x + 8" in proc.stdout
    assert "(12, 19, 8, 1)" in proc.stdout


def test_readme_documents_cli_lines():
    assert len(cli_lines()) >= 7


@pytest.mark.parametrize("argv", cli_lines(), ids=shlex.join)
def test_readme_cli_line_exits_as_documented(argv, tmp_path):
    # Run where the bundled tables lie as files, so `--table k1.csv` reads
    # one.  verify-paper exits 1 on the refuted g8/m1 claim; the rest, 0.
    for name in BUNDLED_TABLES:
        for fmt in ("csv", "json"):
            (tmp_path / f"{name}.{fmt}").write_text(bundled_table_text(name, fmt))
    proc = subprocess.run(
        [sys.executable, "-m", "gyrograph.cli", *argv[1:]],
        capture_output=True, text=True, env=src_env(), cwd=tmp_path,
    )
    assert proc.returncode == (1 if argv[1] == "verify-paper" else 0), proc.stderr
    assert proc.stdout
