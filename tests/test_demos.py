"""Every demo script runs to completion (exit 0) in a fresh interpreter and
prints its results: a demo that computes a wrong answer still exits 0."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# Lines each demo must print, whole: results that a wrong answer changes.
RESULTS = {
    "01_gyrogroups.py": ["gyrogroup axioms pass: True", "  <1> = [0, 1, 2, 3]"],
    "02_power_graphs.py": ["n=5: clique size 16, 16 pendants at vertex 0"],
    "03_distances_and_polynomials.py": [
        "dds summary: (((1, 7), 1), ((1, 1, 6), 4), ((1, 3, 4), 3))"
    ],
    "04_resolving_sets.py": ["metric dimension of P(G(3)): 5"],
    "05_spectra.py": [
        "n=5: closed form == exact: True",
        "n=3: 3.0 < 3.372281323 <= 5.000000  satisfied=True",
        "n=4: 7.0 < 7.158711690 <= 9.828427  satisfied=True",
        "n=5: 15.0 < 15.070734560 <= 19.000000  satisfied=True",
    ],
    "06_planarity_hamiltonicity.py": ["P(G(4)) planar: False"],
    "07_isomorphisms.py": ["witness re-verified over all 64 products: True"],
    "08_full_verification.py": ["summary: 47 match, 1 mismatch, 4 typo-corrected, 0 skipped"],
}


def test_demos_are_found():
    assert len(DEMOS) >= 8
    assert sorted(RESULTS) == [demo.name for demo in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo):
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    proc = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, env=env, cwd=ROOT
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    for line in RESULTS[demo.name]:
        assert line in lines, f"{demo.name} did not print {line!r}"
