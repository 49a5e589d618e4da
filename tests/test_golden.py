"""Golden CLI output: sha256 of stdout and stderr, and the exit code, of a
fixed command set, so a change that must keep the CLI bytes is checked
against recorded hashes instead of by hand.

To re-record after an intended output change, run this file as a script
(`PYTHONPATH=src python tests/test_golden.py`) and paste its output over
GOLDEN.
"""

import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import gyrograph
from gyrograph import build_gn, cyclic_group, to_cayley_csv
from gyrograph.cli import _build_parser
from gyrograph.gyrogroups import bundled_table_text

#: name -> argv, with {z12}, {z28}, {z60}, {z257}, {k1} and {gn4bad} standing
#: for table files: the cyclic tables are not G(n) (Z12 is non-planar, the
#: spectral quotients of Z28 and Z60 have 5 and 11 parts, and Z257's entries
#: are above 256, past CPython's small-int cache), k1 is a planar order-8
#: table, and gn4bad is G(4) with one entry changed, so `build` exits 1.
COMMANDS = {
    "build-gn3": ("build", "--gn", "3"),
    "build-gn7": ("build", "--gn", "7"),
    "build-z12": ("build", "--table", "{z12}"),
    "build-k1": ("build", "--table", "{k1}"),
    "build-gn4-corrupt": ("build", "--table", "{gn4bad}"),
    "build-z257": ("build", "--table", "{z257}"),
    "verify-3..6-text": ("verify-paper", "--n", "3..6"),
    "verify-3..6-json": ("verify-paper", "--n", "3..6", "--format", "json"),
    "verify-7-json": ("verify-paper", "--n", "7", "--format", "json"),
    "verify-8-json": ("verify-paper", "--n", "8", "--format", "json"),
    "verify-examples": ("verify-paper", "--examples"),
    **{
        f"invariants-gn{n}-{fmt}": ("invariants", "--gn", str(n), "--all", "--format", fmt)
        for n in (3, 4, 5, 6)
        for fmt in ("json", "both")
    },
    "invariants-z12-both": ("invariants", "--table", "{z12}", "--all"),
    "invariants-z12-text": ("invariants", "--table", "{z12}", "--all", "--format", "text"),
    "invariants-k1-both": ("invariants", "--table", "{k1}", "--all"),
    "spectral-gn8-json": ("invariants", "--gn", "8", "--spectral", "--format", "json"),
    "power-graph-gn7-json": ("invariants", "--gn", "7", "--power-graph", "--format", "json"),
    "dot-gn4": ("invariants", "--gn", "4", "--format", "dot"),
    "spectral-z60-both": ("invariants", "--table", "{z60}", "--spectral"),
    "invariants-z28-json": (
        "invariants", "--table", "{z28}", "--distances", "--hosoya", "--dds", "--twins",
        "--resolving", "--metric-dimension", "--spectral", "--planarity", "--hamiltonicity",
        "--power-graph", "--tol", "1e-10", "--format", "json",
    ),
    "invariants-z28-detour-json": ("invariants", "--table", "{z28}", "--detour", "--format", "json"),
}

#: name -> (exit code, sha256 of stdout, sha256 of stderr)
GOLDEN = {
    'build-gn3': (0, '61eeb745db6add75930f89e7c399029d369088e2c143f2699688bcaa3725f282', '4ff87d7c2be5200ccad4144468c7b49e0deadc7f218f83fca1a3f2c5342f5b5c'),
    'build-gn7': (0, '8e06a45dcb4718700a4975bbbe61499dc09e7caa1cc8322a79c0958a70c21a02', '3372a572fcdb9fce09f2bbfb8626d1f027a9d1a3dc53c614aa7d6c44c7a96966'),
    'build-z12': (0, '9927d1b5ef12e6342f079208e9d44784a70bf4d51bac296236af2a33733a9de2', 'e32be05fa7acb61c4f6050d27ff7f91e2fdf1ec005e7d7fc21da5238ca7eca37'),
    'build-k1': (0, 'd84f6bd379f489e1808540f2ded53ebab6429b1280584c47f72e188c033c2708', '4ff87d7c2be5200ccad4144468c7b49e0deadc7f218f83fca1a3f2c5342f5b5c'),
    'build-gn4-corrupt': (1, '8b86b024f2ec112bd734e235dae4c6cbf8c930667a06ca86bb98dfdd0b18f75f', 'a82a10328bc0d8ddcea5013d9207c28ca29402b3b0cd263b1a1e3ecd859a1118'),
    'build-z257': (0, 'fe5c49a15a9e1c746b0f9be781f5732b345547b0af4a71e0e42b4fc40b739d1d', '2f221f509bb3c83c0c86bd675be5cc2fc02469158432dcc91750171a0829f40c'),
    'verify-3..6-text': (1, 'e98a648b27c2bc030ef9641ea29e882a95080715467aa9d45801e6ddca955dc4', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'verify-3..6-json': (1, '2fdefd28b70d0ce298fd3e3fa57b78c358f4773503a51f6cf7ef2d5a8e631593', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'verify-7-json': (1, 'b94416c3ef8e4fdab198e237bb1af34d078d9e22b9d964b1618e064727dfe3c9', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'verify-8-json': (1, 'fec41b6544a5d2d41100e48208c11d5549121aec0a01d87281aa1ee2a63f709c', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'verify-examples': (1, '84d38728be6b29e55822c96926eddc1508f8ba41a8fb564881c5840e0784b0bf', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'invariants-gn3-json': (0, '1c73f1b75a5ae70978cd30c77e2d00ae499622ea254c8da5dc70553be9f120ff', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'invariants-gn3-both': (0, 'fae8605a40ec7ffe7b161333d97c3b43851d40fe379abeb4225ca2fe48e905d3', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'invariants-gn4-json': (0, 'a6c9853681c477d20a068f633cf107143b3758c8f50ffc31cfbc95b83911c535', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'invariants-gn4-both': (0, '8e7434b7869bb2fa896262acd6056411d1ac745c5ef02e427c3ba25191199f32', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'invariants-gn5-json': (0, 'aabeed7ffe73a052cc0b457f13b92e96bbd59f044fe89ffd802f51c9fddbf1a3', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'invariants-gn5-both': (0, '3296607d5263ecc06c03e9499f4a00918f29a896efb39fd3f7f738f2ea1e5db9', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'invariants-gn6-json': (0, '110c5468675994ecf1f42762e3d3e24f84e99444b332e3e9bbdf4a3856f51092', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'invariants-gn6-both': (0, '14f50a896c18e8eeabc31ca9d27c0d2f4eb2f31a69099bccf976647869d80d2d', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'invariants-z12-both': (0, '1ce092a7925a795fc5872206a37f0a2747ac1b21759c2662cd84eef545656902', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'invariants-z12-text': (0, '9b451aea086048c81596027e4fbb091fe384ee703a37dd3b46219935d819f4f7', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'invariants-k1-both': (0, '90ca40939e1eaa09f533796c78e62656dbf0b9c7cbc36217e1be6ea90fcdc8d2', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'spectral-gn8-json': (0, '16c79a1ca78cfbce356a5b6f9e677cea82f650ecb200b34f98c4722a516afe4d', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'power-graph-gn7-json': (0, 'd49bc6962f5b93c1db7f3dca51a7e5188017821ba5b7943fe37bd7acac329249', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'dot-gn4': (0, '297308fdc535b19d2b3ef7b96411793a3b454119d5eaf8ed446c99a2bd844092', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'spectral-z60-both': (0, '49065085ef301baa45fa0404dc113b5959cb6958a2ed338e5fae8f321533e872', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'invariants-z28-json': (0, '7c3b074c1b799e46a5600303271c117b1b2c36a6c222eceba1921df8af55bfb8', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'invariants-z28-detour-json': (0, '081de507b94b54083bc43faad8dfaedef0dea5fbba9237c82244dfdd17299d18', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
}


def run_golden(name: str, tables: dict[str, str]) -> tuple[int, str, str]:
    argv = [arg.format(**tables) for arg in COMMANDS[name]]
    r = subprocess.run([sys.executable, "-m", "gyrograph.cli", *argv], capture_output=True)
    return r.returncode, hashlib.sha256(r.stdout).hexdigest(), hashlib.sha256(r.stderr).hexdigest()


def write_tables(directory) -> dict[str, str]:
    tables = {f"z{n}": to_cayley_csv(cyclic_group(n)) for n in (12, 28, 60, 257)}
    tables["k1"] = bundled_table_text("k1")
    rows = [list(row) for row in build_gn(4).table]
    rows[9][10] = rows[9][11]  # 3 -> 6: neither is the identity 0
    tables["gn4bad"] = "\n".join(",".join(map(str, row)) for row in rows) + "\n"
    paths = {}
    for key, text in tables.items():
        path = directory / f"{key}.csv"
        path.write_text(text, encoding="utf-8")
        paths[key] = str(path)
    return paths


@pytest.fixture(scope="module")
def tables(tmp_path_factory):
    return write_tables(tmp_path_factory.mktemp("golden"))


def test_every_subcommand_is_pinned():
    parser = _build_parser()
    subparsers = next(a for a in parser._actions if a.dest == "command")
    assert {argv[0] for argv in COMMANDS.values()} == set(subparsers.choices)
    pinned = set()
    for argv in COMMANDS.values():
        args = parser.parse_args(argv)
        pinned.add((args.command, getattr(args, "format", None)))
    for command, sub in subparsers.choices.items():
        for action in sub._actions:
            if action.dest == "format":
                assert {(command, fmt) for fmt in action.choices} <= pinned


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_cli_output_matches_the_recorded_hashes(name, tables):
    assert run_golden(name, tables) == GOLDEN[name]


def test_the_oldest_supported_python_prints_the_same_bytes():
    # pyproject.toml asks for Python >= 3.10.  A version manager's shim on
    # PATH may fail to run it while the interpreter is installed beside
    # this one (as pyenv lays out its versions).
    on_path = shutil.which("python3.10")
    candidates = [on_path] if on_path else []
    candidates += map(str, Path(sys.base_prefix).parent.glob("3.10*/bin/python3.10"))
    runs = (p for p in candidates if not subprocess.run([p, "-c", ""], capture_output=True).returncode)
    py310 = next(runs, None)
    if py310 is None:
        pytest.skip("python3.10 is neither on PATH nor installed beside this Python")
    env = {**os.environ, "PYTHONPATH": str(Path(gyrograph.__file__).parents[1])}
    for argv in (("verify-paper", "--n", "3..4", "--format", "json"), ("invariants", "--gn", "3", "--all")):
        outputs = []
        for python in (sys.executable, py310):
            r = subprocess.run([python, "-m", "gyrograph.cli", *argv], capture_output=True, env=env)
            outputs.append((r.returncode, r.stdout, r.stderr))
        assert outputs[0][1].startswith(b"{")  # a JSON payload, not an error
        assert outputs[1] == outputs[0]


if __name__ == "__main__":
    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as tmp:
        paths = write_tables(Path(tmp))
        for name in COMMANDS:
            print(f"    {name!r}: {run_golden(name, paths)!r},")
