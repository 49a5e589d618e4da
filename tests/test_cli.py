"""Command-line interface: subcommands, exit codes, output determinism."""

import json
import os
import random
import subprocess
import sys

import pytest
from test_verification import count_calls

import gyrograph
from gyrograph import (
    BoundExceededError,
    Permutation,
    build_gn,
    bundled_gyrogroup,
    cli,
    closed_form_charpoly_gn,
    closed_forms,
    cyclic_group,
    detour_matrix,
    distance_matrix,
    distances,
    power_graph,
    reciprocal_status_edge_sums,
    relabel,
    resolving,
    spectral,
    to_cayley_csv,
    verification,
)


def run_cli(*args, env=None):
    return subprocess.run(
        [sys.executable, "-m", "gyrograph.cli", *args],
        capture_output=True,
        text=True,
        env=env,
    )


# ---------------------------------------------------------------------------
# build
# ---------------------------------------------------------------------------


def test_build_gn3_succeeds():
    r = run_cli("build", "--gn", "3")
    assert r.returncode == 0
    table = json.loads(r.stdout)
    assert table["order"] == 8
    assert table["table"][0] == list(range(8))
    assert "is_gyrogroup: True" in r.stderr


def test_build_gn2_is_a_usage_error():
    r = run_cli("build", "--gn", "2")
    assert r.returncode == 2
    assert "n >= 3" in r.stderr or "n=2" in r.stderr


def test_build_from_table_file(tmp_path):
    path = tmp_path / "k1.csv"
    path.write_text(to_cayley_csv(bundled_gyrogroup("k1")))
    r = run_cli("build", "--table", str(path))
    assert r.returncode == 0
    assert json.loads(r.stdout)["order"] == 8


def test_build_writes_out_file(tmp_path):
    out = tmp_path / "gn3.json"
    r = run_cli("build", "--gn", "3", "--out", str(out))
    assert r.returncode == 0
    assert json.loads(out.read_text())["order"] == 8
    assert "is_gyrogroup: True" in r.stdout


def test_build_corrupted_table_fails_with_counterexample(tmp_path):
    rows = [list(r) for r in bundled_gyrogroup("k1").table]
    rows[6][6] = 0
    path = tmp_path / "bad.csv"
    path.write_text("\n".join(",".join(map(str, r)) for r in rows) + "\n")
    r = run_cli("build", "--table", str(path))
    assert r.returncode == 1
    assert "counterexample" in r.stderr
    assert "is_gyrogroup: False" in r.stderr


def test_build_rejects_missing_file():
    r = run_cli("build", "--table", "/nonexistent/table.csv")
    assert r.returncode == 2


def test_build_requires_an_input():
    r = run_cli("build")
    assert r.returncode == 2


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------


def test_invariants_hosoya_text():
    r = run_cli("invariants", "--gn", "3", "--hosoya")
    assert r.returncode == 0
    assert "18x^2 + 10x + 8" in r.stdout


def test_invariants_metric_dimension():
    r = run_cli("invariants", "--gn", "3", "--metric-dimension")
    assert r.returncode == 0
    assert "metric_dimension: 5" in r.stdout


def test_invariants_json_format():
    r = run_cli("invariants", "--gn", "3", "--hosoya", "--format", "json")
    data = json.loads(r.stdout)
    assert data["hosoya"]["coefficients"] == {"2": 18, "1": 10, "0": 8}


def z20_table(tmp_path):
    # P(Z20) is one non-complete block of 20 vertices, past the detour
    # block bound of 16.
    path = tmp_path / "z20.csv"
    path.write_text(to_cayley_csv(cyclic_group(20)))
    return str(path)


def test_invariants_detour_bound_refusal(tmp_path):
    r = run_cli("invariants", "--table", z20_table(tmp_path), "--detour")
    assert r.returncode == 3
    assert r.stderr == (
        "error: detour search refused: a non-complete block of 20 vertices "
        "exceeds block bound 16\n"
    )
    # An explicit bound at the block size lets the search run.
    r = run_cli("invariants", "--table", z20_table(tmp_path), "--detour",
                "--detour-bound", "20", "--format", "json")
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout)["detour"]["diameter"] == 19


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_invariants_all_on_large_gn(n):
    # Every block of P(G(n)) is complete and K_m holds a 5-clique, so no
    # default bound refuses anything: no field reads "skipped".
    r = run_cli("invariants", "--gn", str(n), "--all", "--format", "json")
    assert r.returncode == 0, r.stderr
    assert "skipped" not in r.stdout
    data = json.loads(r.stdout)
    assert data["resolving"]["sequence"] == list(
        closed_forms.resolving_sequence_closed_form(n)
    )
    assert data["spectral"]["charpoly"] == str(closed_form_charpoly_gn(n))
    assert (data["detour"]["radius"], data["detour"]["diameter"]) == (
        closed_forms.detour_radius_diameter_closed_form(n)
    )
    assert data["planarity"]["kind"] == "K5"


def test_invariants_detour_within_bound():
    r = run_cli("invariants", "--gn", "3", "--detour", "--format", "json")
    assert r.returncode == 0
    data = json.loads(r.stdout)
    assert data["detour"]["radius"] == 3
    assert data["detour"]["diameter"] == 4


def test_invariants_dot_output():
    r = run_cli("invariants", "--gn", "3", "--format", "dot")
    assert r.returncode == 0
    assert r.stdout.startswith("graph G {")
    assert sum(1 for line in r.stdout.splitlines() if "--" in line) == 10


def test_invariants_spectral():
    r = run_cli("invariants", "--gn", "3", "--spectral", "--format", "json")
    data = json.loads(r.stdout)
    assert data["spectral"]["spectral_radius"] == pytest.approx(
        3.3722813232, abs=1e-8
    )


def test_invariants_from_bundled_json_table(tmp_path):
    from gyrograph import to_cayley_json

    path = tmp_path / "g8.json"
    path.write_text(to_cayley_json(bundled_gyrogroup("g8")))
    r = run_cli("invariants", "--table", str(path), "--planarity", "--format", "json")
    assert r.returncode == 0
    assert json.loads(r.stdout)["planarity"]["planar"] is True


def test_invariants_all_on_cyclic_table_reports_rs_edge_sums(tmp_path):
    # Z12 has half-integer edge sums such as 39/2: no polynomial in x, so
    # rs_hosoya reports the exact multiset and the command still succeeds.
    path = tmp_path / "z12.csv"
    path.write_text(to_cayley_csv(cyclic_group(12)))
    r = run_cli("invariants", "--table", str(path), "--all", "--format", "json")
    assert r.returncode == 0, r.stderr
    data = json.loads(r.stdout)
    sums = reciprocal_status_edge_sums(distance_matrix(power_graph(cyclic_group(12))))
    assert data["rs_hosoya"] == {
        "edge_sums": {str(s): count for s, count in sums.items()}
    }
    assert data["rs_hosoya"]["edge_sums"]["39/2"] == 4
    assert sum(data["rs_hosoya"]["edge_sums"].values()) == data["edges"]


def test_invariants_rs_hosoya_integer_case_is_a_polynomial():
    r = run_cli("invariants", "--gn", "3", "--rs-hosoya", "--format", "json")
    assert r.returncode == 0
    assert json.loads(r.stdout)["rs_hosoya"] == {
        "polynomial": "3x^12 + 4x^11 + 3x^10",
        "coefficients": {"12": 3, "11": 4, "10": 3},
    }


@pytest.mark.parametrize("flags", [["--all"], ["--resolving", "--metric-dimension"]])
def test_invariants_reads_metric_dimension_from_the_resolving_profile(
    monkeypatch, capsys, flags
):
    runs = []
    layers = resolving._resolving_layers

    def counted(*args, **kwargs):
        runs.append(args)
        return layers(*args, **kwargs)

    monkeypatch.setattr(resolving, "_resolving_layers", counted)
    assert cli.main(["invariants", "--gn", "3", *flags, "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert len(runs) == 1
    assert data["metric_dimension"] == data["resolving"]["psi"] == 5


def invariants_json(capsys, *argv):
    assert cli.main(["invariants", *argv, "--format", "json"]) == 0
    return json.loads(capsys.readouterr().out)


@pytest.mark.parametrize(
    ("flags", "runs"),
    [
        (["--all"], 1),
        (["--distances", "--hosoya", "--rs-hosoya", "--resolving"], 1),
        (["--spectral"], 0),
        (["--twins"], 0),
        (["--detour"], 0),
    ],
)
def test_invariants_run_at_most_one_bfs(monkeypatch, capsys, flags, runs):
    bfs = count_calls(monkeypatch, distances, "distance_matrix")
    invariants_json(capsys, "--gn", "4", *flags)
    assert len(bfs) == runs


@pytest.mark.parametrize("flags", [["--spectral"], ["--all"]])
def test_invariants_run_one_charpoly_recurrence(monkeypatch, capsys, flags):
    # The charpoly and the spectral radius share one run on the quotient.
    spectral._quotient_charpoly.cache_clear()
    runs = count_calls(monkeypatch, spectral, "_faddeev_leverrier")
    data = invariants_json(capsys, "--gn", "4", *flags)
    assert len(runs) == 1
    assert data["spectral"]["charpoly"] == str(closed_form_charpoly_gn(4))


def run_python(code):
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)


def test_no_subcommand_imports_numpy(tmp_path):
    # The axiom check, power associativity and the spectral layer are plain
    # Python; numpy is a test dependency only.  The records are NamedTuples
    # and the value types plain classes, so neither dataclasses nor the
    # inspect module it pulls in is paid for by any process.
    g = build_gn(4)
    rows = [list(r) for r in g.table]
    valid, bad = tmp_path / "g4.csv", tmp_path / "g4bad.csv"
    valid.write_text(to_cayley_csv(g))
    rows[5][9] = (rows[5][9] + 1) % 16
    bad.write_text("\n".join(",".join(map(str, r)) for r in rows) + "\n")
    commands = [
        (["build", "--table", str(valid)], 0),
        (["build", "--table", str(bad)], 1),
        (["verify-paper", "--n", "3..4"], 1),
        (["invariants", "--gn", "5", "--all", "--format", "json"], 0),
    ]
    r = run_python(
        "import sys, gyrograph.cli\n"
        f"for argv, rc in {commands!r}:\n"
        "    assert gyrograph.cli.main(argv) == rc, argv\n"
        "    for name in ('numpy', 'dataclasses', 'inspect'):\n"
        "        assert name not in sys.modules, (argv, name)\n"
    )
    assert r.returncode == 0, r.stderr


def test_cli_path_leaves_importlib_resources_unloaded(tmp_path):
    # importlib.resources loads zipfile, tempfile and pathlib; only the
    # bundled-table reader needs it.  -S keeps a site .pth hook from
    # importing it before gyrograph does.
    env = {k: v for k, v in os.environ.items() if k != "GYROGRAPH_DATA_DIR"}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(gyrograph.__file__))
    out = str(tmp_path / "g3.json")
    code = (
        "import sys, gyrograph.cli\n"
        f"assert gyrograph.cli.main(['build', '--gn', '3', '--out', {out!r}]) == 0\n"
        "assert 'importlib.resources' not in sys.modules\n"
        "assert gyrograph.bundled_gyrogroup('k1').order == 8\n"
        "assert 'importlib.resources' in sys.modules\n"
    )
    r = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, env=env
    )
    assert r.returncode == 0, r.stderr


def test_invariants_payload_holds_only_json_types(monkeypatch, capsys):
    # A NamedTuple record passed to json.dumps would be written as a list
    # (default=str never sees it), so each invariant converts its record.
    values = []

    def recording(flag, *args):
        values.append(compute(flag, *args))
        return values[-1]

    def plain(value):
        if type(value) is dict:
            return all(type(k) is str and plain(v) for k, v in value.items())
        if type(value) is list:
            return all(map(plain, value))
        return type(value) in (str, int, float, bool, type(None))

    compute = cli._compute_invariant
    monkeypatch.setattr(cli, "_compute_invariant", recording)
    assert cli.main(["invariants", "--gn", "4", "--all", "--format", "json"]) == 0
    capsys.readouterr()
    assert len(values) == len(cli.INVARIANT_FLAGS) - 1  # psi read off resolving
    assert all(map(plain, values)), values


def test_build_gn8_peak_memory():
    # The axiom check holds n^2 gyration ids, not n^3 tensors: 18-22 MiB
    # on CPython 3.11, against 112 MiB with whole-tensor masks.
    r = run_python(
        "import contextlib, io, resource, gyrograph.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert gyrograph.cli.main(['build', '--gn', '8']) == 0\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
    )
    assert r.returncode == 0, r.stderr
    peak_mib = int(r.stdout.split()[-1]) / 1024
    assert peak_mib < 64, f"build --gn 8 peaked at {peak_mib:.0f} MiB"


def test_invariants_on_z12_run_one_bfs(monkeypatch, capsys, tmp_path):
    # The rs_hosoya fallback to edge sums reads the same matrix.
    path = tmp_path / "z12.csv"
    path.write_text(to_cayley_csv(cyclic_group(12)))
    bfs = count_calls(monkeypatch, distances, "distance_matrix")
    flags = ["--hosoya", "--rs-hosoya", "--dds", "--resolving", "--metric-dimension",
             "--power-graph"]
    data = invariants_json(capsys, "--table", str(path), *flags)
    assert "edge_sums" in data["rs_hosoya"]
    assert len(bfs) == 1


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_invariants_survive_relabelling(capsys, tmp_path, n):
    gn = invariants_json(capsys, "--gn", str(n), "--all")
    rng = random.Random(n)
    for trial in range(2):
        perm = list(range(2**n))
        rng.shuffle(perm)
        path = tmp_path / f"g{n}-{trial}.csv"
        path.write_text(to_cayley_csv(relabel(build_gn(n), Permutation(tuple(perm)))))
        table = invariants_json(capsys, "--table", str(path), "--all")
        for key in ("order", "edges", "hosoya", "rs_hosoya", "dds", "metric_dimension"):
            assert table[key] == gn[key], key
        for key in ("psi", "sequence", "polynomial"):
            assert table["resolving"][key] == gn["resolving"][key], key
        assert table["spectral"]["charpoly"] == gn["spectral"]["charpoly"]
        for key in ("radius", "diameter"):
            assert table["distances"][key] == gn["distances"][key], key
        ecc = gn["distances"]["eccentricities"]
        assert table["distances"]["eccentricities"] == [
            ecc[perm.index(v)] for v in range(2**n)
        ]
        for key in ("planar", "kind"):
            assert table["planarity"].get(key) == gn["planarity"].get(key), key
        assert table["hamiltonicity"]["hamiltonian"] == gn["hamiltonicity"]["hamiltonian"]


def test_tol_is_accepted_and_has_no_effect(capsys):
    # The correctly rounded exact root has no tolerance to miss: a --tol
    # below float64's reach changes nothing.
    assert cli.main(["invariants", "--gn", "3", "--spectral"]) == 0
    default = capsys.readouterr()
    assert cli.main(["invariants", "--gn", "3", "--spectral", "--tol", "1e-20"]) == 0
    assert capsys.readouterr() == default


def refuse(*args, **kwargs):
    raise BoundExceededError("search refused: order 8 exceeds bound 4")


def test_refusal_of_an_implied_flag_is_skipped(monkeypatch, capsys):
    monkeypatch.setattr(cli, "is_planar", refuse)
    assert cli.main(["invariants", "--gn", "3", "--all", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["planarity"] == {"skipped": "search refused: order 8 exceeds bound 4"}
    assert data["hamiltonicity"]["hamiltonian"] is False


@pytest.mark.parametrize("flags", [["--planarity"], ["--all", "--planarity"]])
def test_refusal_of_a_named_flag_exits_3(monkeypatch, capsys, flags):
    monkeypatch.setattr(cli, "is_planar", refuse)
    assert cli.main(["invariants", "--gn", "3", *flags]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: search refused: order 8 exceeds bound 4\n"


def test_metric_dimension_searches_when_resolving_was_skipped(monkeypatch, capsys):
    monkeypatch.setattr(cli, "resolving_polynomial", refuse)
    assert cli.main(["invariants", "--gn", "3", "--all", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert "skipped" in data["resolving"]
    assert data["metric_dimension"] == 5


def test_implied_detour_skip_carries_the_library_refusal(capsys, tmp_path):
    with pytest.raises(BoundExceededError) as refusal:
        detour_matrix(power_graph(cyclic_group(20)))
    path = z20_table(tmp_path)
    assert cli.main(["invariants", "--table", path, "--all", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["detour"] == {"skipped": str(refusal.value)}
    # Named, the same refusal fails the command with exit 3.
    assert cli.main(["invariants", "--table", path, "--detour"]) == 3
    assert capsys.readouterr().err == f"error: {refusal.value}\n"


def test_rs_hosoya_on_fractional_sums_computes_statuses_once(monkeypatch, capsys, tmp_path):
    # Z12's edge sums are not all integers: the statuses of its 12
    # vertices are computed once, not again after a failed polynomial.
    rows = count_calls(monkeypatch, distances, "_rs_from_row")
    path = tmp_path / "z12.csv"
    path.write_text(to_cayley_csv(cyclic_group(12)))
    assert cli.main(["invariants", "--table", str(path), "--rs-hosoya"]) == 0
    assert "edge_sums" in capsys.readouterr().out
    assert len(rows) == 12


@pytest.mark.parametrize("tol", ["0", "-1e-3", "inf", "nan", "abc"])
@pytest.mark.parametrize(
    "command", [["invariants", "--gn", "3"], ["invariants", "--gn", "3", "--spectral"]]
)
def test_tol_must_be_finite_and_positive(capsys, command, tol):
    with pytest.raises(SystemExit) as exc:
        cli.main([*command, "--tol", tol])
    assert exc.value.code == 2
    assert "argument --tol" in capsys.readouterr().err


@pytest.mark.parametrize("bound", ["-1", "1.5", "abc", ""])
@pytest.mark.parametrize(
    "command", [["invariants", "--gn", "3", "--detour"], ["invariants", "--gn", "3"]]
)
def test_detour_bound_must_be_a_nonnegative_integer(capsys, command, bound):
    with pytest.raises(SystemExit) as exc:
        cli.main([*command, "--detour-bound", bound])
    assert exc.value.code == 2
    assert "argument --detour-bound" in capsys.readouterr().err


@pytest.mark.parametrize("flag", [["--tol", "1e-10"], ["--detour-bound", "16"]])
def test_verify_paper_rejects_tol_and_detour_bound(capsys, flag):
    # Nothing in the report reads either value, so verify-paper has neither.
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify-paper", "--n", "3", *flag])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err


def test_invariants_output_is_deterministic():
    a = run_cli("invariants", "--gn", "3", "--all", "--detour-bound", "8")
    b = run_cli("invariants", "--gn", "3", "--all", "--detour-bound", "8")
    assert a.stdout == b.stdout


# ---------------------------------------------------------------------------
# verify-paper
# ---------------------------------------------------------------------------


def test_verify_paper_n3_report():
    r = run_cli("verify-paper", "--n", "3..3", "--format", "json")
    # Exit 1: the report honestly flags the refuted g8/m1 claim.
    assert r.returncode == 1
    data = json.loads(r.stdout)
    verdicts = {e["claim_id"]: e["verdict"] for e in data["entries"]}
    assert verdicts["charpoly[n=3]"] == "typo-corrected"
    assert verdicts["charpoly-pendant-part[n=3]"] == "typo-corrected"
    assert verdicts["gyro-noniso[g8,m1]"] == "mismatch"
    mismatches = [k for k, v in verdicts.items() if v == "mismatch"]
    assert mismatches == ["gyro-noniso[g8,m1]"]
    assert data["summary"]["mismatch"] == 1


def test_verify_paper_examples_only():
    r = run_cli("verify-paper", "--examples")
    assert r.returncode == 1  # the single honest mismatch
    assert "power-graph-iso[k1,n1]" in r.stdout
    assert "gyro-noniso[g8,m1]" in r.stdout
    assert r.stdout.count("mismatch") >= 1


def test_verify_paper_without_examples_all_match():
    # Pure family checks: no mismatches, exactly the two typo-corrected
    # charpoly entries per n.
    r = run_cli("verify-paper", "--n", "3..3", "--format", "json")
    data = json.loads(r.stdout)
    family = [e for e in data["entries"] if "[n=3]" in e["claim_id"]]
    assert all(e["verdict"] in ("match", "typo-corrected") for e in family)
    corrected = [e for e in family if e["verdict"] == "typo-corrected"]
    assert sorted(e["claim_id"] for e in corrected) == [
        "charpoly-pendant-part[n=3]",
        "charpoly[n=3]",
    ]


def test_verify_paper_skips_detour_beyond_bound(monkeypatch, capsys):
    # No block of P(G(n)) reaches the detour search; a refusal by the
    # library, stood in for here, is reported as skipped with its text.
    def refuse(graph):
        raise BoundExceededError("detour search refused: stand-in")

    monkeypatch.setattr(verification, "detour_matrix", refuse)
    args = ["verify-paper", "--n", "5..5", "--format", "json"]
    assert cli.main(args) == 1
    entries = {e["claim_id"]: e for e in json.loads(capsys.readouterr().out)["entries"]}
    for claim_id in ("detour-eccentricity[n=5]", "dds-detour[n=5]"):
        assert entries[claim_id]["verdict"] == "skipped"
        assert entries[claim_id]["note"] == "detour search refused: stand-in"
    assert entries["hosoya-polynomial[n=5]"]["verdict"] == "match"


def test_verify_paper_output_deterministic():
    a = run_cli("verify-paper", "--n", "3..3")
    b = run_cli("verify-paper", "--n", "3..3")
    assert a.stdout == b.stdout


def test_verify_paper_rejects_bad_range():
    r = run_cli("verify-paper", "--n", "2..3")
    assert r.returncode == 2


# ---------------------------------------------------------------------------
# bundled data via environment override
# ---------------------------------------------------------------------------


def test_data_dir_override(tmp_path, monkeypatch):
    from gyrograph.gyrogroups import bundled_table_text

    (tmp_path / "k1.csv").write_text("0,1\n1,0\n")
    monkeypatch.setenv("GYROGRAPH_DATA_DIR", str(tmp_path))
    assert bundled_table_text("k1", "csv") == "0,1\n1,0\n"
    monkeypatch.delenv("GYROGRAPH_DATA_DIR")
    assert bundled_table_text("k1", "csv").startswith("0,1,2,3,4,5,6,7")


def test_verify_paper_negative_control_with_corrupted_bundled_table(tmp_path):
    # Point the data dir at a copy of the bundled tables with one Cayley
    # entry of k1 corrupted: the report must flag the axiom failure.
    import os

    from gyrograph.gyrogroups import bundled_table_text

    for name in ("k1", "n1", "g8", "m1"):
        (tmp_path / f"{name}.csv").write_text(bundled_table_text(name, "csv"))
    rows = [
        r.split(",") for r in (tmp_path / "k1.csv").read_text().strip().splitlines()
    ]
    rows[6][6] = "0"
    (tmp_path / "k1.csv").write_text(
        "\n".join(",".join(r) for r in rows) + "\n"
    )
    env = dict(os.environ, GYROGRAPH_DATA_DIR=str(tmp_path))
    r = run_cli("verify-paper", "--examples", "--format", "json", env=env)
    assert r.returncode != 0
    data = json.loads(r.stdout)
    verdicts = {e["claim_id"]: e["verdict"] for e in data["entries"]}
    assert verdicts["table-axioms[k1]"] == "mismatch"
    assert verdicts["gyration-pattern[k1]"] == "mismatch"
    assert verdicts["table-axioms[g8]"] == "match"
