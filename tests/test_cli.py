"""Command-line interface: subcommands, exit codes, output determinism."""

import json
import subprocess
import sys

import pytest

from gyrograph import (
    ConvergenceError,
    bundled_gyrogroup,
    cli,
    cyclic_group,
    power_graph,
    reciprocal_status_edge_sums,
    spectral,
    to_cayley_csv,
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


def test_invariants_detour_bound_refusal():
    r = run_cli("invariants", "--gn", "6", "--detour")
    assert r.returncode == 3
    assert "bound" in r.stderr


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
    sums = reciprocal_status_edge_sums(power_graph(cyclic_group(12)))
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


@pytest.mark.parametrize(
    "argv",
    [
        ["invariants", "--gn", "3", "--spectral"],
        ["verify-paper", "--n", "3..3"],
    ],
)
def test_convergence_failure_exits_3_with_one_line(monkeypatch, capsys, argv):
    def fail(matrix, tol=1e-10, max_iterations=1_000_000):
        raise ConvergenceError("power iteration did not reach tolerance")

    monkeypatch.setattr(cli, "spectral_radius", fail)
    monkeypatch.setattr(spectral, "spectral_radius", fail)
    assert cli.main(argv) == 3
    err = capsys.readouterr().err
    assert err == "error: power iteration did not reach tolerance\n"


@pytest.mark.parametrize("tol", ["0", "-1e-3", "inf", "nan", "abc"])
@pytest.mark.parametrize("command", [["invariants", "--gn", "3"], ["verify-paper"]])
def test_tol_must_be_finite_and_positive(capsys, command, tol):
    with pytest.raises(SystemExit) as exc:
        cli.main([*command, "--tol", tol])
    assert exc.value.code == 2
    assert "argument --tol" in capsys.readouterr().err


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


def test_verify_paper_skips_detour_beyond_bound():
    r = run_cli("verify-paper", "--n", "5..5", "--format", "json",
                "--detour-bound", "16")
    data = json.loads(r.stdout)
    verdicts = {e["claim_id"]: e["verdict"] for e in data["entries"]}
    assert verdicts["detour-eccentricity[n=5]"] == "skipped"
    assert verdicts["dds-detour[n=5]"] == "skipped"
    assert verdicts["hosoya-polynomial[n=5]"] == "match"


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
