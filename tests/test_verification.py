"""Structure and invariants of the verification report."""

import json
import sys

import pytest

from gyrograph import distances, run_verification, spectral
from gyrograph.verification import verify_example_tables, verify_gn


@pytest.fixture(scope="module")
def report():
    return run_verification([3], include_examples=True)


def test_summary_counts_add_up(report):
    s = report.summary
    assert sum(s.values()) == len(report.entries)


def test_exactly_charpoly_entries_are_typo_corrected(report):
    corrected = sorted(
        e.claim_id for e in report.entries if e.verdict == "typo-corrected"
    )
    assert corrected == ["charpoly-pendant-part[n=3]", "charpoly[n=3]"]


def test_single_known_mismatch(report):
    mismatches = [e for e in report.entries if e.verdict == "mismatch"]
    assert [e.claim_id for e in mismatches] == ["gyro-noniso[g8,m1]"]
    assert "witness" in mismatches[0].computed
    assert report.has_mismatch


def test_family_entries_all_pass(report):
    family = [e for e in report.entries if "[n=3]" in e.claim_id]
    assert len(family) >= 17
    assert all(e.verdict in ("match", "typo-corrected") for e in family)


def test_every_lemma_area_has_an_entry(report):
    ids = " ".join(e.claim_id for e in report.entries)
    for needle in (
        "gn-axioms",
        "power-graph-shape",
        "planarity",
        "hamiltonicity",
        "pair-distance-counts",
        "hosoya-polynomial",
        "rs-hosoya-polynomial",
        "metric-dimension",
        "resolving-polynomial",
        "charpoly",
        "spectral-bounds",
        "detour-eccentricity",
        "dds",
        "interior-center",
        "closure-fixed-point",
        "power-graph-iso",
        "gyro-noniso",
        "gyration-pattern",
    ):
        assert needle in ids


def test_json_and_text_renderings_are_consistent(report):
    data = json.loads(report.to_json())
    assert len(data["entries"]) == len(report.entries)
    text = report.render_text()
    assert text.count("[match") == report.summary["match"]
    assert "summary:" in text


def test_report_is_deterministic():
    a = run_verification([3], include_examples=False).to_json()
    b = run_verification([3], include_examples=False).to_json()
    assert a == b


def test_detour_entries_skip_above_bound():
    entries = verify_gn(5, detour_bound=16)
    verdicts = {e.claim_id: e.verdict for e in entries}
    assert verdicts["detour-eccentricity[n=5]"] == "skipped"
    assert verdicts["dds-detour[n=5]"] == "skipped"
    # Skips never count as failures.
    assert all(v != "mismatch" for v in verdicts.values())


def test_example_entries_isolated():
    entries = verify_example_tables()
    ids = [e.claim_id for e in entries]
    assert "power-graph-iso[k1,n1]" in ids
    assert "gyration-pattern[g8]" in ids
    by_id = {e.claim_id: e for e in entries}
    assert by_id["power-graph-iso[g8,m1]"].verdict == "match"
    assert "m1 -> g8" in by_id["power-graph-iso[g8,m1]"].note
    assert by_id["gyro-noniso[k1,n1]"].verdict == "match"
    assert by_id["gyro-noniso[g8,m1]"].verdict == "mismatch"


def count_calls(monkeypatch, module, name):
    """Replace module.name in every gyrograph module that holds it with a
    wrapper recording each call's first argument; return the record."""
    original = getattr(module, name)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    for key, mod in list(sys.modules.items()):
        if key == "gyrograph" or key.startswith("gyrograph."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, counting)
    return calls


@pytest.mark.parametrize(("n", "detour_runs"), [(3, 1), (4, 1), (5, 0)])
def test_verify_gn_computes_detour_and_charpoly_once(monkeypatch, n, detour_runs):
    # One detour matrix serves both detour entries; the exact charpoly runs
    # once on the adjacency matrix and once on the pendant part, never
    # again inside the spectral-bounds entry.
    detours = count_calls(monkeypatch, distances, "detour_matrix")
    charpolys = count_calls(monkeypatch, spectral, "char_poly_exact")
    entries = verify_gn(n)
    assert all(e.verdict != "mismatch" for e in entries)
    assert len(detours) == detour_runs
    assert [m.n for m in charpolys] == [2**n, 2**n]
