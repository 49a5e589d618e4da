"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criterion 10 checks the refutation of the published g8/m1 claim: the
bundled g8 and m1 tables, stated to be non-isomorphic, admit
operation-preserving bijections.  The test re-derives this independently
of the library, by checking the search's witness against the Cayley
tables and by enumerating every bijection, and checks that the
verification report still flags the claim as a mismatch.
"""

import math
import subprocess
import sys
import time
from itertools import combinations, permutations

from gyrograph import (
    IntPolynomial,
    adjacency_matrix,
    bondy_chvatal_closure,
    boundary_interior_center,
    build_gn,
    bundled_gyrogroup,
    char_poly_exact,
    check_embedding,
    classify_gn_shape,
    closed_form_charpoly_gn,
    detour_matrix,
    distance_degree_sequence,
    distance_matrix,
    eccentricity_profile,
    find_isomorphism,
    gyro_isomorphic,
    hosoya_polynomial,
    is_hamiltonian,
    is_planar,
    power_graph,
    reciprocal_status_hosoya,
    resolving_polynomial,
    spectral_radius,
    verify_axioms,
    verify_isomorphism,
    verify_kuratowski,
)
from gyrograph.closed_forms import (
    dds_detour_summary_closed_form,
    dds_summary_closed_form,
    detour_radius_diameter_closed_form,
    hosoya_closed_form,
    metric_dimension_closed_form,
    pair_distance_counts,
    resolving_sequence_closed_form,
    rs_hosoya_closed_form,
)
from gyrograph.verification import verify_example_tables, verify_gn


def report_line(cid: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {cid}: {'PASS' if ok else 'FAIL'} - {detail}")


def finish(cid: str, ok: bool, detail: str) -> None:
    report_line(cid, ok, detail)
    assert ok, f"criterion {cid} failed: {detail}"


def test_criterion_01_gn_axioms():
    t0 = time.perf_counter()
    ok = True
    for n in (3, 4, 5):
        r = verify_axioms(build_gn(n))
        ok &= (
            r.left_identity_ok
            and r.left_inverse_ok
            and r.gyroassociativity_ok
            and r.left_loop_ok
            and r.gyr_is_automorphism_ok
            and not r.is_group
        )
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 5.0
    finish(
        "01-gn-axioms",
        ok,
        f"exhaustive axiom check for n=3,4,5, is_group=False everywhere "
        f"({elapsed:.2f}s < 5s)",
    )


def test_criterion_02_power_graph_shape():
    t0 = time.perf_counter()
    ok = True
    for n in (3, 4, 5):
        m = 2 ** (n - 1)
        graph = power_graph(build_gn(n))
        s = classify_gn_shape(graph)
        expected_edges = frozenset(
            {(u, v) for u in range(m) for v in range(u + 1, m)}
            | {(0, h) for h in range(m, 2 * m)}
        )
        ok &= (
            s.matches_gn_shape
            and s.hub == 0
            and s.clique_part == frozenset(range(m))
            and s.pendant_part == frozenset(range(m, 2 * m))
            and graph.edges == expected_edges
        )
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 1.0
    finish(
        "02-power-graph-shape",
        ok,
        f"exact clique-plus-pendants edge sets for n=3,4,5 ({elapsed:.2f}s < 1s)",
    )


def test_criterion_03_pair_distance_counts():
    t0 = time.perf_counter()
    ok = True
    for n in (3, 4, 5):
        graph = power_graph(build_gn(n))
        dm = distance_matrix(graph)
        counts = [graph.n, 0, 0]
        for u in range(graph.n):
            for v in range(u + 1, graph.n):
                counts[int(dm[u, v])] += 1
        ok &= tuple(counts) == pair_distance_counts(n)
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 1.0
    finish(
        "03-pair-distance-counts",
        ok,
        f"brute-force pair counts equal closed form, e.g. (8,10,18) at n=3 "
        f"({elapsed:.2f}s < 1s)",
    )


def test_criterion_04_hosoya_polynomials():
    t0 = time.perf_counter()
    ok = True
    for n in (3, 4, 5):
        graph = power_graph(build_gn(n))
        ok &= hosoya_polynomial(graph) == hosoya_closed_form(n)
        ok &= reciprocal_status_hosoya(graph) == rs_hosoya_closed_form(n)
    ok &= hosoya_closed_form(3) == IntPolynomial({0: 8, 1: 10, 2: 18})
    ok &= rs_hosoya_closed_form(3) == IntPolynomial({12: 3, 11: 4, 10: 3})
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 1.0
    finish(
        "04-hosoya-polynomials",
        ok,
        f"Hosoya and reciprocal-status Hosoya equal closed forms, n=3,4,5 "
        f"({elapsed:.2f}s < 1s)",
    )


def test_criterion_05_metric_dimension_and_resolving_polynomial():
    t0 = time.perf_counter()
    # n = 3: full enumeration over all 2^8 subsets.
    graph3 = power_graph(build_gn(3))
    dm = distance_matrix(graph3)
    full = {}
    for k in range(9):
        c = 0
        for subset in combinations(range(8), k):
            vectors = {
                tuple(dm.entries[v][s] for s in subset) for v in range(8)
            }
            if len(vectors) == 8:
                c += 1
        if c:
            full[k] = c
    ok = min(full) == metric_dimension_closed_form(3) == 5
    ok &= tuple(full[k] for k in (5, 6, 7, 8)) == resolving_sequence_closed_form(3)
    ok &= resolving_sequence_closed_form(3) == (12, 19, 8, 1)
    # n = 4: twin-pruned enumeration against the closed form.
    prof4 = resolving_polynomial(power_graph(build_gn(4)))
    ok &= prof4.metric_dimension == metric_dimension_closed_form(4) == 13
    ok &= prof4.resolving_sequence == resolving_sequence_closed_form(4)
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 60.0
    finish(
        "05-resolving",
        ok,
        f"psi = 2^n-3; sequences {resolving_sequence_closed_form(3)} at n=3 (full "
        f"enumeration) and {prof4.resolving_sequence} at n=4 (twin-pruned) "
        f"({elapsed:.2f}s < 60s)",
    )


def test_criterion_06_characteristic_polynomial():
    t0 = time.perf_counter()
    ok = True
    for n in (3, 4, 5):
        graph = power_graph(build_gn(n))
        ok &= char_poly_exact(adjacency_matrix(graph)) == closed_form_charpoly_gn(n)
    entries = {e.claim_id: e for e in verify_gn(3)}
    ok &= entries["charpoly[n=3]"].verdict == "typo-corrected"
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 5.0
    finish(
        "06-charpoly",
        ok,
        f"exact charpoly equals corrected closed form for n=3,4,5 and the "
        f"report flags the printed cubic as typo-corrected ({elapsed:.2f}s < 5s)",
    )


def test_criterion_07_spectral_bounds():
    t0 = time.perf_counter()
    tol = 1e-10
    ok = True
    for n in (3, 4, 5):
        m = 2 ** (n - 1)
        lam = spectral_radius(
            adjacency_matrix(power_graph(build_gn(n))), tol=tol
        )
        ok &= (m - 1 + tol) < lam <= (m - 1 + math.sqrt(m) + tol)
        if n == 3:
            ok &= abs(lam - (1 + math.sqrt(33)) / 2) < 1e-9
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 1.0
    finish(
        "07-spectral-bounds",
        ok,
        f"2^(n-1)-1 < lambda_1 <= 2^(n-1)-1+sqrt(2^(n-1)) for n=3,4,5; "
        f"lambda_1(n=3) matches (1+sqrt(33))/2 to 1e-9 ({elapsed:.2f}s < 1s)",
    )


def test_criterion_08_detour_and_dds():
    t0 = time.perf_counter()
    ok = True
    for n in (3, 4):
        graph = power_graph(build_gn(n))
        dm = detour_matrix(graph)
        prof = eccentricity_profile(dm)
        ok &= (prof.radius, prof.diameter) == detour_radius_diameter_closed_form(n)
        dds = distance_degree_sequence(distance_matrix(graph))
        ok &= dds.summary_dict() == dds_summary_closed_form(n)
        ddsd = distance_degree_sequence(dm)
        ok &= ddsd.summary_dict() == dds_detour_summary_closed_form(n)
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 120.0
    finish(
        "08-detour-dds",
        ok,
        f"rad_D=2^(n-1)-1, dia_D=2^(n-1) by exhaustive longest-path search; "
        f"dds and dds_D summaries exact for n=3,4 ({elapsed:.2f}s < 120s)",
    )


def test_criterion_09_structure():
    t0 = time.perf_counter()
    graph3 = power_graph(build_gn(3))
    r3 = is_planar(graph3)
    ok = r3.is_planar and check_embedding(graph3, r3.rotation)
    graph4 = power_graph(build_gn(4))
    r4 = is_planar(graph4)
    ok &= (
        not r4.is_planar
        and r4.kuratowski_kind == "K5"
        and verify_kuratowski(graph4, r4.kuratowski_edges) == "K5"
    )
    for n in (3, 4, 5):
        graph = power_graph(build_gn(n))
        ok &= not is_hamiltonian(graph).is_hamiltonian
        _, interior, center = boundary_interior_center(graph)
        ok &= interior == center == frozenset({0})
        ok &= bondy_chvatal_closure(graph).edges == graph.edges
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 5.0
    finish(
        "09-structure",
        ok,
        f"n=3 planar with verified embedding; n=4 non-planar with verified K5 "
        f"subdivision; non-Hamiltonian and interior=center={{0}} and closure "
        f"fixed for n=3,4,5 ({elapsed:.2f}s < 5s)",
    )


def _table_isomorphisms(g1, g2):
    """Every operation-preserving bijection g1 -> g2, in lexicographic order.

    A plain enumeration of all bijections read straight off the two
    Cayley tables, so that it checks ``gyro_isomorphic`` rather than
    repeating its pruned search.
    """
    n = g1.order
    t1, t2 = g1.table, g2.table
    return [
        p
        for p in permutations(range(n))
        if all(p[t1[a][b]] == t2[p[a]][p[b]] for a in range(n) for b in range(n))
    ]


def test_criterion_10_isomorphism_demonstrations():
    t0 = time.perf_counter()
    k1, n1 = bundled_gyrogroup("k1"), bundled_gyrogroup("n1")
    g8, m1 = bundled_gyrogroup("g8"), bundled_gyrogroup("m1")
    pk1, pn1 = power_graph(k1), power_graph(n1)
    pg8, pm1 = power_graph(g8), power_graph(m1)

    map_k1n1_ok = verify_isomorphism(pk1, pn1, (0, 1, 7, 6, 2, 3, 5, 4)).valid
    # The stated g8/m1 map validates between the two power graphs in the
    # direction consistent with the printed tables (m1 -> g8).
    map_g8m1_ok = verify_isomorphism(pm1, pg8, (0, 3, 7, 5, 4, 6, 1, 2)).valid
    search_ok = (
        find_isomorphism(pk1, pn1) is not None
        and find_isomorphism(pg8, pm1) is not None
    )
    noniso_k1n1 = gyro_isomorphic(k1, n1) is None
    # The paper also states that g8 and m1 are not isomorphic, but the
    # printed tables are: the search must return a witness, and the
    # witness must hold on the tables themselves.
    witness_g8m1 = gyro_isomorphic(g8, m1)
    w = witness_g8m1.map if witness_g8m1 is not None else None
    witness_ok = (
        w is not None
        and sorted(w) == list(range(8))
        and w[g8.identity] == m1.identity
        and all(
            w[g8.table[a][b]] == m1.table[w[a]][w[b]]
            for a in range(8)
            for b in range(8)
        )
    )
    brute_k1n1 = _table_isomorphisms(k1, n1)
    brute_g8m1 = _table_isomorphisms(g8, m1)
    brute_ok = not brute_k1n1 and bool(brute_g8m1) and w == brute_g8m1[0]
    verdicts = {e.claim_id: e.verdict for e in verify_example_tables()}
    flagged_ok = verdicts["gyro-noniso[g8,m1]"] == "mismatch"
    elapsed = time.perf_counter() - t0

    ok = (
        map_k1n1_ok
        and map_g8m1_ok
        and search_ok
        and noniso_k1n1
        and witness_ok
        and brute_ok
        and flagged_ok
        and elapsed < 5.0
    )
    finish(
        "10-isomorphism-demos",
        ok,
        f"maps valid: k1->n1={map_k1n1_ok}, g8/m1={map_g8m1_ok}; searches find "
        f"power-graph isomorphisms: {search_ok}; table non-isomorphism: "
        f"k1/n1={noniso_k1n1}; g8/m1 witness preserves all 64 products: "
        f"{witness_ok}; brute force over all 8! bijections finds "
        f"{len(brute_k1n1)} k1->n1 and {len(brute_g8m1)} g8->m1 maps, the "
        f"least being the witness: {brute_ok}; report flags "
        f"gyro-noniso[g8,m1] as mismatch: {flagged_ok}"
        + (
            f" [REFUTED: exhaustive search finds the operation-preserving "
            f"bijection {w} between the printed g8/m1 tables, "
            f"so the published non-isomorphism claim is false as stated]"
            if w is not None
            else ""
        )
        + f" ({elapsed:.2f}s < 5s)",
    )


def test_criterion_11_negative_control(tmp_path):
    t0 = time.perf_counter()
    rows = [list(r) for r in bundled_gyrogroup("k1").table]
    rows[6][6] = 0  # corrupt one Cayley entry
    path = tmp_path / "k1_corrupt.csv"
    path.write_text("\n".join(",".join(map(str, r)) for r in rows) + "\n")
    proc = subprocess.run(
        [sys.executable, "-m", "gyrograph.cli", "build", "--table", str(path)],
        capture_output=True,
        text=True,
    )
    from gyrograph import load_table

    report = verify_axioms(load_table(rows))
    elapsed = time.perf_counter() - t0
    ok = (
        proc.returncode != 0
        and "counterexample" in proc.stderr
        and not report.is_gyrogroup
        and len(report.counterexamples) > 0
        and elapsed < 1.0
    )
    finish(
        "11-negative-control",
        ok,
        f"corrupted Cayley entry -> axiom failure with counterexample, CLI "
        f"exit {proc.returncode} != 0 ({elapsed:.2f}s < 1s)",
    )
