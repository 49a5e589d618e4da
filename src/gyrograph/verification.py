"""Verification report: every closed-form invariant of the order-2^n
power-graph family checked against a direct computation on the
constructed object, plus the four bundled order-8 tables and their
isomorphism demonstrations.

Verdicts: "match" (computed value equals the closed form exactly, or
within the stated tolerance for real-valued claims), "mismatch",
"typo-corrected" (the computation confirms a corrected form of a
malformed printed formula), and "skipped" (an exponential-search bound
kept an entry from running; never counted as a failure).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from . import closed_forms as cf
from .distances import (
    bondy_chvatal_closure,
    boundary_interior_center,
    detour_matrix,
    distance_degree_sequence,
    distance_matrix,
    eccentricity_profile,
    hosoya_polynomial,
    reciprocal_status_hosoya,
)
from .graphs import classify_gn_shape, power_graph
from .gyrogroups import (
    build_gn,
    bundled_gyrogroup,
    gyration_symbol_grid,
    power_sequence,
    verify_axioms,
)
from .polynomials import IntPolynomial
from .resolving import METRIC_DIMENSION_ORDER_BOUND, resolving_polynomial
from .spectral import (
    adjacency_matrix,
    char_poly_exact,
    closed_form_charpoly_gn,
    pendant_split_matrices,
    verify_spectral_bounds,
)
from .structure import (
    check_embedding,
    find_isomorphism,
    gyro_isomorphic,
    is_hamiltonian,
    is_planar,
    verify_isomorphism,
    verify_kuratowski,
)

#: Default vertex-count cap for detour entries in the report and the CLI
#: (the library detour_matrix default is 64; this is stricter because the
#: longest-path search is exponential).
REPORT_DETOUR_BOUND = 16

# The printed cubic factor of the characteristic polynomial is malformed
# (a duplicated quadratic token and a sign slip); the corrected factor is
# fixed by the exact computation.
PRINTED_CUBIC = "x^3 + x^2(2 - 2^(n-1))x^2 - (1 - 2^n)x + 2^(2n-2) - 2^n"
CORRECTED_CUBIC = "x^3 + (2 - 2^(n-1))x^2 - (2^n - 1)x + 2^(2n-2) - 2^n"

# The printed determinant of the pendant-part matrix has degree
# 3*2^(n-1) on a 2^n-dimensional matrix; only its consequence (top
# eigenvalue sqrt(2^(n-1))) is sound.
PRINTED_PENDANT_DET = "(x^2 - 2^(n-1))^(2^(n-1)) * x^(2^(n-1))"
CORRECTED_PENDANT_DET = "(x^2 - 2^(n-1)) * x^(2^n - 2)"

# Published gyration-symbol layouts of the bundled tables ("I" = identity
# gyration, any other letter = the single nontrivial gyration).
EXPECTED_GYRATION_PATTERNS = {
    "k1": (
        "IIIIIIII",
        "IIIIIIII",
        "IIIIAAAA",
        "IIIIAAAA",
        "IIAAIIAA",
        "IIAAIIAA",
        "IIAAAAII",
        "IIAAAAII",
    ),
    "n1": (
        "IIIIIIII",
        "IIIIIIII",
        "IIIIDDDD",
        "IIIIDDDD",
        "IIDDIIDD",
        "IIDDIIDD",
        "IIDDDDII",
        "IIDDDDII",
    ),
    "g8": (
        "IIIIIIII",
        "IIIIAAAA",
        "IIIIAAAA",
        "IIIIIIII",
        "IAAIIAIA",
        "IAAIAIAI",
        "IAAIIAIA",
        "IAAIAIAI",
    ),
    "m1": (
        "IIIIIIII",
        "IIIIIIII",
        "IIIICCCC",
        "IIIICCCC",
        "IICCIICC",
        "IICCIICC",
        "IICCCCII",
        "IICCCCII",
    ),
}

# Published isomorphisms between the bundled power graphs.  The k1 -> n1
# map validates in the printed direction; the g8/m1 map validates as a
# map from the m1 power graph to the g8 power graph (the printed
# direction has it the other way around, which its own figures
# contradict).
K1_TO_N1_MAP = (0, 1, 7, 6, 2, 3, 5, 4)
M1_TO_G8_MAP = (0, 3, 7, 5, 4, 6, 1, 2)


@dataclass(frozen=True)
class ReportEntry:
    claim_id: str
    statement: str
    expected: str
    computed: str
    verdict: str  # "match" | "mismatch" | "typo-corrected" | "skipped"
    note: str = ""

    def to_dict(self) -> dict:
        return {
            "claim_id": self.claim_id,
            "statement": self.statement,
            "expected": self.expected,
            "computed": self.computed,
            "verdict": self.verdict,
            "note": self.note,
        }


@dataclass(frozen=True)
class VerificationReport:
    entries: tuple[ReportEntry, ...] = field(default=())

    @property
    def summary(self) -> dict[str, int]:
        counts = {"match": 0, "mismatch": 0, "typo-corrected": 0, "skipped": 0}
        for e in self.entries:
            counts[e.verdict] = counts.get(e.verdict, 0) + 1
        return counts

    @property
    def has_mismatch(self) -> bool:
        return any(e.verdict == "mismatch" for e in self.entries)

    def to_json(self) -> str:
        return json.dumps(
            {
                "entries": [e.to_dict() for e in self.entries],
                "summary": self.summary,
            },
            sort_keys=True,
            indent=2,
        )

    def render_text(self) -> str:
        """Human-readable table, derived from the JSON payload."""
        data = json.loads(self.to_json())
        width = max((len(e["claim_id"]) for e in data["entries"]), default=8)
        lines = []
        for e in data["entries"]:
            lines.append(
                f"[{e['verdict']:<14}] {e['claim_id']:<{width}}  {e['statement']}"
            )
            if e["verdict"] in ("mismatch", "typo-corrected", "skipped"):
                lines.append(f"{'':>18}expected: {e['expected']}")
                lines.append(f"{'':>18}computed: {e['computed']}")
            if e["note"]:
                lines.append(f"{'':>18}note: {e['note']}")
        s = data["summary"]
        lines.append(
            f"summary: {s['match']} match, {s['mismatch']} mismatch, "
            f"{s['typo-corrected']} typo-corrected, {s['skipped']} skipped"
        )
        return "\n".join(lines) + "\n"


def _entry(
    claim_id: str,
    statement: str,
    expected: object,
    computed: object,
    ok: bool,
    corrected: bool = False,
    note: str = "",
) -> ReportEntry:
    verdict = ("typo-corrected" if corrected else "match") if ok else "mismatch"
    return ReportEntry(
        claim_id=claim_id,
        statement=statement,
        expected=str(expected),
        computed=str(computed),
        verdict=verdict,
        note=note,
    )


def _skipped(claim_id: str, statement: str, why: str) -> ReportEntry:
    return ReportEntry(
        claim_id=claim_id,
        statement=statement,
        expected="",
        computed="",
        verdict="skipped",
        note=why,
    )


# ---------------------------------------------------------------------------
# Per-n entries
# ---------------------------------------------------------------------------


def verify_gn(
    n: int,
    tol: float = 1e-10,
    detour_bound: int = REPORT_DETOUR_BOUND,
) -> list[ReportEntry]:
    """All closed-form checks for one n."""
    g = build_gn(n)
    graph = power_graph(g)
    m = 2 ** (n - 1)
    big = 2**n
    tag = f"n={n}"
    entries: list[ReportEntry] = []

    # Axioms.
    report = verify_axioms(g)
    entries.append(
        _entry(
            f"gn-axioms[{tag}]",
            "the four-case modular table is a gyrogroup (exhaustive axiom check)",
            "all gyrogroup axioms hold",
            "hold" if report.is_gyrogroup else f"fail: {report.counterexamples[:1]}",
            report.is_gyrogroup,
        )
    )
    entries.append(
        _entry(
            f"gn-non-degenerate[{tag}]",
            "the table is not associative (a gyrogroup that is not a group)",
            "is_group = False",
            f"is_group = {report.is_group}",
            not report.is_group,
        )
    )

    # Power conventions and empirical power associativity.
    powers = [power_sequence(g, a, big) for a in g.elements()]
    left_right_agree = all(
        seq == power_sequence(g, a, big, right=True)
        for a, seq in zip(g.elements(), powers)
    )
    entries.append(
        _entry(
            f"power-conventions[{tag}]",
            "left- and right-iterated powers agree up to exponent 2^n",
            "agree",
            "agree" if left_right_agree else "disagree",
            left_right_agree,
        )
    )
    pa = True
    for seq in powers:
        for i in range(1, big):
            for j in range(1, big - i + 1):
                if g.op(seq[i - 1], seq[j - 1]) != seq[i + j - 1]:
                    pa = False
    entries.append(
        _entry(
            f"power-associativity[{tag}]",
            "a^i + a^j = a^(i+j) (recorded empirically, not assumed)",
            "holds",
            "holds" if pa else "fails",
            pa,
        )
    )

    # Power-graph shape.
    summary = classify_gn_shape(graph)
    shape_ok = (
        summary.matches_gn_shape
        and summary.hub == g.identity
        and summary.clique_part == frozenset(range(m))
        and summary.pendant_part == frozenset(range(m, big))
        and graph.edge_count == m * (m - 1) // 2 + m
    )
    entries.append(
        _entry(
            f"power-graph-shape[{tag}]",
            "power graph = complete graph on the cyclic half plus pendants at the identity",
            f"K_{m} on 0..{m - 1} with {m} pendants at 0",
            f"matches={summary.matches_gn_shape}, clique={sorted(summary.clique_part)}, "
            f"hub={summary.hub}, edges={graph.edge_count}",
            shape_ok,
        )
    )

    # Planarity and Hamiltonicity.
    pl = is_planar(graph)
    if n == 3:
        pl_ok = pl.is_planar and check_embedding(graph, pl.rotation)
        pl_computed = "planar, embedding self-check passed" if pl_ok else "failed"
        pl_expected = "planar (verified embedding)"
    else:
        pl_ok = (
            not pl.is_planar
            and pl.kuratowski_kind == "K5"
            and verify_kuratowski(graph, pl.kuratowski_edges) == "K5"
        )
        pl_computed = (
            f"non-planar, verified {pl.kuratowski_kind} subdivision"
            if not pl.is_planar
            else "planar"
        )
        pl_expected = "non-planar with a K5 subdivision inside the complete block"
    entries.append(
        _entry(
            f"planarity[{tag}]",
            "planar exactly when n = 3; non-planar beyond (complete block swallows K5)",
            pl_expected,
            pl_computed,
            pl_ok,
        )
    )

    ham = is_hamiltonian(graph)
    entries.append(
        _entry(
            f"hamiltonicity[{tag}]",
            "never Hamiltonian: the pendants and the identity induce a tree",
            "not Hamiltonian",
            f"not Hamiltonian ({ham.reason})" if not ham.is_hamiltonian else "Hamiltonian",
            not ham.is_hamiltonian,
        )
    )

    # Pair-distance counts and Hosoya-type polynomials.
    hosoya = hosoya_polynomial(graph)
    counts = tuple(hosoya.coefficient(i) for i in range(3))
    entries.append(
        _entry(
            f"pair-distance-counts[{tag}]",
            "pairs at distance 0,1,2 = (2^n, m(m+1)/2, 3m(m-1)/2)",
            cf.pair_distance_counts(n),
            counts,
            counts == cf.pair_distance_counts(n)
            and hosoya.degree == 2,
        )
    )
    entries.append(
        _entry(
            f"hosoya-polynomial[{tag}]",
            "Hosoya polynomial closed form",
            cf.hosoya_closed_form(n),
            hosoya,
            hosoya == cf.hosoya_closed_form(n),
        )
    )
    rsh = reciprocal_status_hosoya(graph)
    entries.append(
        _entry(
            f"rs-hosoya-polynomial[{tag}]",
            "reciprocal-status Hosoya polynomial closed form",
            cf.rs_hosoya_closed_form(n),
            rsh,
            rsh == cf.rs_hosoya_closed_form(n),
            note=(
                "the printed derivation swaps the labels of two edge types "
                "mid-proof; the stated polynomial (checked here) is consistent "
                "with the edge counts"
            ),
        )
    )

    # Metric dimension and resolving polynomial.
    if graph.n <= METRIC_DIMENSION_ORDER_BOUND:
        profile = resolving_polynomial(graph)
        seq4 = profile.resolving_sequence
        exp_seq = cf.resolving_sequence_closed_form(n)
        entries.append(
            _entry(
                f"metric-dimension[{tag}]",
                "metric dimension = 2^n - 3 (twin classes force the lower bound)",
                cf.metric_dimension_closed_form(n),
                profile.metric_dimension,
                profile.metric_dimension == cf.metric_dimension_closed_form(n),
            )
        )
        entries.append(
            _entry(
                f"resolving-polynomial[{tag}]",
                "resolving sequence = (m(m-1), m^2+m-1, 2m, 1)",
                exp_seq,
                seq4,
                seq4 == exp_seq
                and profile.polynomial == cf.resolving_polynomial_closed_form(n),
            )
        )
    else:
        why = f"order {graph.n} exceeds bound {METRIC_DIMENSION_ORDER_BOUND}"
        entries.append(
            _skipped(f"metric-dimension[{tag}]", "metric dimension = 2^n - 3", why)
        )
        entries.append(
            _skipped(
                f"resolving-polynomial[{tag}]", "resolving sequence closed form", why
            )
        )

    # Characteristic polynomial (corrected closed form) and spectral radius.
    charpoly = char_poly_exact(adjacency_matrix(graph))
    closed = closed_form_charpoly_gn(n)
    entries.append(
        _entry(
            f"charpoly[{tag}]",
            "characteristic polynomial = x^(m-1) (1+x)^(m-2) * cubic",
            closed,
            charpoly,
            charpoly == closed,
            corrected=True,
            note=(
                f"printed cubic is malformed: '{PRINTED_CUBIC}'; "
                f"corrected to '{CORRECTED_CUBIC}' and confirmed by the exact computation"
            ),
        )
    )
    _, e_part = pendant_split_matrices(n)
    e_charpoly = char_poly_exact(e_part)
    e_expected = IntPolynomial({2 * m: 1, 2 * m - 2: -m})
    entries.append(
        _entry(
            f"charpoly-pendant-part[{tag}]",
            "pendant-part matrix has eigenvalues +-sqrt(m) and 0 (rank 2)",
            e_expected,
            e_charpoly,
            e_charpoly == e_expected,
            corrected=True,
            note=(
                f"printed determinant '{PRINTED_PENDANT_DET}' has the wrong degree; "
                f"corrected to '{CORRECTED_PENDANT_DET}'; only the top eigenvalue "
                "sqrt(m) is used by the bound"
            ),
        )
    )
    spectral = verify_spectral_bounds(n, tol=tol)
    entries.append(
        _entry(
            f"spectral-bounds[{tag}]",
            "m - 1 < lambda_1 <= m - 1 + sqrt(m)",
            f"({spectral.bound_lower}, {spectral.bound_upper}]",
            f"{spectral.spectral_radius:.12f}",
            spectral.satisfied,
        )
    )

    # Detour distances.
    if graph.n <= detour_bound:
        dm = detour_matrix(graph)
        prof = eccentricity_profile(dm)
        ecc_e, ecc_p, ecc_h = cf.detour_eccentricities_closed_form(n)
        ecc_ok = (
            prof.eccentricities[g.identity] == ecc_e
            and all(prof.eccentricities[v] == ecc_p for v in range(1, m))
            and all(prof.eccentricities[v] == ecc_h for v in range(m, big))
        )
        rad_dia = (prof.radius, prof.diameter)
        entries.append(
            _entry(
                f"detour-eccentricity[{tag}]",
                "detour eccentricities (m-1 at the identity, m elsewhere); "
                "detour radius m-1, diameter m",
                (ecc_e, ecc_p, ecc_h, cf.detour_radius_diameter_closed_form(n)),
                (
                    prof.eccentricities[g.identity],
                    prof.eccentricities[1],
                    prof.eccentricities[m],
                    rad_dia,
                ),
                ecc_ok and rad_dia == cf.detour_radius_diameter_closed_form(n),
            )
        )
        ddsd = distance_degree_sequence(dm)
        entries.append(
            _entry(
                f"dds-detour[{tag}]",
                "detour distance degree sequence summary",
                sorted(cf.dds_detour_summary_closed_form(n).items()),
                sorted(ddsd.summary_dict().items()),
                ddsd.summary_dict() == cf.dds_detour_summary_closed_form(n),
            )
        )
    else:
        why = f"order {graph.n} exceeds detour bound {detour_bound}"
        entries.append(
            _skipped(f"detour-eccentricity[{tag}]", "detour radius/diameter", why)
        )
        entries.append(
            _skipped(f"dds-detour[{tag}]", "detour distance degree sequence", why)
        )

    dds = distance_degree_sequence(distance_matrix(graph))
    entries.append(
        _entry(
            f"dds[{tag}]",
            "distance degree sequence summary",
            sorted(cf.dds_summary_closed_form(n).items()),
            sorted(dds.summary_dict().items()),
            dds.summary_dict() == cf.dds_summary_closed_form(n),
        )
    )

    # Interior, center, closure.
    _, interior, center = boundary_interior_center(graph)
    entries.append(
        _entry(
            f"interior-center[{tag}]",
            "interior = center = {identity}",
            {g.identity},
            f"interior={sorted(interior)}, center={sorted(center)}",
            interior == center == frozenset({g.identity}),
        )
    )
    closure = bondy_chvatal_closure(graph)
    entries.append(
        _entry(
            f"closure-fixed-point[{tag}]",
            "degree-sum closure adds no edges (all non-adjacent sums < 2^n)",
            "closure = graph",
            "fixed point" if closure.edges == graph.edges else "edges added",
            closure.edges == graph.edges,
        )
    )
    return entries


# ---------------------------------------------------------------------------
# Bundled-table entries
# ---------------------------------------------------------------------------


def verify_example_tables() -> list[ReportEntry]:
    """Checks for the four bundled order-8 tables: axioms, gyration symbol
    layouts, the explicit power-graph isomorphisms, and the exhaustive
    non-isomorphism of the underlying tables."""
    tables = {name: bundled_gyrogroup(name) for name in ("k1", "n1", "g8", "m1")}
    entries: list[ReportEntry] = []

    for name, g in tables.items():
        report = verify_axioms(g)
        want_gc = name in ("g8", "m1")
        ok = report.is_gyrogroup and (report.gyrocommutative if want_gc else True)
        expected = "gyrogroup axioms hold" + (
            ", gyro-commutative" if want_gc else ""
        )
        entries.append(
            _entry(
                f"table-axioms[{name}]",
                f"bundled table {name} is a gyrogroup",
                expected,
                f"is_gyrogroup={report.is_gyrogroup}, "
                f"gyrocommutative={report.gyrocommutative}"
                + (
                    f", counterexamples={list(report.counterexamples[:2])}"
                    if not report.is_gyrogroup
                    else ""
                ),
                ok,
            )
        )
        if not report.is_gyrogroup:
            # Gyrations are not well defined on a broken table.
            entries.append(
                _entry(
                    f"gyration-pattern[{name}]",
                    f"computed gyrations of {name} split into identity + one "
                    "permutation, laid out as published",
                    "".join(EXPECTED_GYRATION_PATTERNS[name]),
                    "undefined (axiom check failed)",
                    False,
                )
            )
            continue
        grid, legend = gyration_symbol_grid(g)
        expected_grid = EXPECTED_GYRATION_PATTERNS[name]
        # Compare layout up to the name of the nontrivial symbol.
        normalized = tuple(row.replace("X1", "?").replace("X", "?") for row in grid)
        target = tuple(
            "".join("I" if ch == "I" else "?" for ch in row) for row in expected_grid
        )
        ok = len(legend) == 2 and normalized == target
        entries.append(
            _entry(
                f"gyration-pattern[{name}]",
                f"computed gyrations of {name} split into identity + one "
                "permutation, laid out as published",
                "".join(expected_grid),
                "".join(grid),
                ok,
                note="gyrations computed from the table; the published symbol "
                "is never defined, so only the layout is compared",
            )
        )

    pk1, pn1 = power_graph(tables["k1"]), power_graph(tables["n1"])
    pg8, pm1 = power_graph(tables["g8"]), power_graph(tables["m1"])

    w1 = verify_isomorphism(pk1, pn1, K1_TO_N1_MAP)
    search1 = find_isomorphism(pk1, pn1)
    entries.append(
        _entry(
            "power-graph-iso[k1,n1]",
            "the stated vertex map is an isomorphism of the k1 and n1 power graphs",
            "valid (and an independent search also finds one)",
            f"map valid={w1.valid}, search found={search1 is not None}",
            w1.valid and search1 is not None,
        )
    )
    w2 = verify_isomorphism(pm1, pg8, M1_TO_G8_MAP)
    search2 = find_isomorphism(pg8, pm1)
    entries.append(
        _entry(
            "power-graph-iso[g8,m1]",
            "the stated vertex map is an isomorphism between the g8 and m1 power graphs",
            "valid (and an independent search also finds one)",
            f"map valid={w2.valid}, search found={search2 is not None}",
            w2.valid and search2 is not None,
            note=(
                "the map validates as m1 -> g8; the printed direction "
                "(g8 -> m1) contradicts the printed tables, whose power "
                "graphs it maps the other way"
            ),
        )
    )
    none1 = gyro_isomorphic(tables["k1"], tables["n1"]) is None
    entries.append(
        _entry(
            "gyro-noniso[k1,n1]",
            "k1 and n1 are not isomorphic as tables (exhaustive bijection search)",
            "no operation-preserving bijection",
            "none found" if none1 else "witness found",
            none1,
        )
    )
    witness2 = gyro_isomorphic(tables["g8"], tables["m1"])
    entries.append(
        _entry(
            "gyro-noniso[g8,m1]",
            "g8 and m1 are not isomorphic as tables (exhaustive bijection search)",
            "no operation-preserving bijection (published claim)",
            "none found"
            if witness2 is None
            else f"witness found: {witness2.map}",
            witness2 is None,
            note=(
                "the exhaustive search over all bijections refutes the "
                "published non-isomorphism claim for the tables as printed: "
                "operation-preserving bijections exist"
            ),
        )
    )
    return entries


def run_verification(
    ns: list[int],
    include_examples: bool = True,
    tol: float = 1e-10,
    detour_bound: int = REPORT_DETOUR_BOUND,
) -> VerificationReport:
    entries: list[ReportEntry] = []
    for n in ns:
        entries.extend(verify_gn(n, tol=tol, detour_bound=detour_bound))
    if include_examples:
        entries.extend(verify_example_tables())
    return VerificationReport(entries=tuple(entries))
