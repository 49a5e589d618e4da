"""Verification report: every closed-form invariant of the order-2^n
power-graph family checked against a direct computation on the
constructed object, plus the four bundled order-8 tables and their
isomorphism demonstrations.

Verdicts: "match" (computed value equals the closed form exactly, or,
for the real-valued spectral radius, lies in the stated interval),
"mismatch", "typo-corrected" (the computation confirms a corrected
form of a malformed printed formula), and "skipped" (a library search
refused the input with BoundExceededError; the entry carries the
refusal and is never counted as a failure).
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from . import closed_forms as cf
from .axioms import gyration_symbol_grid, verify_axioms
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
from .errors import BoundExceededError
from .graphs import Graph, _power_graph, classify_gn_shape, power_graph
from .gyrogroups import GyroGroup, build_gn, bundled_gyrogroup, powers
from .isomorphism import find_isomorphism, gyro_isomorphic, verify_isomorphism
from .polynomials import IntPolynomial
from .resolving import resolving_polynomial
from .spectral import (
    char_poly_exact,
    closed_form_charpoly_gn,
    verify_spectral_bounds,
)
from .structure import (
    check_embedding,
    is_hamiltonian,
    is_planar,
    verify_kuratowski,
)

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


class ReportEntry(NamedTuple):
    claim_id: str
    statement: str
    expected: str
    computed: str
    verdict: str  # "match" | "mismatch" | "typo-corrected" | "skipped"
    note: str = ""

    def to_dict(self) -> dict:
        return self._asdict()


class VerificationReport(NamedTuple):
    entries: tuple[ReportEntry, ...] = ()

    @property
    def summary(self) -> dict[str, int]:
        counts = {"match": 0, "mismatch": 0, "typo-corrected": 0, "skipped": 0}
        for e in self.entries:
            counts[e.verdict] = counts.get(e.verdict, 0) + 1
        return counts

    @property
    def has_mismatch(self) -> bool:
        return any(e.verdict == "mismatch" for e in self.entries)

    def to_dict(self) -> dict:
        return {
            "entries": [e.to_dict() for e in self.entries],
            "summary": self.summary,
        }

    def render_text(self) -> str:
        """Human-readable table of the entries and their summary."""
        width = max((len(e.claim_id) for e in self.entries), default=8)
        lines = []
        for e in self.entries:
            lines.append(f"[{e.verdict:<14}] {e.claim_id:<{width}}  {e.statement}")
            if e.verdict in ("mismatch", "typo-corrected", "skipped"):
                lines.append(f"{'':>18}expected: {e.expected}")
                lines.append(f"{'':>18}computed: {e.computed}")
            if e.note:
                lines.append(f"{'':>18}note: {e.note}")
        s = self.summary
        lines.append(
            f"summary: {s['match']} match, {s['mismatch']} mismatch, "
            f"{s['typo-corrected']} typo-corrected, {s['skipped']} skipped"
        )
        return "\n".join(lines) + "\n"


def _entry(
    entries: list[ReportEntry],
    claim_id: str,
    statement: str,
    expected: object,
    computed: object,
    ok: bool,
    corrected: bool = False,
    note: str = "",
) -> None:
    """Record one checked claim in entries, with its verdict."""
    verdict = ("typo-corrected" if corrected else "match") if ok else "mismatch"
    entries.append(ReportEntry(claim_id, statement, str(expected), str(computed), verdict, note))


def _bounded(entries: list[ReportEntry], claims: list[tuple[str, str]], search, *args):
    """search(*args), or None after recording each (claim_id, statement)
    as skipped with the library's refusal text."""
    try:
        return search(*args)
    except BoundExceededError as exc:
        entries += [ReportEntry(c, s, "", "", "skipped", str(exc)) for c, s in claims]
        return None


# ---------------------------------------------------------------------------
# Per-n entries
# ---------------------------------------------------------------------------


def _power_associative(g: GyroGroup, walks: list[list[int]]) -> bool:
    """True iff a^i + a^j = a^(i+j) for each a and all i, j >= 1 with
    i + j <= N, given each walk a^1..a^L = powers(g, a).  Later powers repeat
    these, so only i, j <= L are read, the walk extended to a^min(2L, N).
    When 2L <= N those are all the pairs, and then each power b = a^k has
    b^s = a^(ks) and passes too: it is not read again."""
    t, big = g.table, g.order
    checked: set[int] = set()
    for a, walk in enumerate(walks):
        if a in checked:
            continue
        cycle = len(walk)
        seq = list(walk)
        while len(seq) < min(2 * cycle, big):
            seq.append(t[a][seq[-1]])
        for i, x in enumerate(walk[: big - 1], 1):  # x = a^i
            if any(t[x][y] != z for y, z in zip(walk, seq[i:])):
                return False
        if 2 * cycle <= big:
            checked.update(walk)
    return True


def verify_gn(n: int) -> list[ReportEntry]:
    """All closed-form checks for one n."""
    g = build_gn(n)
    walks = [powers(g, a) for a in g.elements()]  # for the graph and the power entries
    graph = _power_graph(g, walks)
    m = 2 ** (n - 1)
    big = 2**n
    tag = f"n={n}"
    entries: list[ReportEntry] = []

    # Axioms.
    report = verify_axioms(g)
    _entry(
        entries,
        f"gn-axioms[{tag}]",
        "the four-case modular table is a gyrogroup (exhaustive axiom check)",
        "all gyrogroup axioms hold",
        "hold" if report.is_gyrogroup else f"fail: {report.counterexamples[:1]}",
        report.is_gyrogroup,
    )
    _entry(
        entries,
        f"gn-non-degenerate[{tag}]",
        "the table is not associative (a gyrogroup that is not a group)",
        "is_group = False",
        f"is_group = {report.is_group}",
        not report.is_group,
    )

    # Power conventions and empirical power associativity.  Right-iterated
    # powers (a^(m+1) = a^m + a) agree with the left-iterated ones up to 2^n
    # iff a + x = x + a for x = a^1..a^min(|<a>|, 2^n - 1), by induction on m.
    t = g.table
    left_right_agree = all(
        t[a][x] == t[x][a] for a, walk in enumerate(walks) for x in walk[: g.order - 1]
    )
    _entry(
        entries,
        f"power-conventions[{tag}]",
        "left- and right-iterated powers agree up to exponent 2^n",
        "agree",
        "agree" if left_right_agree else "disagree",
        left_right_agree,
    )
    pa = _power_associative(g, walks)
    _entry(
        entries,
        f"power-associativity[{tag}]",
        "a^i + a^j = a^(i+j) (recorded empirically, not assumed)",
        "holds",
        "holds" if pa else "fails",
        pa,
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
    _entry(
        entries,
        f"power-graph-shape[{tag}]",
        "power graph = complete graph on the cyclic half plus pendants at the identity",
        f"K_{m} on 0..{m - 1} with {m} pendants at 0",
        f"matches={summary.matches_gn_shape}, clique={sorted(summary.clique_part)}, "
        f"hub={summary.hub}, edges={graph.edge_count}",
        shape_ok,
    )

    # Planarity and Hamiltonicity.
    pl_claim = (
        f"planarity[{tag}]",
        "planar exactly when n = 3; non-planar beyond (complete block swallows K5)",
    )
    pl = _bounded(entries, [pl_claim], is_planar, graph)
    if pl is not None:
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
        _entry(entries, *pl_claim, pl_expected, pl_computed, pl_ok)

    ham_claim = (
        f"hamiltonicity[{tag}]",
        "never Hamiltonian: the pendants and the identity induce a tree",
    )
    ham = _bounded(entries, [ham_claim], is_hamiltonian, graph)
    if ham is not None:
        _entry(
            entries,
            *ham_claim,
            "not Hamiltonian",
            f"not Hamiltonian ({ham.reason})" if not ham.is_hamiltonian else "Hamiltonian",
            not ham.is_hamiltonian,
        )

    # Pair-distance counts and Hosoya-type polynomials, off the one BFS matrix.
    shortest = distance_matrix(graph)
    hosoya = hosoya_polynomial(shortest)
    counts = tuple(hosoya.coefficient(i) for i in range(3))
    _entry(
        entries,
        f"pair-distance-counts[{tag}]",
        "pairs at distance 0,1,2 = (2^n, m(m+1)/2, 3m(m-1)/2)",
        cf.pair_distance_counts(n),
        counts,
        counts == cf.pair_distance_counts(n)
        and hosoya.degree == 2,
    )
    _entry(
        entries,
        f"hosoya-polynomial[{tag}]",
        "Hosoya polynomial closed form",
        cf.hosoya_closed_form(n),
        hosoya,
        hosoya == cf.hosoya_closed_form(n),
    )
    rsh = reciprocal_status_hosoya(shortest)
    _entry(
        entries,
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

    # Metric dimension and resolving polynomial.
    md_claim = (
        f"metric-dimension[{tag}]",
        "metric dimension = 2^n - 3 (twin classes force the lower bound)",
    )
    rp_claim = (
        f"resolving-polynomial[{tag}]",
        "resolving sequence = (m(m-1), m^2+m-1, 2m, 1)",
    )
    profile = _bounded(entries, [md_claim, rp_claim], resolving_polynomial, shortest)
    if profile is not None:
        seq4 = profile.resolving_sequence
        exp_seq = cf.resolving_sequence_closed_form(n)
        _entry(
            entries,
            *md_claim,
            cf.metric_dimension_closed_form(n),
            profile.metric_dimension,
            profile.metric_dimension == cf.metric_dimension_closed_form(n),
        )
        _entry(
            entries,
            *rp_claim,
            exp_seq,
            seq4,
            seq4 == exp_seq
            and profile.polynomial == cf.resolving_polynomial_closed_form(n),
        )

    # Characteristic polynomial (corrected closed form) and spectral radius.
    charpoly = char_poly_exact(graph)
    spectral = verify_spectral_bounds(graph)
    closed = closed_form_charpoly_gn(n)
    _entry(
        entries,
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
    # The pendant part E of the split A = D + E: the hub's pendant edges.
    e_part = Graph.from_edges(big, ((summary.hub, v) for v in summary.pendant_part))
    e_charpoly = char_poly_exact(e_part)
    e_expected = IntPolynomial({2 * m: 1, 2 * m - 2: -m})
    _entry(
        entries,
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
    _entry(
        entries,
        f"spectral-bounds[{tag}]",
        "m - 1 < lambda_1 <= m - 1 + sqrt(m)",
        f"({spectral.bound_lower}, {spectral.bound_upper}]",
        f"{spectral.spectral_radius:.12f}",
        spectral.satisfied,
    )

    # Detour distances.
    ecc_claim = (
        f"detour-eccentricity[{tag}]",
        "detour eccentricities (m-1 at the identity, m elsewhere); "
        "detour radius m-1, diameter m",
    )
    dds_claim = (f"dds-detour[{tag}]", "detour distance degree sequence summary")
    detour = _bounded(entries, [ecc_claim, dds_claim], detour_matrix, graph)
    if detour is not None:
        prof = eccentricity_profile(detour)
        ecc_e, ecc_p, ecc_h = cf.detour_eccentricities_closed_form(n)
        ecc_ok = (
            prof.eccentricities[g.identity] == ecc_e
            and all(prof.eccentricities[v] == ecc_p for v in range(1, m))
            and all(prof.eccentricities[v] == ecc_h for v in range(m, big))
        )
        rad_dia = (prof.radius, prof.diameter)
        _entry(
            entries,
            *ecc_claim,
            (ecc_e, ecc_p, ecc_h, cf.detour_radius_diameter_closed_form(n)),
            (
                prof.eccentricities[g.identity],
                prof.eccentricities[1],
                prof.eccentricities[m],
                rad_dia,
            ),
            ecc_ok and rad_dia == cf.detour_radius_diameter_closed_form(n),
        )
        ddsd = distance_degree_sequence(detour)
        _entry(
            entries,
            *dds_claim,
            sorted(cf.dds_detour_summary_closed_form(n).items()),
            sorted(ddsd.summary_dict().items()),
            ddsd.summary_dict() == cf.dds_detour_summary_closed_form(n),
        )

    dds = distance_degree_sequence(shortest)
    _entry(
        entries,
        f"dds[{tag}]",
        "distance degree sequence summary",
        sorted(cf.dds_summary_closed_form(n).items()),
        sorted(dds.summary_dict().items()),
        dds.summary_dict() == cf.dds_summary_closed_form(n),
    )

    # Interior, center, closure.
    _, interior, center = boundary_interior_center(shortest)
    _entry(
        entries,
        f"interior-center[{tag}]",
        "interior = center = {identity}",
        {g.identity},
        f"interior={sorted(interior)}, center={sorted(center)}",
        interior == center == frozenset({g.identity}),
    )
    fixed = bondy_chvatal_closure(graph) is graph
    _entry(
        entries,
        f"closure-fixed-point[{tag}]",
        "degree-sum closure adds no edges (all non-adjacent sums < 2^n)",
        "closure = graph",
        "fixed point" if fixed else "edges added",
        fixed,
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
        _entry(
            entries,
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
        if not report.is_gyrogroup:
            # Gyrations are not well defined on a broken table.
            _entry(
                entries,
                f"gyration-pattern[{name}]",
                f"computed gyrations of {name} split into identity + one "
                "permutation, laid out as published",
                "".join(EXPECTED_GYRATION_PATTERNS[name]),
                "undefined (axiom check failed)",
                False,
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
        _entry(
            entries,
            f"gyration-pattern[{name}]",
            f"computed gyrations of {name} split into identity + one "
            "permutation, laid out as published",
            "".join(expected_grid),
            "".join(grid),
            ok,
            note="gyrations computed from the table; the published symbol "
            "is never defined, so only the layout is compared",
        )

    pk1, pn1 = power_graph(tables["k1"]), power_graph(tables["n1"])
    pg8, pm1 = power_graph(tables["g8"]), power_graph(tables["m1"])

    w1 = verify_isomorphism(pk1, pn1, K1_TO_N1_MAP)
    search1 = find_isomorphism(pk1, pn1)
    _entry(
        entries,
        "power-graph-iso[k1,n1]",
        "the stated vertex map is an isomorphism of the k1 and n1 power graphs",
        "valid (and an independent search also finds one)",
        f"map valid={w1.valid}, search found={search1 is not None}",
        w1.valid and search1 is not None,
    )
    w2 = verify_isomorphism(pm1, pg8, M1_TO_G8_MAP)
    search2 = find_isomorphism(pg8, pm1)
    _entry(
        entries,
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
    none1 = gyro_isomorphic(tables["k1"], tables["n1"]) is None
    _entry(
        entries,
        "gyro-noniso[k1,n1]",
        "k1 and n1 are not isomorphic as tables (exhaustive bijection search)",
        "no operation-preserving bijection",
        "none found" if none1 else "witness found",
        none1,
    )
    witness2 = gyro_isomorphic(tables["g8"], tables["m1"])
    _entry(
        entries,
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
    return entries


def run_verification(ns: Iterable[int]) -> VerificationReport:
    """The entries of verify_gn for each n, then those of the bundled tables."""
    entries: list[ReportEntry] = []
    for n in ns:
        entries.extend(verify_gn(n))
    entries.extend(verify_example_tables())
    return VerificationReport(entries=tuple(entries))
