"""Exact characteristic polynomials, spectral radius, sandwich bounds."""

import math
import random
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gyrograph import (
    Graph,
    IntMatrix,
    IntPolynomial,
    Permutation,
    adjacency_matrix,
    build_gn,
    char_poly_exact,
    closed_form_charpoly_gn,
    cyclic_group,
    graphs,
    pendant_split_graphs,
    polynomials,
    power_graph,
    relabel,
    spectral_radius,
    verify_spectral_bounds,
)
from gyrograph.errors import BoundExceededError
from test_verification import count_calls

GN3_CHARPOLY = IntPolynomial({8: 1, 6: -10, 5: -8, 4: 9, 3: 8})


@pytest.fixture(scope="module")
def gn3_adj():
    return adjacency_matrix(power_graph(build_gn(3)))


def test_adjacency_matrix_k2():
    assert adjacency_matrix(Graph.complete(2)).rows == ((0, 1), (1, 0))


def test_adjacency_matrix_k1():
    assert adjacency_matrix(Graph.complete(1)).rows == ((0,),)


def test_adjacency_matrix_gn3_block_form(gn3_adj):
    # Clique block J - I on the first half, pendant block with only the
    # first row/column populated, zero block on the second half.
    for i in range(4):
        for j in range(4):
            assert gn3_adj[i, j] == (1 if i != j else 0)
            assert gn3_adj[i + 4, j + 4] == 0
            assert gn3_adj[i, j + 4] == (1 if i == 0 else 0)


# ---------------------------------------------------------------------------
# Exact characteristic polynomial
# ---------------------------------------------------------------------------


def test_charpoly_k2():
    assert char_poly_exact(adjacency_matrix(Graph.complete(2))) == IntPolynomial(
        {2: 1, 0: -1}
    )


def test_charpoly_k4_factored_form():
    # (x - 3)(x + 1)^3
    expected = IntPolynomial({1: 1, 0: -3}) * IntPolynomial({1: 1, 0: 1}) ** 3
    assert char_poly_exact(adjacency_matrix(Graph.complete(4))) == expected


def test_charpoly_gn3_factored_form(gn3_adj):
    cubic = IntPolynomial({3: 1, 2: -2, 1: -7, 0: 8})
    expected = IntPolynomial.x_power(3) * IntPolynomial({0: 1, 1: 1}) ** 2 * cubic
    assert char_poly_exact(gn3_adj) == expected == GN3_CHARPOLY


def integer_determinant(matrix: IntMatrix) -> int:
    """Exact determinant by Bareiss fraction-free elimination."""
    n = matrix.n
    if n == 0:
        return 1
    m = [list(row) for row in matrix.rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if m[i][k] != 0), -1)
            if pivot < 0:
                return 0
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = m[i][j] * m[k][k] - m[i][k] * m[k][j]
                q, r = divmod(num, prev)
                if r:
                    raise AssertionError("Bareiss division was inexact")
                m[i][j] = q
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def test_charpoly_against_bareiss_determinant(gn3_adj):
    # Independent oracle: evaluate det(x0*I - A) by fraction-free
    # elimination at small integers.
    p = char_poly_exact(gn3_adj)
    n = gn3_adj.n
    for x0 in range(-2, 3):
        rows = [
            [x0 * (i == j) - gn3_adj[i, j] for j in range(n)] for i in range(n)
        ]
        assert integer_determinant(IntMatrix(rows)) == p(x0)


def test_charpoly_against_numpy_eigenvalues(gn3_adj):
    roots = np.sort(np.linalg.eigvalsh(np.array(gn3_adj.rows, dtype=float)))
    p = char_poly_exact(gn3_adj)
    coeffs = [p.coefficient(k) for k in range(p.degree, -1, -1)]
    nproots = np.sort(np.roots(coeffs).real)
    assert np.allclose(roots, nproots, atol=1e-8)


def test_charpoly_trace_and_edge_coefficients():
    for graph in (power_graph(build_gn(3)), Graph.complete(5), Graph.cycle(6)):
        p = char_poly_exact(adjacency_matrix(graph))
        n = graph.n
        assert p.coefficient(n) == 1
        assert p.coefficient(n - 1) == 0  # zero trace
        assert p.coefficient(n - 2) == -graph.edge_count


def test_newton_identity_sum_of_squared_roots():
    # p2 = c1^2 - 2 c2 must equal 2|E| for adjacency matrices.
    for n in (3, 4):
        graph = power_graph(build_gn(n))
        p = char_poly_exact(adjacency_matrix(graph))
        c1 = p.coefficient(graph.n - 1)
        c2 = p.coefficient(graph.n - 2)
        assert c1 * c1 - 2 * c2 == 2 * graph.edge_count


@pytest.mark.parametrize("n", [3, 4, 5])
def test_closed_form_equals_exact_charpoly(n):
    graph = power_graph(build_gn(n))
    assert closed_form_charpoly_gn(n) == char_poly_exact(adjacency_matrix(graph))


def test_closed_form_degree_is_order():
    for n in (3, 4, 5, 6):
        assert closed_form_charpoly_gn(n).degree == 2**n


def test_closed_form_gn4_factored():
    cubic = IntPolynomial({3: 1, 2: -6, 1: -15, 0: 48})
    expected = IntPolynomial.x_power(7) * IntPolynomial({0: 1, 1: 1}) ** 6 * cubic
    assert closed_form_charpoly_gn(4) == expected


@pytest.mark.parametrize("n", range(3, 10))
def test_closed_form_equals_the_product_of_powers(n):
    # The binomial coefficients of (1 + x)^(m - 2) against repeated squaring.
    m = 2 ** (n - 1)
    cubic = IntPolynomial({3: 1, 2: 2 - m, 1: -(2**n - 1), 0: m * m - 2**n})
    expected = IntPolynomial.x_power(m - 1) * IntPolynomial({0: 1, 1: 1}) ** (m - 2) * cubic
    assert closed_form_charpoly_gn(n) == expected


def test_charpoly_dimension_bound():
    # The bound applies to the twin quotient: a twinless path keeps all 65
    # vertices, while 65 isolated vertices collapse to a 1 x 1 quotient.
    with pytest.raises(BoundExceededError, match="dimension 65 exceeds 64"):
        char_poly_exact(adjacency_matrix(Graph.path(65)))
    assert char_poly_exact(IntMatrix.zeros(65)) == IntPolynomial.x_power(65)


# ---------------------------------------------------------------------------
# char_poly_exact against the plain recurrence on the whole matrix
# ---------------------------------------------------------------------------


def reference_char_poly(matrix):
    """Faddeev-LeVerrier on the whole matrix, with exact divisions."""
    n = matrix.n
    if n == 0:
        return IntPolynomial.constant(1)
    a = [list(row) for row in matrix.rows]
    coeffs = {n: 1}
    m = [row[:] for row in a]  # M_1 = A
    c = -sum(m[i][i] for i in range(n))
    coeffs[n - 1] = c
    for k in range(2, n + 1):
        # M_k = A (M_{k-1} + c_{k-1} I)
        for i in range(n):
            m[i][i] += c
        mt = [[m[i][j] for i in range(n)] for j in range(n)]
        m = [[sum(x * y for x, y in zip(row, col)) for col in mt] for row in a]
        q, r = divmod(-sum(m[i][i] for i in range(n)), k)
        assert r == 0, "trace recurrence divided inexactly"
        c = q
        coeffs[n - k] = c
    return IntPolynomial(coeffs)


@st.composite
def twinned_graphs(draw):
    """A graph on at most 10 vertices: a random edge subset (often
    disconnected, with isolated vertices), or a random graph on 2-5
    vertices with each vertex blown up into a clique or an independent set
    of 1-3 twins."""
    if draw(st.booleans()):
        n = draw(st.integers(0, 10))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        return Graph.from_edges(n, draw(st.sets(st.sampled_from(pairs))) if pairs else ())
    k = draw(st.integers(2, 5))
    base = draw(st.sets(st.sampled_from([(u, v) for u in range(k) for v in range(u + 1, k)])))
    sizes = [draw(st.integers(1, 3 if k > 3 else 2)) for _ in range(k)]
    cliques = [draw(st.booleans()) for _ in range(k)]
    start = [sum(sizes[:i]) for i in range(k)]
    blob = [range(start[i], start[i] + sizes[i]) for i in range(k)]
    edges = {(u, v) for i in range(k) if cliques[i] for u in blob[i] for v in blob[i] if u < v}
    edges |= {(u, v) for i, j in base for u in blob[i] for v in blob[j]}
    perm = draw(st.permutations(range(sum(sizes))))
    return Graph.from_edges(sum(sizes), {(perm[u], perm[v]) for u, v in edges})


def assert_equitable_quotient(graph):
    """The graph's twin quotient checked from scratch: every vertex of
    part i has B[i][j] neighbors in part j, and deg f + dim B = n."""
    quotient, factor = graph.twin_quotient
    parts = [part for part, _ in graph.twin_parts]
    assert quotient.n == len(parts)
    for i, part in enumerate(parts):
        for v in part:
            for j, other in enumerate(parts):
                assert quotient[i, j] == sum(graph.has_edge(v, w) for w in other)
    assert factor.degree + quotient.n == graph.n


@settings(max_examples=300, deadline=None)
@given(twinned_graphs())
def test_charpoly_matches_reference_on_random_graphs(graph):
    a = adjacency_matrix(graph)
    assert char_poly_exact(a) == reference_char_poly(a)
    assert char_poly_exact(graph) == reference_char_poly(a)
    assert_equitable_quotient(graph)


@st.composite
def general_matrices(draw):
    """Square integer matrices of dimension <= 6 that are mostly not
    adjacency matrices: arbitrary entries, 0/1 ones (rarely symmetric), or
    symmetric 0/1 ones with a loop."""
    n = draw(st.integers(1, 6))
    kind = draw(st.sampled_from(["any", "directed", "loop"]))
    cell = st.integers(-3, 3) if kind == "any" else st.integers(0, 1)
    rows = [[draw(cell) for _ in range(n)] for _ in range(n)]
    if kind == "loop":
        rows = [[rows[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
        i = draw(st.integers(0, n - 1))
        rows[i][i] = 1
    return IntMatrix(rows)


@settings(max_examples=300, deadline=None)
@given(general_matrices())
def test_charpoly_matches_reference_on_general_matrices(matrix):
    is_adjacency = (
        matrix.is_symmetric()
        and all(v in (0, 1) for row in matrix.rows for v in row)
        and not any(matrix[i, i] for i in range(matrix.n))
    )
    if not is_adjacency:
        assert matrix.twin_quotient == (matrix, IntPolynomial.constant(1))
        assert matrix.twin_quotient[0] is matrix
    assert char_poly_exact(matrix) == reference_char_poly(matrix)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_charpoly_on_relabelled_gn(n):
    g = build_gn(n)
    perm = list(g.elements())
    random.Random(n).shuffle(perm)
    a = adjacency_matrix(power_graph(relabel(g, Permutation(tuple(perm)))))
    p = char_poly_exact(a)
    assert p == closed_form_charpoly_gn(n)
    if n <= 5:
        assert p == reference_char_poly(a)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_twin_quotient_of_gn_is_the_cubic(n):
    m = 2 ** (n - 1)
    graph = power_graph(build_gn(n))
    cubic = IntPolynomial({3: 1, 2: 2 - m, 1: -(2**n - 1), 0: m * m - 2**n})
    for a in (graph, adjacency_matrix(graph)):
        quotient, factor = a.twin_quotient
        assert quotient.rows == ((0, m - 1, m), (1, m - 2, 0), (1, 0, 0))
        assert reference_char_poly(quotient) == cubic
        assert factor == IntPolynomial.x_power(m - 1) * IntPolynomial({0: 1, 1: 1}) ** (m - 2)
    assert_equitable_quotient(graph)


def test_bareiss_determinant_basics():
    assert integer_determinant(IntMatrix([[2, 0], [0, 3]])) == 6
    assert integer_determinant(IntMatrix([[0, 1], [1, 0]])) == -1
    assert integer_determinant(IntMatrix([[1, 2], [2, 4]])) == 0


# ---------------------------------------------------------------------------
# Spectral radius
# ---------------------------------------------------------------------------


def test_spectral_radius_k4():
    assert spectral_radius(adjacency_matrix(Graph.complete(4))) == pytest.approx(
        3.0, abs=1e-10
    )


def test_spectral_radius_gn3_matches_cubic_root(gn3_adj):
    # Largest root of x^3 - 2x^2 - 7x + 8 = (x - 1)(x^2 - x - 8).
    lam = spectral_radius(gn3_adj)
    assert lam == pytest.approx((1 + math.sqrt(33)) / 2, abs=1e-9)


def test_spectral_radius_zero_matrix():
    assert spectral_radius(IntMatrix.zeros(4)) == 0.0


def test_spectral_radius_bipartite_graph():
    # K33's spectrum is symmetric, +-3 and 0; the radius is +3, not -3.
    k33 = Graph.from_edges(6, [(i, j + 3) for i in range(3) for j in range(3)])
    assert spectral_radius(adjacency_matrix(k33)) == pytest.approx(3.0, abs=1e-9)


def test_spectral_radius_rejects_non_symmetric():
    with pytest.raises(ValueError, match="symmetric"):
        spectral_radius(IntMatrix([[0, 1], [0, 0]]))


def test_spectral_radius_matches_numpy_on_random_graphs():
    rng = np.random.default_rng(7)
    for _ in range(5):
        n = 9
        mat = np.triu((rng.random((n, n)) < 0.4).astype(int), 1)
        mat = mat + mat.T
        m = IntMatrix(mat.tolist())
        assert spectral_radius(m) == pytest.approx(
            float(np.max(np.linalg.eigvalsh(mat))), abs=1e-8
        )


def taylor_shift(p, c):
    """Coefficients, ascending, of p(y + c) for an exact rational c."""
    return [
        sum(p.coefficient(e) * math.comb(e, k) * c ** (e - k) for e in range(k, p.degree + 1))
        for k in range(p.degree + 1)
    ]


def has_no_root_from(p, c):
    """True when every coefficient of p(y + c) is positive: then p(y + c) > 0
    for y >= 0 (Descartes), so p has no root at or above c.  For a monic
    real-rooted p the converse holds as well."""
    return all(coeff > 0 for coeff in taylor_shift(p, c))


@st.composite
def connected_graphs(draw):
    """A connected graph on 1-10 vertices: a random tree (each vertex
    hangs off an earlier one) plus a random set of extra edges, relabelled."""
    n = draw(st.integers(1, 10))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges |= draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    perm = draw(st.permutations(range(n)))
    return Graph.from_edges(n, {(perm[u], perm[v]) for u, v in edges})


def assert_correctly_rounded(p, x):
    """x is the float nearest the largest root of the real-rooted p: p has
    a root at or above the midpoint below x and none at or above the
    midpoint above it."""
    below = (Fraction(math.nextafter(x, -math.inf)) + Fraction(x)) / 2
    above = (Fraction(x) + Fraction(math.nextafter(x, math.inf))) / 2
    assert not has_no_root_from(p, below)
    assert has_no_root_from(p, above)


@settings(max_examples=200, deadline=None)
@given(connected_graphs(), st.randoms(use_true_random=False))
def test_spectral_radius_brackets_the_exact_top_root(graph, rnd):
    # The exact charpoly changes sign across lambda (a simple root for a
    # connected graph), and lambda is its top root correctly rounded.
    a = adjacency_matrix(graph)
    lam = spectral_radius(a)
    p = char_poly_exact(a)
    eps = Fraction(1, 10**9)
    assert p(Fraction(lam) - eps) < 0 < p(Fraction(lam) + eps)
    assert_correctly_rounded(p, lam)
    perm = list(range(graph.n))
    rnd.shuffle(perm)
    shuffled = Graph.from_edges(graph.n, {(perm[u], perm[v]) for u, v in graph.edges})
    assert spectral_radius(adjacency_matrix(shuffled)) == lam
    assert spectral_radius(graph) == spectral_radius(shuffled) == lam


@settings(max_examples=300, deadline=None)
@given(twinned_graphs())
def test_spectral_radius_is_correctly_rounded_with_twins_and_components(graph):
    # Disconnected graphs repeat the top eigenvalue across components, and
    # twin blow-ups shrink the quotient the root is taken from.
    a = adjacency_matrix(graph)
    if graph.n:
        assert_correctly_rounded(char_poly_exact(a), spectral_radius(a))
        assert spectral_radius(graph) == spectral_radius(a)


@st.composite
def weighted_symmetric_matrices(draw):
    """Symmetric matrices of dimension 1-6 with entries 0-5, diagonal
    included, and at least one entry above 1."""
    n = draw(st.integers(1, 6))
    upper = {(i, j): draw(st.integers(0, 5)) for i in range(n) for j in range(i, n)}
    i, j = draw(st.sampled_from(sorted(upper)))
    upper[i, j] = draw(st.integers(2, 5))
    return IntMatrix(
        [[upper[min(i, j), max(i, j)] for j in range(n)] for i in range(n)]
    )


@settings(max_examples=200, deadline=None)
@given(weighted_symmetric_matrices())
def test_spectral_radius_is_correctly_rounded_on_weighted_matrices(matrix):
    assert_correctly_rounded(char_poly_exact(matrix), spectral_radius(matrix))
    eig = float(np.linalg.eigvalsh(np.array(matrix.rows, dtype=float))[-1])
    assert spectral_radius(matrix) == pytest.approx(eig, rel=1e-12, abs=1e-12)


def test_spectral_radius_refuses_a_large_quotient_before_the_recurrence(monkeypatch):
    runs = []
    monkeypatch.setattr(graphs, "char_poly", lambda rows: runs.append(rows))
    for a in (Graph.path(65), adjacency_matrix(Graph.path(65))):
        with pytest.raises(BoundExceededError, match="dimension 65 exceeds 64"):
            spectral_radius(a)
    assert runs == []


def test_each_matrix_runs_its_recurrence_once(monkeypatch):
    runs = count_calls(monkeypatch, polynomials, "char_poly")
    a, b = adjacency_matrix(Graph.cycle(7)), adjacency_matrix(Graph.path(5))
    char_poly_exact(a)
    char_poly_exact(b)
    assert spectral_radius(a) == 2.0
    assert len(runs) == 2


def test_each_graph_runs_its_recurrence_once(monkeypatch):
    runs = count_calls(monkeypatch, polynomials, "char_poly")
    g, h = Graph.cycle(7), power_graph(build_gn(4))
    char_poly_exact(g)
    char_poly_exact(h)
    assert spectral_radius(g) == 2.0
    assert verify_spectral_bounds(h).satisfied
    assert char_poly_exact(g) == char_poly_exact(adjacency_matrix(g))
    assert len(runs) == 3


def test_charpoly_keeps_no_matrix_alive():
    a = adjacency_matrix(Graph.path(5))
    char_poly_exact(a)
    ref = weakref.ref(a)
    del a
    assert ref() is None


def test_spectral_radius_on_z28_matches_numpy():
    graph = power_graph(cyclic_group(28))
    a = adjacency_matrix(graph)
    eig = float(np.linalg.eigvalsh(np.array(a.rows, dtype=float))[-1])
    assert abs(spectral_radius(a) - eig) <= 1e-10
    assert spectral_radius(graph) == spectral_radius(a)
    assert a.twin_quotient == graph.twin_quotient
    assert graph.twin_quotient[0].n == 5


def largest_cubic_root(n):
    """Largest root of the closed-form cubic factor for G(n): 60 exact
    rational bisections of an interval of width isqrt(m) + 2 above m - 1."""
    m = 2 ** (n - 1)
    cubic = IntPolynomial({3: 1, 2: 2 - m, 1: -(2**n - 1), 0: m * m - 2**n})
    lo, hi = Fraction(m - 1), Fraction(m - 1 + math.isqrt(m) + 1)
    assert cubic(lo) < 0 < cubic(hi)
    for _ in range(60):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if cubic(mid) < 0 else (lo, mid)
    assert has_no_root_from(cubic, hi)  # so hi bounds the largest root
    return float(hi)


@pytest.mark.parametrize("n", range(3, 11))
def test_spectral_radius_is_the_cubic_root(n):
    lam = spectral_radius(adjacency_matrix(power_graph(build_gn(n))))
    assert abs(lam - largest_cubic_root(n)) <= 1e-12
    m = 2 ** (n - 1)
    cubic = IntPolynomial({3: 1, 2: 2 - m, 1: -(2**n - 1), 0: m * m - 2**n})
    assert_correctly_rounded(cubic, lam)


@pytest.mark.parametrize("n", [3, 5, 7])
def test_spectral_radius_on_relabelled_gn(n):
    g = build_gn(n)
    perm = list(g.elements())
    random.Random(n).shuffle(perm)
    relabelled = relabel(g, Permutation(tuple(perm)))
    lam = spectral_radius(adjacency_matrix(power_graph(g)))
    assert abs(spectral_radius(adjacency_matrix(power_graph(relabelled))) - lam) <= 1e-12


@pytest.mark.parametrize("n", [3, 4, 5])
def test_spectral_sandwich_bounds(n):
    s = verify_spectral_bounds(adjacency_matrix(power_graph(build_gn(n))))
    m = 2 ** (n - 1)
    assert s.satisfied
    assert s.bound_lower == m - 1
    assert s.bound_upper == pytest.approx(m - 1 + math.sqrt(m))
    assert s.bound_lower < s.spectral_radius <= s.bound_upper


def test_pendant_split_reassembles_adjacency():
    for n in (3, 4, 5):
        d, e = pendant_split_graphs(n)
        ad, ae = adjacency_matrix(d), adjacency_matrix(e)
        size = 2**n
        total = [[ad[i, j] + ae[i, j] for j in range(size)] for i in range(size)]
        assert IntMatrix(total) == adjacency_matrix(power_graph(build_gn(n)))


@pytest.mark.parametrize("n", [3, 4])
def test_pendant_part_charpoly_is_rank_two(n):
    m = 2 ** (n - 1)
    _, e = pendant_split_graphs(n)
    assert char_poly_exact(e) == IntPolynomial({2 * m: 1, 2 * m - 2: -m})
    eigs = np.linalg.eigvalsh(np.array(adjacency_matrix(e).rows, dtype=float))
    assert eigs[-1] == pytest.approx(math.sqrt(m), abs=1e-9)
    assert eigs[0] == pytest.approx(-math.sqrt(m), abs=1e-9)
    assert np.allclose(np.sort(np.abs(eigs))[:-2], 0, atol=1e-9)


@pytest.mark.parametrize("n", [3, 4])
def test_weyl_split_bound(n):
    # lambda_1(A) <= lambda_1(D) + lambda_1(E), with both parts known.
    m = 2 ** (n - 1)
    d, e = pendant_split_graphs(n)
    lam_d = spectral_radius(d)
    lam_e = spectral_radius(e)
    lam_a = spectral_radius(adjacency_matrix(power_graph(build_gn(n))))
    assert lam_d == pytest.approx(m - 1, abs=1e-9)
    assert lam_e == pytest.approx(math.sqrt(m), abs=1e-9)
    assert lam_a <= lam_d + lam_e + 1e-9


def test_vertex_deletion_strictly_decreases_radius():
    # Removing any vertex of the n=3 power graph lowers the top eigenvalue.
    graph = power_graph(build_gn(3))
    lam = float(np.max(np.linalg.eigvalsh(np.array(adjacency_matrix(graph).rows, dtype=float))))
    for u in graph.vertices():
        rest = sorted(set(graph.vertices()) - {u})
        idx = {v: i for i, v in enumerate(rest)}
        sub = Graph.from_edges(
            7,
            [
                (idx[a], idx[b])
                for a, b in graph.edges
                if a in idx and b in idx
            ],
        )
        sub_lam = float(
            np.max(np.linalg.eigvalsh(np.array(adjacency_matrix(sub).rows, dtype=float)))
        )
        assert sub_lam < lam - 1e-9
