"""Exact characteristic polynomials, spectral radius, sandwich bounds."""

import math
import random
import struct
import weakref
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from gyrograph import (
    Graph,
    IntPolynomial,
    Permutation,
    build_gn,
    char_poly_exact,
    classify_gn_shape,
    closed_form_charpoly_gn,
    cyclic_group,
    graphs,
    polynomials,
    power_graph,
    relabel,
    spectral_radius,
    verify_spectral_bounds,
)
from gyrograph.errors import BoundExceededError
from test_verification import count_calls

GN3_CHARPOLY = IntPolynomial({8: 1, 6: -10, 5: -8, 4: 9, 3: 8})


def dense(graph):
    """The test oracle's adjacency matrix: a numpy 0/1 array whose entry
    (u, v) is bit v of the graph's row adj_bits[u]."""
    return np.array(
        [[row >> v & 1 for v in range(graph.n)] for row in graph.adj_bits], dtype=np.int64
    ).reshape(graph.n, graph.n)


def dense_rows(graph):
    return dense(graph).tolist()


@pytest.fixture(scope="module")
def gn3():
    return power_graph(build_gn(3))


def test_adjacency_matrix_k2():
    assert dense_rows(Graph.complete(2)) == [[0, 1], [1, 0]]


def test_adjacency_matrix_k1():
    assert dense_rows(Graph.complete(1)) == [[0]]


def test_adjacency_matrix_gn3_block_form(gn3):
    # Clique block J - I on the first half, pendant block with only the
    # first row/column populated, zero block on the second half.
    a = dense(gn3)
    for i in range(4):
        for j in range(4):
            assert a[i, j] == (1 if i != j else 0)
            assert a[i + 4, j + 4] == 0
            assert a[i, j + 4] == (1 if i == 0 else 0)


# ---------------------------------------------------------------------------
# Exact characteristic polynomial
# ---------------------------------------------------------------------------


def test_charpoly_k2():
    assert char_poly_exact(Graph.complete(2)) == IntPolynomial(
        {2: 1, 0: -1}
    )


def test_charpoly_k4_factored_form():
    # (x - 3)(x + 1)^3
    expected = IntPolynomial({1: 1, 0: -3}) * IntPolynomial({1: 1, 0: 1}) ** 3
    assert char_poly_exact(Graph.complete(4)) == expected


def test_charpoly_gn3_factored_form(gn3):
    cubic = IntPolynomial({3: 1, 2: -2, 1: -7, 0: 8})
    expected = IntPolynomial.x_power(3) * IntPolynomial({0: 1, 1: 1}) ** 2 * cubic
    assert char_poly_exact(gn3) == expected == GN3_CHARPOLY


def integer_determinant(rows) -> int:
    """Exact determinant of a square integer matrix given by its rows, by
    Bareiss fraction-free elimination."""
    n = len(rows)
    if n == 0:
        return 1
    m = [list(row) for row in rows]
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


def shifted(rows, x0):
    """The rows of x0 * I - M."""
    return [[x0 * (i == j) - v for j, v in enumerate(row)] for i, row in enumerate(rows)]


def test_charpoly_against_bareiss_determinant(gn3):
    # Independent oracle: evaluate det(x0*I - A) by fraction-free
    # elimination at small integers.
    p = char_poly_exact(gn3)
    for x0 in range(-2, 3):
        assert integer_determinant(shifted(dense_rows(gn3), x0)) == p(x0)


def test_charpoly_against_numpy_eigenvalues(gn3):
    roots = np.sort(np.linalg.eigvalsh(dense(gn3).astype(float)))
    p = char_poly_exact(gn3)
    coeffs = [p.coefficient(k) for k in range(p.degree, -1, -1)]
    nproots = np.sort(np.roots(coeffs).real)
    assert np.allclose(roots, nproots, atol=1e-8)


def test_charpoly_trace_and_edge_coefficients():
    for graph in (power_graph(build_gn(3)), Graph.complete(5), Graph.cycle(6)):
        p = char_poly_exact(graph)
        n = graph.n
        assert p.coefficient(n) == 1
        assert p.coefficient(n - 1) == 0  # zero trace
        assert p.coefficient(n - 2) == -graph.edge_count


def test_newton_identity_sum_of_squared_roots():
    # p2 = c1^2 - 2 c2 must equal 2|E| for adjacency matrices.
    for n in (3, 4):
        graph = power_graph(build_gn(n))
        p = char_poly_exact(graph)
        c1 = p.coefficient(graph.n - 1)
        c2 = p.coefficient(graph.n - 2)
        assert c1 * c1 - 2 * c2 == 2 * graph.edge_count


@pytest.mark.parametrize("n", [3, 4, 5])
def test_closed_form_equals_exact_charpoly(n):
    graph = power_graph(build_gn(n))
    assert closed_form_charpoly_gn(n) == char_poly_exact(graph)


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
        char_poly_exact(Graph.path(65))
    assert char_poly_exact(Graph(65, ())) == IntPolynomial.x_power(65)


# ---------------------------------------------------------------------------
# char_poly_exact against the plain recurrence on the whole matrix
# ---------------------------------------------------------------------------


def reference_char_poly(rows):
    """Faddeev-LeVerrier on the whole matrix given by its rows, with exact
    divisions."""
    n = len(rows)
    if n == 0:
        return IntPolynomial.constant(1)
    a = [list(row) for row in rows]
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
    assert len(quotient) == len(parts)
    for i, part in enumerate(parts):
        for v in part:
            for j, other in enumerate(parts):
                assert quotient[i][j] == sum(graph.has_edge(v, w) for w in other)
    assert factor.degree + len(quotient) == graph.n


@settings(max_examples=300, deadline=None)
@given(twinned_graphs())
def test_charpoly_matches_reference_on_random_graphs(graph):
    assert char_poly_exact(graph) == reference_char_poly(dense_rows(graph))
    assert_equitable_quotient(graph)


@st.composite
def general_matrices(draw):
    """Rows of square integer matrices of dimension <= 6, mostly not
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
    return rows


@settings(max_examples=300, deadline=None)
@given(general_matrices())
def test_charpoly_matches_reference_on_general_matrices(rows):
    # The recurrence that the twin quotients (which need not be symmetric)
    # run on: a monic polynomial of degree n is fixed by its values at
    # n + 1 points, each checked against a determinant.
    p = polynomials.char_poly(rows)
    n = len(rows)
    assert p.degree == n and p.coefficient(n) == 1
    for x0 in range(-1, n):
        assert p(x0) == integer_determinant(shifted(rows, x0))


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_charpoly_on_relabelled_gn(n):
    g = build_gn(n)
    perm = list(g.elements())
    random.Random(n).shuffle(perm)
    graph = power_graph(relabel(g, Permutation(tuple(perm))))
    p = char_poly_exact(graph)
    assert p == closed_form_charpoly_gn(n)
    if n <= 5:
        assert p == reference_char_poly(dense_rows(graph))


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_twin_quotient_of_gn_is_the_cubic(n):
    m = 2 ** (n - 1)
    graph = power_graph(build_gn(n))
    cubic = IntPolynomial({3: 1, 2: 2 - m, 1: -(2**n - 1), 0: m * m - 2**n})
    quotient, factor = graph.twin_quotient
    assert quotient == ((0, m - 1, m), (1, m - 2, 0), (1, 0, 0))
    assert reference_char_poly(quotient) == graph.quotient_charpoly == cubic
    assert factor == IntPolynomial.x_power(m - 1) * IntPolynomial({0: 1, 1: 1}) ** (m - 2)
    assert_equitable_quotient(graph)


def test_bareiss_determinant_basics():
    assert integer_determinant([[2, 0], [0, 3]]) == 6
    assert integer_determinant([[0, 1], [1, 0]]) == -1
    assert integer_determinant([[1, 2], [2, 4]]) == 0


# ---------------------------------------------------------------------------
# Spectral radius
# ---------------------------------------------------------------------------


def test_spectral_radius_k4():
    assert spectral_radius(Graph.complete(4)) == pytest.approx(
        3.0, abs=1e-10
    )


def test_spectral_radius_gn3_matches_cubic_root(gn3):
    # Largest root of x^3 - 2x^2 - 7x + 8 = (x - 1)(x^2 - x - 8).
    lam = spectral_radius(gn3)
    assert lam == pytest.approx((1 + math.sqrt(33)) / 2, abs=1e-9)


def test_spectral_radius_zero_matrix():
    assert spectral_radius(Graph(4, ())) == 0.0


def test_spectral_radius_bipartite_graph():
    # K33's spectrum is symmetric, +-3 and 0; the radius is +3, not -3.
    k33 = Graph.from_edges(6, [(i, j + 3) for i in range(3) for j in range(3)])
    assert spectral_radius(k33) == pytest.approx(3.0, abs=1e-9)


def test_spectral_radius_matches_numpy_on_random_graphs():
    rng = np.random.default_rng(7)
    for _ in range(5):
        n = 9
        mat = np.triu((rng.random((n, n)) < 0.4).astype(int), 1)
        mat = mat + mat.T
        graph = Graph.from_edges(n, np.argwhere(np.triu(mat)).tolist())
        assert (dense(graph) == mat).all()
        assert spectral_radius(graph) == pytest.approx(
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
    lam = spectral_radius(graph)
    p = char_poly_exact(graph)
    eps = Fraction(1, 10**9)
    assert p(Fraction(lam) - eps) < 0 < p(Fraction(lam) + eps)
    assert_correctly_rounded(p, lam)
    perm = list(range(graph.n))
    rnd.shuffle(perm)
    shuffled = Graph.from_edges(graph.n, {(perm[u], perm[v]) for u, v in graph.edges})
    assert spectral_radius(shuffled) == lam


@settings(max_examples=300, deadline=None)
@given(twinned_graphs())
def test_spectral_radius_is_correctly_rounded_with_twins_and_components(graph):
    # Disconnected graphs repeat the top eigenvalue across components, and
    # twin blow-ups shrink the quotient the root is taken from.
    if graph.n:
        lam = spectral_radius(graph)
        assert_correctly_rounded(char_poly_exact(graph), lam)
        eig = float(np.linalg.eigvalsh(dense(graph).astype(float))[-1])
        assert lam == pytest.approx(eig, rel=1e-12, abs=1e-12)


@st.composite
def weighted_blowups(draw):
    """A twin blow-up whose quotient is a weighted matrix: a random graph on
    2-5 base vertices, with base vertex 0 blown up into 2-4 twins (a clique
    or an independent set) and joined to a single vertex 1, and the other
    base vertices into 1-3 twins each; relabelled at random."""
    k = draw(st.integers(2, 5))
    pairs = [(u, v) for u in range(k) for v in range(u + 1, k)]
    base = draw(st.sets(st.sampled_from(pairs))) | {(0, 1)}
    sizes = [draw(st.integers(2, 4)), 1] + [draw(st.integers(1, 3)) for _ in range(k - 2)]
    cliques = [draw(st.booleans()) for _ in range(k)]
    start = [sum(sizes[:i]) for i in range(k)]
    blob = [range(start[i], start[i] + sizes[i]) for i in range(k)]
    edges = {(u, v) for i in range(k) if cliques[i] for u in blob[i] for v in blob[i] if u < v}
    edges |= {(u, v) for i, j in base for u in blob[i] for v in blob[j]}
    perm = draw(st.permutations(range(sum(sizes))))
    return Graph.from_edges(sum(sizes), {(perm[u], perm[v]) for u, v in edges})


@settings(max_examples=200, deadline=None)
@given(weighted_blowups(), st.randoms(use_true_random=False))
def test_spectral_radius_is_correctly_rounded_on_weighted_matrices(graph, rnd):
    # The root is taken from a quotient B that is not symmetric and has an
    # entry of 2 or more, so B is no graph's adjacency matrix; numpy on the
    # whole adjacency matrix is the oracle.
    quotient, _ = graph.twin_quotient
    assume(quotient != tuple(zip(*quotient)) and max(map(max, quotient)) >= 2)
    lam = spectral_radius(graph)
    assert_correctly_rounded(char_poly_exact(graph), lam)
    eig = float(np.linalg.eigvalsh(dense(graph).astype(float))[-1])
    assert lam == pytest.approx(eig, rel=1e-12, abs=1e-12)
    perm = list(range(graph.n))
    rnd.shuffle(perm)
    shuffled = Graph.from_edges(graph.n, {(perm[u], perm[v]) for u, v in graph.sorted_edges()})
    assert spectral_radius(shuffled) == lam


def reference_spectral_radius(graph):
    """The float bisection of spectral_radius with each root test on a
    Fraction: the tested float is Fraction(x), and the last test is at the
    Fraction midpoint of the two bracketing floats."""
    rows, _ = graph.twin_quotient
    if not any(map(any, rows)):
        return 0.0
    p = graph.quotient_charpoly
    coeffs = [p.coefficient(k) for k in range(p.degree + 1)]
    lo = max(min(x, y) for row, col in zip(rows, zip(*rows)) for x, y in zip(row, col))
    lo = float_bits(float(lo))
    hi = float_bits(float(2 ** max(map(sum, rows)).bit_length()))
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if reference_has_root_from(coeffs, Fraction(bits_float(mid))):
            lo = mid
        else:
            hi = mid
    below, above = bits_float(lo), bits_float(hi)
    if reference_has_root_from(coeffs, (Fraction(below) + Fraction(above)) / 2):
        return above
    return below


def reference_has_root_from(coeffs, c):
    """Some coefficient of den^d p((z + num) / den), c = num / den, is not positive."""
    num, den = c.numerator, c.denominator
    d = len(coeffs) - 1
    b = [coeff * den ** (d - k) for k, coeff in enumerate(coeffs)]
    for i in range(d):
        for j in range(d - 1, i - 1, -1):
            b[j] += num * b[j + 1]
    return any(coeff <= 0 for coeff in b)


def float_bits(x):
    return struct.unpack("<q", struct.pack("<d", x))[0]


def bits_float(bits):
    return struct.unpack("<d", struct.pack("<q", bits))[0]


@st.composite
def twinless_graphs(draw):
    """A random graph on 1-10 vertices in which no two vertices are twins,
    so the twin quotient is the whole adjacency matrix."""
    n = draw(st.integers(1, 10))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    graph = Graph.from_edges(n, draw(st.sets(st.sampled_from(pairs))) if pairs else ())
    assume(len(graph.twin_parts) == n)
    return graph


@settings(max_examples=300, deadline=None)
@given(st.one_of(twinned_graphs(), connected_graphs(), weighted_blowups(), twinless_graphs()))
@example(Graph(0, ()))
@example(Graph(6, ()))
@example(Graph.cycle(7))
def test_spectral_radius_matches_the_fraction_reference(graph):
    # The bisection on int ratios tests the same points as the one on
    # Fractions, so the two return the same float, bit for bit.
    assert float_bits(spectral_radius(graph)) == float_bits(reference_spectral_radius(graph))


def test_spectral_radius_refuses_a_large_quotient_before_the_recurrence(monkeypatch):
    runs = []
    monkeypatch.setattr(graphs, "char_poly", lambda rows: runs.append(rows))
    with pytest.raises(BoundExceededError, match="dimension 65 exceeds 64"):
        spectral_radius(Graph.path(65))
    assert runs == []


def test_each_graph_runs_its_recurrence_once(monkeypatch):
    runs = count_calls(monkeypatch, polynomials, "char_poly")
    g, h = Graph.cycle(7), power_graph(build_gn(4))
    char_poly_exact(g)
    char_poly_exact(h)
    assert spectral_radius(g) == 2.0
    assert verify_spectral_bounds(h).satisfied
    assert char_poly_exact(g) == char_poly_exact(Graph.cycle(7))
    assert len(runs) == 3


def test_charpoly_keeps_no_matrix_alive():
    # The graph caches its own quotient and recurrence; nothing else keeps
    # the graph alive.
    graph = Graph.path(5)
    char_poly_exact(graph)
    ref = weakref.ref(graph)
    del graph
    assert ref() is None


def test_spectral_radius_on_z28_matches_numpy():
    graph = power_graph(cyclic_group(28))
    eig = float(np.linalg.eigvalsh(dense(graph).astype(float))[-1])
    assert abs(spectral_radius(graph) - eig) <= 1e-10
    assert len(graph.twin_quotient[0]) == 5


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
    lam = spectral_radius(power_graph(build_gn(n)))
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
    lam = spectral_radius(power_graph(g))
    assert abs(spectral_radius(power_graph(relabelled)) - lam) <= 1e-12


@pytest.mark.parametrize("n", [3, 4, 5])
def test_spectral_sandwich_bounds(n):
    s = verify_spectral_bounds(power_graph(build_gn(n)))
    m = 2 ** (n - 1)
    assert s.satisfied
    assert s.bound_lower == m - 1
    assert s.bound_upper == pytest.approx(m - 1 + math.sqrt(m))
    assert s.bound_lower < s.spectral_radius <= s.bound_upper


def pendant_split(n):
    """The split A = D + E of the power graph of G(n), with both parts on all
    of its vertices: D the complete block and E the hub's pendant edges,
    read off classify_gn_shape as verify_gn reads the pendant part."""
    shape = classify_gn_shape(power_graph(build_gn(n)))
    d = Graph.from_edges(2**n, combinations(sorted(shape.clique_part), 2))
    e = Graph.from_edges(2**n, ((shape.hub, v) for v in shape.pendant_part))
    return d, e


def test_pendant_split_reassembles_adjacency():
    for n in (3, 4, 5):
        m = 2 ** (n - 1)
        d, e = pendant_split(n)
        assert d == Graph.from_edges(2 * m, combinations(range(m), 2))
        assert e == Graph.from_edges(2 * m, ((0, v) for v in range(m, 2 * m)))
        assert (dense(d) + dense(e) == dense(power_graph(build_gn(n)))).all()


@pytest.mark.parametrize("n", [3, 4])
def test_pendant_part_charpoly_is_rank_two(n):
    m = 2 ** (n - 1)
    _, e = pendant_split(n)
    assert char_poly_exact(e) == IntPolynomial({2 * m: 1, 2 * m - 2: -m})
    eigs = np.linalg.eigvalsh(dense(e).astype(float))
    assert eigs[-1] == pytest.approx(math.sqrt(m), abs=1e-9)
    assert eigs[0] == pytest.approx(-math.sqrt(m), abs=1e-9)
    assert np.allclose(np.sort(np.abs(eigs))[:-2], 0, atol=1e-9)


@pytest.mark.parametrize("n", [3, 4])
def test_weyl_split_bound(n):
    # lambda_1(A) <= lambda_1(D) + lambda_1(E), with both parts known.
    m = 2 ** (n - 1)
    d, e = pendant_split(n)
    lam_d = spectral_radius(d)
    lam_e = spectral_radius(e)
    lam_a = spectral_radius(power_graph(build_gn(n)))
    assert lam_d == pytest.approx(m - 1, abs=1e-9)
    assert lam_e == pytest.approx(math.sqrt(m), abs=1e-9)
    assert lam_a <= lam_d + lam_e + 1e-9


def test_vertex_deletion_strictly_decreases_radius():
    # Removing any vertex of the n=3 power graph lowers the top eigenvalue.
    a = dense(power_graph(build_gn(3))).astype(float)
    lam = float(np.max(np.linalg.eigvalsh(a)))
    for u in range(len(a)):
        sub = np.delete(np.delete(a, u, axis=0), u, axis=1)
        sub_lam = float(np.max(np.linalg.eigvalsh(sub)))
        assert sub_lam < lam - 1e-9
