"""Distances, detour distances, Hosoya-type polynomials, and the
boundary/interior/center/closure machinery."""

from fractions import Fraction

import pytest

from gyrograph import (
    BoundExceededError,
    DisconnectedGraphError,
    Graph,
    IntPolynomial,
    bondy_chvatal_closure,
    boundary_interior_center,
    build_gn,
    detour_matrix,
    distance_degree_sequence,
    distance_matrix,
    eccentricity_profile,
    hosoya_polynomial,
    power_graph,
    reciprocal_status,
    reciprocal_status_edge_sums,
    reciprocal_status_hosoya,
)

INF = float("inf")


@pytest.fixture(scope="module")
def gn3():
    return power_graph(build_gn(3))


@pytest.fixture(scope="module")
def gn4():
    return power_graph(build_gn(4))


# ---------------------------------------------------------------------------
# Shortest distances
# ---------------------------------------------------------------------------


def test_distance_matrix_gn3(gn3):
    dm = distance_matrix(gn3)
    assert dm[1, 2] == 1
    assert dm[1, 4] == 2
    assert dm[4, 5] == 2
    assert all(dm[u, u] == 0 for u in range(8))


def test_distance_matrix_symmetric_and_triangle(gn3):
    dm = distance_matrix(gn3)
    n = gn3.n
    for u in range(n):
        for v in range(n):
            assert dm[u, v] == dm[v, u]
            for w in range(n):
                assert dm[u, w] <= dm[u, v] + dm[v, w]


@pytest.mark.parametrize("n", [3, 4, 5])
def test_gn_diameter_is_two(n):
    prof = eccentricity_profile(distance_matrix(power_graph(build_gn(n))))
    assert prof.radius == 1
    assert prof.diameter == 2


def test_disconnected_pairs_are_inf():
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    dm = distance_matrix(g)
    assert dm[0, 2] == INF
    assert not dm.is_finite()
    with pytest.raises(DisconnectedGraphError):
        eccentricity_profile(dm)


def test_k1_eccentricity():
    prof = eccentricity_profile(distance_matrix(Graph.complete(1)))
    assert prof.radius == prof.diameter == 0


# ---------------------------------------------------------------------------
# Detour distances
# ---------------------------------------------------------------------------


def test_detour_matrix_gn3(gn3):
    dd = detour_matrix(gn3)
    # Longest identity-to-clique path walks the whole 4-clique.
    for v in (1, 2, 3):
        assert dd[0, v] == 3
    # Clique-to-pendant paths traverse the clique and hop out.
    assert dd[4, 1] == 4
    # Pendant-to-pendant paths must go through the hub.
    assert dd[4, 5] == 2


def test_detour_single_edge():
    assert detour_matrix(Graph.path(2))[0, 1] == 1


def test_detour_profile_gn3(gn3):
    prof = eccentricity_profile(detour_matrix(gn3))
    assert prof.eccentricities == (3, 4, 4, 4, 4, 4, 4, 4)
    assert prof.radius == 3
    assert prof.diameter == 4


def test_detour_gn4(gn4):
    prof = eccentricity_profile(detour_matrix(gn4))
    assert prof.radius == 7
    assert prof.diameter == 8


def test_detour_dominates_distance_and_equals_on_trees(gn3):
    dd, dm = detour_matrix(gn3), distance_matrix(gn3)
    assert all(
        dd[u, v] >= dm[u, v] for u in range(8) for v in range(8)
    )
    for tree in (Graph.path(6), Graph.star(5)):
        assert detour_matrix(tree).entries == distance_matrix(tree).entries


def test_detour_order_bound():
    with pytest.raises(BoundExceededError):
        detour_matrix(power_graph(build_gn(4)), order_bound=8)


def test_detour_on_cycle():
    # The only u-v paths in a cycle are the two arcs, so the detour
    # distance is the longer arc.
    dd = detour_matrix(Graph.cycle(5))
    g = Graph.cycle(5)
    for u in range(5):
        for v in range(5):
            if u != v:
                assert dd[u, v] == (4 if g.has_edge(u, v) else 3)


def naive_detour(graph):
    """Oracle: longest path by trying every ordering of intermediates."""
    from itertools import permutations

    n = graph.n
    best = [[0 if u == v else None for v in range(n)] for u in range(n)]
    for u in range(n):
        for v in range(u + 1, n):
            longest = -1
            others = [w for w in range(n) if w not in (u, v)]
            for k in range(len(others) + 1):
                for mid in permutations(others, k):
                    path = (u, *mid, v)
                    if all(
                        graph.has_edge(a, b) for a, b in zip(path, path[1:])
                    ):
                        longest = max(longest, len(path) - 1)
            best[u][v] = best[v][u] = INF if longest < 0 else longest
    return best


def test_detour_matches_naive_oracle_on_random_graphs():
    import random

    random.seed(11)
    for _ in range(25):
        n = random.randint(2, 6)
        edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if random.random() < 0.5
        ]
        g = Graph.from_edges(n, edges)
        dd = detour_matrix(g)
        oracle = naive_detour(g)
        for u in range(n):
            for v in range(n):
                assert dd[u, v] == oracle[u][v], (n, sorted(edges), u, v)


# ---------------------------------------------------------------------------
# Distance degree sequences
# ---------------------------------------------------------------------------


def test_dds_gn3_summary(gn3):
    dds = distance_degree_sequence(distance_matrix(gn3))
    assert dds.summary_dict() == {(1, 7): 1, (1, 3, 4): 3, (1, 1, 6): 4}


def test_dds_k1():
    dds = distance_degree_sequence(distance_matrix(Graph.complete(1)))
    assert dds.summary_dict() == {(1,): 1}


def test_dds_detour_gn3(gn3):
    ddsd = distance_degree_sequence(detour_matrix(gn3))
    assert ddsd.per_vertex[0] == (1, 4, 0, 3)
    assert ddsd.summary_dict() == {
        (1, 4, 0, 3): 1,
        (1, 0, 0, 3, 4): 3,
        (1, 1, 3, 0, 3): 4,
    }


def test_dds_detour_gn4(gn4):
    ddsd = distance_degree_sequence(detour_matrix(gn4))
    assert ddsd.summary_dict() == {
        (1, 8, 0, 0, 0, 0, 0, 7): 1,
        (1, 0, 0, 0, 0, 0, 0, 7, 8): 7,
        (1, 1, 7, 0, 0, 0, 0, 0, 7): 8,
    }


def test_dds_counts_tie_out_with_pair_counts(gn3):
    # Summing per-vertex counts at distance k double-counts the pairs.
    dds = distance_degree_sequence(distance_matrix(gn3))
    hosoya = hosoya_polynomial(gn3)
    for k in (1, 2):
        total = sum(t[k] if len(t) > k else 0 for t in dds.per_vertex)
        assert total == 2 * hosoya.coefficient(k)


# ---------------------------------------------------------------------------
# Hosoya polynomials
# ---------------------------------------------------------------------------


def test_hosoya_gn3(gn3):
    assert hosoya_polynomial(gn3) == IntPolynomial({0: 8, 1: 10, 2: 18})


def test_hosoya_k1():
    assert hosoya_polynomial(Graph.complete(1)) == IntPolynomial({0: 1})


def test_hosoya_gn4(gn4):
    assert hosoya_polynomial(gn4) == IntPolynomial({0: 16, 1: 36, 2: 84})


@pytest.mark.parametrize("n", [3, 4, 5])
def test_hosoya_coefficient_sum_counts_all_pairs(n):
    graph = power_graph(build_gn(n))
    p = hosoya_polynomial(graph)
    big = graph.n
    assert p.coefficient_sum() == big + big * (big - 1) // 2
    assert p.coefficient(1) == graph.edge_count


def test_hosoya_refuses_disconnected():
    with pytest.raises(DisconnectedGraphError):
        hosoya_polynomial(Graph.from_edges(3, [(0, 1)]))


# ---------------------------------------------------------------------------
# Reciprocal status
# ---------------------------------------------------------------------------


def test_reciprocal_status_gn3(gn3):
    assert reciprocal_status(gn3, 0) == 7
    assert reciprocal_status(gn3, 1) == 5  # 3 at distance 1, 4 at distance 2
    assert reciprocal_status(gn3, 4) == 4  # 1 at distance 1, 6 at distance 2


def test_reciprocal_status_k2():
    g = Graph.complete(2)
    assert reciprocal_status(g, 0) == 1
    assert reciprocal_status_hosoya(g) == IntPolynomial({2: 1})


def test_rs_hosoya_gn3(gn3):
    assert reciprocal_status_hosoya(gn3) == IntPolynomial({12: 3, 11: 4, 10: 3})


def test_rs_hosoya_gn4(gn4):
    assert reciprocal_status_hosoya(gn4) == IntPolynomial({26: 7, 23: 8, 22: 21})


def test_rs_is_exact_rational_on_paths():
    # Path 0-1-2-3: rs(0) = 1 + 1/2 + 1/3 = 11/6; integral Hosoya refuses.
    g = Graph.path(4)
    assert reciprocal_status(g, 0) == Fraction(11, 6)
    sums = reciprocal_status_edge_sums(g)
    assert all(isinstance(k, Fraction) for k in sums)
    assert sum(sums.values()) == g.edge_count
    with pytest.raises(ValueError, match="not an integer"):
        reciprocal_status_hosoya(g)


# ---------------------------------------------------------------------------
# Boundary, interior, center, closure
# ---------------------------------------------------------------------------


def test_boundary_interior_center_gn3(gn3):
    boundary, interior, center = boundary_interior_center(gn3)
    assert interior == frozenset({0})
    assert center == frozenset({0})
    assert boundary == frozenset(range(1, 8))


def test_complete_graph_has_empty_interior():
    for k in (2, 3, 5):
        boundary, interior, _ = boundary_interior_center(Graph.complete(k))
        assert boundary == frozenset(range(k))
        assert interior == frozenset()


def test_path_interior_is_middle():
    # In a path, the two leaves are the boundary.
    boundary, interior, center = boundary_interior_center(Graph.path(5))
    assert boundary == frozenset({0, 4})
    assert interior == frozenset({1, 2, 3})
    assert center == frozenset({2})


@pytest.mark.parametrize("n", [3, 4, 5])
def test_closure_of_gn_power_graph_is_fixed_point(n):
    graph = power_graph(build_gn(n))
    assert bondy_chvatal_closure(graph).edges == graph.edges


def test_closure_of_c5_is_fixed_point():
    g = Graph.cycle(5)
    assert bondy_chvatal_closure(g).edges == g.edges


def test_closure_completes_k4_minus_edge():
    g = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 3), (2, 3)])
    assert bondy_chvatal_closure(g).is_complete()


def test_closure_is_order_independent():
    # Relabeling the vertices (hence changing scan order) commutes with
    # taking the closure.
    g = Graph.from_edges(
        5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2), (1, 3)]
    )
    perm = [4, 2, 0, 3, 1]
    relabeled = Graph.from_edges(5, [(perm[u], perm[v]) for u, v in g.edges])
    closed_then_relabel = {
        (min(perm[u], perm[v]), max(perm[u], perm[v]))
        for u, v in bondy_chvatal_closure(g).edges
    }
    assert closed_then_relabel == set(bondy_chvatal_closure(relabeled).edges)
