"""Distances, detour distances, Hosoya-type polynomials, and the
boundary/interior/center/closure machinery."""

import functools
import random
import time
from collections import deque
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gyrograph import (
    BoundExceededError,
    DisconnectedGraphError,
    Graph,
    IntPolynomial,
    bondy_chvatal_closure,
    boundary_interior_center,
    Permutation,
    build_gn,
    closed_forms,
    cyclic_group,
    detour_matrix,
    distance_degree_sequence,
    distance_matrix,
    eccentricity_profile,
    hosoya_polynomial,
    is_resolving,
    load_table,
    metric_dimension,
    power_graph,
    reciprocal_status,
    reciprocal_status_edge_sums,
    reciprocal_status_hosoya,
    relabel,
    resolving_polynomial,
)
from gyrograph.graphs import reachable, twin_parts

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
    assert not dm.is_finite
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


def test_detour_block_bound():
    # The bound counts the largest non-complete block, not the order:
    # P(G(4)) has order 16 and only complete blocks, so it needs no search.
    assert detour_matrix(power_graph(build_gn(4)), block_bound=0).n == 16
    with pytest.raises(BoundExceededError, match="block of 5 vertices exceeds block bound 4"):
        detour_matrix(Graph.cycle(5), block_bound=4)
    assert detour_matrix(Graph.cycle(5), block_bound=5)[0, 1] == 4


def z2_times(k):
    """Z2 x Zk, the element (a, b) numbered a*k + b."""
    return load_table(
        [[(x // k + y // k) % 2 * k + (x + y) % k for y in range(2 * k)] for x in range(2 * k)]
    )


@pytest.mark.parametrize(("group", "block"), [(cyclic_group(20), 20), (z2_times(30), 60)])
def test_detour_refuses_a_large_block_before_searching(group, block):
    # One non-complete block holds every vertex of each power graph; the
    # search takes about 22 s on Z2 x Z10 and had not ended after 130 s
    # on Z2 x Z30.
    graph = power_graph(group)
    start = time.perf_counter()
    with pytest.raises(
        BoundExceededError, match=f"block of {block} vertices exceeds block bound 16"
    ):
        detour_matrix(graph)
    assert time.perf_counter() - start < 1.0


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
# detour_matrix against the whole-graph search
# ---------------------------------------------------------------------------


def reference_detour_matrix(graph):
    """Longest simple paths by one exhaustive DFS per vertex pair over the
    whole graph, pruned by counting and by reachability."""
    n = graph.n
    best = [[0 if u == v else -1 for v in range(n)] for u in range(n)]
    adj_bits = [graph.neighbor_bits(v) for v in range(n)]
    full = (1 << n) - 1

    def search(s, t):
        best_len = -1
        stack = [(s, 1 << s, 0)]
        while stack:
            v, visited, length = stack.pop()
            if v == t:
                best_len = max(best_len, length)
                continue
            free = full & ~visited
            if length + bin(free).count("1") <= best_len:
                continue
            if not reachable(adj_bits, v, free) >> t & 1:
                continue
            nxt = adj_bits[v] & free
            while nxt:
                low = nxt & -nxt
                nxt ^= low
                stack.append((low.bit_length() - 1, visited | low, length + 1))
        return best_len

    for u in range(n):
        for v in range(u + 1, n):
            best[u][v] = best[v][u] = search(u, v)
    return tuple(tuple(INF if x < 0 else x for x in row) for row in best)


@st.composite
def graphs(draw, max_n=10):
    """A graph on 0..max_n vertices: either a random edge subset (often
    disconnected, with isolated vertices) or a chain of random blocks glued
    at single vertices (cliques, cycles and denser pieces), so that both
    complete and searched blocks meet at cut vertices."""
    if draw(st.booleans()):
        n = draw(st.integers(0, max_n))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
        return Graph.from_edges(n, edges)
    n, edges = 1, set()
    while n < max_n:
        k = draw(st.integers(2, min(5, max_n - n + 1)))
        at = draw(st.integers(0, n - 1))
        verts = [at] + list(range(n, n + k - 1))
        n += k - 1
        pairs = [(u, v) for i, u in enumerate(verts) for v in verts[i + 1:]]
        kind = draw(st.sampled_from(["complete", "cycle", "random"]))
        if kind == "complete" or k == 2:
            edges.update(pairs)
        elif kind == "cycle":
            edges.update(zip(verts, verts[1:] + verts[:1]))
        else:
            edges.update(zip(verts, verts[1:] + verts[:1]))
            edges.update(draw(st.sets(st.sampled_from(pairs))))
        if draw(st.booleans()):
            break
    return Graph.from_edges(n, edges)


@settings(max_examples=300, deadline=None)
@given(graphs())
def test_detour_matches_reference_on_random_graphs(graph):
    assert detour_matrix(graph).entries == reference_detour_matrix(graph)


def _relabelled_power_graph(n):
    g = build_gn(n)
    perm = list(g.elements())
    random.Random(n).shuffle(perm)
    return power_graph(g), power_graph(relabel(g, Permutation(tuple(perm)))), perm


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_detour_on_relabelled_gn(n):
    graph, relabelled, perm = _relabelled_power_graph(n)
    dd, rd = detour_matrix(graph), detour_matrix(relabelled)
    assert all(
        rd[perm[u], perm[v]] == dd[u, v] for u in graph.vertices() for v in graph.vertices()
    )
    if n <= 4:
        assert rd.entries == reference_detour_matrix(relabelled)
    prof = eccentricity_profile(rd)
    assert (prof.radius, prof.diameter) == closed_forms.detour_radius_diameter_closed_form(n)


def test_detour_order_64_gate():
    # Order 64 at the library default: the whole-graph search does not
    # finish order 32 in minutes; the block-cut-tree form needs no search.
    n = 6
    g = build_gn(n)
    graph = power_graph(g)
    start = time.perf_counter()
    prof = eccentricity_profile(detour_matrix(graph))
    elapsed = time.perf_counter() - start
    m = 2 ** (n - 1)
    ecc_e, ecc_p, ecc_h = closed_forms.detour_eccentricities_closed_form(n)
    assert prof.eccentricities[g.identity] == ecc_e
    assert all(prof.eccentricities[v] == ecc_p for v in range(1, m))
    assert all(prof.eccentricities[v] == ecc_h for v in range(m, 2 * m))
    assert (prof.radius, prof.diameter) == closed_forms.detour_radius_diameter_closed_form(n)
    assert elapsed < 10.0, f"order-64 detour took {elapsed:.1f} s"


# ---------------------------------------------------------------------------
# The twin partition, and the shortest distances read from it
# ---------------------------------------------------------------------------


def bfs_distance_matrix(graph):
    """Oracle: one BFS from every vertex."""
    rows = []
    for s in graph.vertices():
        dist = [INF] * graph.n
        dist[s] = 0
        queue = deque([s])
        while queue:
            v = queue.popleft()
            for w in graph.neighbors(v):
                if dist[w] == INF:
                    dist[w] = dist[v] + 1
                    queue.append(w)
        rows.append(tuple(dist))
    return tuple(rows)


@functools.cache
def named_power_graph(name):
    return power_graph(cyclic_group(28) if name == "Z28" else build_gn(int(name)))


@st.composite
def twin_heavy_graphs(draw):
    """A randomly relabelled graph from one of: the random and block-chain
    graphs above; edgeless graphs; blow-ups that replace each vertex of a
    random graph by an adjacent or a non-adjacent twin class (isolated
    twin pairs and disconnected pieces included); P(G(3..7)) and P(Z28)."""
    family = draw(st.sampled_from(["graphs", "edgeless", "blow-up", "power"]))
    if family == "graphs":
        graph = draw(graphs())
    elif family == "edgeless":
        graph = Graph(draw(st.integers(0, 6)), frozenset())
    elif family == "blow-up":
        base = draw(graphs(max_n=6))
        members, n = [], 0
        for _ in base.vertices():
            size = draw(st.integers(1, 3))
            members.append(range(n, n + size))
            n += size
        edges = {(a, b) for u, v in base.edges for a in members[u] for b in members[v]}
        for part in members:
            if draw(st.booleans()):
                edges.update(combinations(part, 2))
        graph = Graph.from_edges(n, edges)
    else:
        name = draw(st.sampled_from(["3", "4", "5", "6", "7", "Z28"]))
        graph = named_power_graph(name)
    perm = draw(st.permutations(range(graph.n)))
    return Graph.from_edges(graph.n, ((perm[u], perm[v]) for u, v in graph.edges))


@settings(max_examples=300, deadline=None)
@given(twin_heavy_graphs())
def test_twin_parts_partition_the_vertices_into_twins(graph):
    bits = [graph.neighbor_bits(v) for v in graph.vertices()]
    parts = twin_parts(bits)
    assert sorted(v for part, _ in parts for v in part) == list(graph.vertices())
    assert [part[0] for part, _ in parts] == sorted(part[0] for part, _ in parts)
    for part, kind in parts:
        assert part == sorted(part)
        if kind == "adjacent":
            assert len({bits[v] | 1 << v for v in part}) == 1 < len(part)
        elif kind == "non-adjacent":
            assert len({bits[v] for v in part}) == 1 < len(part)
        else:
            assert kind == "untwinned" and len(part) == 1
            (v,) = part
            for w in graph.vertices():
                if w != v:
                    assert bits[w] != bits[v] and bits[w] | 1 << w != bits[v] | 1 << v


@settings(max_examples=300, deadline=None)
@given(twin_heavy_graphs())
def test_distance_matrix_matches_bfs_from_every_vertex(graph):
    assert distance_matrix(graph).entries == bfs_distance_matrix(graph)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_distance_matrix_runs_one_bfs_per_twin_part(monkeypatch, n):
    # P(G(n)) has three twin parts (identity, the rest of the clique, the
    # pendants); each BFS on the connected graph lists every vertex's
    # neighbors once.
    graph = power_graph(build_gn(n))
    calls = []
    neighbors = Graph.neighbors
    monkeypatch.setattr(
        Graph, "neighbors", lambda self, v: calls.append(v) or neighbors(self, v)
    )
    dm = distance_matrix(graph)
    assert len(calls) == 3 * graph.n
    monkeypatch.undo()
    assert dm.entries == bfs_distance_matrix(graph)


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
    hosoya = hosoya_polynomial(distance_matrix(gn3))
    for k in (1, 2):
        total = sum(t[k] if len(t) > k else 0 for t in dds.per_vertex)
        assert total == 2 * hosoya.coefficient(k)


# ---------------------------------------------------------------------------
# Hosoya polynomials
# ---------------------------------------------------------------------------


def test_hosoya_gn3(gn3):
    assert hosoya_polynomial(distance_matrix(gn3)) == IntPolynomial({0: 8, 1: 10, 2: 18})


def test_hosoya_k1():
    assert hosoya_polynomial(distance_matrix(Graph.complete(1))) == IntPolynomial({0: 1})


def test_hosoya_gn4(gn4):
    assert hosoya_polynomial(distance_matrix(gn4)) == IntPolynomial({0: 16, 1: 36, 2: 84})


@pytest.mark.parametrize("n", [3, 4, 5])
def test_hosoya_coefficient_sum_counts_all_pairs(n):
    graph = power_graph(build_gn(n))
    p = hosoya_polynomial(distance_matrix(graph))
    big = graph.n
    assert p.coefficient_sum() == big + big * (big - 1) // 2
    assert p.coefficient(1) == graph.edge_count


def test_hosoya_refuses_disconnected():
    with pytest.raises(DisconnectedGraphError):
        hosoya_polynomial(distance_matrix(Graph.from_edges(3, [(0, 1)])))


# ---------------------------------------------------------------------------
# Reciprocal status
# ---------------------------------------------------------------------------


def test_reciprocal_status_gn3(gn3):
    dm = distance_matrix(gn3)
    assert reciprocal_status(dm, 0) == 7
    assert reciprocal_status(dm, 1) == 5  # 3 at distance 1, 4 at distance 2
    assert reciprocal_status(dm, 4) == 4  # 1 at distance 1, 6 at distance 2


def test_reciprocal_status_k2():
    dm = distance_matrix(Graph.complete(2))
    assert reciprocal_status(dm, 0) == 1
    assert reciprocal_status_hosoya(dm) == IntPolynomial({2: 1})


def test_rs_hosoya_gn3(gn3):
    assert reciprocal_status_hosoya(distance_matrix(gn3)) == IntPolynomial({12: 3, 11: 4, 10: 3})


def test_rs_hosoya_gn4(gn4):
    assert reciprocal_status_hosoya(distance_matrix(gn4)) == IntPolynomial({26: 7, 23: 8, 22: 21})


def test_rs_is_exact_rational_on_paths():
    # Path 0-1-2-3: rs(0) = 1 + 1/2 + 1/3 = 11/6; integral Hosoya refuses.
    g = Graph.path(4)
    dm = distance_matrix(g)
    assert reciprocal_status(dm, 0) == Fraction(11, 6)
    sums = reciprocal_status_edge_sums(dm)
    assert all(isinstance(k, Fraction) for k in sums)
    assert sum(sums.values()) == g.edge_count
    with pytest.raises(ValueError, match="not an integer"):
        reciprocal_status_hosoya(dm)


@pytest.mark.parametrize("v", [-1, 8, 100])
def test_reciprocal_status_rejects_out_of_range_vertices(gn3, v):
    with pytest.raises(ValueError, match="out of range"):
        reciprocal_status(distance_matrix(gn3), v)


# ---------------------------------------------------------------------------
# Metric invariants take the shortest-distance matrix of a connected graph
# ---------------------------------------------------------------------------

METRIC_INVARIANTS = {
    "hosoya": (hosoya_polynomial, "Hosoya polynomial needs a connected graph"),
    "rs": (lambda dm: reciprocal_status(dm, 0), "reciprocal status needs a connected graph"),
    "rs_edge_sums": (reciprocal_status_edge_sums, "reciprocal status needs a connected graph"),
    "rs_hosoya": (reciprocal_status_hosoya, "reciprocal status needs a connected graph"),
    "interior": (boundary_interior_center, "boundary/interior need a connected graph"),
    "is_resolving": (lambda dm: is_resolving(dm, [0]), "resolving sets need a connected graph"),
    "metric_dimension": (metric_dimension, "metric dimension needs a connected graph"),
    "resolving": (resolving_polynomial, "metric dimension needs a connected graph"),
}


@pytest.mark.parametrize("name", METRIC_INVARIANTS)
def test_metric_invariants_refuse_a_detour_matrix(gn3, name):
    invariant, _ = METRIC_INVARIANTS[name]
    with pytest.raises(ValueError, match="shortest-distance matrix"):
        invariant(detour_matrix(gn3))


@pytest.mark.parametrize("name", METRIC_INVARIANTS)
def test_metric_invariants_keep_their_disconnected_message(name):
    invariant, message = METRIC_INVARIANTS[name]
    with pytest.raises(DisconnectedGraphError) as info:
        invariant(distance_matrix(Graph.from_edges(3, [(0, 1)])))
    assert str(info.value) == message


# ---------------------------------------------------------------------------
# Boundary, interior, center, closure
# ---------------------------------------------------------------------------


def test_boundary_interior_center_gn3(gn3):
    boundary, interior, center = boundary_interior_center(distance_matrix(gn3))
    assert interior == frozenset({0})
    assert center == frozenset({0})
    assert boundary == frozenset(range(1, 8))


def test_complete_graph_has_empty_interior():
    for k in (2, 3, 5):
        boundary, interior, _ = boundary_interior_center(distance_matrix(Graph.complete(k)))
        assert boundary == frozenset(range(k))
        assert interior == frozenset()


def test_path_interior_is_middle():
    # In a path, the two leaves are the boundary.
    boundary, interior, center = boundary_interior_center(distance_matrix(Graph.path(5)))
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
