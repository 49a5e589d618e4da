"""Twin detection, resolving sets, metric dimension, resolving polynomial."""

import random
import time
from collections import Counter
from itertools import combinations

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gyrograph import (
    BoundExceededError,
    Graph,
    IntPolynomial,
    build_gn,
    closed_forms,
    cyclic_group,
    distance_matrix,
    is_resolving,
    metric_dimension,
    power_graph,
    resolving,
    resolving_polynomial,
    twin_partition,
)
from gyrograph.errors import DisconnectedGraphError


@pytest.fixture(scope="module")
def gn3():
    return power_graph(build_gn(3))


@pytest.fixture(scope="module")
def z12():
    # Twin lower bound 7 but metric dimension 8: one layer below psi.
    return power_graph(cyclic_group(12))


def unpruned_resolving_subsets(graph):
    """Oracle: every resolving subset, by size and then lexicographically,
    each tested directly on its distance vectors."""
    dm = distance_matrix(graph)
    for k in range(graph.n + 1):
        for subset in combinations(range(graph.n), k):
            vectors = {
                tuple(dm[v, s] for s in subset) for v in range(graph.n)
            }
            if len(vectors) == graph.n:
                yield subset


def unpruned_resolving_counts(graph):
    """Oracle: the number of resolving subsets of each size."""
    return dict(Counter(map(len, unpruned_resolving_subsets(graph))))


# ---------------------------------------------------------------------------
# Twins
# ---------------------------------------------------------------------------


def test_twin_partition_gn3(gn3):
    tp = twin_partition(gn3)
    classes = {frozenset(c): kind for c, kind in tp.classes}
    assert classes == {
        frozenset({1, 2, 3}): "adjacent",
        frozenset({4, 5, 6, 7}): "non-adjacent",
    }
    assert tp.lower_bound() == 5


def test_complete_graph_is_one_adjacent_twin_class():
    tp = twin_partition(Graph.complete(5))
    assert len(tp.classes) == 1
    cls, kind = tp.classes[0]
    assert cls == frozenset(range(5)) and kind == "adjacent"


def test_path_has_no_nontrivial_twins():
    assert twin_partition(Graph.path(4)).classes == ()


def test_twins_share_distance_vectors(gn3):
    dm = distance_matrix(gn3)
    for cls, _ in twin_partition(gn3).classes:
        for u in cls:
            for v in cls:
                for w in range(gn3.n):
                    if w not in (u, v):
                        assert dm[u, w] == dm[v, w]


# ---------------------------------------------------------------------------
# Resolving sets
# ---------------------------------------------------------------------------


def test_is_resolving_examples(gn3):
    dm = distance_matrix(gn3)
    assert is_resolving(dm, {2, 3, 5, 6, 7})
    assert not is_resolving(dm, {1, 2, 3})
    for v in range(8):
        assert is_resolving(dm, set(range(8)) - {v})


def small_connected_graphs():
    """Connected graphs of 1..8 vertices: twin-rich families, power graphs
    and seeded random graphs."""
    graphs = [
        Graph.complete(1), Graph.complete(2), Graph.complete(6), Graph.star(3),
        Graph.star(7), Graph.cycle(5), Graph.path(8), power_graph(build_gn(3)),
        power_graph(cyclic_group(6)), power_graph(cyclic_group(8)),
    ]
    rng = random.Random(29)
    while len(graphs) < 40:
        n, density = rng.randint(2, 8), rng.choice((0.3, 0.5, 0.8))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < density]
        graph = Graph.from_edges(n, pairs)
        if graph.is_connected():
            graphs.append(graph)
    return graphs


@pytest.mark.parametrize("graph", small_connected_graphs())
def test_is_resolving_matches_a_scan_of_bfs_rows_on_every_subset(graph):
    # Every subset, the empty one and those omitting two twins included,
    # against distance vectors read off networkx BFS rows.
    g = nx.Graph()
    g.add_nodes_from(range(graph.n))
    g.add_edges_from(graph.edges)
    dist = dict(nx.all_pairs_shortest_path_length(g))
    dm = distance_matrix(graph)
    for k in range(graph.n + 1):
        for subset in combinations(range(graph.n), k):
            vectors = {tuple(dist[v][s] for s in subset) for v in range(graph.n)}
            assert is_resolving(dm, subset) == (len(vectors) == graph.n), subset


@pytest.mark.parametrize(
    "group", [build_gn(4), build_gn(5), cyclic_group(12), cyclic_group(28), cyclic_group(30)],
    ids=["G4", "G5", "Z12", "Z28", "Z30"],
)
def test_is_resolving_matches_the_expanded_rows_on_random_subsets(group):
    graph = power_graph(group)
    dm = distance_matrix(graph)
    rng = random.Random(graph.n)
    for _ in range(300):
        subset = rng.sample(range(graph.n), rng.randint(0, graph.n))
        vectors = {tuple(dm[v, s] for s in subset) for v in range(graph.n)}
        assert is_resolving(dm, subset) == (len(vectors) == graph.n), sorted(subset)


@pytest.mark.parametrize(
    "graph",
    [Graph.complete(1), Graph.path(40), Graph.cycle(31),
     Graph.from_edges(10, nx.petersen_graph().edges)],
    ids=["K1", "P40", "C31", "Petersen"],
)
def test_is_resolving_on_twinless_graphs_matches_bfs_rows(graph):
    # Every part is a singleton, so the part table is the distance matrix.
    assert all(kind == "untwinned" for _, kind in graph.twin_parts)
    g = nx.Graph()
    g.add_nodes_from(range(graph.n))
    g.add_edges_from(graph.sorted_edges())
    dist = dict(nx.all_pairs_shortest_path_length(g))
    dm = distance_matrix(graph)
    rng = random.Random(graph.n)
    sizes = [rng.randint(1, min(3, graph.n)) for _ in range(300)]
    for subset in [(), *(rng.sample(range(graph.n), k) for k in sizes)]:
        vectors = {tuple(dist[v][s] for s in subset) for v in range(graph.n)}
        assert is_resolving(dm, subset) == (len(vectors) == graph.n), sorted(subset)


@pytest.mark.parametrize(
    "graph",
    [Graph(2, frozenset()), Graph(4, frozenset({(0, 1)})), Graph.from_edges(4, [(0, 1), (2, 3)])],
)
def test_is_resolving_refuses_disconnected_graphs(graph):
    # Two isolated vertices are non-adjacent twins at distance INF.
    dm = distance_matrix(graph)
    for subset in ((), (0,), tuple(range(graph.n))):
        with pytest.raises(DisconnectedGraphError):
            is_resolving(dm, subset)
    with pytest.raises(ValueError, match="out of range"):
        is_resolving(dm, (graph.n,))


def test_resolving_superset_property(gn3):
    # Adding a vertex to a resolving set keeps it resolving.
    base = {2, 3, 5, 6, 7}
    dm = distance_matrix(gn3)
    for w in range(8):
        assert is_resolving(dm, base | {w})


def test_twin_exchange_property(gn3):
    # Swap a twin inside the set for its twin outside: still resolving.
    s = {2, 3, 5, 6, 7}
    dm = distance_matrix(gn3)
    assert is_resolving(dm, (s - {2}) | {1})
    assert is_resolving(dm, (s - {5}) | {4})


def test_every_resolving_set_nearly_covers_each_twin_class(gn3):
    classes = [c for c, _ in twin_partition(gn3).classes]
    dm = distance_matrix(gn3)
    for k in range(5, 9):
        for subset in combinations(range(8), k):
            if is_resolving(dm, subset):
                for cls in classes:
                    assert len(cls - set(subset)) <= 1


# ---------------------------------------------------------------------------
# Metric dimension
# ---------------------------------------------------------------------------


def test_metric_dimension_gn3(gn3):
    assert metric_dimension(distance_matrix(gn3)) == 5


def test_metric_dimension_complete_graph():
    assert metric_dimension(distance_matrix(Graph.complete(4))) == 3


def test_metric_dimension_gn4():
    assert metric_dimension(distance_matrix(power_graph(build_gn(4)))) == 13


def test_metric_dimension_path_is_one():
    assert metric_dimension(distance_matrix(Graph.path(6))) == 1


def test_metric_dimension_cycle_is_two():
    assert metric_dimension(distance_matrix(Graph.cycle(6))) == 2


# ---------------------------------------------------------------------------
# Resolving polynomial
# ---------------------------------------------------------------------------


def test_resolving_polynomial_gn3(gn3):
    prof = resolving_polynomial(distance_matrix(gn3))
    assert prof.metric_dimension == 5
    assert prof.resolving_sequence == (12, 19, 8, 1)
    assert prof.polynomial == IntPolynomial({8: 1, 7: 8, 6: 19, 5: 12})
    assert is_resolving(distance_matrix(gn3), prof.witness_basis)
    assert len(prof.witness_basis) == 5


def test_resolving_polynomial_k3():
    prof = resolving_polynomial(distance_matrix(Graph.complete(3)))
    assert prof.polynomial == IntPolynomial({3: 1, 2: 3})


def test_resolving_polynomial_k2():
    prof = resolving_polynomial(distance_matrix(Graph.complete(2)))
    assert prof.polynomial == IntPolynomial({2: 1, 1: 2})


def test_pruned_enumeration_matches_full_enumeration_gn3(gn3):
    # The twin-pruned counts must agree with testing all 2^8 subsets.
    prof = resolving_polynomial(distance_matrix(gn3))
    full = unpruned_resolving_counts(gn3)
    assert full == {
        k: prof.polynomial.coefficient(k)
        for k in range(prof.metric_dimension, 9)
    }
    assert min(full) == prof.metric_dimension


def test_pruned_matches_full_on_twinless_graph():
    g = Graph.path(5)
    prof = resolving_polynomial(distance_matrix(g))
    assert unpruned_resolving_counts(g) == {
        k: prof.polynomial.coefficient(k)
        for k in range(prof.metric_dimension, 6)
    }


def test_resolving_polynomial_gn4_closed_form():
    prof = resolving_polynomial(distance_matrix(power_graph(build_gn(4))))
    assert prof.metric_dimension == 13
    assert prof.resolving_sequence == (56, 71, 16, 1)


def test_sequence_top_coefficient_is_one(gn3):
    prof = resolving_polynomial(distance_matrix(gn3))
    assert prof.resolving_sequence[-1] == 1
    assert prof.polynomial.coefficient(gn3.n) == 1


def test_profile_serializes():
    prof = resolving_polynomial(distance_matrix(Graph.complete(3)))
    data = prof.to_dict()
    assert data["psi"] == 2
    assert data["sequence"] == [3, 1]
    assert data["witness_basis"] == [0, 1]


# ---------------------------------------------------------------------------
# One enumeration pass, checked against the unpruned oracle
# ---------------------------------------------------------------------------


def random_connected_graph(rng, n):
    """A random spanning tree plus edges of a random density."""
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    p = rng.random()
    edges |= {(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p}
    return Graph.from_edges(n, edges)


def assert_matches_unpruned(graph):
    subsets = list(unpruned_resolving_subsets(graph))
    full = dict(Counter(map(len, subsets)))
    least = subsets[0]  # the least resolving subset of the least size
    psi = len(least)
    dm = distance_matrix(graph)
    prof = resolving_polynomial(dm)
    assert metric_dimension(dm) == prof.metric_dimension == psi
    assert prof.resolving_sequence == tuple(full[k] for k in range(psi, graph.n + 1))
    assert prof.polynomial == IntPolynomial(full)
    assert prof.witness_basis == least


@pytest.mark.parametrize("seed", range(60))
def test_single_pass_matches_all_subsets_on_random_graphs(seed):
    rng = random.Random(seed)
    assert_matches_unpruned(random_connected_graph(rng, rng.randint(1, 8)))


def test_single_pass_matches_all_subsets_on_z12(z12):
    assert twin_partition(z12).lower_bound() == 7
    assert metric_dimension(distance_matrix(z12)) == 8
    assert_matches_unpruned(z12)


def record_layers(monkeypatch):
    """Record the size k of every layer that _resolving_layers enumerates,
    as its loop takes k from the sizes it is given."""
    original = resolving._resolving_layers
    layers = []

    def recording(dm, sizes):
        def recorded():
            for k in sizes:
                layers.append(k)
                yield k

        return original(dm, recorded())

    monkeypatch.setattr(resolving, "_resolving_layers", recording)
    return layers


def test_resolving_polynomial_enumerates_each_layer_once(monkeypatch, gn3, z12):
    layers = record_layers(monkeypatch)
    resolving_polynomial(distance_matrix(z12))
    assert layers == list(range(7, 13))
    layers.clear()
    resolving_polynomial(distance_matrix(gn3))
    assert layers == list(range(5, 9))


def test_metric_dimension_stops_at_the_first_resolving_layer(monkeypatch, z12):
    layers = record_layers(monkeypatch)
    assert metric_dimension(distance_matrix(z12)) == 8
    assert layers == [7, 8]


# ---------------------------------------------------------------------------
# One pattern per twin-omission choice, checked against the unpruned oracle
# ---------------------------------------------------------------------------


@st.composite
def twin_blow_ups(draw):
    """A random connected graph on 2-5 vertices with each vertex blown up
    into a clique or an independent set of twins, then relabelled (at most
    10 vertices, so the all-subsets oracle stays fast)."""
    k = draw(st.integers(2, 5))
    tree = {(draw(st.integers(0, v - 1)), v) for v in range(1, k)}
    extra = draw(st.sets(st.sampled_from([(u, v) for u in range(k) for v in range(u + 1, k)])))
    sizes = [draw(st.integers(1, 3 if k <= 3 else 2)) for _ in range(k)]
    cliques = [draw(st.booleans()) for _ in range(k)]
    start = [sum(sizes[:i]) for i in range(k)]
    blob = [range(start[i], start[i] + sizes[i]) for i in range(k)]
    edges = {(u, v) for i in range(k) if cliques[i] for u in blob[i] for v in blob[i] if u < v}
    edges |= {(u, v) for i, j in tree | extra for u in blob[i] for v in blob[j]}
    perm = draw(st.permutations(range(sum(sizes))))
    return Graph.from_edges(sum(sizes), {(perm[u], perm[v]) for u, v in edges})


@settings(max_examples=200, deadline=None)
@given(twin_blow_ups())
def test_patterns_match_all_subsets_on_twin_blow_ups(graph):
    assert_matches_unpruned(graph)


def test_budget_refuses_before_a_layer_it_cannot_afford(monkeypatch):
    # Path(6) is twinless: layer k costs C(6, 6 - k) * 6 * k lookups, so
    # layers 0..2 spend 0 + 36 + 180 = 216 and layer 3 would add 360.  The
    # polynomial needs every layer, so it refuses before searching any.
    layers = record_layers(monkeypatch)
    monkeypatch.setattr(resolving, "LOOKUP_BUDGET", 216)
    message = (
        "resolving-set search refused at layer k=3: 20 omission patterns, "
        "360 distance lookups avoided (216 spent, budget 216)"
    )
    with pytest.raises(BoundExceededError) as info:
        resolving_polynomial(distance_matrix(Graph.path(6)))
    assert str(info.value) == message
    assert layers == []
    # metric_dimension stops at layer 1 and never asks for layer 3.
    assert metric_dimension(distance_matrix(Graph.path(6))) == 1
    assert layers == [0, 1]


def test_large_twinless_graph_is_refused_quickly():
    start = time.perf_counter()
    with pytest.raises(BoundExceededError, match="lookups avoided"):
        resolving_polynomial(distance_matrix(Graph.path(200)))
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("n", [6, 7, 8, 12])
def test_resolving_polynomial_of_gn_within_the_default_budget(n):
    graph = power_graph(build_gn(n))
    start = time.perf_counter()
    dm = distance_matrix(graph)
    prof = resolving_polynomial(dm)
    assert time.perf_counter() - start < 10.0
    assert prof.metric_dimension == closed_forms.metric_dimension_closed_form(n)
    assert prof.resolving_sequence == closed_forms.resolving_sequence_closed_form(n)
    assert prof.polynomial == closed_forms.resolving_polynomial_closed_form(n)
    assert is_resolving(dm, prof.witness_basis)


def test_z60_is_within_the_default_budget():
    graph = power_graph(cyclic_group(60))
    start = time.perf_counter()
    dm = distance_matrix(graph)
    prof = resolving_polynomial(dm)
    assert time.perf_counter() - start < 10.0
    assert prof.resolving_sequence[-1] == 1
    assert is_resolving(dm, prof.witness_basis)
