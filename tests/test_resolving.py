"""Twin detection, resolving sets, metric dimension, resolving polynomial."""

import random
from itertools import combinations

import pytest

from gyrograph import (
    BoundExceededError,
    Graph,
    IntPolynomial,
    build_gn,
    cyclic_group,
    distance_matrix,
    is_resolving,
    metric_dimension,
    power_graph,
    resolving,
    resolving_polynomial,
    twin_partition,
)


@pytest.fixture(scope="module")
def gn3():
    return power_graph(build_gn(3))


@pytest.fixture(scope="module")
def z12():
    # Twin lower bound 7 but metric dimension 8: one layer below psi.
    return power_graph(cyclic_group(12))


def unpruned_resolving_counts(graph):
    """Oracle: test every subset of every size directly."""
    dm = distance_matrix(graph)
    counts = {}
    for k in range(graph.n + 1):
        c = 0
        for subset in combinations(range(graph.n), k):
            vectors = {
                tuple(dm.entries[v][s] for s in subset) for v in range(graph.n)
            }
            if len(vectors) == graph.n:
                c += 1
        if c:
            counts[k] = c
    return counts


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
    assert is_resolving(gn3, {2, 3, 5, 6, 7})
    assert not is_resolving(gn3, {1, 2, 3})
    for v in range(8):
        assert is_resolving(gn3, set(range(8)) - {v})


def test_resolving_superset_property(gn3):
    # Adding a vertex to a resolving set keeps it resolving.
    base = {2, 3, 5, 6, 7}
    for w in range(8):
        assert is_resolving(gn3, base | {w})


def test_twin_exchange_property(gn3):
    # Swap a twin inside the set for its twin outside: still resolving.
    s = {2, 3, 5, 6, 7}
    assert is_resolving(gn3, (s - {2}) | {1})
    assert is_resolving(gn3, (s - {5}) | {4})


def test_every_resolving_set_nearly_covers_each_twin_class(gn3):
    classes = [c for c, _ in twin_partition(gn3).classes]
    for k in range(5, 9):
        for subset in combinations(range(8), k):
            if is_resolving(gn3, subset):
                for cls in classes:
                    assert len(cls - set(subset)) <= 1


# ---------------------------------------------------------------------------
# Metric dimension
# ---------------------------------------------------------------------------


def test_metric_dimension_gn3(gn3):
    assert metric_dimension(gn3) == 5


def test_metric_dimension_complete_graph():
    assert metric_dimension(Graph.complete(4)) == 3


def test_metric_dimension_gn4():
    assert metric_dimension(power_graph(build_gn(4))) == 13


def test_metric_dimension_path_is_one():
    assert metric_dimension(Graph.path(6)) == 1


def test_metric_dimension_cycle_is_two():
    assert metric_dimension(Graph.cycle(6)) == 2


def test_metric_dimension_order_bound():
    with pytest.raises(BoundExceededError):
        metric_dimension(power_graph(build_gn(4)), order_bound=8)


# ---------------------------------------------------------------------------
# Resolving polynomial
# ---------------------------------------------------------------------------


def test_resolving_polynomial_gn3(gn3):
    prof = resolving_polynomial(gn3)
    assert prof.metric_dimension == 5
    assert prof.resolving_sequence == (12, 19, 8, 1)
    assert prof.polynomial == IntPolynomial({8: 1, 7: 8, 6: 19, 5: 12})
    assert is_resolving(gn3, prof.witness_basis)
    assert len(prof.witness_basis) == 5


def test_resolving_polynomial_k3():
    prof = resolving_polynomial(Graph.complete(3))
    assert prof.polynomial == IntPolynomial({3: 1, 2: 3})


def test_resolving_polynomial_k2():
    prof = resolving_polynomial(Graph.complete(2))
    assert prof.polynomial == IntPolynomial({2: 1, 1: 2})


def test_pruned_enumeration_matches_full_enumeration_gn3(gn3):
    # The twin-pruned counts must agree with testing all 2^8 subsets.
    prof = resolving_polynomial(gn3)
    full = unpruned_resolving_counts(gn3)
    assert full == {
        k: prof.polynomial.coefficient(k)
        for k in range(prof.metric_dimension, 9)
    }
    assert min(full) == prof.metric_dimension


def test_pruned_matches_full_on_twinless_graph():
    g = Graph.path(5)
    prof = resolving_polynomial(g)
    assert unpruned_resolving_counts(g) == {
        k: prof.polynomial.coefficient(k)
        for k in range(prof.metric_dimension, 6)
    }


def test_resolving_polynomial_gn4_closed_form():
    prof = resolving_polynomial(power_graph(build_gn(4)))
    assert prof.metric_dimension == 13
    assert prof.resolving_sequence == (56, 71, 16, 1)


def test_sequence_top_coefficient_is_one(gn3):
    prof = resolving_polynomial(gn3)
    assert prof.resolving_sequence[-1] == 1
    assert prof.polynomial.coefficient(gn3.n) == 1


def test_profile_serializes():
    prof = resolving_polynomial(Graph.complete(3))
    import json

    data = json.loads(prof.to_json())
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
    full = unpruned_resolving_counts(graph)
    psi = min(full)
    least = next(
        s for s in combinations(range(graph.n), psi) if is_resolving(graph, s)
    )
    prof = resolving_polynomial(graph)
    assert metric_dimension(graph) == prof.metric_dimension == psi
    assert prof.resolving_sequence == tuple(full[k] for k in range(psi, graph.n + 1))
    assert prof.polynomial == IntPolynomial(full)
    assert prof.witness_basis == least


@pytest.mark.parametrize("seed", range(60))
def test_single_pass_matches_all_subsets_on_random_graphs(seed):
    rng = random.Random(seed)
    assert_matches_unpruned(random_connected_graph(rng, rng.randint(1, 8)))


def test_single_pass_matches_all_subsets_on_z12(z12):
    assert twin_partition(z12).lower_bound() == 7
    assert metric_dimension(z12) == 8
    assert_matches_unpruned(z12)


def record_layers(monkeypatch):
    """Record the size k of every _candidate_subsets enumeration."""
    original = resolving._candidate_subsets
    layers = []

    def recording(n, units, k):
        layers.append(k)
        return original(n, units, k)

    monkeypatch.setattr(resolving, "_candidate_subsets", recording)
    return layers


def test_resolving_polynomial_enumerates_each_layer_once(monkeypatch, gn3, z12):
    layers = record_layers(monkeypatch)
    resolving_polynomial(z12)
    assert layers == list(range(7, 13))
    layers.clear()
    resolving_polynomial(gn3)
    assert layers == list(range(5, 9))


def test_metric_dimension_stops_at_the_first_resolving_layer(monkeypatch, z12):
    layers = record_layers(monkeypatch)
    assert metric_dimension(z12) == 8
    assert layers == [7, 8]
