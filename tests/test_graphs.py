"""Power-graph construction and the simple-graph substrate."""

import contextlib
import io
import json
import random
import tracemalloc

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_verification import (
    changed,
    count_calls,
    cyclic_monoid,
    left_powers,
    relabelled_gn,
)

from gyrograph import (
    Graph,
    build_gn,
    bundled_gyrogroup,
    classify_gn_shape,
    cli,
    cyclic_group,
    detour_matrix,
    distance_matrix,
    graphs,
    induced_subgraph,
    is_planar,
    load_table,
    polynomials,
    power_graph,
    to_dot,
    to_json,
)
from gyrograph.verification import verify_gn

GN3_EDGES = {
    (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
    (0, 4), (0, 5), (0, 6), (0, 7),
}


def reference_power_graph(g):
    """The former power_graph, edge by edge: u ~ v for each v != u among
    the powers u^1..u^N."""
    edges = ((u, v) for u in g.elements() for v in set(left_powers(g, u, g.order)) if v != u)
    return Graph.from_edges(g.order, edges, labels=g.labels)


def test_power_graph_gn3_explicit_edges():
    graph = power_graph(build_gn(3))
    assert graph.n == 8
    assert graph.edge_count == 10
    assert graph.edges == frozenset(GN3_EDGES)


def test_power_graph_of_cyclic_2_group_is_complete():
    # Cyclic groups of prime-power order have complete power graphs.
    assert power_graph(cyclic_group(8)).is_complete()
    for order in (2, 3, 4, 5, 7, 9):
        assert power_graph(cyclic_group(order)).is_complete()


def test_power_graph_of_z6_is_not_complete():
    graph = power_graph(cyclic_group(6))
    assert not graph.is_complete()
    assert not graph.has_edge(2, 3)


def test_power_graph_trivial():
    graph = power_graph(load_table([[0]]))
    assert graph.n == 1 and graph.edge_count == 0


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_power_graph_matches_pairwise_power_scan(n):
    rng = random.Random(f"power-graph:{n}")
    for g in (build_gn(n), relabelled_gn(n, rng), relabelled_gn(n, rng)):
        assert power_graph(g) == reference_power_graph(g)


@pytest.mark.parametrize("name", ["k1", "n1", "g8", "m1", "gn3"])
def test_power_graph_matches_oracle_on_bundled_tables(name):
    g = bundled_gyrogroup(name)
    assert power_graph(g) == reference_power_graph(g)


def test_power_graph_matches_the_reference_on_cyclic_groups():
    for k in range(1, 41):
        z = cyclic_group(k)
        assert power_graph(z) == reference_power_graph(z)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_power_graph_matches_the_reference_on_corrupted_and_rho_shaped_tables(n):
    # Each corrupted G(n) has one changed product; a cyclic monoid's powers
    # of 1 run into a cycle that does not return to 1.
    rng = random.Random(f"corrupted:{n}")
    g = build_gn(n)
    tables = [cyclic_monoid(n - 2 + r, p) for r in (0, 1, 2) for p in range(1, 2 * n)]
    for _ in range(10):
        x, y = rng.randrange(1, g.order), rng.randrange(g.order)
        tables.append(changed(g, x, y, (g.op(x, y) + rng.randrange(1, g.order)) % g.order))
    for h in tables:
        assert power_graph(h) == reference_power_graph(h)


def test_power_graph_is_simple_and_symmetric():
    graph = power_graph(build_gn(4))
    for u, v in graph.edges:
        assert u != v
        assert graph.has_edge(u, v) and graph.has_edge(v, u)


# ---------------------------------------------------------------------------
# Shape classification
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [3, 4, 5])
def test_gn_shape_detected(n):
    m = 2 ** (n - 1)
    s = classify_gn_shape(power_graph(build_gn(n)))
    assert s.matches_gn_shape
    assert s.hub == 0
    assert s.clique_part == frozenset(range(m))
    assert s.pendant_part == frozenset(range(m, 2 * m))


def test_complete_graph_is_not_gn_shaped():
    assert not classify_gn_shape(Graph.complete(8)).matches_gn_shape


def test_k1_table_power_graph_shape():
    # The k1 power graph is a 4-clique {0,1,6,7} with pendants {2,3,4,5}.
    s = classify_gn_shape(power_graph(bundled_gyrogroup("k1")))
    assert s.matches_gn_shape
    assert s.clique_part == frozenset({0, 1, 6, 7})
    assert s.pendant_part == frozenset({2, 3, 4, 5})


def test_g8_power_graph_is_not_gn_shaped():
    # Two 4-cliques sharing an edge plus two pendants.
    assert not classify_gn_shape(power_graph(bundled_gyrogroup("g8"))).matches_gn_shape


# ---------------------------------------------------------------------------
# Induced subgraphs
# ---------------------------------------------------------------------------


def test_induced_clique_part_is_complete():
    graph = power_graph(build_gn(3))
    assert induced_subgraph(graph, {0, 1, 2, 3}).is_complete()


def test_induced_single_vertex():
    sub = induced_subgraph(power_graph(build_gn(3)), {5})
    assert sub.n == 1 and sub.edge_count == 0


def test_induced_pendants_with_identity_is_a_star():
    sub = induced_subgraph(power_graph(build_gn(3)), {0, 4, 5, 6, 7})
    assert sub.n == 5
    assert sub.edge_count == 4
    degrees = sorted(sub.degree(v) for v in sub.vertices())
    assert degrees == [1, 1, 1, 1, 4]  # K_{1,4}, a tree


def test_induced_subgraph_rejects_bad_vertex():
    with pytest.raises(ValueError):
        induced_subgraph(Graph.complete(3), {0, 5})


@contextlib.contextmanager
def edge_and_neighbor_reads():
    """Record every read of Graph.edges and call of Graph.neighbors, the two
    readers that build a copy of the rows, as (name, graph order)."""
    reads = []
    edges, neighbors = Graph.edges, Graph.neighbors
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Graph, "edges", property(lambda g: reads.append(("edges", g.n)) or edges.fget(g)))
        mp.setattr(Graph, "neighbors", lambda g, v: reads.append(("neighbors", g.n)) or neighbors(g, v))
        yield reads


def test_induced_subgraph_of_a_large_power_graph_reads_only_the_rows():
    graph = power_graph(build_gn(8))
    with edge_and_neighbor_reads() as reads:
        sub = induced_subgraph(graph, [0, 5, 130, 200])
    assert reads == []
    assert sub == Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)], sub.labels)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def test_export_k1_formats():
    g = Graph.complete(1)
    dot = to_dot(g)
    assert "graph G" in dot and "--" not in dot
    data = json.loads(to_json(g))
    assert data == {"n": 1, "labels": ["0"], "edges": []}


def test_export_gn3_dot_has_ten_edge_lines():
    dot = to_dot(power_graph(build_gn(3)))
    assert sum(1 for line in dot.splitlines() if "--" in line) == 10


def test_json_round_trip_is_identity():
    graph = power_graph(build_gn(3))
    data = json.loads(to_json(graph))
    assert Graph.from_edges(data["n"], map(tuple, data["edges"]), tuple(data["labels"])) == graph


def test_export_is_deterministic():
    graph = power_graph(build_gn(4))
    assert to_dot(graph) == to_dot(graph)
    assert to_json(graph) == to_json(graph)


def test_graph_rejects_self_loop_and_bad_edges():
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(1, 1)])
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 4)])
    # Every edge is checked, wherever it lies in the list.
    for edges in ([(-1, 0)], [(0, 1), (2, 2)], [(1, 0), (2, 1), (0, 3)]):
        with pytest.raises(ValueError, match="out of range|self-loop"):
            Graph.from_edges(3, edges)


# ---------------------------------------------------------------------------
# The views of the adjacency rows
# ---------------------------------------------------------------------------


@st.composite
def edge_lists(draw):
    """(n, edges) with reversed and repeated pairs mixed in."""
    n = draw(st.integers(0, 9))
    if n < 2:
        return n, []
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda e: e[0] != e[1]
    )
    edges = draw(st.lists(pair, max_size=3 * n))
    repeats = draw(st.lists(st.sampled_from(edges), max_size=4)) if edges else []
    return n, edges + [(v, u) for u, v in repeats] + repeats


def oracle_twin_parts(n, neighbor_sets):
    """Twin parts by definition, ordered by least vertex: equal closed
    neighborhoods first, then equal open ones, else a part of its own."""
    parts, placed = [], set()
    for v in range(n):
        if v in placed:
            continue
        closed = [w for w in range(n) if neighbor_sets[w] | {w} == neighbor_sets[v] | {v}]
        open_ = [w for w in range(n) if neighbor_sets[w] == neighbor_sets[v]]
        if len(closed) > 1:
            part, kind = closed, "adjacent"
        elif len(open_) > 1:
            part, kind = open_, "non-adjacent"
        else:
            part, kind = [v], "untwinned"
        placed.update(part)
        parts.append((tuple(part), kind))
    return tuple(parts)


def networkx_blocks(n, edges):
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(edges)
    return sorted(tuple(sorted(block)) for block in nx.biconnected_components(g))


@settings(max_examples=150, deadline=None)
@given(edge_lists())
def test_views_match_a_computation_from_scratch(case):
    n, edges = case
    graph = Graph.from_edges(n, edges)
    neighbor_sets = [set() for _ in range(n)]
    for u, v in edges:
        neighbor_sets[u].add(v)
        neighbor_sets[v].add(u)
    normalised = frozenset((min(u, v), max(u, v)) for u, v in edges)
    assert graph.edges == normalised
    assert graph == Graph(n, normalised)
    assert graph.edge_count == len(normalised)
    for v in range(n):
        assert graph.neighbors(v) == tuple(sorted(neighbor_sets[v]))
        assert isinstance(graph.neighbors(v), tuple)
        assert graph.degree(v) == len(neighbor_sets[v])
        for w in range(n):
            assert graph.has_edge(v, w) == (w in neighbor_sets[v])
    assert graph.twin_parts == oracle_twin_parts(n, neighbor_sets)
    assert sorted(graph.blocks) == networkx_blocks(n, edges)
    for view in (graph.twin_parts, graph.blocks):
        assert isinstance(view, tuple) and all(isinstance(item, tuple) for item in view)
    assert all(isinstance(part, tuple) for part, _ in graph.twin_parts)
    assert all(list(block) == sorted(block) for block in graph.blocks)


@settings(max_examples=60, deadline=None)
@given(edge_lists(), st.randoms(use_true_random=False))
def test_blocks_follow_a_relabelling(case, rng):
    n, edges = case
    perm = list(range(n))
    rng.shuffle(perm)
    graph = Graph.from_edges(n, edges)
    image = Graph.from_edges(n, [(perm[u], perm[v]) for u, v in edges])
    assert sorted(image.blocks) == sorted(
        tuple(sorted(perm[v] for v in block)) for block in graph.blocks
    )


def nx_graph(n, edges):
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(edges)
    return g


@settings(max_examples=150, deadline=None)
@given(edge_lists(), st.data())
def test_equality_and_hash_read_the_rows(case, data):
    # The same edges listed reversed, repeated or shuffled give an equal
    # graph; dropping some pairs gives an equal graph exactly when networkx
    # finds the same graph (a reversed copy of a dropped pair may remain).
    n, edges = case
    shuffled = data.draw(st.permutations([(v, u) for u, v in edges] + edges))
    graph, twin = Graph.from_edges(n, edges), Graph.from_edges(n, shuffled)
    dropped = data.draw(st.sets(st.sampled_from(edges))) if edges else set()
    kept = [e for e in edges if e not in dropped]
    same = nx.utils.graphs_equal(nx_graph(n, edges), nx_graph(n, kept))
    with edge_and_neighbor_reads() as reads:
        assert graph == twin and hash(graph) == hash(twin)
        assert (graph == Graph.from_edges(n, kept)) == same
    assert reads == []


@settings(max_examples=100, deadline=None)
@given(edge_lists(), st.data())
def test_induced_subgraph_matches_networkx_and_reads_only_the_rows(case, data):
    n, edges = case
    vertices = data.draw(st.lists(st.integers(0, n - 1), max_size=n + 2)) if n else []
    graph = Graph.from_edges(n, edges)
    with edge_and_neighbor_reads() as reads:
        sub = induced_subgraph(graph, vertices)
    assert reads == []
    kept = sorted(set(vertices))
    index = {v: i for i, v in enumerate(kept)}
    expected = nx.relabel_nodes(nx_graph(n, edges).subgraph(kept), index)
    assert nx.utils.graphs_equal(nx_graph(len(kept), sub.sorted_edges()), expected)
    assert sub.labels == tuple(graph.labels[v] for v in kept)


def test_equality_of_large_power_graphs_reads_only_the_rows():
    a, b, z = power_graph(build_gn(8)), power_graph(build_gn(8)), power_graph(cyclic_group(256))
    with edge_and_neighbor_reads() as reads:
        assert a == b and hash(a) == hash(b)
        assert a != z
    assert reads == []


@settings(max_examples=100, deadline=None)
@given(edge_lists())
def test_sorted_edges_is_the_sorted_edge_set(case):
    graph = Graph.from_edges(*case)
    assert graph.sorted_edges() == sorted(graph.edges)


def test_views_are_built_once_per_graph():
    # The structural views are cached; the edge set and the neighbor
    # tuples are read off the rows on each call and never kept.
    graph = power_graph(build_gn(4))
    for name in ("twin_parts", "blocks", "twin_quotient"):
        assert getattr(graph, name) is getattr(graph, name)
    assert graph.edges == graph.edges and graph.neighbors(3) == graph.neighbors(3)
    assert graph.neighbors(3) == (0, 1, 2, 4, 5, 6, 7)
    assert set(vars(graph)) == {"n", "labels", "adj_bits", "twin_parts", "blocks", "twin_quotient"}
    assert graph.twin_parts == (
        ((0,), "untwinned"),
        (tuple(range(1, 8)), "adjacent"),
        (tuple(range(8, 16)), "non-adjacent"),
    )


@pytest.mark.parametrize("layer", [is_planar, detour_matrix, distance_matrix])
def test_layers_walk_the_rows_without_copying_them(layer):
    # On a fresh P(G(11)) (a 1024-clique, 524 800 edges) the block search,
    # the BFS and the face insertion read the bitmask rows; a neighbor tuple
    # per vertex or an edge per stack entry would take well over 5 MiB.
    graph = power_graph(build_gn(11))
    tracemalloc.start()
    try:
        layer(graph)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def _invariants_gn5():
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["invariants", "--gn", "5", "--all", "--format", "json"]) == 0


RUNS = pytest.mark.parametrize(
    "run", [_invariants_gn5, lambda: verify_gn(5)], ids=["cli", "verify_gn"]
)


@RUNS
def test_each_graph_builds_its_twin_parts_and_blocks_once(monkeypatch, run):
    # The detour, planarity and Hamiltonicity layers read one block DFS per
    # graph; distances, resolving and the spectral quotient read one twin
    # partition per graph.
    twin_builds = count_calls(monkeypatch, graphs, "twin_parts")
    block_builds = count_calls(monkeypatch, graphs, "biconnected_components")
    built = []
    set_rows = Graph._set_rows  # every graph is built through it

    def recording(self, *args):
        set_rows(self, *args)
        built.append(self)

    monkeypatch.setattr(Graph, "_set_rows", recording)
    run()
    assert block_builds and len({id(g) for g in block_builds}) == len(block_builds)
    assert len(block_builds) <= len(built)
    assert twin_builds and len(twin_builds) <= len(built)


@RUNS
def test_no_graph_builds_its_edge_set(run):
    # Every reader takes the rows, neither the edge set nor a neighbor
    # tuple, and the closure's fixed-point test is `closure is graph`.
    with edge_and_neighbor_reads() as reads:
        run()
    assert reads == []


def test_verify_gn_builds_the_power_graph_and_its_pendant_part_only(monkeypatch):
    built = []
    set_rows = Graph._set_rows  # every graph is built through it

    def recording(self, *args):
        set_rows(self, *args)
        built.append((self.n, self.edge_count))

    monkeypatch.setattr(Graph, "_set_rows", recording)
    verify_gn(5)
    assert built == [(32, 16 * 15 // 2 + 16), (32, 16)]


@RUNS
def test_spectral_layer_builds_no_dense_adjacency_matrix(monkeypatch, run):
    # The charpoly and the spectral radius read the graph's 3 x 3 twin
    # quotient; no 32 x 32 matrix of P(G(5)) or of its pendant part reaches
    # the recurrence.
    rows = count_calls(monkeypatch, polynomials, "char_poly")
    run()
    assert rows and {len(r) for r in rows} == {3}
