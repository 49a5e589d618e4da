"""Planarity certificates, Hamiltonicity, and isomorphism searches."""

import hashlib
import json
import random
import time
from itertools import permutations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gyrograph import (
    BoundExceededError,
    Graph,
    GyroGroup,
    IsomorphismWitness,
    Permutation,
    build_gn,
    bundled_gyrogroup,
    check_embedding,
    cyclic_group,
    find_isomorphism,
    gyro_isomorphic,
    load_table,
    is_hamiltonian,
    is_planar,
    power_graph,
    powers,
    relabel,
    trace_faces,
    verify_isomorphism,
    verify_kuratowski,
)
from gyrograph import isomorphism, structure
from gyrograph.graphs import reachable, set_bits
from gyrograph.structure import PlanarityResult, _find_k5_clique, _rotation_from_faces

K33 = Graph.from_edges(6, [(i, j + 3) for i in range(3) for j in range(3)])
PETERSEN = Graph.from_edges(
    10,
    [
        (0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
        (5, 7), (7, 9), (9, 6), (6, 8), (8, 5),
        (0, 5), (1, 6), (2, 7), (3, 8), (4, 9),
    ],
)


def grid_graph(w, h):
    def idx(x, y):
        return y * w + x

    edges = []
    for y in range(h):
        for x in range(w):
            if x + 1 < w:
                edges.append((idx(x, y), idx(x + 1, y)))
            if y + 1 < h:
                edges.append((idx(x, y), idx(x, y + 1)))
    return Graph.from_edges(w * h, edges)


# ---------------------------------------------------------------------------
# Planarity
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "graph",
    [
        Graph.complete(1),
        Graph.complete(2),
        Graph.complete(4),
        Graph.cycle(5),
        Graph.path(7),
        Graph.star(6),
        grid_graph(4, 4),
        power_graph(build_gn(3)),
        # two triangles sharing a vertex: exercises block merging
        Graph.from_edges(5, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)]),
        # disconnected: triangle plus isolated vertices plus an edge
        Graph.from_edges(7, [(0, 1), (1, 2), (2, 0), (4, 5)]),
    ],
)
def test_planar_graphs_get_verified_embeddings(graph):
    result = is_planar(graph)
    assert result.is_planar
    assert check_embedding(graph, result.rotation)


def test_gn3_power_graph_is_planar():
    graph = power_graph(build_gn(3))
    result = is_planar(graph)
    assert result.is_planar
    faces = trace_faces(graph, result.rotation)
    # V - E + F = 2 on a connected embedding.
    assert graph.n - graph.edge_count + len(faces) == 2


@pytest.mark.parametrize("n", [4, 5])
def test_gn_power_graph_nonplanar_with_k5_witness(n):
    graph = power_graph(build_gn(n))
    result = is_planar(graph)
    assert not result.is_planar
    assert result.kuratowski_kind == "K5"
    assert verify_kuratowski(graph, result.kuratowski_edges) == "K5"
    # The witness sits inside the complete block.
    m = 2 ** (n - 1)
    assert all(u < m and v < m for u, v in result.kuratowski_edges)


def test_k5_and_k33_witnesses():
    r5 = is_planar(Graph.complete(5))
    assert not r5.is_planar and r5.kuratowski_kind == "K5"
    assert verify_kuratowski(Graph.complete(5), r5.kuratowski_edges) == "K5"
    r33 = is_planar(K33)
    assert not r33.is_planar and r33.kuratowski_kind == "K33"
    assert verify_kuratowski(K33, r33.kuratowski_edges) == "K33"


def test_petersen_graph_yields_k33_subdivision():
    # Petersen is 3-regular, so no K5 subdivision can exist in it.
    result = is_planar(PETERSEN)
    assert not result.is_planar
    assert result.kuratowski_kind == "K33"
    assert verify_kuratowski(PETERSEN, result.kuratowski_edges) == "K33"


def test_subdivided_k33_detected():
    edges = []
    mid = 6
    for i in range(3):
        for j in range(3):
            edges += [(i, mid), (mid, j + 3)]
            mid += 1
    graph = Graph.from_edges(mid, edges)
    result = is_planar(graph)
    assert not result.is_planar and result.kuratowski_kind == "K33"


def test_k6_nonplanar():
    result = is_planar(Graph.complete(6))
    assert not result.is_planar
    assert verify_kuratowski(Graph.complete(6), result.kuratowski_edges) in (
        "K5",
        "K33",
    )


def complete_bipartite(k):
    return Graph.from_edges(2 * k, {(u, k + v) for u in range(k) for v in range(k)})


def test_planarity_extraction_bound(monkeypatch):
    # Deciding is never refused, and neither is a K5 clique reached with no
    # fruitless step; otherwise the extraction counts against the bound.
    monkeypatch.setattr(structure, "KURATOWSKI_WORK_BOUND", 0)
    assert is_planar(grid_graph(16, 16)).is_planar
    assert is_planar(Graph.complete(6)).kuratowski_kind == "K5"
    monkeypatch.setattr(structure, "KURATOWSKI_WORK_BOUND", 53)
    with pytest.raises(BoundExceededError, match="9 edges x 6 vertices = 54 exceeds bound 53"):
        is_planar(complete_bipartite(3))
    monkeypatch.setattr(structure, "KURATOWSKI_WORK_BOUND", 54)
    assert is_planar(complete_bipartite(3)).kuratowski_kind == "K33"
    monkeypatch.undo()
    # K64,64 would take about 4 s to extract; it is refused at once.
    start = time.perf_counter()
    with pytest.raises(BoundExceededError, match="4096 edges x 128 vertices = 524288"):
        is_planar(complete_bipartite(64))
    assert time.perf_counter() - start < 1.0


def reference_k5_clique(graph):
    """The former clique search: every level rescans all candidates."""
    bits = list(graph.adj_bits)
    cands = [v for v in range(graph.n) if graph.degree(v) >= 4]
    for a in cands:
        ba = bits[a]
        for b in (v for v in cands if v > a and ba >> v & 1):
            bab = ba & bits[b]
            for c in (v for v in cands if v > b and bab >> v & 1):
                babc = bab & bits[c]
                for d in (v for v in cands if v > c and babc >> v & 1):
                    rest = babc & bits[d]
                    for e in (v for v in cands if v > d and rest >> v & 1):
                        return (a, b, c, d, e)
    return None


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, 12),
    st.sampled_from([0.3, 0.5, 0.7, 0.9]),
    st.integers(0, 40),
    st.randoms(use_true_random=False),
)
def test_clique_search_matches_the_rescanning_search(n, density, budget, rnd):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rnd.random() < density]
    graph = Graph.from_edges(n, edges)
    expected = reference_k5_clique(graph)
    assert _find_k5_clique(graph) == expected
    # A budget either leaves the answer alone or stops the search one
    # fruitless step past it.
    assert _find_k5_clique(graph, budget) in (expected, budget + 1)


def turan_graph(n, parts):
    return Graph.from_edges(
        n, [(u, v) for u in range(n) for v in range(u + 1, n) if u % parts != v % parts]
    )


def test_clique_search_counts_its_steps_against_the_bound():
    # T(128,4) has no 5-clique and 786432 > 250000 edges x vertices: the
    # clique search stops at its first fruitless step past 250000 instead
    # of running to the end.
    start = time.perf_counter()
    with pytest.raises(
        BoundExceededError,
        match="250001 steps of the 5-clique search found none, "
        "and 6144 edges x 128 vertices = 786432 exceeds bound 250000",
    ):
        is_planar(turan_graph(128, 4))
    assert time.perf_counter() - start < 1.0
    # P(G(8)) is over the bound as well, and its first 5-clique comes at once.
    result = is_planar(power_graph(build_gn(8)))
    assert result.kuratowski_kind == "K5"
    assert result.kuratowski_edges == frozenset(
        (u, v) for u in range(5) for v in range(u + 1, 5)
    )


def reference_planar_rotation(graph):
    """The former face-insertion embedding, on a copy of each block as a
    dict of neighbor lists, an edge set and one vertex set per face: the
    rotation system of the graph, or None if it is not planar."""
    rotations = [[] for _ in range(graph.n)]
    for block in graph.blocks:
        if len(block) == 2:
            u, v = block
            rotations[u].append(v)
            rotations[v].append(u)
            continue
        faces = reference_embed_block(graph, block)
        if faces is None:
            return None
        for v, cyc in _rotation_from_faces(faces).items():
            rotations[v].extend(cyc)
    return tuple(tuple(r) for r in rotations)


def reference_embed_block(graph, block):
    inside = set(block)
    adj = {v: sorted(set(graph.neighbors(v)) & inside) for v in block}
    edges = {(u, v) for u in block for v in adj[u] if u < v}
    if len(edges) > 3 * len(block) - 6:
        return None
    cycle = reference_find_cycle(adj)
    faces = [cycle, list(reversed(cycle))]
    embedded_v = set(cycle)
    embedded_e = {(min(a, b), max(a, b)) for a, b in zip(cycle, cycle[1:] + cycle[:1])}
    while len(embedded_e) < len(edges):
        fragments = []  # (attachments, path endpoints or component)
        for u, v in sorted(edges - embedded_e):
            if u in embedded_v and v in embedded_v:
                fragments.append(({u, v}, [u, v]))
        seen = set()
        for s in sorted(inside - embedded_v):
            if s in seen:
                continue
            comp, stack = {s}, [s]
            while stack:
                for y in adj[stack.pop()]:
                    if y not in embedded_v and y not in comp:
                        comp.add(y)
                        stack.append(y)
            seen |= comp
            fragments.append(({y for x in comp for y in adj[x] if y in embedded_v}, comp))
        admissible = [[i for i, f in enumerate(faces) if att <= set(f)] for att, _ in fragments]
        if not all(admissible):
            return None
        pick = next((i for i, ok in enumerate(admissible) if len(ok) == 1), 0)
        attachments, body = fragments[pick]
        path = body if isinstance(body, list) else reference_fragment_path(adj, attachments, body)
        face = faces[admissible[pick][0]]
        i, j = face.index(path[0]), face.index(path[-1])
        arc1 = [face[(i + k) % len(face)] for k in range((j - i) % len(face) + 1)]
        arc2 = [face[(j + k) % len(face)] for k in range((i - j) % len(face) + 1)]
        faces[admissible[pick][0]] = arc1 + list(reversed(path[1:-1]))
        faces.append(arc2 + path[1:-1])
        embedded_v.update(path)
        embedded_e.update((min(a, b), max(a, b)) for a, b in zip(path, path[1:]))
    return faces


def reference_find_cycle(adj):
    """BFS tree from the least vertex, least non-tree edge, tree paths
    joined at the lowest common ancestor."""
    start = min(adj)
    parent, depth, queue = {start: -1}, {start: 0}, [start]
    for v in queue:
        for w in adj[v]:
            if w not in parent:
                parent[w], depth[w] = v, depth[v] + 1
                queue.append(w)
    u, v = min((u, v) for u in adj for v in adj[u]
               if u < v and parent[u] != v and parent[v] != u)
    up_u, up_v = [u], [v]
    while depth[up_u[-1]] > depth[up_v[-1]]:
        up_u.append(parent[up_u[-1]])
    while depth[up_v[-1]] > depth[up_u[-1]]:
        up_v.append(parent[up_v[-1]])
    while up_u[-1] != up_v[-1]:
        up_u.append(parent[up_u[-1]])
        up_v.append(parent[up_v[-1]])
    return up_u + list(reversed(up_v[:-1]))


def reference_fragment_path(adj, attachments, comp):
    """BFS inside the component from the least attachment's neighbors
    there, to the first vertex next to another attachment."""
    a1 = min(attachments)
    targets = attachments - {a1}
    queue = sorted(comp & set(adj[a1]))
    parent = dict.fromkeys(queue, -1)
    for x in queue:
        hit = sorted(t for t in targets if t in adj[x])
        if hit:
            path = [hit[0], x]
            while parent[x] != -1:
                x = parent[x]
                path.append(x)
            return list(reversed(path + [a1]))
        for y in adj[x]:
            if y in comp and y not in parent:
                parent[y] = x
                queue.append(y)
    raise AssertionError("fragment must reach a second attachment")


def reference_kuratowski_edges(graph):
    """The former edge deletion, with a fresh Graph for every trial."""
    current = set(graph.sorted_edges())
    for e in sorted(current):
        trial = Graph.from_edges(graph.n, current - {e})
        if reference_planar_rotation(trial) is None:
            current = current - {e}
    return frozenset(current)


def reference_is_planar(graph):
    """is_planar from the references: the former embedding, then the
    rescanning 5-clique search, then the former edge deletion."""
    rotation = reference_planar_rotation(graph)
    if rotation is not None:
        return PlanarityResult(is_planar=True, rotation=rotation)
    clique = reference_k5_clique(graph)
    if clique is not None:
        edges = frozenset((u, v) for i, u in enumerate(clique) for v in clique[i + 1:])
    else:
        edges = reference_kuratowski_edges(graph)
    return PlanarityResult(False, None, edges, verify_kuratowski(graph, edges))


@st.composite
def k5_free_graphs(draw):
    """Random subgraphs of the Turan graph T(n, parts), n <= 12 and
    parts <= 4, which has no 5-clique: non-planar ones reach the deletion."""
    n = draw(st.integers(6, 12))
    parts = draw(st.integers(2, 4))
    density = draw(st.sampled_from([0.5, 0.7, 0.9]))
    rnd = draw(st.randoms(use_true_random=False))
    return Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                                if u % parts != v % parts and rnd.random() < density])


@settings(max_examples=150, deadline=None)
@given(k5_free_graphs())
def test_kuratowski_deletion_matches_a_fresh_graph_per_trial(graph):
    assume(reference_planar_rotation(graph) is None)
    result = is_planar(graph)
    assert result.kuratowski_edges == reference_kuratowski_edges(graph)
    assert verify_kuratowski(graph, result.kuratowski_edges) == result.kuratowski_kind


def test_kuratowski_deletion_on_a_turan_graph_matches_a_fresh_graph_per_trial():
    graph = turan_graph(16, 4)
    result = is_planar(graph)
    assert (result.kuratowski_kind, len(result.kuratowski_edges)) == ("K5", 11)
    assert result.kuratowski_edges == reference_kuratowski_edges(graph)


def test_verify_kuratowski_rejects_bogus_witness():
    with pytest.raises(ValueError):
        verify_kuratowski(Graph.complete(5), frozenset({(0, 1), (1, 2)}))
    for edges in ({(0, 5)}, {(4, 5)}, {(-1, 2)}):
        with pytest.raises(ValueError, match="absent from the graph"):
            verify_kuratowski(Graph.complete(4), frozenset(edges))


def test_embedding_check_rejects_wrong_rotation():
    g = Graph.cycle(4)
    bad = ((1, 2), (0, 2), (1, 3), (0, 2))  # wrong neighbor sets
    assert not check_embedding(g, bad)


@pytest.mark.parametrize(
    "rotation",
    [
        ((1, 3), (0,), (1, 3), (0, 2)),  # a neighbor of 1 missing
        ((1, 3), (0, 2), (1, 3)),  # no rotation at 3
        ((1, 3), (0, 2, 2), (1, 3), (0, 2)),  # a neighbor of 1 listed twice
    ],
)
def test_trace_faces_rejects_a_rotation_that_is_not_the_neighbors(rotation):
    g = Graph.cycle(4)
    with pytest.raises(ValueError, match="neighbors exactly once"):
        trace_faces(g, rotation)
    assert not check_embedding(g, rotation)


def test_ascending_rotation_of_k4_is_not_an_embedding():
    # 2 faces: V - E + F = 4 - 6 + 2 = 0, a torus.
    k4 = Graph.complete(4)
    ascending = tuple(tuple(set_bits(row)) for row in k4.adj_bits)
    assert len(trace_faces(k4, ascending)) == 2
    assert not check_embedding(k4, ascending)
    # Beside a triangle (2 faces) and two isolated vertices (1 face each)
    # the sum is V - E + F = 9 - 9 + 6 = 6, not 2 per component (8): no
    # component exceeds 2, so none makes up for the K4's deficit.
    graph = Graph.from_edges(9, [(0, 1), (1, 2), (0, 2)] + k4_edges([3, 4, 5, 6]))
    rotation = tuple(tuple(set_bits(row)) for row in graph.adj_bits)
    assert len(trace_faces(graph, rotation)) == 4
    assert not check_embedding(graph, rotation)


def reference_trace_faces(graph, rotation):
    """The former face tracing: a set of the untraced darts, each face
    started at its least one."""
    if len(rotation) != graph.n or any(
        sorted(rot) != set_bits(row) for rot, row in zip(rotation, graph.adj_bits)
    ):
        raise ValueError("a rotation must list its vertex's neighbors exactly once")
    succ_index = [dict(zip(rot, rot[1:] + rot[:1])) for rot in rotation]
    remaining = {(u, v) for u, row in enumerate(graph.adj_bits) for v in set_bits(row)}
    faces = []
    while remaining:
        dart = min(remaining)
        orbit = []
        cur = dart
        while True:
            orbit.append(cur)
            remaining.discard(cur)
            u, v = cur
            cur = (v, succ_index[v][u])
            if cur == dart:
                break
        faces.append(orbit)
    return faces


def reference_check_embedding(graph, rotation):
    """The former embedding check: V - E + F = 2 on each component, the
    faces tallied per component through a vertex -> component dict."""
    try:
        faces = reference_trace_faces(graph, rotation)
    except ValueError:
        return False
    comps = graph.connected_components()
    comp_of = {v: ci for ci, comp in enumerate(comps) for v in comp}
    face_count = [0] * len(comps)
    for orbit in faces:
        face_count[comp_of[orbit[0][0]]] += 1
    for ci, comp in enumerate(comps):
        ec = sum(map(graph.degree, comp)) // 2
        fc = face_count[ci] if ec else 1
        if len(comp) - ec + fc != 2:
            return False
    return True


@st.composite
def rotations(draw):
    """A random graph on 0..12 vertices (often disconnected, with isolated
    vertices) and a rotation for it: is_planar's when it is planar, else
    the ascending neighbors; then left alone, shuffled at some vertices,
    or given one duplicated or one missing entry."""
    n = draw(st.integers(0, 12))
    density = draw(st.sampled_from([0.1, 0.2, 0.3, 0.5, 0.8]))
    rnd = draw(st.randoms(use_true_random=True))
    graph = Graph.from_edges(
        n, [(u, v) for u in range(n) for v in range(u + 1, n) if rnd.random() < density]
    )
    planar = is_planar(graph).rotation
    rotation = [list(r) for r in planar or map(set_bits, graph.adj_bits)]
    change = draw(st.sampled_from(["none", "shuffle", "duplicate", "drop"]))
    busy = [v for v in range(n) if rotation[v]]
    if change == "shuffle":
        for v in busy:
            if rnd.random() < 0.5:
                rnd.shuffle(rotation[v])
    elif change != "none" and busy:
        rot = rotation[rnd.choice(busy)]
        if change == "duplicate":
            rot.insert(rnd.randrange(len(rot)), rnd.choice(rot))
        else:
            rot.pop(rnd.randrange(len(rot)))
    return graph, tuple(map(tuple, rotation))


@settings(max_examples=400, deadline=None)
@given(rotations())
def test_face_tracing_and_embedding_check_match_the_former_ones(case):
    graph, rotation = case
    try:
        expected = reference_trace_faces(graph, rotation)
    except ValueError:
        expected = ValueError
    try:
        faces = trace_faces(graph, rotation)
    except ValueError:
        faces = ValueError
    assert faces == expected
    assert check_embedding(graph, rotation) == reference_check_embedding(graph, rotation)


def reference_verify_kuratowski(graph, edges):
    """The former witness check, on an edge set and a dict of neighbor
    sets: "K5" or "K33", or ValueError."""
    norm = {(min(u, v), max(u, v)) for u, v in edges}
    if not all(0 <= u and v < graph.n and graph.has_edge(u, v) for u, v in norm):
        raise ValueError("witness uses edges absent from the graph")
    adj = {}
    for u, v in norm:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    degrees = {v: len(ns) for v, ns in adj.items()}
    branch = sorted(v for v, d in degrees.items() if d >= 3)
    if any(d < 2 for d in degrees.values()):
        raise ValueError("witness has a vertex of degree < 2")
    if len(branch) == 5:
        expected_degree, kind = 4, "K5"
    elif len(branch) == 6:
        expected_degree, kind = 3, "K33"
    else:
        raise ValueError(f"witness has {len(branch)} branch vertices, need 5 or 6")
    if any(degrees[b] != expected_degree for b in branch):
        raise ValueError("branch vertex degrees do not fit K5 or K33")
    branch_set = set(branch)
    pair_paths = {}
    interior_visits = {}
    for b in branch:
        for first in sorted(adj[b]):
            prev, cur = b, first
            while cur not in branch_set:
                interior_visits[cur] = interior_visits.get(cur, 0) + 1
                nxts = [x for x in adj[cur] if x != prev]
                if len(nxts) != 1:
                    raise ValueError("subdivision path is not a simple chain")
                prev, cur = cur, nxts[0]
            if cur == b:
                raise ValueError("witness contains a loop at a branch vertex")
            key = (min(b, cur), max(b, cur))
            pair_paths[key] = pair_paths.get(key, 0) + 1
    stray = set(degrees) - branch_set
    if set(interior_visits) != stray or any(c != 2 for c in interior_visits.values()):
        raise ValueError("stray vertices outside the subdivision paths")
    if any(count != 2 for count in pair_paths.values()):
        raise ValueError("two branch vertices are joined by parallel paths")
    pairs = set(pair_paths)
    if kind == "K5":
        if pairs != {(u, v) for i, u in enumerate(branch) for v in branch[i + 1:]}:
            raise ValueError("contracted witness is not K5")
        return "K5"
    nbrs = {b: set() for b in branch}
    for u, v in pairs:
        nbrs[u].add(v)
        nbrs[v].add(u)
    if any(len(ns) != 3 for ns in nbrs.values()):
        raise ValueError("contracted witness is not 3-regular")
    color = {branch[0]: 0}
    queue = [branch[0]]
    while queue:
        x = queue.pop()
        for y in nbrs[x]:
            if y not in color:
                color[y] = 1 - color[x]
                queue.append(y)
            elif color[y] == color[x]:
                raise ValueError("contracted witness is not bipartite")
    part0 = sorted(v for v in branch if color.get(v) == 0)
    part1 = sorted(v for v in branch if color.get(v) == 1)
    if len(part0) != 3 or len(part1) != 3:
        raise ValueError("contracted witness parts are not 3+3")
    if {(min(u, v), max(u, v)) for u in part0 for v in part1} != pairs:
        raise ValueError("contracted witness is not complete bipartite")
    return "K33"


def kuratowski_verdict(check, graph, edges):
    try:
        return check(graph, edges)
    except ValueError:
        return ValueError


# Multigraphs to subdivide into witnesses: the two Kuratowski graphs, and
# near misses with branch degrees that fit them: the 3-prism (3-regular,
# not bipartite), 3- and 4-regular ones with parallel edges and a
# 4-regular one with a loop and a parallel edge.
KURATOWSKI_BASES = {
    "K5": [(u, v) for u in range(5) for v in range(u + 1, 5)],
    "parallel K5": [(0, 2), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 3), (1, 4), (2, 4), (3, 4)],
    "K33": [(i, 3 + j) for i in range(3) for j in range(3)],
    "prism": [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)],
    "parallel": [(0, 1), (0, 1), (2, 3), (2, 3), (4, 5), (4, 5), (0, 2), (1, 4), (3, 5)],
    "loop": [(0, 0), (0, 1), (0, 2), (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4), (3, 4)],
}


@st.composite
def kuratowski_cases(draw):
    """A host graph and a candidate witness: a base multigraph with 0-2
    vertices on each edge (enough to keep it simple), maybe beside a
    triangle, inside a host with extra vertices and edges, all
    relabelled; the witness left intact, with one edge dropped, with one
    host edge added, or cut down to a random subset of the host's edges."""
    rnd = draw(st.randoms(use_true_random=True))
    base = KURATOWSKI_BASES[draw(st.sampled_from(["K5", "K33"] * 2 + sorted(KURATOWSKI_BASES)))]
    n = max(map(max, base)) + 1
    witness, seen = [], set()
    for u, v in base:
        least = 2 if u == v else (u, v) in seen
        seen.add((u, v))
        chain = [u, *range(n, n + rnd.randint(least, 2)), v]
        n += len(chain) - 2
        witness += zip(chain, chain[1:])
    if draw(st.booleans()):
        witness += [(n, n + 1), (n + 1, n + 2), (n, n + 2)]
        n += 3
    n += rnd.randint(0, 3)
    density = draw(st.sampled_from([0.0, 0.1, 0.3]))
    extra = [(u, v) for u in range(n) for v in range(u + 1, n) if rnd.random() < density]
    perm = list(range(n))
    rnd.shuffle(perm)
    graph = relabelled(n, witness + extra, perm)
    witness = {(perm[u], perm[v])[:: rnd.choice([1, -1])] for u, v in witness}
    change = draw(st.sampled_from(["none", "none", "drop", "add", "subset"]))
    if change == "drop":
        witness.discard(rnd.choice(sorted(witness)))
    elif change == "add":
        witness.add(rnd.choice(graph.sorted_edges()))
    elif change == "subset":
        witness = {e for e in graph.sorted_edges() if rnd.random() < 0.7}
    return graph, frozenset(witness)


@settings(max_examples=500, deadline=None)
@given(kuratowski_cases())
def test_verify_kuratowski_matches_the_former_check_on_subdivisions(case):
    graph, witness = case
    assert kuratowski_verdict(verify_kuratowski, graph, witness) == kuratowski_verdict(
        reference_verify_kuratowski, graph, witness
    )


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, 10),
    st.sampled_from([0.3, 0.6, 0.9]),
    st.sampled_from([0.5, 0.8, 1.0]),
    st.randoms(use_true_random=True),
)
def test_verify_kuratowski_matches_the_former_check_on_random_edge_subsets(n, density, keep, rnd):
    graph = Graph.from_edges(
        n, [(u, v) for u in range(n) for v in range(u + 1, n) if rnd.random() < density]
    )
    witness = frozenset(e for e in graph.sorted_edges() if rnd.random() < keep)
    assert kuratowski_verdict(verify_kuratowski, graph, witness) == kuratowski_verdict(
        reference_verify_kuratowski, graph, witness
    )


@settings(max_examples=100, deadline=None)
@given(k5_free_graphs())
def test_verify_kuratowski_matches_the_former_check_on_planarity_witnesses(graph):
    result = is_planar(graph)
    assume(not result.is_planar)
    witness = result.kuratowski_edges
    assert verify_kuratowski(graph, witness) == reference_verify_kuratowski(graph, witness)


@pytest.mark.parametrize(
    ("base", "subdivide", "message"),
    [
        ("prism", 0, "contracted witness is not bipartite"),
        ("parallel", 1, "two branch vertices are joined by parallel paths"),
        ("parallel K5", 1, "two branch vertices are joined by parallel paths"),
        ("loop", 2, "witness contains a loop at a branch vertex"),
    ],
)
def test_verify_kuratowski_names_a_near_miss(base, subdivide, message):
    # Every edge gets `subdivide` vertices, enough to make the base simple.
    edges, n = [], 6
    for u, v in KURATOWSKI_BASES[base]:
        chain = [u, *range(n, n + subdivide), v]
        n += subdivide
        edges += zip(chain, chain[1:])
    graph = Graph.from_edges(n, edges)
    with pytest.raises(ValueError, match=message):
        verify_kuratowski(graph, graph.edges)
    with pytest.raises(ValueError):
        reference_verify_kuratowski(graph, graph.edges)


def test_planarity_against_networkx_on_random_graphs():
    nx = pytest.importorskip("networkx")
    import random

    random.seed(42)
    for _ in range(120):
        n = random.randint(1, 12)
        p = random.choice([0.15, 0.3, 0.5, 0.7])
        edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if random.random() < p
        ]
        g = Graph.from_edges(n, edges)
        mine = is_planar(g)
        theirs, _ = nx.check_planarity(
            nx.Graph(edges) if edges else nx.empty_graph(n)
        )
        assert mine.is_planar == theirs, (n, sorted(edges))
        if mine.is_planar:
            assert check_embedding(g, mine.rotation)
        else:
            verify_kuratowski(g, mine.kuratowski_edges)


def relabelled(n, edges, perm):
    return Graph.from_edges(n, [(perm[u], perm[v]) for u, v in edges])


def k4_edges(vertices):
    return [(u, v) for i, u in enumerate(vertices) for v in vertices[i + 1:]]


def block_tree(seed, count):
    """count planar blocks (bridges, cycles, K4s, wheels with the hub or a
    rim vertex shared, fans) each glued at a random earlier vertex, then
    relabelled at random: a tree of blocks with many cut vertices."""
    rng = random.Random(seed)
    edges, n = [], 1
    for _ in range(count):
        at = rng.randrange(n)
        kind = rng.choice(["bridge", "cycle", "k4", "wheel", "fan"])
        size = {"bridge": 1, "cycle": rng.randint(2, 5), "k4": 3,
                "wheel": rng.randint(3, 6), "fan": rng.randint(3, 5)}[kind]
        new = list(range(n, n + size))
        n += size
        ring = [at] + new
        if kind == "k4":
            edges += k4_edges(ring)
        elif kind == "wheel":
            edges += [(at, v) for v in new] + list(zip(new, new[1:] + new[:1]))
        else:
            edges += list(zip(ring, ring[1:] + ring[:1] if kind != "bridge" else ring[1:]))
            if kind == "fan":
                edges += [(new[0], v) for v in new[2:]]
    perm = list(range(n))
    rng.shuffle(perm)
    return relabelled(n, edges, perm)


def tree_of_k4s():
    edges = k4_edges([0, 1, 2, 3])
    for i in range(4):
        edges += k4_edges([i, 4 + 3 * i, 5 + 3 * i, 6 + 3 * i])
    perm = list(range(17))
    random.Random(2024).shuffle(perm)
    return relabelled(17, edges + [(15, 16)], perm)


def forest_of_block_trees():
    a, b = block_tree(12, 6), block_tree(13, 6)
    shifted = [(a.n + u, a.n + v) for u, v in b.sorted_edges()]
    return Graph.from_edges(a.n + b.n + 1, a.sorted_edges() + shifted)


def block_and_rotation_pin(graph):
    payload = json.dumps([graph.blocks, is_planar(graph).rotation])
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def test_blocks_and_rotation_of_a_chain_of_triangles_are_pinned():
    # Four triangles in a chain, three cut vertices, relabelled: the blocks
    # come in DFS order and the rotation concatenates them in that order.
    triangles = [(a + i, a + j) for a in (0, 2, 4, 6) for i, j in ((0, 1), (1, 2), (0, 2))]
    chain = relabelled(9, triangles, [4, 7, 0, 8, 2, 5, 1, 3, 6])
    assert chain.blocks == ((1, 3, 6), (1, 2, 5), (0, 2, 8), (0, 4, 7))
    assert is_planar(chain).rotation == (
        (2, 8, 4, 7), (3, 6, 2, 5), (1, 5, 0, 8), (1, 6), (0, 7),
        (1, 2), (1, 3), (0, 4), (0, 2),
    )


# sha256 prefixes of the JSON of (blocks, rotation), recorded before the
# block search moved from an edge stack to a vertex stack.
BLOCK_PINS = {
    "tree_of_k4s": "b8c0e97c561fdaf9",
    "forest": "9d93188adc98e797",
    **{f"seed{s}": pin for s, pin in enumerate([
        "5f36f05484fcda6c", "17d793429b89f9b9", "79da10b30b0c56a9", "6b38c8f12528376c",
        "4c0f333c8dabfadb", "59742ee6649af435", "e48c8966245387ee", "1fe286b42d276114",
        "e16ea3a8316883e3", "9053fbdeabd4b61c", "9de26ed876ad4e4d", "1ced5609e046051d",
    ])},
}


@pytest.mark.parametrize("name", sorted(BLOCK_PINS))
def test_blocks_and_rotations_with_many_cut_vertices_are_pinned(name):
    if name == "tree_of_k4s":
        graph = tree_of_k4s()
    elif name == "forest":
        graph = forest_of_block_trees()
    else:
        seed = int(name[4:])
        graph = block_tree(seed, 4 + seed)
    result = is_planar(graph)
    assert result.is_planar and check_embedding(graph, result.rotation)
    cut_vertices = [v for v in range(graph.n) if sum(v in b for b in graph.blocks) > 1]
    assert len(cut_vertices) >= 2
    assert block_and_rotation_pin(graph) == BLOCK_PINS[name]


# ---------------------------------------------------------------------------
# Hamiltonicity
# ---------------------------------------------------------------------------


def reference_is_hamiltonian(graph):
    """The exhaustive search of is_hamiltonian without its early exits
    (degree <= 1, cut vertex): extend a path from vertex 0, pruned when the
    unvisited vertices are not all reachable from its end."""
    n, rows = graph.n, graph.adj_bits
    full = (1 << n) - 1

    def extend(v, visited, length):
        if length == n:
            return bool(rows[v] & 1)
        free = full & ~visited
        if reachable(rows, v, free) & free != free:
            return False
        return any(extend(w, visited | 1 << w, length + 1) for w in set_bits(rows[v] & free))

    return n >= 3 and extend(0, 1, 1)


def check_cycle(graph, cycle):
    assert cycle is not None
    assert sorted(cycle) == list(range(graph.n))
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        assert graph.has_edge(a, b)


def test_cycle_graphs_are_hamiltonian():
    for k in (3, 4, 5, 8):
        res = is_hamiltonian(Graph.cycle(k))
        assert res.is_hamiltonian
        check_cycle(Graph.cycle(k), res.cycle)


def test_c4_from_k4_minus_matching():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    res = is_hamiltonian(g)
    assert res.is_hamiltonian
    check_cycle(g, res.cycle)


def test_complete_graphs_are_hamiltonian():
    res = is_hamiltonian(Graph.complete(4))
    assert res.is_hamiltonian
    check_cycle(Graph.complete(4), res.cycle)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_gn_power_graphs_not_hamiltonian_via_pendants(n):
    res = is_hamiltonian(power_graph(build_gn(n)))
    assert not res.is_hamiltonian
    assert "degree" in res.reason


def test_petersen_not_hamiltonian_by_exhaustive_search():
    res = is_hamiltonian(PETERSEN)
    assert not res.is_hamiltonian
    assert res.reason == "exhaustive search found no cycle"


def test_small_orders_never_hamiltonian():
    assert not is_hamiltonian(Graph.complete(1)).is_hamiltonian
    assert not is_hamiltonian(Graph.complete(2)).is_hamiltonian


def test_disconnected_not_hamiltonian():
    g = Graph.from_edges(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    assert not is_hamiltonian(g).is_hamiltonian


def test_pendant_shortcut_agrees_with_exhaustive_search():
    corpus = [
        Graph.path(n) for n in range(3, 8)
    ] + [
        Graph.star(k) for k in range(2, 6)
    ] + [
        power_graph(build_gn(3)),
        Graph.from_edges(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)]),
        Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 5)]),
        Graph.cycle(7),
        Graph.complete(5),
        PETERSEN,
    ]
    for graph in corpus:
        assert is_hamiltonian(graph).is_hamiltonian == reference_is_hamiltonian(graph)


def test_cut_vertex_shortcut():
    # Two triangles sharing vertex 2, and K4 with a triangle hung on 3:
    # no vertex of degree <= 1, but a cycle would pass the cut vertex twice.
    bowtie = Graph.from_edges(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)])
    res = is_hamiltonian(bowtie)
    assert not res.is_hamiltonian
    assert res.reason == "vertex 2 is a cut vertex"
    hung = Graph.from_edges(
        6, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4), (4, 5), (5, 3)]
    )
    assert is_hamiltonian(hung).reason == "vertex 3 is a cut vertex"
    assert not reference_is_hamiltonian(hung)


def test_cut_vertex_shortcut_needs_no_search_above_the_bound():
    # Two 20-cycles sharing a vertex: order 39 > the default bound 32.
    edges = [(i, (i + 1) % 20) for i in range(20)]
    edges += [(0, 20), (38, 0)] + [(i, i + 1) for i in range(20, 38)]
    res = is_hamiltonian(Graph.from_edges(39, edges))
    assert res.reason == "vertex 0 is a cut vertex"


@st.composite
def small_graphs(draw):
    """A random graph on at most 9 vertices, or two dense random graphs
    glued at one vertex (which is then often a cut vertex of a graph with
    minimum degree >= 2)."""
    rnd = draw(st.randoms(use_true_random=False))
    density = draw(st.sampled_from([0.3, 0.5, 0.7, 0.9]))

    def random_edges(vertices, p):
        return [(u, v) for i, u in enumerate(vertices) for v in vertices[i + 1:]
                if rnd.random() < p]

    if draw(st.booleans()):
        n = draw(st.integers(0, 9))
        return Graph.from_edges(n, random_edges(range(n), density))
    a = draw(st.integers(3, 6))
    n = draw(st.integers(a + 2, 9))
    glue = draw(st.integers(0, a - 1))
    edges = random_edges(list(range(a)), 0.8)
    edges += random_edges([glue] + list(range(a, n)), 0.8)
    return Graph.from_edges(n, edges)


@settings(max_examples=200, deadline=None)
@given(small_graphs())
def test_shortcuts_agree_with_exhaustive_search_on_random_graphs(graph):
    assert is_hamiltonian(graph).is_hamiltonian == reference_is_hamiltonian(graph)


def graphs_and_relabellings():
    """(graph, its image under a random permutation) for random graphs,
    glued pairs and trees of planar blocks."""
    block_trees = st.builds(block_tree, st.integers(0, 2**32), st.integers(1, 8))
    return st.tuples(st.one_of(small_graphs(), block_trees), st.randoms(use_true_random=False))


def relabel_graph(graph, rng):
    perm = list(range(graph.n))
    rng.shuffle(perm)
    return relabelled(graph.n, graph.sorted_edges(), perm)


@settings(max_examples=150, deadline=None)
@given(graphs_and_relabellings())
def test_hamiltonicity_follows_a_relabelling(case):
    graph, rng = case
    image = relabel_graph(graph, rng)
    results = [is_hamiltonian(g) for g in (graph, image)]
    assert results[0].is_hamiltonian == results[1].is_hamiltonian
    for g, result in zip((graph, image), results):
        if result.is_hamiltonian:
            check_cycle(g, list(result.cycle))


def random_graph(n, density, rnd):
    return Graph.from_edges(
        n, [(u, v) for u in range(n) for v in range(u + 1, n) if rnd.random() < density]
    )


@settings(max_examples=200, deadline=None)
@given(st.integers(3, 8), st.sampled_from([0.4, 0.6, 0.8]), st.randoms(use_true_random=False))
def test_hamiltonian_cycle_is_the_first_closing_permutation(n, density, rnd):
    # The oracle tries every ordering of 1..n-1 after 0, in lexicographic
    # order, and keeps the first whose path and closing edge are all edges.
    graph = random_graph(n, density, rnd)
    first = next(
        (
            cycle
            for rest in permutations(range(1, n))
            for cycle in [(0, *rest)]
            if all(graph.adj_bits[a] >> b & 1 for a, b in zip(cycle, cycle[1:] + cycle[:1]))
        ),
        None,
    )
    assert is_hamiltonian(graph).cycle == first


@settings(max_examples=150, deadline=None)
@given(graphs_and_relabellings())
def test_planarity_certificates_follow_a_relabelling(case):
    graph, rng = case
    image = relabel_graph(graph, rng)
    results = [is_planar(g) for g in (graph, image)]
    assert results[0].is_planar == results[1].is_planar
    for g, result in zip((graph, image), results):
        if result.is_planar:
            assert check_embedding(g, result.rotation)
        else:
            assert verify_kuratowski(g, result.kuratowski_edges) == result.kuratowski_kind


@st.composite
def sparse_trees(draw):
    """A random tree on at most 60 vertices with a few chords added: sparse
    blocks whose fragments are long paths, planar or not."""
    rnd = draw(st.randoms(use_true_random=False))
    n = draw(st.integers(3, 60))
    edges = {(rnd.randrange(v), v) for v in range(1, n)}
    edges |= {tuple(sorted(rnd.sample(range(n), 2))) for _ in range(draw(st.integers(0, n // 2)))}
    return Graph.from_edges(n, sorted(edges))


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(
        small_graphs(),
        st.builds(block_tree, st.integers(0, 2**32), st.integers(1, 8)),
        k5_free_graphs(),
        sparse_trees(),
    ),
    st.randoms(use_true_random=False),
)
def test_planarity_matches_the_former_embedding(graph, rng):
    # The rotation, witness and kind, on the graph and on a relabelling.
    for g in (graph, relabel_graph(graph, rng)):
        assert is_planar(g) == reference_is_planar(g)


def test_hamiltonian_order_bound():
    with pytest.raises(BoundExceededError):
        is_hamiltonian(Graph.cycle(33))


# ---------------------------------------------------------------------------
# Graph isomorphism
# ---------------------------------------------------------------------------


def test_stated_map_k1_to_n1_is_valid():
    pk1 = power_graph(bundled_gyrogroup("k1"))
    pn1 = power_graph(bundled_gyrogroup("n1"))
    assert verify_isomorphism(pk1, pn1, (0, 1, 7, 6, 2, 3, 5, 4)).valid


def test_stated_map_between_g8_and_m1_power_graphs():
    # The map validates from the m1 power graph to the g8 power graph;
    # in the opposite direction it is not edge-preserving.
    pg8 = power_graph(bundled_gyrogroup("g8"))
    pm1 = power_graph(bundled_gyrogroup("m1"))
    f = (0, 3, 7, 5, 4, 6, 1, 2)
    assert verify_isomorphism(pm1, pg8, f).valid
    assert not verify_isomorphism(pg8, pm1, f).valid


def test_identity_map_is_always_valid():
    g = power_graph(build_gn(3))
    assert verify_isomorphism(g, g, tuple(range(8))).valid


def test_verify_isomorphism_rejects_size_mismatch():
    with pytest.raises(ValueError):
        verify_isomorphism(Graph.complete(3), Graph.complete(4), (0, 1, 2))


def reference_verify_isomorphism(g1, g2, mapping):
    """The former map check: has_edge on both sides of every vertex pair."""
    if g1.n != g2.n:
        raise ValueError("graphs have different orders")
    perm = mapping if isinstance(mapping, Permutation) else Permutation(tuple(mapping))
    if perm.size != g1.n:
        raise ValueError("mapping size does not match the graphs")
    valid = all(
        g1.has_edge(u, v) == g2.has_edge(perm(u), perm(v))
        for u in range(g1.n)
        for v in range(u + 1, g1.n)
    )
    return IsomorphismWitness(map=perm, valid=valid)


@settings(max_examples=300, deadline=None)
@given(
    small_graphs(),
    st.sampled_from(["relabelled", "one pair toggled", "random"]),
    st.booleans(),
    st.randoms(use_true_random=True),
)
def test_verify_isomorphism_matches_the_former_check(graph, second, keep_map, rnd):
    # The second graph is a relabelled copy, that copy with one vertex pair
    # toggled, or a random graph of the same order; the map is the
    # relabelling or a random one.
    n = graph.n
    perm = list(range(n))
    rnd.shuffle(perm)
    edges = {tuple(sorted((perm[u], perm[v]))) for u, v in graph.sorted_edges()}
    if second == "one pair toggled" and n >= 2:
        edges ^= {tuple(sorted(rnd.sample(range(n), 2)))}
    elif second == "random":
        edges = {(u, v) for u in range(n) for v in range(u + 1, n) if rnd.random() < 0.5}
    image = Graph.from_edges(n, edges)
    mapping = perm if keep_map else rnd.sample(range(n), n)
    witness = verify_isomorphism(graph, image, mapping)
    assert witness == reference_verify_isomorphism(graph, image, mapping)
    assert witness.valid or second != "relabelled" or not keep_map


def test_find_isomorphism_on_power_graph_pairs():
    pk1 = power_graph(bundled_gyrogroup("k1"))
    pn1 = power_graph(bundled_gyrogroup("n1"))
    w = find_isomorphism(pk1, pn1)
    assert w is not None and w.valid
    assert verify_isomorphism(pk1, pn1, w.map).valid
    pg8 = power_graph(bundled_gyrogroup("g8"))
    pm1 = power_graph(bundled_gyrogroup("m1"))
    w2 = find_isomorphism(pg8, pm1)
    assert w2 is not None and verify_isomorphism(pg8, pm1, w2.map).valid


def test_find_isomorphism_on_relabeled_graph():
    g = power_graph(build_gn(3))
    perm = [5, 3, 7, 1, 0, 6, 2, 4]
    h = Graph.from_edges(8, [(perm[u], perm[v]) for u, v in g.edges])
    w = find_isomorphism(g, h)
    assert w is not None
    assert verify_isomorphism(g, h, w.map).valid


def test_find_isomorphism_negative_cases():
    assert find_isomorphism(Graph.cycle(4), Graph.path(4)) is None
    assert find_isomorphism(Graph.cycle(6), K33) is None
    # Same degree sequence, different graphs: C6 vs two triangles.
    two_triangles = Graph.from_edges(
        6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]
    )
    assert find_isomorphism(Graph.cycle(6), two_triangles) is None


def test_find_isomorphism_is_deterministic_lex_least():
    g = Graph.cycle(4)
    w = find_isomorphism(g, g)
    assert w.map.map == (0, 1, 2, 3)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 7),
    st.sampled_from([0.3, 0.5, 0.7]),
    st.sampled_from(["relabelled", "one edge moved", "random"]),
    st.randoms(use_true_random=False),
)
def test_find_isomorphism_returns_the_least_isomorphism(n, density, second, rnd):
    # The second graph is a relabelled copy, that copy with one edge moved
    # to a non-edge (the same edge count, rarely isomorphic), or a random
    # graph; the oracle tries every permutation in lexicographic order.
    graph = random_graph(n, density, rnd)
    perm = list(range(n))
    rnd.shuffle(perm)
    edges = {tuple(sorted((perm[u], perm[v]))) for u, v in graph.sorted_edges()}
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    non_edges = [pair for pair in pairs if pair not in edges]
    if second == "one edge moved" and edges and non_edges:
        edges = edges - {rnd.choice(sorted(edges))} | {rnd.choice(non_edges)}
    elif second == "random":
        edges = {pair for pair in pairs if rnd.random() < density}
    image = Graph.from_edges(n, edges)
    least = next(
        (
            p
            for p in permutations(range(n))
            if all(
                sum(1 << p[v] for v in set_bits(row)) == image.adj_bits[p[u]]
                for u, row in enumerate(graph.adj_bits)
            )
        ),
        None,
    )
    witness = find_isomorphism(graph, image)
    assert (witness and witness.map.map) == least


def test_find_isomorphism_order_bound():
    with pytest.raises(BoundExceededError):
        find_isomorphism(Graph.cycle(17), Graph.cycle(17))


# ---------------------------------------------------------------------------
# Gyrogroup isomorphism
# ---------------------------------------------------------------------------


def test_k1_n1_not_isomorphic_as_tables():
    assert gyro_isomorphic(bundled_gyrogroup("k1"), bundled_gyrogroup("n1")) is None


def test_k1_n1_noniso_matches_full_brute_force():
    k1 = bundled_gyrogroup("k1")
    n1 = bundled_gyrogroup("n1")
    found = any(
        all(
            p[k1.table[a][b]] == n1.table[p[a]][p[b]]
            for a in range(8)
            for b in range(8)
        )
        for p in permutations(range(8))
    )
    assert not found


def test_g8_m1_are_isomorphic_as_printed():
    # The printed tables are in fact isomorphic (which refutes the
    # published non-isomorphism claim); the witness is frozen and fully
    # re-verified here.
    g8 = bundled_gyrogroup("g8")
    m1 = bundled_gyrogroup("m1")
    w = gyro_isomorphic(g8, m1)
    assert w is not None
    assert w.map == (0, 6, 7, 1, 4, 3, 5, 2)
    for a in range(8):
        for b in range(8):
            assert w(g8.table[a][b]) == m1.table[w(a)][w(b)]


def all_pairs_gyro_isomorphic(g1, g2):
    """The former search: the same backtracking as gyro_isomorphic, but
    each step re-checks every pair of mapped elements."""
    n = g1.order
    size1 = [len(powers(g1, a)) for a in range(n)]
    size2 = [len(powers(g2, a)) for a in range(n)]
    if sorted(size1) != sorted(size2):
        return None
    images = {g1.identity: g2.identity}
    order = [a for a in range(n) if a != g1.identity]

    def consistent():
        return all(
            g1.table[x][y] not in images
            or images[g1.table[x][y]] == g2.table[images[x]][images[y]]
            for x in images
            for y in images
        )

    def backtrack(idx):
        if idx == len(order):
            return True
        a = order[idx]
        for b in range(n):
            if b in images.values() or size1[a] != size2[b]:
                continue
            images[a] = b
            if consistent() and backtrack(idx + 1):
                return True
            del images[a]
        return False

    return Permutation(tuple(images[a] for a in range(n))) if backtrack(0) else None


def test_gyro_isomorphic_matches_the_all_pairs_search_on_relabelled_tables():
    rng = random.Random("gyro-iso")
    names = ["k1", "n1", "g8", "m1", "gn3"]
    for first in names:
        for second in names:
            perm = list(range(8))
            rng.shuffle(perm)
            g1 = bundled_gyrogroup(first)
            g2 = relabel(bundled_gyrogroup(second), Permutation(tuple(perm)))
            w = gyro_isomorphic(g1, g2)
            assert w == all_pairs_gyro_isomorphic(g1, g2)
            if first == second:
                assert w is not None


def test_gyro_isomorphic_matches_the_all_pairs_search_on_random_magmas():
    # Random tables with a left identity row, against a relabelled copy
    # with one entry changed: near-isomorphic pairs, where a check that
    # missed some triples would return a map that is not an isomorphism.
    rng = random.Random("gyro-iso-magmas")
    found = 0
    for _ in range(150):
        n = rng.choice([4, 5, 6])
        rows = [list(range(n))] + [[rng.randrange(n) for _ in range(n)] for _ in range(n - 1)]
        g1 = GyroGroup(n, rows, 0)
        perm = list(range(n))
        rng.shuffle(perm)
        rows = [list(r) for r in relabel(g1, Permutation(tuple(perm))).table]
        if rng.random() < 0.5:
            a = rng.choice([x for x in range(n) if x != perm[0]])
            rows[a][rng.randrange(n)] = rng.randrange(n)
        g2 = GyroGroup(n, rows, perm[0])
        w = gyro_isomorphic(g1, g2)
        assert w == all_pairs_gyro_isomorphic(g1, g2)
        if w is not None:
            found += 1
            assert all(
                w(g1.table[x][y]) == g2.table[w(x)][w(y)] for x in range(n) for y in range(n)
            )
    assert 0 < found < 150


def test_gyro_isomorphic_identity_witness():
    g = build_gn(3)
    w = gyro_isomorphic(g, g)
    assert w is not None and w.map == tuple(range(8))


def test_gyro_isomorphic_functoriality():
    # A table isomorphism is also a power-graph isomorphism.
    g = build_gn(3)
    perm = Permutation((0, 2, 3, 1, 6, 4, 7, 5))
    h = relabel(g, perm)
    w = gyro_isomorphic(g, h)
    assert w is not None
    assert verify_isomorphism(power_graph(g), power_graph(h), w).valid


def test_gyro_isomorphic_distinguishes_groups():
    z4 = [[0, 1, 2, 3], [1, 2, 3, 0], [2, 3, 0, 1], [3, 0, 1, 2]]
    klein = [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]]
    from gyrograph import load_table

    assert gyro_isomorphic(load_table(z4), load_table(klein)) is None


def test_gyro_isomorphic_order_mismatch_is_none():
    from gyrograph import cyclic_group

    assert gyro_isomorphic(cyclic_group(4), cyclic_group(5)) is None


def test_gyro_isomorphic_order_bound():
    from gyrograph import cyclic_group

    with pytest.raises(BoundExceededError):
        gyro_isomorphic(cyclic_group(12), cyclic_group(12))


@pytest.mark.parametrize(
    ("module", "bound", "search", "refusal"),
    [
        (structure, "HAMILTONIAN_ORDER_BOUND",
         lambda: is_hamiltonian(Graph.cycle(6)).is_hamiltonian, "Hamiltonian search refused"),
        (isomorphism, "GRAPH_ISO_ORDER_BOUND",
         lambda: find_isomorphism(Graph.cycle(6), Graph.cycle(6)), "graph isomorphism refused"),
        (isomorphism, "GYRO_ISO_ORDER_BOUND",
         lambda: gyro_isomorphic(cyclic_group(6), cyclic_group(6)),
         "gyrogroup isomorphism refused"),
    ],
    ids=["hamiltonian", "graph-isomorphism", "gyro-isomorphism"],
)
def test_an_order_bound_is_read_when_the_search_runs(monkeypatch, module, bound, search, refusal):
    # Each search reads its module's bound when called: lowering it below
    # the order 6 moves the refusal onto a search that succeeds at 6.
    monkeypatch.setattr(module, bound, 6)
    assert search()
    monkeypatch.setattr(module, bound, 5)
    with pytest.raises(BoundExceededError) as info:
        search()
    assert str(info.value) == f"{refusal}: order 6 exceeds bound 5"
