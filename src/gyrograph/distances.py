"""Shortest and detour distances, Hosoya-type polynomials, and the
boundary / interior / center / closure machinery.

Invariants of a metric take its DistanceMatrix, not the graph, so one
matrix per graph serves them all; those of the shortest-path metric read
the edges as the entries equal to 1.

Shortest distances come from one BFS per twin part.  Detour distances
(longest simple paths) are summed along the block-cut tree: complete
blocks need no search, and only the other blocks run an exhaustive DFS,
exponential in the block's size.  A bound on the largest non-complete
block, checked before any search starts, guards that DFS.
"""

from __future__ import annotations

from collections import Counter, deque
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

from .errors import BoundExceededError, DisconnectedGraphError
from .graphs import Graph, biconnected_components, reachable, twin_parts
from .gyrogroups import _Value
from .polynomials import IntPolynomial

INF = float("inf")

#: Default cap on the size of the largest non-complete block, where the
#: detour DFS runs.  On 2 CPUs the one block of the power graph of Z2 x Z10
#: takes 22 s at 20 vertices and 1.8 s with 4 removed; Z3 x Z6 (18) 7.6 s.
DETOUR_BLOCK_BOUND = 16


class DistanceMatrix(_Value):
    """All-pairs distances; entries are ints with INF for unreachable pairs."""

    _fields = ("kind", "entries")  # kind: "shortest" | "detour"

    def __init__(self, kind: str, entries: tuple[tuple[float, ...], ...]) -> None:
        self.__dict__.update(kind=kind, entries=entries)

    @property
    def n(self) -> int:
        return len(self.entries)

    def __getitem__(self, pair: tuple[int, int]) -> float:
        u, v = pair
        return self.entries[u][v]

    @cached_property
    def is_finite(self) -> bool:
        """No INF entry; scanned once per matrix."""
        return all(x != INF for row in self.entries for x in row)


class EccentricityProfile(NamedTuple):
    kind: str
    eccentricities: tuple[int, ...]
    radius: int
    diameter: int


class DistanceDegreeSequences(NamedTuple):
    """Per-vertex counts of vertices at each distance, plus the grouped
    multiset summary."""

    kind: str
    per_vertex: tuple[tuple[int, ...], ...]
    summary: tuple[tuple[tuple[int, ...], int], ...]

    def summary_dict(self) -> dict[tuple[int, ...], int]:
        return dict(self.summary)


# ---------------------------------------------------------------------------
# Matrices
# ---------------------------------------------------------------------------


def distance_matrix(graph: Graph) -> DistanceMatrix:
    """BFS from the least vertex r of each twin part (:func:`twin_parts`);
    INF marks disconnected pairs.  A twin u of r has r's neighbors outside
    {r, u}, so u's row is r's with the entries at r and u swapped: three
    BFS runs for every P(G(n))."""
    rows: list[tuple[float, ...]] = [()] * graph.n
    for part, _ in twin_parts([graph.neighbor_bits(v) for v in graph.vertices()]):
        r = part[0]
        dist: list[float] = [INF] * graph.n
        dist[r] = 0
        queue = deque([r])
        while queue:
            v = queue.popleft()
            for w in graph.neighbors(v):
                if dist[w] == INF:
                    dist[w] = dist[v] + 1
                    queue.append(w)
        rows[r] = tuple(dist)
        for u in part[1:]:
            row = dist[:]
            row[r], row[u] = row[u], row[r]
            rows[u] = tuple(row)
    return DistanceMatrix(kind="shortest", entries=tuple(rows))


def detour_matrix(graph: Graph, block_bound: int = DETOUR_BLOCK_BOUND) -> DistanceMatrix:
    """Exact longest-simple-path lengths between all pairs.

    A simple path cannot leave a block (biconnected component) and enter
    it again, so the detour distance is the sum of the in-block detours
    along the block-cut-tree path.  A complete block on k vertices (a
    bridge is one with k = 2) gives k - 1 between any two of its vertices;
    any other block is searched exhaustively, which is exponential in that
    block's size only.  Refuses, before any search, a graph whose largest
    non-complete block has more than block_bound vertices.
    """
    # (vertices, whether complete) for each block.
    components = []
    for edges in biconnected_components(graph):
        verts = sorted({v for edge in edges for v in edge})
        components.append((verts, len(edges) == len(verts) * (len(verts) - 1) // 2))
    largest = max((len(verts) for verts, complete in components if not complete), default=0)
    if largest > block_bound:
        raise BoundExceededError(
            f"detour search refused: a non-complete block of {largest} vertices "
            f"exceeds block bound {block_bound}"
        )
    n = graph.n
    adj_bits = [graph.neighbor_bits(v) for v in range(n)]
    # blocks[b] = (vertices, in-block detour by vertex pair or None when
    # the block is complete); vertex_blocks[v] = the blocks holding v.
    blocks: list[tuple[list[int], dict[int, dict[int, int]] | None]] = []
    vertex_blocks: list[list[int]] = [[] for _ in range(n)]
    for verts, complete in components:
        inner = None
        if not complete:
            allowed = sum(1 << v for v in verts)
            inner = {u: {} for u in verts}
            for i, u in enumerate(verts):
                for v in verts[i + 1:]:
                    inner[u][v] = inner[v][u] = _longest_path(adj_bits, allowed, u, v)
        for v in verts:
            vertex_blocks[v].append(len(blocks))
        blocks.append((verts, inner))

    rows = []
    for s in range(n):
        row: list[float] = [INF] * n
        row[s] = 0
        # Walk the block-cut tree from s: (vertex reached, block it was
        # reached through).
        stack = [(s, -1)]
        while stack:
            w, came = stack.pop()
            for b in vertex_blocks[w]:
                if b == came:
                    continue
                verts, inner = blocks[b]
                for x in verts:
                    if x != w:
                        row[x] = row[w] + (len(verts) - 1 if inner is None else inner[w][x])
                        stack.append((x, b))
        rows.append(tuple(row))
    return DistanceMatrix(kind="detour", entries=tuple(rows))


def _longest_path(adj_bits: list[int], allowed: int, s: int, t: int) -> int:
    """Length of a longest simple s-t path inside the vertex mask allowed
    (which holds s and t), or -1 when there is none: iterative DFS over
    simple paths, pruned by counting and by reachability."""
    best_len = -1
    stack = [(s, 1 << s, 0)]
    while stack:
        v, visited, length = stack.pop()
        if v == t:
            if length > best_len:
                best_len = length
            continue
        free = allowed & ~visited
        # Upper bound: each unvisited vertex adds at most one edge.
        if length + free.bit_count() <= best_len:
            continue
        if not reachable(adj_bits, v, free) >> t & 1:
            continue
        nxt = adj_bits[v] & free
        while nxt:
            low = nxt & -nxt
            nxt ^= low
            w = low.bit_length() - 1
            stack.append((w, visited | low, length + 1))
    return best_len


def eccentricity_profile(dm: DistanceMatrix) -> EccentricityProfile:
    """Per-vertex eccentricities plus radius and diameter."""
    if not dm.is_finite:
        raise DisconnectedGraphError("eccentricities need a connected graph")
    ecc = tuple(int(max(row)) if row else 0 for row in dm.entries)
    if not ecc:
        raise ValueError("empty matrix")
    return EccentricityProfile(
        kind=dm.kind, eccentricities=ecc, radius=min(ecc), diameter=max(ecc)
    )


def distance_degree_sequence(dm: DistanceMatrix) -> DistanceDegreeSequences:
    """For each vertex u, the counts (|{v : d(u,v) = k}|) for k = 0..ecc(u);
    the summary groups equal tuples with multiplicities."""
    if not dm.is_finite:
        raise DisconnectedGraphError("distance degree sequences need a connected graph")
    per_vertex = []
    for row in dm.entries:
        ecc = int(max(row))
        counts = [0] * (ecc + 1)
        for d in row:
            counts[int(d)] += 1
        per_vertex.append(tuple(counts))
    groups: dict[tuple[int, ...], int] = {}
    for t in per_vertex:
        groups[t] = groups.get(t, 0) + 1
    summary = tuple(sorted(groups.items(), key=lambda kv: (len(kv[0]), kv[0])))
    return DistanceDegreeSequences(
        kind=dm.kind, per_vertex=tuple(per_vertex), summary=summary
    )


# ---------------------------------------------------------------------------
# Hosoya-type polynomials and reciprocal status
# ---------------------------------------------------------------------------


def _shortest_entries(
    dm: DistanceMatrix, disconnected: str
) -> tuple[tuple[float, ...], ...]:
    """The entries of dm, which must be the shortest-distance matrix of a
    connected graph; `disconnected` is the DisconnectedGraphError message."""
    if dm.kind != "shortest":
        raise ValueError(f"expected a shortest-distance matrix, got kind {dm.kind!r}")
    if not dm.is_finite:
        raise DisconnectedGraphError(disconnected)
    return dm.entries


def hosoya_polynomial(dm: DistanceMatrix) -> IntPolynomial:
    """Vertex-pair counts by distance, as a polynomial.

    Convention: the x^0 coefficient counts the N diagonal pairs (u,u); for
    i >= 1 the x^i coefficient counts unordered pairs at distance i.
    """
    rows = _shortest_entries(dm, "Hosoya polynomial needs a connected graph")
    pairs = Counter(int(d) for u, row in enumerate(rows) for d in row[u + 1:])
    return IntPolynomial({0: dm.n, **pairs})


def reciprocal_status(dm: DistanceMatrix, v: int) -> Fraction:
    """rs(v) = sum over u != v of 1/d(u,v), exactly."""
    rows = _shortest_entries(dm, "reciprocal status needs a connected graph")
    if not 0 <= v < dm.n:
        raise ValueError(f"vertex {v} out of range")
    return _rs_from_row(rows[v])


def _rs_from_row(row: tuple[float, ...]) -> Fraction:
    """Sum of count/d over the distinct distances d > 0 of the row."""
    return sum((Fraction(c, int(d)) for d, c in Counter(row).items() if d), Fraction(0))


def reciprocal_status_edge_sums(dm: DistanceMatrix) -> dict[Fraction, int]:
    """Multiset {rs(u)+rs(v) : uv an edge} with exact rational keys."""
    rows = _shortest_entries(dm, "reciprocal status needs a connected graph")
    rs = [_rs_from_row(row) for row in rows]
    ends = [(u, v) for u, row in enumerate(rows) for v in range(u + 1, dm.n) if row[v] == 1]
    return dict(Counter(rs[u] + rs[v] for u, v in ends))


def reciprocal_status_hosoya(dm: DistanceMatrix) -> IntPolynomial:
    """Sum over edges uv of x^(rs(u)+rs(v)).

    All exponents must be integers (true for the power graphs treated
    here); for graphs with fractional sums use
    :func:`reciprocal_status_edge_sums`, which reports the exact rationals.
    """
    sums = reciprocal_status_edge_sums(dm)
    for key in sums:
        if key.denominator != 1:
            raise ValueError(
                f"edge reciprocal-status sum {key} is not an integer; "
                "use reciprocal_status_edge_sums for the exact rationals"
            )
    return IntPolynomial({int(key): count for key, count in sums.items()})


# ---------------------------------------------------------------------------
# Boundary, interior, center, closure
# ---------------------------------------------------------------------------


def boundary_interior_center(
    dm: DistanceMatrix,
) -> tuple[frozenset[int], frozenset[int], frozenset[int]]:
    """(boundary, interior, center) vertex sets.

    u is a boundary vertex of v (v != u) when no neighbor of u is farther
    from v than u is; u is a boundary vertex of the graph when it is a
    boundary vertex of some v.  Interior is the complement of the
    boundary; center collects the vertices of minimum eccentricity.
    """
    rows = _shortest_entries(dm, "boundary/interior need a connected graph")
    n = dm.n
    boundary = set()
    for u in range(n):
        neighbors = [w for w, d in enumerate(rows[u]) if d == 1]
        for v in range(n):
            if v != u and all(rows[w][v] <= rows[u][v] for w in neighbors):
                boundary.add(u)
                break
    interior = frozenset(range(n)) - boundary
    profile = eccentricity_profile(dm)
    center = frozenset(
        v for v in range(n) if profile.eccentricities[v] == profile.radius
    )
    return frozenset(boundary), interior, center


def bondy_chvatal_closure(graph: Graph) -> Graph:
    """Add edges between non-adjacent pairs with degree sum >= n until no
    such pair remains.  The fixed point does not depend on the order in
    which qualifying edges are added."""
    n = graph.n
    edges = set(graph.edges)
    deg = [graph.degree(v) for v in range(n)]
    changed = True
    while changed:
        changed = False
        for u in range(n):
            for v in range(u + 1, n):
                if (u, v) not in edges and deg[u] + deg[v] >= n:
                    edges.add((u, v))
                    deg[u] += 1
                    deg[v] += 1
                    changed = True
    return Graph.from_edges(n, edges, labels=graph.labels)
