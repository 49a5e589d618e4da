"""Shortest and detour distances, Hosoya-type polynomials, and the
boundary / interior / center / closure machinery.

Shortest distances come from BFS.  Detour distances (longest simple
paths) come from an exhaustive DFS with reachability pruning, which is
exponential in general and therefore guarded by an order bound.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction

from .errors import BoundExceededError, DisconnectedGraphError
from .graphs import Graph, reachable
from .polynomials import IntPolynomial

INF = float("inf")

#: Default vertex-count cap for the exponential detour search.
DETOUR_ORDER_BOUND = 64


@dataclass(frozen=True)
class DistanceMatrix:
    """All-pairs distances; entries are ints with INF for unreachable pairs."""

    kind: str  # "shortest" | "detour"
    entries: tuple[tuple[float, ...], ...]

    @property
    def n(self) -> int:
        return len(self.entries)

    def __getitem__(self, pair: tuple[int, int]) -> float:
        u, v = pair
        return self.entries[u][v]

    def is_finite(self) -> bool:
        return all(x != INF for row in self.entries for x in row)


@dataclass(frozen=True)
class EccentricityProfile:
    kind: str
    eccentricities: tuple[int, ...]
    radius: int
    diameter: int


@dataclass(frozen=True)
class DistanceDegreeSequences:
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
    """BFS from every vertex; INF marks disconnected pairs."""
    rows = []
    for s in graph.vertices():
        dist: list[float] = [INF] * graph.n
        dist[s] = 0
        queue = deque([s])
        while queue:
            v = queue.popleft()
            for w in graph.neighbors(v):
                if dist[w] == INF:
                    dist[w] = dist[v] + 1
                    queue.append(w)
        rows.append(tuple(dist))
    return DistanceMatrix(kind="shortest", entries=tuple(rows))


def detour_matrix(graph: Graph, order_bound: int = DETOUR_ORDER_BOUND) -> DistanceMatrix:
    """Exact longest-simple-path lengths between all pairs.

    Refuses graphs larger than order_bound: the search is exponential.
    Runtime is governed by structure, not just order; dense graphs above
    ~16 vertices are impractical.
    """
    if graph.n > order_bound:
        raise BoundExceededError(
            f"detour search refused: order {graph.n} exceeds bound {order_bound}"
        )
    n = graph.n
    best = [[0 if u == v else -1 for v in range(n)] for u in range(n)]
    adj_bits = [graph.neighbor_bits(v) for v in range(n)]
    full = (1 << n) - 1

    def search(s: int, t: int) -> int:
        best_len = -1
        # Iterative DFS over simple paths from s to t.
        stack = [(s, 1 << s, 0)]
        while stack:
            v, visited, length = stack.pop()
            if v == t:
                if length > best_len:
                    best_len = length
                continue
            free = full & ~visited
            # Upper bound: each unvisited vertex adds at most one edge.
            if length + bin(free).count("1") <= best_len:
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

    for u in range(n):
        for v in range(u + 1, n):
            d = search(u, v)
            best[u][v] = best[v][u] = d
    entries = tuple(
        tuple(INF if x < 0 else x for x in row) for row in best
    )
    return DistanceMatrix(kind="detour", entries=entries)


def eccentricity_profile(dm: DistanceMatrix) -> EccentricityProfile:
    """Per-vertex eccentricities plus radius and diameter."""
    if not dm.is_finite():
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
    if not dm.is_finite():
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


def hosoya_polynomial(graph: Graph) -> IntPolynomial:
    """Vertex-pair counts by distance, as a polynomial.

    Convention: the x^0 coefficient counts the N diagonal pairs (u,u); for
    i >= 1 the x^i coefficient counts unordered pairs at distance i.
    """
    dm = distance_matrix(graph)
    if not dm.is_finite():
        raise DisconnectedGraphError("Hosoya polynomial needs a connected graph")
    coeffs: dict[int, int] = {0: graph.n}
    for u in graph.vertices():
        for v in range(u + 1, graph.n):
            d = int(dm.entries[u][v])
            coeffs[d] = coeffs.get(d, 0) + 1
    return IntPolynomial(coeffs)


def reciprocal_status(graph: Graph, v: int) -> Fraction:
    """rs(v) = sum over u != v of 1/d(u,v), exactly."""
    dm = distance_matrix(graph)
    if not dm.is_finite():
        raise DisconnectedGraphError("reciprocal status needs a connected graph")
    return _rs_from_row(dm.entries[v], v)


def _rs_from_row(row: tuple[float, ...], v: int) -> Fraction:
    total = Fraction(0)
    for u, d in enumerate(row):
        if u != v:
            total += Fraction(1, int(d))
    return total


def reciprocal_status_edge_sums(graph: Graph) -> dict[Fraction, int]:
    """Multiset {rs(u)+rs(v) : uv an edge} with exact rational keys."""
    dm = distance_matrix(graph)
    if not dm.is_finite():
        raise DisconnectedGraphError("reciprocal status needs a connected graph")
    rs = [_rs_from_row(dm.entries[v], v) for v in graph.vertices()]
    sums: dict[Fraction, int] = {}
    for u, v in graph.edges:
        key = rs[u] + rs[v]
        sums[key] = sums.get(key, 0) + 1
    return sums


def reciprocal_status_hosoya(graph: Graph) -> IntPolynomial:
    """Sum over edges uv of x^(rs(u)+rs(v)).

    All exponents must be integers (true for the power graphs treated
    here); for graphs with fractional sums use
    :func:`reciprocal_status_edge_sums`, which reports the exact rationals.
    """
    sums = reciprocal_status_edge_sums(graph)
    coeffs: dict[int, int] = {}
    for key, count in sums.items():
        if key.denominator != 1:
            raise ValueError(
                f"edge reciprocal-status sum {key} is not an integer; "
                "use reciprocal_status_edge_sums for the exact rationals"
            )
        coeffs[int(key)] = coeffs.get(int(key), 0) + count
    return IntPolynomial(coeffs)


# ---------------------------------------------------------------------------
# Boundary, interior, center, closure
# ---------------------------------------------------------------------------


def boundary_interior_center(
    graph: Graph,
) -> tuple[frozenset[int], frozenset[int], frozenset[int]]:
    """(boundary, interior, center) vertex sets.

    u is a boundary vertex of v (v != u) when no neighbor of u is farther
    from v than u is; u is a boundary vertex of the graph when it is a
    boundary vertex of some v.  Interior is the complement of the
    boundary; center collects the vertices of minimum eccentricity.
    """
    dm = distance_matrix(graph)
    if not dm.is_finite():
        raise DisconnectedGraphError("boundary/interior need a connected graph")
    n = graph.n
    boundary = set()
    for u in range(n):
        for v in range(n):
            if v == u:
                continue
            if all(dm.entries[w][v] <= dm.entries[u][v] for w in graph.neighbors(u)):
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
