"""Shortest and detour distances, Hosoya-type polynomials, and the
boundary / interior / center / closure machinery.

Invariants of a metric take its DistanceMatrix, not the graph, so one
matrix per graph serves them all.  The matrix keeps the graph's twin parts
and one distance per pair of parts, and its readers work on parts.

Shortest distances come from BFS and detour distances (longest simple
paths) are summed along the block-cut tree of the graph's ``blocks``, both
from one vertex per twin part.  Complete blocks need no search; only the
other blocks run an exhaustive DFS, exponential in the block's size and
fenced by ``graphs.SEARCH_BUDGET``.
"""

from __future__ import annotations

import math
from collections import Counter
from functools import cached_property
from typing import TYPE_CHECKING, NamedTuple, Sequence

from . import graphs
from .errors import BoundExceededError, DisconnectedGraphError
from .graphs import Graph, check_vertex, reachable, set_bits
from .gyrogroups import _Value
from .polynomials import IntPolynomial

if TYPE_CHECKING:
    from fractions import Fraction

INF = float("inf")


class DistanceMatrix(_Value):
    """All-pairs distances (ints, INF when unreachable) by twin part, as twin swaps
    are automorphisms: parts are the graph's ``twin_parts``, and table[i][j] the
    distance from a vertex of part i to another of part j (0 if there is none)."""

    _fields = ("kind", "parts", "table")  # kind: "shortest" | "detour"

    def __init__(self, kind: str, parts: tuple, table: tuple[tuple[float, ...], ...]) -> None:
        self.__dict__.update(kind=kind, parts=parts, table=table)

    @cached_property
    def _part_of(self) -> tuple[int, ...]:
        """_part_of[v]: the index of v's part."""
        of = {v: i for i, (part, _) in enumerate(self.parts) for v in part}
        return tuple(of[v] for v in range(len(of)))

    @property
    def n(self) -> int:
        return len(self._part_of)

    def __getitem__(self, pair: tuple[int, int]) -> float:
        u, v = pair
        check_vertex(self.n, u, v)
        return 0 if u == v else self.table[self._part_of[u]][self._part_of[v]]

    @cached_property
    def counts(self) -> tuple[Counter, ...]:
        """counts[u][d] = |{v : d(u, v) = d}|, one Counter per part shared by its members."""
        per_part = []
        for i, row in enumerate(self.table):
            count = Counter({0: 1})
            for j, ((part, _), d) in enumerate(zip(self.parts, row)):
                count[d] += len(part) - (i == j)
            per_part.append(count)
        return tuple(per_part[i] for i in self._part_of)

    @cached_property
    def is_finite(self) -> bool:
        """No INF entry."""
        return not any(INF in row for row in self.table)


class EccentricityProfile(NamedTuple):
    kind: str
    eccentricities: tuple[int, ...]
    radius: int
    diameter: int


class DistanceDegreeSequences(NamedTuple):
    """The multiset of the vertices' distance degree sequences: each
    sequence with the number of vertices that have it."""

    kind: str
    summary: tuple[tuple[tuple[int, ...], int], ...]

    def summary_dict(self) -> dict[tuple[int, ...], int]:
        return dict(self.summary)


# ---------------------------------------------------------------------------
# Matrices
# ---------------------------------------------------------------------------


def distance_matrix(graph: Graph) -> DistanceMatrix:
    """One BFS per twin part (:func:`_by_twin_parts`), three for every
    P(G(n)); INF marks disconnected pairs.  Each BFS level is the OR of the
    last level's rows, less the vertices already reached."""
    adj = graph.adj_bits

    def bfs(r: int) -> list[float]:
        dist: list[float] = [INF] * graph.n
        level = seen = 1 << r
        d = 0
        while level:
            reach = 0
            for v in set_bits(level):
                dist[v] = d
                reach |= adj[v]
            level = reach & ~seen
            seen |= level
            d += 1
        return dist

    return _by_twin_parts(graph, "shortest", bfs)


def _by_twin_parts(graph: Graph, kind: str, row_from) -> DistanceMatrix:
    """A distance matrix from row_from(r) for the least vertex r of each of
    the graph's twin parts alone: table[i][j] is read at the greatest vertex
    of part j, which for j = i is r's twin, or r itself."""
    parts = graph.twin_parts
    rows = map(row_from, (part[0] for part, _ in parts))
    table = tuple(tuple(row[other[-1]] for other, _ in parts) for row in rows)
    return DistanceMatrix(kind, parts, table)


def detour_matrix(graph: Graph) -> DistanceMatrix:
    """Exact longest-simple-path lengths between all pairs.

    A simple path cannot leave a block (biconnected component) and enter
    it again, so the detour distance is the sum of the in-block detours
    along the block-cut-tree path.  A complete block on k vertices (a
    bridge is one with k = 2) gives k - 1 between any two of its vertices;
    any other block is searched exhaustively, which is exponential in that
    block's size only.  The searches of all blocks and pairs share one
    charge, and the call is refused once it passes graphs.SEARCH_BUDGET
    (see :func:`_longest_path`).
    """
    adj_bits = graph.adj_bits
    budget, spent = graphs.SEARCH_BUDGET, 0
    # blocks[b] = (vertices, in-block detour by vertex pair or None when
    # the block is complete); vertex_blocks[v] = the blocks holding v.
    blocks: list[tuple[tuple[int, ...], dict[int, dict[int, int]] | None]] = []
    vertex_blocks: list[list[int]] = [[] for _ in graph.vertices()]
    for verts in graph.blocks:
        mask = sum(1 << v for v in verts)
        inner = None
        if not all((adj_bits[v] | 1 << v) & mask == mask for v in verts):
            inner = {u: {} for u in verts}
            for i, u in enumerate(verts):
                for v in verts[i + 1:]:
                    length, spent = _longest_path(adj_bits, mask, u, v, spent, budget)
                    inner[u][v] = inner[v][u] = length
        for v in verts:
            vertex_blocks[v].append(len(blocks))
        blocks.append((verts, inner))

    def walk(s: int) -> list[float]:
        # Walk the block-cut tree: (vertex reached, block it came through).
        row: list[float] = [INF] * graph.n
        row[s] = 0
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
        return row

    return _by_twin_parts(graph, "detour", walk)


def _longest_path(
    adj_bits: Sequence[int], allowed: int, s: int, t: int, spent: int, budget: int
) -> tuple[int, int]:
    """(Length of a longest simple s-t path inside the vertex mask allowed
    (which holds s and t), or -1 when there is none; spent plus this
    search's charge): iterative DFS over simple paths, pruned by counting
    and by reachability.  Each reachability sweep is charged the vertices
    of allowed, the most it reads, and the search is refused once the
    charge passes budget; a pop pruned by counting is free."""
    charge, best_len = allowed.bit_count(), -1
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
        spent += charge
        if spent > budget:
            raise BoundExceededError(
                f"detour search refused: sweeps over {spent} block vertices exceed budget {budget}"
            )
        if not reachable(adj_bits, v, free) >> t & 1:
            continue
        nxt = adj_bits[v] & free
        while nxt:
            low = nxt & -nxt
            nxt ^= low
            w = low.bit_length() - 1
            stack.append((w, visited | low, length + 1))
    return best_len, spent


def eccentricity_profile(dm: DistanceMatrix) -> EccentricityProfile:
    """Per-vertex eccentricities plus radius and diameter."""
    if not dm.is_finite:
        raise DisconnectedGraphError("eccentricities need a connected graph")
    ecc = tuple(int(max(c)) for c in dm.counts)
    if not ecc:
        raise ValueError("empty matrix")
    return EccentricityProfile(dm.kind, ecc, radius=min(ecc), diameter=max(ecc))


def distance_degree_sequence(dm: DistanceMatrix) -> DistanceDegreeSequences:
    """The counts (|{v : d(u,v) = k}|) for k = 0..ecc(u) of each vertex u,
    grouped into equal tuples with multiplicities and ordered by length,
    then value.  Twins share a tuple, so it is built once per twin part."""
    if not dm.is_finite:
        raise DisconnectedGraphError("distance degree sequences need a connected graph")
    grouped: Counter = Counter()
    for part, _ in dm.parts:
        c = dm.counts[part[0]]
        grouped[tuple(c[k] for k in range(int(max(c)) + 1))] += len(part)
    summary = sorted(grouped.items(), key=lambda kv: (len(kv[0]), kv[0]))
    return DistanceDegreeSequences(dm.kind, summary=tuple(summary))


# ---------------------------------------------------------------------------
# Hosoya-type polynomials and reciprocal status
# ---------------------------------------------------------------------------


def _require_shortest(dm: DistanceMatrix, disconnected: str) -> None:
    """Raise unless dm is a connected graph's shortest-distance matrix."""
    if dm.kind != "shortest":
        raise ValueError(f"expected a shortest-distance matrix, got kind {dm.kind!r}")
    if not dm.is_finite:
        raise DisconnectedGraphError(disconnected)


def hosoya_polynomial(dm: DistanceMatrix) -> IntPolynomial:
    """Vertex-pair counts by distance, as a polynomial.

    Convention: the x^0 coefficient counts the N diagonal pairs (u,u); for
    i >= 1 the x^i coefficient counts unordered pairs at distance i.
    """
    _require_shortest(dm, "Hosoya polynomial needs a connected graph")
    ordered_pairs: Counter = Counter()
    for part, _ in dm.parts:
        for d, k in dm.counts[part[0]].items():
            ordered_pairs[d] += len(part) * k
    return IntPolynomial({0: dm.n, **{int(d): k // 2 for d, k in ordered_pairs.items() if d}})


def reciprocal_status(dm: DistanceMatrix, v: int) -> Fraction:
    """rs(v) = sum over u != v of 1/d(u,v), exactly."""
    from fractions import Fraction  # built only where one is returned

    _require_shortest(dm, "reciprocal status needs a connected graph")
    check_vertex(dm.n, v)
    scale = math.lcm(*filter(None, dm.counts[v]))
    return Fraction(_rs_from_row(dm.counts[v], scale), scale)


def _rs_from_row(counts: Counter, scale: int) -> int:
    """scale * (the sum of count/d over the distances d > 0 of one row's
    counts), for a scale that every such d divides."""
    return sum(c * (scale // d) for d, c in counts.items() if d)


def _edge_status_sums(dm: DistanceMatrix) -> tuple[int, dict[int, int]]:
    """(L, {L * (rs(u)+rs(v)): number of edges uv}), all ints: L is the lcm
    of the distances present, and the statuses L * rs are computed once per
    twin part.  The CLI's rs_hosoya field reads this table too."""
    _require_shortest(dm, "reciprocal status needs a connected graph")
    scale = math.lcm(*filter(None, set().union(*dm.table)))
    rs = [_rs_from_row(dm.counts[part[0]], scale) for part, _ in dm.parts]
    ordered_sums: Counter = Counter()
    for i, (part, _) in enumerate(dm.parts):
        for j, (other, _) in enumerate(dm.parts):
            if dm.table[i][j] == 1:
                ordered_sums[rs[i] + rs[j]] += len(part) * (len(other) - (i == j))
    return scale, {key: k // 2 for key, k in ordered_sums.items()}


def reciprocal_status_edge_sums(dm: DistanceMatrix) -> dict[Fraction, int]:
    """Multiset {rs(u)+rs(v) : uv an edge} with exact rational keys."""
    from fractions import Fraction

    scale, sums = _edge_status_sums(dm)
    return {Fraction(key, scale): k for key, k in sums.items()}


def reciprocal_status_hosoya(dm: DistanceMatrix) -> IntPolynomial:
    """Sum over edges uv of x^(rs(u)+rs(v)), from the int sums of
    :func:`_edge_status_sums`; a Fraction is built only to report one.

    All exponents must be integers (true for the power graphs treated
    here); for graphs with fractional sums use
    :func:`reciprocal_status_edge_sums`, which reports the exact rationals.
    """
    scale, sums = _edge_status_sums(dm)
    if fractional := [key for key in sums if key % scale]:
        from fractions import Fraction

        raise ValueError(
            f"edge reciprocal-status sum {Fraction(fractional[0], scale)} is not an integer; "
            "use reciprocal_status_edge_sums for the exact rationals"
        )
    return IntPolynomial({key // scale: count for key, count in sums.items()})


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
    _require_shortest(dm, "boundary/interior need a connected graph")
    table = dm.table
    boundary = set()
    # Twins are boundary vertices together.  u in part i has its neighbors
    # in the parts l at distance 1, each at table[l][j] from v != u in part
    # j (d > 0); a part whose only such neighbor is v has table[l][j] <= d.
    for i, row in enumerate(table):
        near = [l for l, d in enumerate(row) if d == 1]
        if any(d and all(table[l][j] <= d for l in near) for j, d in enumerate(row)):
            boundary.update(dm.parts[i][0])
    interior = frozenset(range(dm.n)) - boundary
    profile = eccentricity_profile(dm)
    center = frozenset(v for v, e in enumerate(profile.eccentricities) if e == profile.radius)
    return frozenset(boundary), interior, center


def bondy_chvatal_closure(graph: Graph) -> Graph:
    """Add edges between non-adjacent pairs with degree sum >= n until no
    such pair remains; if none is added, it is the input graph.  Degrees
    only grow, so each round adds every pair that qualifies at its start
    (Bondy and Chvatal, 1976): row u gains at_least[n - deg(u)], the mask
    of the vertices of degree >= n - deg(u), less its neighbors and u."""
    n, rows = graph.n, graph.adj_bits
    while True:
        deg = [row.bit_count() for row in rows]
        at_least = [0] * (n + 1)
        for v, d in enumerate(deg):
            at_least[d] |= 1 << v
        for d in range(n - 1, -1, -1):
            at_least[d] |= at_least[d + 1]
        new = [at_least[n - d] & ~row & ~(1 << u) for u, (row, d) in enumerate(zip(rows, deg))]
        if not any(new):
            break
        rows = [row | gain for row, gain in zip(rows, new)]
    return graph if rows is graph.adj_bits else Graph._from_rows(rows, graph.labels)
