"""Simple undirected graphs and the power-graph construction.

The power graph of a finite gyrogroup has the elements as vertices, with
distinct u, v adjacent exactly when one is a positive power of the other.
A graph's characteristic polynomial is read off its twin quotient, one
row per twin part (:attr:`Graph.twin_quotient`; 3 x 3 for P(G(n))), by
one trace recurrence per graph (:attr:`Graph.quotient_charpoly`).
"""

from __future__ import annotations

import json
import math
from functools import cached_property
from typing import Callable, Iterable, NamedTuple, Sequence

from .errors import BoundExceededError
from .gyrogroups import GyroGroup, _Value, powers
from .polynomials import IntPolynomial, char_poly

#: Largest twin-quotient dimension whose characteristic polynomial is computed.
CHARPOLY_DIMENSION_BOUND = 64


class Graph(_Value):
    """Immutable simple graph on vertices 0..n-1.

    Adjacency is stored once, as bitmask rows (adj_bits, one int per
    vertex), and every reader walks the rows.  The twin parts, the twin
    quotient and its characteristic polynomial, and the biconnected blocks
    are views derived from the rows on first use; ``edges`` and
    ``neighbors`` are read off the rows on each call.  Equality and hash
    read the rows.
    """

    _fields = ("n", "edges", "labels")

    def _values(self) -> tuple:
        return self.n, self.adj_bits, self.labels

    def __init__(
        self, n: int, edges: Iterable[tuple[int, int]], labels: tuple[str, ...] = ()
    ) -> None:
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        bits = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range")
            if u == v:
                raise ValueError(f"self-loop at {u}")
            bits[u] |= 1 << v
            bits[v] |= 1 << u
        self._set_rows(bits, labels)

    @classmethod
    def _from_rows(cls, rows: Sequence[int], labels: tuple[str, ...]) -> "Graph":
        """The graph on bitmask rows kept symmetric and zero on the diagonal."""
        graph = cls.__new__(cls)
        graph._set_rows(rows, labels)
        return graph

    def _set_rows(self, rows: Sequence[int], labels: tuple[str, ...]) -> None:
        """Keep the rows and the labels (by default the indices)."""
        if not labels:
            labels = tuple(str(i) for i in range(len(rows)))
        elif len(labels) != len(rows):
            raise ValueError("label count does not match vertex count")
        self.__dict__.update(n=len(rows), labels=labels, adj_bits=tuple(rows))

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        """The edges as (u, v) pairs with u < v, built on each call."""
        return frozenset(self.sorted_edges())

    @cached_property
    def twin_parts(self) -> tuple[tuple[tuple[int, ...], str], ...]:
        """The rows' :func:`twin_parts`, as tuples."""
        return tuple((tuple(part), kind) for part, kind in twin_parts(self.adj_bits))

    @cached_property
    def twin_quotient(self) -> tuple[tuple[tuple[int, ...], ...], IntPolynomial]:
        """(B, f) with det(xI - A) = det(xI - B) * f for the adjacency matrix A.

        The twin parts form an equitable partition (Godsil & Royle, Algebraic
        Graph Theory, ch. 9): B[i][j] counts the neighbors in part j of any
        vertex of part i, and f is (x+1)^(|P|-1) per adjacent part P times
        x^(|P|-1) per other part.  B is a tuple of int rows; a twinless
        graph's B is A itself.
        """
        parts = self.twin_parts
        masks = [sum(1 << v for v in part) for part, _ in parts]
        quotient = tuple(
            tuple((self.adj_bits[part[0]] & mask).bit_count() for mask in masks)
            for part, _ in parts
        )
        adjacent = sum(len(part) - 1 for part, kind in parts if kind == "adjacent")
        rest = self.n - len(parts) - adjacent  # f = x^rest (x+1)^adjacent
        return quotient, IntPolynomial(
            {rest + k: math.comb(adjacent, k) for k in range(adjacent + 1)}
        )

    @cached_property
    def quotient_charpoly(self) -> IntPolynomial:
        """det(xI - B) for the twin quotient B, by the trace recurrence;
        refused above CHARPOLY_DIMENSION_BOUND."""
        quotient, _ = self.twin_quotient
        if len(quotient) > CHARPOLY_DIMENSION_BOUND:
            raise BoundExceededError(
                f"characteristic polynomial refused: twin-quotient dimension "
                f"{len(quotient)} exceeds {CHARPOLY_DIMENSION_BOUND}"
            )
        return char_poly(quotient)

    @cached_property
    def blocks(self) -> tuple[tuple[int, ...], ...]:
        """The :func:`biconnected_components` of the rows, as a tuple."""
        return tuple(biconnected_components(self.adj_bits))

    # -- basic queries -------------------------------------------------

    def has_edge(self, u: int, v: int) -> bool:
        check_vertex(self.n, u, v)
        return bool(self.adj_bits[u] >> v & 1)

    def neighbors(self, v: int) -> tuple[int, ...]:
        """The ascending neighbors of v: the set bits of its row."""
        check_vertex(self.n, v)
        return tuple(set_bits(self.adj_bits[v]))

    def degree(self, v: int) -> int:
        check_vertex(self.n, v)
        return self.adj_bits[v].bit_count()

    @property
    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj_bits) // 2

    def sorted_edges(self) -> list[tuple[int, int]]:
        """The edges (u, v), u < v, in ascending order: each row's bits above u."""
        return [(u, v) for u, row in enumerate(self.adj_bits) for v in set_bits(row, u)]

    def vertices(self) -> range:
        return range(self.n)

    def is_connected(self) -> bool:
        return len(self.connected_components()) <= 1

    def connected_components(self) -> list[list[int]]:
        comps, left = [], (1 << self.n) - 1
        while left:
            comp = reachable(self.adj_bits, (left & -left).bit_length() - 1, left)
            left &= ~comp
            comps.append(set_bits(comp))
        return comps

    def is_complete(self) -> bool:
        return self.edge_count == self.n * (self.n - 1) // 2

    # -- constructors ----------------------------------------------------

    @classmethod
    def from_edges(
        cls, n: int, edges: Iterable[tuple[int, int]], labels: tuple[str, ...] = ()
    ) -> "Graph":
        return cls(n=n, edges=edges, labels=labels)

    @classmethod
    def complete(cls, n: int) -> "Graph":
        return cls.from_edges(n, ((u, v) for u in range(n) for v in range(u + 1, n)))

    @classmethod
    def cycle(cls, n: int) -> "Graph":
        if n < 3:
            raise ValueError("a cycle needs at least 3 vertices")
        return cls.from_edges(n, ((i, (i + 1) % n) for i in range(n)))

    @classmethod
    def path(cls, n: int) -> "Graph":
        return cls.from_edges(n, ((i, i + 1) for i in range(n - 1)))

    @classmethod
    def star(cls, leaves: int) -> "Graph":
        return cls.from_edges(leaves + 1, ((0, i) for i in range(1, leaves + 1)))


def check_vertex(n: int, *vertices: int) -> None:
    """Raise unless every one of the vertices is in 0..n-1."""
    for v in vertices:
        if not 0 <= v < n:
            raise ValueError(f"vertex {v} out of range")


def set_bits(row: int, start: int = 0) -> list[int]:
    """The positions of the set bits of row, from start up, ascending."""
    return [v for v, bit in enumerate(bin(row >> start)[:1:-1], start) if bit == "1"]


def reachable(adj_bits: Sequence[int], v: int, allowed: int) -> int:
    """Bitmask of the vertices reachable from v inside allowed | {v}, given
    the bitmask adjacency rows (one int per vertex, as Graph.adj_bits)."""
    seen = 1 << v
    stack = [v]
    while stack:
        x = stack.pop()
        fresh = adj_bits[x] & allowed & ~seen
        while fresh:
            low = fresh & -fresh
            fresh ^= low
            seen |= low
            stack.append(low.bit_length() - 1)
    return seen


#: Cap on the least-extension search's fits tests, each charged len(keys), about
#: what one test reads, and on one detour_matrix call's reachability sweeps, each
#: charged its block's vertex count.  On 2 CPUs K7,8 is refused after 2.6-3.4 s,
#: and the detour of P(Z2 x Z30) after 0.6 s, of P(Z2 x Z10) 1.3 s, of C200 4.9 s.
SEARCH_BUDGET = 20_000_000


def _least_extension(
    search: str, images: dict, keys: Sequence, candidates: Callable, fits: Callable
) -> bool:
    """Extend the injective map images over keys, in order, depth first: each
    key takes a value that candidates(key, used) yields (used: the bitmask of
    the values taken, which it leaves out) and fits(key, value, used) accepts
    once placed.  Returns whether some extension is complete; images then
    holds the first, else is as given.  The search is refused once its
    fits tests, charged len(keys) each, pass SEARCH_BUDGET."""
    charge, budget, spent = len(keys), SEARCH_BUDGET, 0
    depth, used, stack = 0, sum(1 << value for value in images.values()), []
    while depth < len(keys):  # stack: the candidates left to keys[:depth + 1]
        key = keys[depth]
        if depth == len(stack):
            stack.append(iter(candidates(key, used)))
        else:  # back from a dead end: key's value is taken no more
            used ^= 1 << images[key]
        for value in stack[depth]:
            spent += charge
            if spent > budget:
                raise BoundExceededError(f"{search} refused: {spent // charge} steps x "
                                         f"{charge} keys = {spent} exceeds budget {budget}")
            images[key] = value
            if fits(key, value, used | 1 << value):
                used |= 1 << value
                depth += 1
                break
        else:  # no value fits key
            images.pop(key, None)
            stack.pop()
            if not depth:
                return False
            depth -= 1
    return True


def twin_parts(adj_bits: Sequence[int]) -> list[tuple[list[int], str]]:
    """The twin partition of the bitmask adjacency rows, as (ascending
    vertices, kind) pairs ordered by least vertex: equal closed
    neighborhoods make an "adjacent" part, equal open ones a "non-adjacent"
    part, and every other vertex an "untwinned" part of its own.  No vertex
    has twins of both kinds: its open twin would neighbor its closed twin,
    hence itself."""
    closed: dict[int, list[int]] = {}
    open_: dict[int, list[int]] = {}
    for v, nb in enumerate(adj_bits):
        closed.setdefault(nb | 1 << v, []).append(v)
        open_.setdefault(nb, []).append(v)
    parts = []
    for v, nb in enumerate(adj_bits):
        part = closed[nb | 1 << v], "adjacent"
        if len(part[0]) == 1:
            part = open_[nb], "non-adjacent" if len(open_[nb]) > 1 else "untwinned"
        if part[0][0] == v:
            parts.append(part)
    return parts


def biconnected_components(adj_bits: Sequence[int]) -> list[tuple[int, ...]]:
    """The ascending vertices of each biconnected block (a bridge is one of
    two) of the bitmask adjacency rows, as a DFS to the least unvisited
    neighbor closes them (Hopcroft & Tarjan, CACM 16(6), 1973).  A finished
    vertex's low point is the least discovery time of its neighbors (the
    parent's changes no test) and of its children's low points; a child
    whose low point is not below its parent's discovery time closes the
    block of the parent and the vertices pushed since the child."""
    n = len(adj_bits)
    disc, low = [0] * n, [0] * n
    blocks: list[tuple[int, ...]] = []
    visited = timer = 0
    for root in range(n):
        if visited >> root & 1:
            continue
        visited |= 1 << root
        disc[root] = low[root] = timer = timer + 1
        path, pushed = [root], []  # the DFS path; vertices not yet in a block
        while path:
            v = path[-1]
            fresh = adj_bits[v] & ~visited
            if fresh:
                w = (fresh & -fresh).bit_length() - 1
                visited |= 1 << w
                disc[w] = low[w] = timer = timer + 1
                path.append(w)
                pushed.append(w)
                continue
            path.pop()
            if path:
                u = path[-1]
                low[v] = min(low[v], *map(disc.__getitem__, set_bits(adj_bits[v])))
                low[u] = min(low[u], low[v])
                if low[v] >= disc[u]:
                    block = [u]
                    while block[-1] != v:
                        block.append(pushed.pop())
                    blocks.append(tuple(sorted(block)))
    return blocks


class StructureSummary(NamedTuple):
    """Decomposition test for 'complete block plus pendants on one hub'."""

    matches_gn_shape: bool
    clique_part: frozenset[int]
    pendant_part: frozenset[int]
    hub: int | None


def power_graph(g: GyroGroup) -> Graph:
    """Power graph: u ~ v iff v is a power of u or u a power of v."""
    return _power_graph(g, (powers(g, u) for u in g.elements()))


def _power_graph(g: GyroGroup, walks: Iterable[list[int]]) -> Graph:
    """The power graph from each element's walk u^1..u^L = powers(g, u), in
    element order: each walk is ORed into row u, and bit u into the row of
    each power."""
    rows = [0] * g.order
    for u, walk in enumerate(walks):
        bit = 1 << u
        rows[u] |= sum(map((1).__lshift__, walk))  # the powers are distinct
        for v in walk:
            rows[v] |= bit
    return Graph._from_rows([row & ~(1 << u) for u, row in enumerate(rows)], g.labels)


def classify_gn_shape(graph: Graph) -> StructureSummary:
    """Detect a complete graph on half the vertices with the other half
    pendant on a single clique vertex."""
    no_match = StructureSummary(False, frozenset(), frozenset(), None)
    n = graph.n
    if n < 2 or n % 2:
        return no_match
    pendants = frozenset(v for v in graph.vertices() if graph.degree(v) == 1)
    if len(pendants) != n // 2:
        return no_match
    hubs = {graph.adj_bits[v].bit_length() - 1 for v in pendants}
    if len(hubs) != 1:
        return no_match
    hub = next(iter(hubs))
    clique = frozenset(graph.vertices()) - pendants
    if hub not in clique:
        return no_match
    mask = sum(1 << v for v in clique)
    if any((graph.adj_bits[v] | 1 << v) & mask != mask for v in clique):
        return no_match
    return StructureSummary(True, clique, pendants, hub)


def induced_subgraph(graph: Graph, vertices: Iterable[int]) -> Graph:
    """Subgraph on the given vertices (re-indexed in sorted order)."""
    vs = sorted(set(vertices))
    check_vertex(graph.n, *vs)
    index = {v: i for i, v in enumerate(vs)}
    mask = sum(1 << v for v in vs)
    edges = ((i, index[v]) for i, u in enumerate(vs) for v in set_bits(graph.adj_bits[u] & mask))
    return Graph.from_edges(len(vs), edges, labels=tuple(graph.labels[v] for v in vs))


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def to_dot(graph: Graph) -> str:
    lines = ["graph G {"]
    for v in graph.vertices():
        lines.append(f'  {v} [label="{graph.labels[v]}"];')
    for u, v in graph.sorted_edges():
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def to_json(graph: Graph) -> str:
    payload = {
        "n": graph.n,
        "labels": list(graph.labels),
        "edges": [[u, v] for u, v in graph.sorted_edges()],
    }
    return json.dumps(payload, sort_keys=True)
