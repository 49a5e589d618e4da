"""Simple undirected graphs and the power-graph construction.

The power graph of a finite gyrogroup has the elements as vertices, with
distinct u, v adjacent exactly when one is a positive power of the other.
"""

from __future__ import annotations

import json
from typing import Iterable, NamedTuple, Sequence

from .gyrogroups import GyroGroup, _Value, power_closure


class Graph(_Value):
    """Immutable simple graph on vertices 0..n-1.

    Adjacency is kept twice: as bitmask rows (one int per vertex) for set
    algebra and as sorted neighbor tuples for traversals.  Construction
    builds both from the edge list and checks they agree.
    """

    # The adjacency stores _adj_bits and _adj_lists are derived from the
    # edges, so equality, hash and repr leave them out.
    _fields = ("n", "edges", "labels")

    def __init__(
        self, n: int, edges: frozenset[tuple[int, int]], labels: tuple[str, ...] = ()
    ) -> None:
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        norm = set()
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range")
            if u == v:
                raise ValueError(f"self-loop at {u}")
            norm.add((min(u, v), max(u, v)))
        bits = [0] * n
        lists: list[list[int]] = [[] for _ in range(n)]
        for u, v in norm:
            bits[u] |= 1 << v
            bits[v] |= 1 << u
            lists[u].append(v)
            lists[v].append(u)
        adj_lists = tuple(tuple(sorted(l)) for l in lists)
        # The two stores must describe the same relation.
        for v in range(n):
            if bits[v] != sum(1 << w for w in adj_lists[v]):
                raise AssertionError("adjacency stores disagree")
        if not labels:
            labels = tuple(str(i) for i in range(n))
        elif len(labels) != n:
            raise ValueError("label count does not match vertex count")
        self.__dict__.update(
            n=n, edges=frozenset(norm), labels=labels,
            _adj_bits=tuple(bits), _adj_lists=adj_lists,
        )

    # -- basic queries -------------------------------------------------

    def has_edge(self, u: int, v: int) -> bool:
        return u != v and bool(self._adj_bits[u] >> v & 1)

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self._adj_lists[v]

    def neighbor_bits(self, v: int) -> int:
        return self._adj_bits[v]

    def degree(self, v: int) -> int:
        return len(self._adj_lists[v])

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)

    def vertices(self) -> range:
        return range(self.n)

    def is_connected(self) -> bool:
        return len(self.connected_components()) <= 1

    def connected_components(self) -> list[list[int]]:
        comps = []
        seen = [False] * self.n
        for s in range(self.n):
            if seen[s]:
                continue
            comp = [s]
            seen[s] = True
            stack = [s]
            while stack:
                v = stack.pop()
                for w in self._adj_lists[v]:
                    if not seen[w]:
                        seen[w] = True
                        comp.append(w)
                        stack.append(w)
            comps.append(sorted(comp))
        return comps

    def is_complete(self) -> bool:
        return self.edge_count == self.n * (self.n - 1) // 2

    # -- constructors ----------------------------------------------------

    @classmethod
    def from_edges(
        cls, n: int, edges: Iterable[tuple[int, int]], labels: tuple[str, ...] = ()
    ) -> "Graph":
        return cls(n=n, edges=frozenset((u, v) for u, v in edges), labels=labels)

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


def reachable(adj_bits: Sequence[int], v: int, allowed: int) -> int:
    """Bitmask of the vertices reachable from v inside allowed | {v}, given
    the bitmask adjacency rows (one int per vertex, as neighbor_bits)."""
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


def biconnected_components(graph: Graph) -> list[list[tuple[int, int]]]:
    """Edge sets of the biconnected blocks (bridges appear as single edges)."""
    n = graph.n
    disc = [-1] * n
    low = [0] * n
    parent = [-1] * n
    ptr = [0] * n
    estack: list[tuple[int, int]] = []
    blocks: list[list[tuple[int, int]]] = []
    timer = 0
    for root in range(n):
        if disc[root] != -1:
            continue
        disc[root] = low[root] = timer
        timer += 1
        stack = [root]
        while stack:
            v = stack[-1]
            nbrs = graph.neighbors(v)
            if ptr[v] < len(nbrs):
                w = nbrs[ptr[v]]
                ptr[v] += 1
                if disc[w] == -1:
                    parent[w] = v
                    estack.append((v, w))
                    disc[w] = low[w] = timer
                    timer += 1
                    stack.append(w)
                elif w != parent[v] and disc[w] < disc[v]:
                    estack.append((v, w))
                    low[v] = min(low[v], disc[w])
            else:
                stack.pop()
                if stack:
                    u = stack[-1]
                    low[u] = min(low[u], low[v])
                    if low[v] >= disc[u]:
                        block = []
                        while estack:
                            e = estack.pop()
                            block.append(e)
                            if e == (u, v):
                                break
                        blocks.append(block)
    return blocks


class StructureSummary(NamedTuple):
    """Decomposition test for 'complete block plus pendants on one hub'."""

    matches_gn_shape: bool
    clique_part: frozenset[int]
    pendant_part: frozenset[int]
    hub: int | None


def power_graph(g: GyroGroup) -> Graph:
    """Power graph: u ~ v iff v is in the power closure of u or vice versa."""
    closures = [power_closure(g, a) for a in g.elements()]
    edges = set()
    for u in g.elements():
        for v in closures[u]:
            if v != u:
                edges.add((min(u, v), max(u, v)))
    return Graph.from_edges(g.order, edges, labels=g.labels)


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
    hubs = {graph.neighbors(v)[0] for v in pendants}
    if len(hubs) != 1:
        return no_match
    hub = next(iter(hubs))
    clique = frozenset(graph.vertices()) - pendants
    if hub not in clique:
        return no_match
    k = len(clique)
    clique_edges = sum(
        1 for u, v in graph.edges if u in clique and v in clique
    )
    if clique_edges != k * (k - 1) // 2:
        return no_match
    return StructureSummary(True, clique, pendants, hub)


def induced_subgraph(graph: Graph, vertices: Iterable[int]) -> Graph:
    """Subgraph on the given vertices (re-indexed in sorted order)."""
    vs = sorted(set(vertices))
    for v in vs:
        if not 0 <= v < graph.n:
            raise ValueError(f"vertex {v} out of range")
    index = {v: i for i, v in enumerate(vs)}
    edges = [
        (index[u], index[v]) for u, v in graph.edges if u in index and v in index
    ]
    return Graph.from_edges(
        len(vs), edges, labels=tuple(graph.labels[v] for v in vs)
    )


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def to_dot(graph: Graph, name: str = "G") -> str:
    lines = [f"graph {name} {{"]
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


def from_json(text: str) -> Graph:
    data = json.loads(text)
    return Graph.from_edges(
        int(data["n"]),
        ((int(u), int(v)) for u, v in data["edges"]),
        labels=tuple(data.get("labels", ())),
    )


def export(graph: Graph, fmt: str) -> str:
    """Deterministic serialization; fmt is 'dot' or 'json'."""
    if fmt == "dot":
        return to_dot(graph)
    if fmt == "json":
        return to_json(graph)
    raise ValueError(f"unknown export format {fmt!r}")
