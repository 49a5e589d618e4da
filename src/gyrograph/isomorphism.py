"""Isomorphism searches for power graphs and for gyrogroup tables, each
returning the lexicographically least witness, and the check of a given
vertex map.
"""

from __future__ import annotations

from typing import NamedTuple

from .distances import distance_matrix
from .errors import BoundExceededError
from .graphs import Graph, set_bits
from .gyrogroups import GyroGroup, Permutation, powers

GRAPH_ISO_ORDER_BOUND = 16
GYRO_ISO_ORDER_BOUND = 10


class IsomorphismWitness(NamedTuple):
    map: Permutation
    valid: bool


def verify_isomorphism(
    g1: Graph, g2: Graph, mapping: Permutation | list[int] | tuple[int, ...]
) -> IsomorphismWitness:
    """Check that the map carries each row of g1 onto the row of its image
    in g2, which is the edge-preservation biconditional over all pairs."""
    if g1.n != g2.n:
        raise ValueError("graphs have different orders")
    perm = mapping if isinstance(mapping, Permutation) else Permutation(tuple(mapping))
    if perm.size != g1.n:
        raise ValueError("mapping size does not match the graphs")
    p = perm.map
    valid = all(
        sum(1 << p[v] for v in set_bits(row)) == g2.adj_bits[p[u]]
        for u, row in enumerate(g1.adj_bits)
    )
    return IsomorphismWitness(map=perm, valid=valid)


def find_isomorphism(
    g1: Graph, g2: Graph, order_bound: int = GRAPH_ISO_ORDER_BOUND
) -> IsomorphismWitness | None:
    """Backtracking isomorphism search with signature pruning; returns the
    lexicographically least witness, or None when none exists."""
    if g1.n != g2.n or g1.edge_count != g2.edge_count:
        return None
    n = g1.n
    if n > order_bound:
        raise BoundExceededError(
            f"graph isomorphism refused: order {n} exceeds bound {order_bound}"
        )
    sig1 = _vertex_signatures(g1)
    sig2 = _vertex_signatures(g2)
    if sorted(sig1) != sorted(sig2):
        return None
    images: list[int] = []
    used = [False] * n

    def backtrack(v: int) -> bool:
        if v == n:
            return True
        for w in range(n):
            if used[w] or sig1[v] != sig2[w]:
                continue
            if any(
                g1.has_edge(u, v) != g2.has_edge(images[u], w) for u in range(v)
            ):
                continue
            images.append(w)
            used[w] = True
            if backtrack(v + 1):
                return True
            images.pop()
            used[w] = False
        return False

    if backtrack(0):
        witness = IsomorphismWitness(map=Permutation(tuple(images)), valid=True)
        assert verify_isomorphism(g1, g2, witness.map).valid
        return witness
    return None


def _vertex_signatures(graph: Graph) -> list[tuple]:
    dm = distance_matrix(graph)
    sigs = []
    for v in graph.vertices():
        nd = tuple(sorted(graph.degree(w) for w in set_bits(graph.adj_bits[v])))
        dp = tuple(sorted(dm.counts[v].items()))
        sigs.append((graph.degree(v), nd, dp))
    return sigs


def gyro_isomorphic(
    g1: GyroGroup, g2: GyroGroup, order_bound: int = GYRO_ISO_ORDER_BOUND
) -> Permutation | None:
    """Operation-preserving bijection between two tables, or None.

    The identity must map to the identity, and powers map to powers, so
    candidates are filtered by power-closure size before the factorial
    backtracking.  The returned witness is lexicographically least.
    """
    if g1.order != g2.order:
        return None
    n = g1.order
    if n > order_bound:
        raise BoundExceededError(
            f"gyrogroup isomorphism refused: order {n} exceeds bound {order_bound}"
        )
    size1 = [len(powers(g1, a)) for a in range(n)]
    size2 = [len(powers(g2, a)) for a in range(n)]
    if sorted(size1) != sorted(size2):
        return None
    images: dict[int, int] = {g1.identity: g2.identity}
    used = [False] * n
    used[g2.identity] = True
    order = [a for a in range(n) if a != g1.identity]
    t1, t2 = g1.table, g2.table
    preimages: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for x, row in enumerate(t1):
        for y, z in enumerate(row):
            preimages[z].append((x, y))

    def consistent(a: int) -> bool:
        # Only the triples x + y = z that involve a, the element just
        # mapped: the others held when their last element was mapped.
        pairs = [(a, y) for y in images] + [(x, a) for x in images]
        pairs += [(x, y) for x, y in preimages[a] if x in images and y in images]
        for x, y in pairs:
            z = t1[x][y]
            if z in images and images[z] != t2[images[x]][images[y]]:
                return False
        return True

    def backtrack(idx: int) -> bool:
        if idx == len(order):
            return True
        a = order[idx]
        for b in range(n):
            if used[b] or size1[a] != size2[b]:
                continue
            images[a] = b
            used[b] = True
            if consistent(a) and backtrack(idx + 1):
                return True
            del images[a]
            used[b] = False
        return False

    if backtrack(0):
        return Permutation(tuple(images[a] for a in range(n)))
    return None
