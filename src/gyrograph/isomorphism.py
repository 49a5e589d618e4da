"""Isomorphism searches for power graphs and for gyrogroup tables, and the
check of a given vertex map.  Both searches, like Hamiltonicity, run the
least-extension search of :mod:`gyrograph.graphs` over candidates taken in
ascending order, so each returns the lexicographically least witness.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from .distances import distance_matrix
from .errors import BoundExceededError
from .graphs import Graph, _least_extension, set_bits
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


def find_isomorphism(g1: Graph, g2: Graph) -> IsomorphismWitness | None:
    """The least isomorphism, or None: each v of g1 maps to a w of equal
    signature whose row among the images so far is the image of v's row below v.
    Graphs of equal size and order above GRAPH_ISO_ORDER_BOUND are refused."""
    if g1.n != g2.n or g1.edge_count != g2.edge_count:
        return None
    n = g1.n
    if n > GRAPH_ISO_ORDER_BOUND:
        raise BoundExceededError(
            f"graph isomorphism refused: order {n} exceeds bound {GRAPH_ISO_ORDER_BOUND}"
        )
    sig1 = _vertex_signatures(g1)
    sig2 = _vertex_signatures(g2)
    if sorted(sig1) != sorted(sig2):
        return None
    rows1, rows2 = g1.adj_bits, g2.adj_bits
    images: dict[int, int] = {}

    def fits(v: int, w: int, used: int) -> bool:
        below = sum(1 << images[u] for u in set_bits(rows1[v] & (1 << v) - 1))
        return rows2[w] & used == below

    if not _least_extension(images, range(n), _alike(sig1, sig2), fits):
        return None
    witness = IsomorphismWitness(Permutation(tuple(images[v] for v in range(n))), True)
    assert verify_isomorphism(g1, g2, witness.map).valid
    return witness


def _alike(keys1: list, keys2: list) -> Callable[[int, int], list[int]]:
    """The search's candidates of v: the unused w with keys2[w] == keys1[v]."""
    masks = [sum(1 << w for w, key in enumerate(keys2) if key == k) for k in keys1]
    return lambda v, used: set_bits(masks[v] & ~used)


def _vertex_signatures(graph: Graph) -> list[tuple]:
    degrees = [row.bit_count() for row in graph.adj_bits]
    counts = distance_matrix(graph).counts
    return [
        (degrees[v], tuple(sorted(map(degrees.__getitem__, set_bits(row)))),
         tuple(sorted(counts[v].items())))
        for v, row in enumerate(graph.adj_bits)
    ]


def gyro_isomorphic(g1: GyroGroup, g2: GyroGroup) -> Permutation | None:
    """Operation-preserving bijection between two tables, or None.

    The identity must map to the identity, and powers map to powers, so
    the candidates have equal power-walk size.  The returned witness is
    lexicographically least.  Tables of equal order above
    GYRO_ISO_ORDER_BOUND are refused.
    """
    if g1.order != g2.order:
        return None
    n = g1.order
    if n > GYRO_ISO_ORDER_BOUND:
        raise BoundExceededError(
            f"gyrogroup isomorphism refused: order {n} exceeds bound {GYRO_ISO_ORDER_BOUND}"
        )
    size1 = [len(powers(g1, a)) for a in range(n)]
    size2 = [len(powers(g2, a)) for a in range(n)]
    if sorted(size1) != sorted(size2):
        return None
    images: dict[int, int] = {g1.identity: g2.identity}
    t1, t2 = g1.table, g2.table
    preimages: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for x, row in enumerate(t1):
        for y, z in enumerate(row):
            preimages[z].append((x, y))

    def consistent(a: int, b: int, used: int) -> bool:
        # Only the triples x + y = z that involve a, the element just
        # mapped: the others held when their last element was mapped.
        pairs = [(a, y) for y in images] + [(x, a) for x in images]
        pairs += [(x, y) for x, y in preimages[a] if x in images and y in images]
        for x, y in pairs:
            z = t1[x][y]
            if z in images and images[z] != t2[images[x]][images[y]]:
                return False
        return True

    order = [a for a in range(n) if a != g1.identity]
    if _least_extension(images, order, _alike(size1, size2), consistent):
        return Permutation(tuple(images[a] for a in range(n)))
    return None
