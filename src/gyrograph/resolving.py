"""Twin classes, resolving sets, metric dimension, and the resolving
polynomial.

Twin vertices (equal open or closed neighborhoods) are interchangeable in
distance vectors, so a resolving set can omit at most one vertex of each
twin class.  That fact drives both the lower bound and the pruned subset
enumeration: candidate sets are generated by choosing which vertices to
omit, never more than one per twin class.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations, dropwhile, product
from typing import Iterable, Iterator, Sequence

from .distances import distance_matrix
from .errors import BoundExceededError, DisconnectedGraphError
from .graphs import Graph
from .polynomials import IntPolynomial

#: Default cap on the number of candidate subsets examined by one search,
#: summed over all subset sizes.
SUBSET_BUDGET = 5_000_000

#: Default vertex-count cap for the metric-dimension search.
METRIC_DIMENSION_ORDER_BOUND = 32


@dataclass(frozen=True)
class TwinPartition:
    """Maximal nontrivial twin classes, tagged 'adjacent' or 'non-adjacent'."""

    classes: tuple[tuple[frozenset[int], str], ...]

    def class_of(self, v: int) -> frozenset[int] | None:
        for cls, _ in self.classes:
            if v in cls:
                return cls
        return None

    def lower_bound(self) -> int:
        """Every resolving set misses at most one vertex per class."""
        return sum(len(cls) - 1 for cls, _ in self.classes)


@dataclass(frozen=True)
class ResolvingProfile:
    metric_dimension: int
    resolving_sequence: tuple[int, ...]  # (r_psi, ..., r_n)
    polynomial: IntPolynomial
    witness_basis: tuple[int, ...]

    def to_json(self) -> str:
        return json.dumps(
            {
                "psi": self.metric_dimension,
                "sequence": list(self.resolving_sequence),
                "polynomial": self.polynomial.to_dict(),
                "witness_basis": list(self.witness_basis),
            },
            sort_keys=True,
        )


def twin_partition(graph: Graph) -> TwinPartition:
    """Group vertices by equal closed neighborhoods (adjacent twins) and by
    equal open neighborhoods (non-adjacent twins); keep classes of size >= 2.

    A pair cannot be in nontrivial classes of both kinds, so the classes
    are disjoint.
    """
    closed: dict[int, list[int]] = {}
    open_: dict[int, list[int]] = {}
    for v in graph.vertices():
        nb = graph.neighbor_bits(v)
        closed.setdefault(nb | (1 << v), []).append(v)
        open_.setdefault(nb, []).append(v)
    classes: list[tuple[frozenset[int], str]] = []
    for group in closed.values():
        if len(group) >= 2:
            classes.append((frozenset(group), "adjacent"))
    for group in open_.values():
        if len(group) >= 2:
            classes.append((frozenset(group), "non-adjacent"))
    classes.sort(key=lambda item: min(item[0]))
    return TwinPartition(classes=tuple(classes))


def is_resolving(graph: Graph, subset: Iterable[int]) -> bool:
    """True iff the distance-vector map v -> (d(v, s) for s in subset) is
    injective on the vertices.  The subset is canonicalized to ascending
    order; injectivity does not depend on the ordering."""
    s = sorted(set(subset))
    for v in s:
        if not 0 <= v < graph.n:
            raise ValueError(f"vertex {v} out of range")
    dm = distance_matrix(graph)
    if not dm.is_finite():
        raise DisconnectedGraphError("resolving sets need a connected graph")
    return _resolves(dm.entries, graph.n, s)


def _resolves(rows: Sequence[Sequence[float]], n: int, subset: Sequence[int]) -> bool:
    seen = set()
    for v in range(n):
        vec = tuple(rows[v][s] for s in subset)
        if vec in seen:
            return False
        seen.add(vec)
    return True


def _omission_units(graph: Graph, partition: TwinPartition) -> list[tuple[int, ...]]:
    """Units from which set complements are drawn: one unit per nontrivial
    twin class (pick at most one of its vertices) plus one per remaining
    vertex."""
    in_class = set()
    units: list[tuple[int, ...]] = []
    for cls, _ in partition.classes:
        units.append(tuple(sorted(cls)))
        in_class |= cls
    for v in graph.vertices():
        if v not in in_class:
            units.append((v,))
    units.sort()
    return units


def _candidate_subsets(
    n: int, units: list[tuple[int, ...]], k: int
) -> Iterator[tuple[int, ...]]:
    """All k-subsets whose complement takes at most one vertex per unit,
    yielded as sorted tuples."""
    t = n - k
    if t == 0:
        yield tuple(range(n))
        return
    if t > len(units):
        return
    full = set(range(n))
    for chosen in combinations(units, t):
        for omitted in product(*chosen):
            yield tuple(sorted(full.difference(omitted)))


def _resolving_layers(
    graph: Graph, order_bound: int, subset_budget: int
) -> Iterator[tuple[int, int, tuple[int, ...] | None]]:
    """Yield (k, number of resolving k-subsets, least resolving k-subset or
    None) for k from the twin lower bound up to n.

    One pass: the distance matrix and the omission units are built once,
    every twin-pruned candidate is examined once, and subset_budget caps
    the candidates examined over all layers together.
    """
    if graph.n > order_bound:
        raise BoundExceededError(
            f"metric dimension refused: order {graph.n} exceeds bound {order_bound}"
        )
    dm = distance_matrix(graph)
    if not dm.is_finite():
        raise DisconnectedGraphError("metric dimension needs a connected graph")
    partition = twin_partition(graph)
    units = _omission_units(graph, partition)
    examined = 0
    for k in range(partition.lower_bound(), graph.n + 1):
        count = 0
        least: tuple[int, ...] | None = None
        for subset in _candidate_subsets(graph.n, units, k):
            examined += 1
            if examined > subset_budget:
                raise BoundExceededError(
                    f"resolving-set search refused: more than {subset_budget} candidates"
                )
            if _resolves(dm.entries, graph.n, subset):
                count += 1
                if least is None or subset < least:
                    least = subset
        yield k, count, least


def metric_dimension(
    graph: Graph,
    order_bound: int = METRIC_DIMENSION_ORDER_BOUND,
    subset_budget: int = SUBSET_BUDGET,
) -> int:
    """Minimum size of a resolving set: the first non-empty layer of the
    ascending-size enumeration over twin-pruned candidates."""
    for k, count, _ in _resolving_layers(graph, order_bound, subset_budget):
        if count:
            return k
    raise AssertionError("the full vertex set always resolves")


def resolving_polynomial(
    graph: Graph,
    order_bound: int = METRIC_DIMENSION_ORDER_BOUND,
    subset_budget: int = SUBSET_BUDGET,
) -> ResolvingProfile:
    """Count resolving k-subsets for every k from the metric dimension up
    to n, with twin-class pruning.

    Subsets omitting two or more vertices of one twin class are rejected
    without distance checks (twins share distance vectors), so only the
    pruned candidates are ever tested.
    """
    layers = list(
        dropwhile(
            lambda layer: not layer[1],
            _resolving_layers(graph, order_bound, subset_budget),
        )
    )
    psi, _, witness = layers[0]
    counts = {k: count for k, count, _ in layers}
    return ResolvingProfile(
        metric_dimension=psi,
        resolving_sequence=tuple(counts.values()),
        polynomial=IntPolynomial(counts),
        witness_basis=witness,
    )
