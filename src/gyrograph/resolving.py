"""Twin classes, resolving sets, metric dimension, and the resolving
polynomial.

Twin vertices (equal open or closed neighborhoods) are interchangeable in
distance vectors, so a resolving set can omit at most one vertex of each
twin part (:func:`graphs.twin_parts`).  Swapping two twins is an
automorphism that fixes every other vertex, so whether a subset resolves
depends only on which parts its complement touches: the search tests one
subset per such omission pattern, and a budget of distance lookups, not
the order, fences it.

Everything but `twin_partition` takes the shortest-distance matrix: it
holds the distance vectors and, as its entries equal to 1, the edges.
"""

from __future__ import annotations

import json
from itertools import combinations, dropwhile
from math import comb, prod
from typing import Iterable, Iterator, NamedTuple, Sequence

from .distances import DistanceMatrix, _shortest_entries
from .errors import BoundExceededError
from .graphs import Graph, twin_parts
from .polynomials import IntPolynomial

#: Default cap on the distance lookups of one search (omission patterns x
#: order x subset size, summed over the layers searched).
LOOKUP_BUDGET = 100_000_000


class TwinPartition(NamedTuple):
    """Maximal nontrivial twin classes, tagged 'adjacent' or 'non-adjacent'."""

    classes: tuple[tuple[frozenset[int], str], ...]

    def lower_bound(self) -> int:
        """Every resolving set misses at most one vertex per class."""
        return sum(len(cls) - 1 for cls, _ in self.classes)


class ResolvingProfile(NamedTuple):
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
    """The twinned parts of the graph's twin partition (see
    :func:`graphs.twin_parts`): equal closed neighborhoods make adjacent
    twins, equal open ones non-adjacent twins."""
    parts = twin_parts([graph.neighbor_bits(v) for v in graph.vertices()])
    return TwinPartition(
        classes=tuple((frozenset(p), kind) for p, kind in parts if kind != "untwinned")
    )


def is_resolving(dm: DistanceMatrix, subset: Iterable[int]) -> bool:
    """True iff the distance-vector map v -> (d(v, s) for s in subset) is
    injective on the vertices.  The subset is canonicalized to ascending
    order; injectivity does not depend on the ordering."""
    s = sorted(set(subset))
    for v in s:
        if not 0 <= v < dm.n:
            raise ValueError(f"vertex {v} out of range")
    return _resolves(_shortest_entries(dm, "resolving sets need a connected graph"), s)


def _resolves(rows: Sequence[Sequence[float]], subset: Sequence[int]) -> bool:
    """Distance vectors are read down the columns rows[s]: the distance
    matrix of an undirected graph is symmetric."""
    return len(rows) <= 1 or len(set(zip(*map(rows.__getitem__, subset)))) == len(rows)


def _omission_patterns(
    n: int, units: list[tuple[int, ...]], k: int
) -> Iterator[tuple[tuple[int, ...], int]]:
    """(representative, weight) for every choice of n - k units to omit a
    vertex from.  The representative omits each chosen unit's largest
    vertex, so it is the least k-subset of its pattern; the weight, the
    product of the chosen units' sizes, counts the pattern's k-subsets.
    Choices are enumerated by the k - (n - len(units)) units kept whole."""
    base = [v for unit in units for v in unit[:-1]]
    total = prod(map(len, units))
    for kept in combinations(units, k - len(base)):
        yield (
            tuple(sorted(base + [unit[-1] for unit in kept])),
            total // prod(map(len, kept)),
        )


def _resolving_layers(
    dm: DistanceMatrix, lookup_budget: int
) -> Iterator[tuple[int, int, tuple[int, ...] | None]]:
    """Yield (k, number of resolving k-subsets, least resolving k-subset or
    None) for k from the twin lower bound up to n.

    One pass: the omission units (the twin parts of the graph whose edges
    are the entries equal to 1) are built once and every omission pattern
    is tested once.  A layer whose lookups (patterns x n x k) would take
    the total past lookup_budget is refused.
    """
    n = dm.n
    rows = _shortest_entries(dm, "metric dimension needs a connected graph")
    adj_bits = [sum(1 << w for w, d in enumerate(row) if d == 1) for row in rows]
    units = [tuple(part) for part, _ in twin_parts(adj_bits)]
    spent = 0
    for k in range(n - len(units), n + 1):
        patterns = comb(len(units), n - k)
        lookups = patterns * n * k
        if spent + lookups > lookup_budget:
            raise BoundExceededError(
                f"resolving-set search refused at layer k={k}: {patterns} "
                f"omission patterns, {lookups} distance lookups avoided "
                f"({spent} spent, budget {lookup_budget})"
            )
        spent += lookups
        count = 0
        least: tuple[int, ...] | None = None
        for subset, weight in _omission_patterns(n, units, k):
            if _resolves(rows, subset):
                count += weight
                if least is None or subset < least:
                    least = subset
        yield k, count, least


def metric_dimension(dm: DistanceMatrix, lookup_budget: int = LOOKUP_BUDGET) -> int:
    """Minimum size of a resolving set: the first non-empty layer of the
    ascending-size search over omission patterns."""
    for k, count, _ in _resolving_layers(dm, lookup_budget):
        if count:
            return k
    raise AssertionError("the full vertex set always resolves")


def resolving_polynomial(
    dm: DistanceMatrix, lookup_budget: int = LOOKUP_BUDGET
) -> ResolvingProfile:
    """Count resolving k-subsets for every k from the metric dimension up
    to n.

    Subsets omitting two vertices of one twin class never resolve and are
    never generated; the others are tested one omission pattern at a time
    (its least member stands for all, which differ by twin swaps).  Raises
    BoundExceededError when the next layer would take the lookups past
    lookup_budget.
    """
    layers = list(
        dropwhile(
            lambda layer: not layer[1],
            _resolving_layers(dm, lookup_budget),
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
