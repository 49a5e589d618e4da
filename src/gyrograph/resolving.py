"""Twin classes, resolving sets, metric dimension, and the resolving
polynomial.

Twin vertices (equal open or closed neighborhoods) are interchangeable in
distance vectors, so a resolving set can omit at most one vertex of each
twin part (the graph's ``twin_parts``).  Swapping two twins is an
automorphism that fixes every other vertex, so whether a subset resolves
depends only on which parts its complement touches, and it is read off
the distance matrix's part table: the omitted vertices, one per part, are
told apart by the table rows of their parts.  The search tests one subset
per omission pattern, and a budget of distance lookups, not the order,
fences it.

Everything but `twin_partition` takes the shortest-distance matrix: it
holds the graph's twin parts and the distances between them.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations, dropwhile
from math import comb, prod
from typing import Iterable, Iterator, NamedTuple, Sequence

from .distances import DistanceMatrix, _require_shortest
from .errors import BoundExceededError
from .graphs import Graph
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

    def to_dict(self) -> dict:
        return {
            "psi": self.metric_dimension,
            "sequence": list(self.resolving_sequence),
            "polynomial": self.polynomial.to_dict(),
            "witness_basis": list(self.witness_basis),
        }


def twin_partition(graph: Graph) -> TwinPartition:
    """The twinned parts of the graph's twin partition (see
    :func:`graphs.twin_parts`): equal closed neighborhoods make adjacent
    twins, equal open ones non-adjacent twins."""
    parts = graph.twin_parts
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
    _require_shortest(dm, "resolving sets need a connected graph")
    return _resolves(dm, s)


def _resolves(dm: DistanceMatrix, subset: Sequence[int]) -> bool:
    """Whether the distinct vertices of subset resolve, read off the part table.
    Members are told apart by their 0.  Two omitted twins are swapped by an
    automorphism fixing the subset; omitted vertices of parts i and j collide
    when the symmetric table's rows i and j agree on the members' parts."""
    members = Counter(map(dm._part_of.__getitem__, subset))
    if not members:
        return dm.n <= 1
    covered = [i for i, count in members.items() if count == len(dm.parts[i][0])]
    if dm.n - len(subset) != len(dm.parts) - len(covered):
        return False  # some part has two omitted vertices
    vectors = list(zip(*map(dm.table.__getitem__, members)))
    for i in covered:
        vectors[i] = i  # no omitted vertex: unequal to every other vector
    return len(set(vectors)) == len(vectors)


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


def _layer_sizes(dm: DistanceMatrix, lookup_budget: int) -> Iterator[int]:
    """Each k from the twin lower bound up to n.  A layer whose lookups
    (patterns x n x k) would take the total past lookup_budget is refused."""
    n, parts = dm.n, len(dm.parts)
    _require_shortest(dm, "metric dimension needs a connected graph")
    spent = 0
    for k in range(n - parts, n + 1):
        patterns = comb(parts, n - k)
        lookups = patterns * n * k
        if spent + lookups > lookup_budget:
            raise BoundExceededError(
                f"resolving-set search refused at layer k={k}: {patterns} "
                f"omission patterns, {lookups} distance lookups avoided "
                f"({spent} spent, budget {lookup_budget})"
            )
        spent += lookups
        yield k


def _resolving_layers(
    dm: DistanceMatrix, sizes: Iterable[int]
) -> Iterator[tuple[int, int, tuple[int, ...] | None]]:
    """Yield (k, number of resolving k-subsets, least resolving k-subset or
    None) for each k of sizes (see :func:`_layer_sizes`), testing every
    omission pattern once; the omission units are the matrix's twin parts."""
    n = dm.n
    units = [part for part, _ in dm.parts]
    for k in sizes:
        count = 0
        least: tuple[int, ...] | None = None
        for subset, weight in _omission_patterns(n, units, k):
            if _resolves(dm, subset):
                count += weight
                if least is None or subset < least:
                    least = subset
        yield k, count, least


def metric_dimension(dm: DistanceMatrix, lookup_budget: int = LOOKUP_BUDGET) -> int:
    """Minimum size of a resolving set: the first non-empty layer of the
    ascending-size search over omission patterns."""
    for k, count, _ in _resolving_layers(dm, _layer_sizes(dm, lookup_budget)):
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
    (its least member stands for all, which differ by twin swaps).  Every
    layer is searched, so BoundExceededError is raised before the first one
    when some layer would take the lookups past lookup_budget.
    """
    sizes = list(_layer_sizes(dm, lookup_budget))
    layers = list(dropwhile(lambda layer: not layer[1], _resolving_layers(dm, sizes)))
    psi, _, witness = layers[0]
    counts = {k: count for k, count, _ in layers}
    return ResolvingProfile(
        metric_dimension=psi,
        resolving_sequence=tuple(counts.values()),
        polynomial=IntPolynomial(counts),
        witness_basis=witness,
    )
