"""Twin classes, resolving sets, metric dimension, and the resolving
polynomial.

Twin vertices (equal open or closed neighborhoods) are interchangeable in
distance vectors, so a resolving set can omit at most one vertex of each
twin part (the graph's ``twin_parts``).  Swapping two twins is an
automorphism that fixes every other vertex, so whether a subset resolves
depends only on its omission pattern, the set of parts its complement
touches, and it is read off the distance matrix's part table: the omitted
vertices, one per part, are told apart by the table rows of their parts,
read at the parts that keep a member.  The search tests each omission
pattern once, and a budget of distance lookups, not the order, fences it.

Everything but `twin_partition` takes the shortest-distance matrix: it
holds the graph's twin parts and the distances between them.
"""

from __future__ import annotations

from itertools import combinations, dropwhile
from math import comb, prod
from typing import Collection, Iterable, Iterator, NamedTuple

from .distances import DistanceMatrix, _require_shortest
from .errors import BoundExceededError
from .graphs import Graph, check_vertex
from .polynomials import IntPolynomial

#: Cap on the distance lookups of one search (omission patterns x
#: min(subset size, parts) x parts, summed over the layers searched).
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
    injective on the vertices; the order of subset does not matter.  Two
    omitted vertices of one part are twins, which no member tells apart."""
    members = set(subset)
    check_vertex(dm.n, *members)
    _require_shortest(dm, "resolving sets need a connected graph")
    omitted = [dm._part_of[v] for v in range(dm.n) if v not in members]
    return len(set(omitted)) == len(omitted) and _resolves(dm, omitted)


def _resolves(dm: DistanceMatrix, omitted: Collection[int]) -> bool:
    """Whether omitting one vertex from each part in omitted leaves a
    resolving set, read off the part table.  Members are told apart by their
    0.  The omitted vertex of part i is at table[i][j] from the members of
    part j, so the omitted vertices are told apart when their rows differ at
    the parts that keep a member: all parts but the singletons in omitted."""
    gone = {i for i in omitted if len(dm.parts[i][0]) == 1}
    kept = [row for j, row in enumerate(dm.table) if j not in gone]
    if not kept:
        return len(omitted) <= 1
    columns = list(zip(*kept))  # the symmetric table's rows at the kept parts
    return len({columns[i] for i in omitted}) == len(omitted)


def _layer_sizes(dm: DistanceMatrix) -> Iterator[int]:
    """Each k from the twin lower bound up to n.  A pattern of layer k reads
    at most min(k, parts) kept rows of the table, each at every part, and a
    layer whose lookups (patterns x min(k, parts) x parts) would take the
    total past LOOKUP_BUDGET is refused."""
    n, parts = dm.n, len(dm.parts)
    _require_shortest(dm, "metric dimension needs a connected graph")
    spent = 0
    for k in range(n - parts, n + 1):
        patterns = comb(parts, n - k)
        lookups = patterns * min(k, parts) * parts
        if spent + lookups > LOOKUP_BUDGET:
            raise BoundExceededError(
                f"resolving-set search refused at layer k={k}: {patterns} "
                f"omission patterns, {lookups} distance lookups avoided "
                f"({spent} spent, budget {LOOKUP_BUDGET})"
            )
        spent += lookups
        yield k


def _resolving_layers(
    dm: DistanceMatrix, sizes: Iterable[int]
) -> Iterator[tuple[int, int, tuple[int, ...] | None]]:
    """Yield (k, number of resolving k-subsets, least resolving k-subset or
    None) for each k of sizes (see :func:`_layer_sizes`), testing each
    omission pattern, a choice of n - k parts to lose one vertex each, once.
    A pattern stands for the product of its parts' sizes k-subsets, and the
    least of them omits each part's largest vertex.  Patterns run in
    ascending order of those vertices, so the last resolving pattern omits
    the greatest ones and holds the least resolving k-subset."""
    n, parts = dm.n, [part for part, _ in dm.parts]
    order = sorted(range(len(parts)), key=lambda i: parts[i][-1])
    for k in sizes:
        count, last = 0, None
        for omitted in combinations(order, n - k):
            if _resolves(dm, omitted):
                count += prod(len(parts[i]) for i in omitted)
                last = omitted
        dropped = {parts[i][-1] for i in last or ()}
        yield k, count, tuple(v for v in range(n) if v not in dropped) if count else None


def metric_dimension(dm: DistanceMatrix) -> int:
    """Minimum size of a resolving set: the first non-empty layer of the
    ascending-size search over omission patterns, refused at the first layer
    that would take the lookups past LOOKUP_BUDGET."""
    for k, count, _ in _resolving_layers(dm, _layer_sizes(dm)):
        if count:
            return k
    raise AssertionError("the full vertex set always resolves")


def resolving_polynomial(dm: DistanceMatrix) -> ResolvingProfile:
    """Count resolving k-subsets for every k from the metric dimension up
    to n.

    Subsets omitting two vertices of one twin class never resolve and are
    never generated; the others are tested one omission pattern at a time
    (its subsets differ by twin swaps).  Every layer is searched, so
    BoundExceededError is raised before the first one when some layer would
    take the lookups past LOOKUP_BUDGET.
    """
    sizes = list(_layer_sizes(dm))
    layers = list(dropwhile(lambda layer: not layer[1], _resolving_layers(dm, sizes)))
    psi, _, witness = layers[0]
    counts = {k: count for k, count, _ in layers}
    return ResolvingProfile(
        metric_dimension=psi,
        resolving_sequence=tuple(counts.values()),
        polynomial=IntPolynomial(counts),
        witness_basis=witness,
    )
