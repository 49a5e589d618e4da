"""The gyrogroup axiom check: one table of the distinct gyrations of a
Cayley table serves the gyration symbol grid and the exhaustive check of
the axioms, which reports failures with witnesses instead of raising.
"""

from __future__ import annotations

import operator
from itertools import chain, count, islice, repeat
from typing import Callable, NamedTuple, Sequence

from .gyrogroups import GyroGroup, Permutation, _check_element

#: Witnesses kept per axiom in an AxiomReport.
MAX_COUNTEREXAMPLES = 3


class AxiomReport(NamedTuple):
    """Outcome of the exhaustive axiom check for one Cayley table."""

    left_identity_ok: bool
    left_inverse_ok: bool
    gyroassociativity_ok: bool
    left_loop_ok: bool
    gyr_is_automorphism_ok: bool
    gyrocommutative: bool
    is_group: bool
    counterexamples: tuple[tuple[str, tuple[int, ...]], ...]

    @property
    def is_gyrogroup(self) -> bool:
        return (
            self.left_identity_ok
            and self.left_inverse_ok
            and self.gyroassociativity_ok
            and self.left_loop_ok
            and self.gyr_is_automorphism_ok
        )

    def to_dict(self) -> dict:
        return {
            **self._asdict(),
            "is_gyrogroup": self.is_gyrogroup,
            "counterexamples": [[axiom, list(w)] for axiom, w in self.counterexamples],
        }


def gyration(g: GyroGroup, a: int, b: int) -> Permutation:
    """The gyration gyr[a,b]: c -> -(a+b) + (a+(b+c)).

    Here -(x) is the left inverse of x.  When the table is a gyrogroup
    this is the unique map making the gyroassociative law hold.
    """
    _check_element(g, a)
    _check_element(g, b)
    t = g.table
    ab = t[a][b]
    inv_ab = g.left_inverse(ab)  # raises if the table lacks the inverse
    image = tuple(t[inv_ab][t[a][t[b][c]]] for c in range(g.order))
    if sorted(image) != list(range(g.order)):
        raise ValueError(f"gyration map for ({a},{b}) is not a bijection")
    return Permutation(image)


def gyration_symbol_grid(g: GyroGroup) -> tuple[list[str], dict[str, Permutation]]:
    """Name the distinct gyrations and lay them out as an NxN symbol grid.

    The identity permutation is named "I"; further distinct permutations
    are named "X1", "X2", ... in first-appearance order (row major).
    Returns (rows of concatenated symbols, symbol -> permutation map).
    Raises for the first pair, row major, whose a + b has no left inverse
    or whose gyration is not a bijection.
    """
    t, e = table_rows(g.table), g.identity
    inv = [column.index(e) if e in column else None for column in zip(*t)]
    gyrs, grid = _gyrations(t, [gatherer(row) for row in t], inv)
    bijective = [len(set(p)) == g.order for p in gyrs] + [False]  # [-1]: undefined
    for a, ids in enumerate(grid):
        for b, k in enumerate(ids):
            if not bijective[k]:
                g.left_inverse(t[a][b])  # raises if a + b has none
                raise ValueError(f"gyration map for ({a},{b}) is not a bijection")
    symbols = (f"X{i}" for i in count(1))
    perms = [Permutation(tuple(p)) for p in gyrs]
    legend = {"I" if p.is_identity() else next(symbols): p for p in perms}
    names = list(legend)
    return ["".join(map(names.__getitem__, ids)) for ids in grid], legend


def table_rows(rows: Sequence[Sequence[int]]) -> list:
    """The N rows of a square table with entries in 0..N-1, in the form
    :func:`gatherer` composes fastest: bytes up to order 256, where every
    entry fits in a byte, and tuples above."""
    return list(map(bytes if len(rows) <= 256 else tuple, rows))


def gatherer(index: Sequence[int]) -> Callable[[Sequence], Sequence]:
    """The map seq -> (seq[index[0]], ..., seq[index[-1]]), gathered in C.

    For a table row index = row x, gatherer(row x)(row a) is the row of
    L_a o L_x, where L_a is the left translation c -> a + c.  A bytes
    index gathers with one bytes.translate, seq padded to 256 bytes
    being the translation table; any other index uses itemgetter.
    """
    if isinstance(index, bytes):
        return lambda seq: index.translate(seq.ljust(256))
    get = operator.itemgetter(*index)
    # itemgetter with a single index returns the item, not a 1-tuple.
    return get if len(index) > 1 else lambda seq: (get(seq),)


def verify_axioms(g: GyroGroup) -> AxiomReport:
    """Exhaustively check the gyrogroup axioms over all element triples.

    Checks, in order: the left identity row, existence of left inverses,
    gyroassociativity with the gyrations computed from the table, the left
    loop property, that every gyration is an automorphism of the table,
    gyro-commutativity, and plain associativity (is_group).  Failures are
    collected with witnesses, never raised.

    The gyrations come from :func:`_gyrations`, each distinct one checked
    for the automorphism property once.  Each axiom is then one row-major
    scan of their index grid that keeps its first MAX_COUNTEREXAMPLES
    witnesses (gyro-commutativity its first), skipped when it cannot fail:
    the left loop property when each grid column, gathered by the same
    table column, is unchanged; gyroassociativity and the automorphism
    check when every gyration is an automorphism and L_s o L_-s is the
    identity for every s = a + b, which gives a + (b + c) = s + gyr[a,b]c.
    Then L_a o L_b = L_s exactly when gyr[a,b] is the identity, so is_group
    is read off the distinct gyrations instead of compared pair by pair.
    """
    n, t, e = g.order, table_rows(g.table), g.identity
    gather = [gatherer(row) for row in t]
    columns = list(zip(*t))
    # Left inverses: the first y with y + a = e.
    inv = [column.index(e) if e in column else None for column in columns]
    gyrs, grid = _gyrations(t, gather, inv)
    cancels = [y is not None and gather[y](t[s]) == t[e] for s, y in enumerate(inv)]
    # failures[-1], read at index -1, makes an undefined gyration's witness (a, b).
    failures = [_automorphism_failure(t, gather, p) for p in gyrs] + [()]
    sound = all(cancels) and failures.count(None) == len(gyrs)

    def pairs():
        """(a, b, a + b, the index of gyr[a,b], b + a) in row-major order."""
        for a, rows in enumerate(zip(t, grid, columns)):
            yield from zip(repeat(a), count(), *rows)

    def first(witnesses, limit=MAX_COUNTEREXAMPLES):
        return list(islice(filter(None, witnesses), limit))

    def associator(a, b, s, k):
        """(a, b) if gyr[a,b] is undefined, else the first (a, b, c) with
        a + (b + c) != s + gyr[a,b]c, if any."""
        if k < 0:
            return a, b
        lhs, rhs = gather[b](t[a]), gatherer(gyrs[k])(t[s])
        return next(((a, b, c) for c in range(n) if lhs[c] != rhs[c]), None)

    found = {
        # Left identity holds by construction; re-checked so the report stands alone.
        "left_identity": first((e, a) for a in range(n) if t[e][a] != a),
        "left_inverse": first((a,) for a in range(n) if inv[a] is None),
        "gyroassociativity": [] if sound else first(
            associator(a, b, s, k) for a, b, s, k, _ in pairs() if not cancels[s]
        ),
        # Left loop: gyr[a+b, b] = gyr[a, b].
        "left_loop": [] if all(
            -1 not in ids and gatherer(column)(ids) == ids
            for column, ids in zip(columns, zip(*grid))
        ) else first((a, b) for a, b, s, k, _ in pairs() if not -1 < k == grid[s][b]),
        "gyr_is_automorphism": [] if sound else first(
            (a, b, *failures[k]) for a, b, _, k, _ in pairs() if failures[k] is not None
        ),
        # Gyro-commutativity: a + b = gyr[a,b](b + a).
        "gyrocommutative": first(
            ((a, b) for a, b, s, k, ba in pairs() if k < 0 or s != gyrs[k][ba]), 1
        ),
    }
    return AxiomReport(
        left_identity_ok=not found["left_identity"],
        left_inverse_ok=not found["left_inverse"],
        gyroassociativity_ok=not found["gyroassociativity"],
        left_loop_ok=not found["left_loop"],
        gyr_is_automorphism_ok=not found["gyr_is_automorphism"],
        gyrocommutative=not found["gyrocommutative"],
        is_group=gyrs == [t[e]] if sound else all(
            gather[b](row_a) == t[s] for row_a in t for b, s in enumerate(row_a)
        ),
        counterexamples=tuple((ax, w) for ax, ws in found.items() for w in ws),
    )


def _gyrations(t, gather, inv) -> tuple[list[Sequence[int]], list[list[int]]]:
    """The distinct gyrations gyr[a,b] = L_-(a+b) o L_a o L_b of the table t,
    with gather[x] = gatherer(t[x]) and inv[x] the left inverse of x or None:
    their rows in row-major order of first appearance, and the n x n grid of
    their indices, -1 where a + b has no left inverse."""
    index: dict[Sequence[int], int] = {}
    grid = [
        [-1 if inv[s] is None else index.setdefault(gather[b](gather[a](t[inv[s]])), len(index))
         for b, s in enumerate(row_a)]
        for a, row_a in enumerate(t)
    ]
    return list(index), grid


def _automorphism_failure(t, gather, p: Sequence[int]) -> tuple[int, ...] | None:
    """None when p is an automorphism of the table t, with gather[x] =
    gatherer(t[x]); () when p is not a bijection; otherwise the first
    (x, y), row-major, with p(x+y) != p(x) + p(y)."""
    if len(set(p)) != len(p):
        return ()
    image = gatherer(p)
    for x, gather_x in enumerate(gather):
        lhs, rhs = gather_x(p), image(t[p[x]])
        if lhs != rhs:
            return x, next(y for y in range(len(p)) if lhs[y] != rhs[y])
    return None
