"""The gyrogroup axiom check: gyrations, their symbol grid, and the
exhaustive check of the axioms on a Cayley table, which reports failures
with witnesses instead of raising.
"""

from __future__ import annotations

import operator
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
            "left_identity_ok": self.left_identity_ok,
            "left_inverse_ok": self.left_inverse_ok,
            "gyroassociativity_ok": self.gyroassociativity_ok,
            "left_loop_ok": self.left_loop_ok,
            "gyr_is_automorphism_ok": self.gyr_is_automorphism_ok,
            "gyrocommutative": self.gyrocommutative,
            "is_group": self.is_group,
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
    """
    names: dict[Permutation, str] = {}
    legend: dict[str, Permutation] = {}
    rows = []
    counter = 0
    for a in g.elements():
        syms = []
        for b in g.elements():
            p = gyration(g, a, b)
            if p not in names:
                if p.is_identity():
                    names[p] = "I"
                else:
                    counter += 1
                    names[p] = f"X{counter}"
                legend[names[p]] = p
            syms.append(names[p])
        rows.append("".join(syms))
    return rows, legend


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

    One row-major pass over the pairs (a, b) composes table rows with
    :func:`gatherer`, as bytes up to order 256 and as tuples above (see
    :func:`table_rows`).  gyr[a,b] = L_-s o L_a o L_b, with s = a + b, is
    interned to an id, and each distinct gyration is checked for the
    automorphism property once.  a + (b + c) = s + gyr[a,b]c holds for
    every c when L_s o L_-s is the identity, so only the pairs whose s
    fails that test are checked per c.  The left loop property compares
    ids one column at a time; is_group compares L_a o L_b with L_s.
    Memory is the n^2 ids plus the distinct gyrations.  An axiom's
    witnesses are its first MAX_COUNTEREXAMPLES failures in row-major
    order (gyro-commutativity keeps only the first).
    """
    n, t, e = g.order, table_rows(g.table), g.identity
    gather = [gatherer(row) for row in t]
    # Left inverses: the first y with y + a = e.
    inv = [column.index(e) if e in column else None for column in zip(*t)]
    found: dict[str, list[tuple[int, ...]]] = {
        # Left identity: guaranteed by construction, but re-checked so the
        # report stands on its own.
        "left_identity": [(e, a) for a in range(n) if t[e][a] != a][:MAX_COUNTEREXAMPLES],
        "left_inverse": [(a,) for a in range(n) if inv[a] is None][:MAX_COUNTEREXAMPLES],
        "gyroassociativity": [],
        "left_loop": [],
        "gyr_is_automorphism": [],
        "gyrocommutative": [],
    }

    def note(axiom: str, witness: tuple[int, ...]) -> None:
        limit = 1 if axiom == "gyrocommutative" else MAX_COUNTEREXAMPLES
        if len(found[axiom]) < limit:
            found[axiom].append(witness)

    # Once an axiom's list is full, its checks below are skipped.
    assoc, auto = found["gyroassociativity"], found["gyr_is_automorphism"]
    cancels = [y is not None and gather[y](t[s]) == t[e] for s, y in enumerate(inv)]
    distinct: dict[Sequence[int], int] = {}
    automorphism_failures: list[tuple[int, ...] | None] = []
    gyr_ids = []  # -1 where a + b has no left inverse and gyr[a,b] is undefined
    is_group = True
    for a, row_a in enumerate(t):
        ids = []
        gyr_ids.append(ids)
        for b, s in enumerate(row_a):
            if is_group:
                is_group = gather[b](row_a) == t[s]
            if inv[s] is None:
                ids.append(-1)
                note("gyroassociativity", (a, b))
                note("gyr_is_automorphism", (a, b))
                note("gyrocommutative", (a, b))
                continue
            gyr = gather[b](gather[a](t[inv[s]]))
            k = distinct.setdefault(gyr, len(distinct))
            if k == len(automorphism_failures):  # a new gyration
                automorphism_failures.append(_automorphism_failure(t, gather, gyr))
            ids.append(k)
            if not cancels[s] and len(assoc) < MAX_COUNTEREXAMPLES:
                a_bc = gather[b](row_a)
                c = next((c for c in range(n) if t[s][gyr[c]] != a_bc[c]), None)
                if c is not None:
                    assoc.append((a, b, c))
            if automorphism_failures[k] is not None and len(auto) < MAX_COUNTEREXAMPLES:
                auto.append((a, b, *automorphism_failures[k]))
            # Gyro-commutativity: a + b = gyr[a,b](b + a).
            if not found["gyrocommutative"] and s != gyr[t[b][a]]:
                note("gyrocommutative", (a, b))

    # Left loop: gyr[a+b, b] = gyr[a, b].
    loop_failures = []
    for b, (column, ids) in enumerate(zip(zip(*t), zip(*gyr_ids))):
        if -1 in ids or gatherer(column)(ids) != ids:
            loop_failures += [
                (a, b) for a, s in enumerate(column) if not -1 < ids[a] == ids[s]
            ]
    found["left_loop"] = sorted(loop_failures)[:MAX_COUNTEREXAMPLES]

    return AxiomReport(
        left_identity_ok=not found["left_identity"],
        left_inverse_ok=not found["left_inverse"],
        gyroassociativity_ok=not found["gyroassociativity"],
        left_loop_ok=not found["left_loop"],
        gyr_is_automorphism_ok=not found["gyr_is_automorphism"],
        gyrocommutative=not found["gyrocommutative"],
        is_group=is_group,
        counterexamples=tuple((ax, w) for ax, ws in found.items() for w in ws),
    )


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
