"""Finite gyrogroups presented by Cayley tables.

A gyrogroup is a magma with a left identity, left inverses, and a
gyroassociative law mediated by the gyrations gyr[a,b], which are
automorphisms satisfying the left loop property gyr[a+b, b] = gyr[a, b].
Groups are exactly the gyrogroups whose gyrations are all trivial.

Everything here works on tables with elements canonically indexed
0..N-1; loaders re-index externally labeled tables and keep the original
labels for display.
"""

from __future__ import annotations

import csv
import io
import json
import os
from operator import itemgetter
from typing import Callable, NamedTuple, Sequence

# Names of the Cayley tables shipped with the package.
BUNDLED_TABLES = ("k1", "n1", "g8", "m1", "gn3")

_DATA_DIR_ENV = "GYROGRAPH_DATA_DIR"

#: Witnesses kept per axiom in an AxiomReport.
MAX_COUNTEREXAMPLES = 3


class _Value:
    """Base of the validated value types.  Equality, hash and repr read
    the attributes named in _fields; __init__ fills __dict__ directly,
    and assigning or deleting an attribute afterwards raises."""

    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({args})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class Permutation(_Value):
    """A bijection on 0..size-1, stored as an image tuple."""

    _fields = ("map",)

    def __init__(self, map: tuple[int, ...]) -> None:
        if sorted(map) != list(range(len(map))):
            raise ValueError("permutation image is not a bijection on 0..N-1")
        self.__dict__["map"] = map

    @property
    def size(self) -> int:
        return len(self.map)

    def __call__(self, i: int) -> int:
        return self.map[i]

    def is_identity(self) -> bool:
        return all(v == i for i, v in enumerate(self.map))

    @classmethod
    def identity(cls, size: int) -> "Permutation":
        return cls(tuple(range(size)))


class GyroGroup(_Value):
    """A finite magma (table[i][j] = i + j) with a left identity row.

    Construction checks only cheap structural facts: the table is square,
    entries are in range, and a left identity exists.  The gyrogroup
    axioms proper are checked by :func:`verify_axioms`, which reports
    failures instead of raising so that defective tables can be diagnosed.
    """

    _fields = ("order", "table", "identity", "labels")

    def __init__(
        self,
        order: int,
        table: tuple[tuple[int, ...], ...],
        identity: int,
        labels: tuple[str, ...] = (),
    ) -> None:
        n, e = order, identity
        if n <= 0 or len(table) != n:
            raise ValueError("table size does not match order")
        if any(len(row) != n for row in table):
            raise ValueError("table is not square")
        _check_entries(table)
        if not 0 <= e < n or any(table[e][a] != a for a in range(n)):
            raise ValueError(f"row {e} is not a left identity row")
        if not labels:
            labels = tuple(str(i) for i in range(n))
        elif len(labels) != n:
            raise ValueError("label count does not match order")
        self.__dict__.update(order=order, table=table, identity=identity, labels=labels)

    def op(self, a: int, b: int) -> int:
        return self.table[a][b]

    def elements(self) -> range:
        return range(self.order)

    def left_inverse(self, a: int) -> int:
        """The first y with y + a = e; raises if none exists."""
        col = [self.table[y][a] for y in range(self.order)]
        try:
            return col.index(self.identity)
        except ValueError:
            raise ValueError(f"element {a} has no left inverse") from None


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


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------


def build_gn(n: int) -> GyroGroup:
    """The order-2^n gyrogroup family defined by a four-case modular formula.

    Elements split into P = {0..2^(n-1)-1}, a cyclic group under addition
    mod m = 2^(n-1), and H = {2^(n-1)..2^n-1}.  With t = i+j,
    s = i + (m/2-1)j and k = (m/2+1)i + (m/2-1)j, all mod m:

        i + j = t       for (i, j) in P x P
        i + j = t + m   for (i, j) in P x H
        i + j = s + m   for (i, j) in H x P
        i + j = k       for (i, j) in H x H

    Defined only for n >= 3 (m/2 must be a positive even split).
    """
    if n < 3:
        raise ValueError(f"the G(n) family is defined for n >= 3, got n={n}")
    m = 2 ** (n - 1)
    half = m // 2
    order = 2**n
    rows = []
    for i in range(order):
        row = []
        for j in range(order):
            if i < m and j < m:
                row.append((i + j) % m)
            elif i < m:
                row.append((i + j) % m + m)
            elif j < m:
                row.append((i + (half - 1) * j) % m + m)
            else:
                row.append(((half + 1) * i + (half - 1) * j) % m)
        rows.append(tuple(row))
    return GyroGroup(order=order, table=tuple(rows), identity=0)


def load_table(
    rows: list[list[int]],
    identity_hint: int | None = None,
    labels: tuple[str, ...] = (),
) -> GyroGroup:
    """Build a GyroGroup from a square grid with entries in 0..N-1.

    Without a hint the identity is located by scanning for a row equal to
    (0, 1, ..., N-1); the scan takes the lowest such row.
    """
    n = len(rows)
    if n == 0 or any(len(r) != n for r in rows):
        raise ValueError("grid is not square")
    table = tuple(map(tuple, rows))
    e = identity_hint
    if e is None:
        ident = tuple(range(n))
        e = next((i for i in range(n) if table[i] == ident), None)
        if e is None:
            _check_entries(table)  # an entry out of range is reported first
            raise ValueError("no left identity row found")
    return GyroGroup(order=n, table=table, identity=e, labels=labels)


def _check_entries(table: tuple[tuple[int, ...], ...]) -> None:
    """Raise on the first entry, row-major, outside 0..N-1."""
    n = len(table)
    bad = next((v for row in table for v in row if not 0 <= v < n), None)
    if bad is not None:
        raise ValueError(f"table entry {bad} out of range 0..{n - 1}")


def cyclic_group(n: int) -> GyroGroup:
    """Cayley table of the cyclic group Z_n (addition mod n)."""
    if n < 1:
        raise ValueError("order must be positive")
    rows = tuple(tuple((i + j) % n for j in range(n)) for i in range(n))
    return GyroGroup(order=n, table=rows, identity=0)


def relabel(g: GyroGroup, perm: Permutation) -> GyroGroup:
    """Transport the table along a bijection: new[p(a)][p(b)] = p(a+b)."""
    if perm.size != g.order:
        raise ValueError("permutation size must equal the group order")
    p = perm.map
    rows = [[0] * g.order for _ in range(g.order)]
    for a in range(g.order):
        for b in range(g.order):
            rows[p[a]][p[b]] = p[g.table[a][b]]
    labels = [""] * g.order
    for a in range(g.order):
        labels[p[a]] = g.labels[a]
    return GyroGroup(
        order=g.order,
        table=tuple(tuple(r) for r in rows),
        identity=p[g.identity],
        labels=tuple(labels),
    )


# ---------------------------------------------------------------------------
# Gyrations and axioms
# ---------------------------------------------------------------------------


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
    get = itemgetter(*index)
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


# ---------------------------------------------------------------------------
# Powers
# ---------------------------------------------------------------------------


def power(g: GyroGroup, a: int, m: int, right: bool = False) -> int:
    """The m-th power of a, m >= 1.

    Left iteration a^(m+1) = a + a^m by default; right=True uses
    a^(m+1) = a^m + a instead.
    """
    _check_element(g, a)
    if m < 1:
        raise ValueError("power exponent must be >= 1")
    acc = a
    for _ in range(m - 1):
        acc = g.table[acc][a] if right else g.table[a][acc]
    return acc


def power_closure(g: GyroGroup, a: int, right: bool = False) -> frozenset[int]:
    """{a^m : m >= 1}, computed by iterating until the sequence cycles."""
    _check_element(g, a)
    seen = {a}
    acc = a
    for _ in range(g.order):
        acc = g.table[acc][a] if right else g.table[a][acc]
        if acc in seen:
            break
        seen.add(acc)
    return frozenset(seen)


def power_sequence(g: GyroGroup, a: int, length: int, right: bool = False) -> list[int]:
    """[a^1, a^2, ..., a^length]."""
    out = [a]
    acc = a
    for _ in range(length - 1):
        acc = g.table[acc][a] if right else g.table[a][acc]
        out.append(acc)
    return out


def _check_element(g: GyroGroup, a: int) -> None:
    if not 0 <= a < g.order:
        raise ValueError(f"element {a} out of range 0..{g.order - 1}")


# ---------------------------------------------------------------------------
# Cayley table I/O
# ---------------------------------------------------------------------------


def parse_cayley_csv(text: str) -> GyroGroup:
    """Parse N rows of N comma-separated integers."""
    rows = [
        [int(cell) for cell in record]
        for record in csv.reader(io.StringIO(text))
        if record
    ]
    return _from_grid(rows)


def parse_cayley_json(text: str) -> GyroGroup:
    """Parse {"order": N, "table": [[...], ...]}."""
    data = json.loads(text)
    rows = [[int(v) for v in row] for row in data["table"]]
    if "order" in data and int(data["order"]) != len(rows):
        raise ValueError("declared order does not match table size")
    return _from_grid(rows)


def _from_grid(rows: list[list[int]]) -> GyroGroup:
    """Re-index arbitrary integer labels to 0..N-1, keeping display labels."""
    n = len(rows)
    if n == 0 or any(len(r) != n for r in rows):
        raise ValueError("grid is not square")
    values = sorted({v for row in rows for v in row})
    if values == list(range(n)):
        return load_table(rows)
    if len(values) != n:
        raise ValueError(
            f"table uses {len(values)} distinct values but has order {n}"
        )
    index = {v: i for i, v in enumerate(values)}
    relabeled = [[index[v] for v in row] for row in rows]
    return load_table(relabeled, labels=tuple(str(v) for v in values))


def read_cayley_file(path: str | os.PathLike) -> GyroGroup:
    """Load a Cayley table from a .csv or .json file."""
    path = os.fspath(path)
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if path.endswith(".json"):
        return parse_cayley_json(text)
    return parse_cayley_csv(text)


def to_cayley_csv(g: GyroGroup) -> str:
    return "\n".join(",".join(str(v) for v in row) for row in g.table) + "\n"


def to_cayley_json(g: GyroGroup) -> str:
    return json.dumps(
        {"order": g.order, "table": [list(r) for r in g.table]}, sort_keys=True
    )


def bundled_table_text(name: str, fmt: str = "csv") -> str:
    """Raw text of a bundled Cayley table; honors GYROGRAPH_DATA_DIR."""
    if name not in BUNDLED_TABLES:
        raise ValueError(f"unknown bundled table {name!r}; have {BUNDLED_TABLES}")
    if fmt not in ("csv", "json"):
        raise ValueError("format must be 'csv' or 'json'")
    override = os.environ.get(_DATA_DIR_ENV)
    if override:
        with open(os.path.join(override, f"{name}.{fmt}"), encoding="utf-8") as fh:
            return fh.read()
    from importlib import resources  # loads zipfile, tempfile, pathlib: import late
    return (resources.files("gyrograph.data") / f"{name}.{fmt}").read_text("utf-8")


def bundled_gyrogroup(name: str, fmt: str = "csv") -> GyroGroup:
    """One of the bundled order-8 gyrogroups (k1, n1, g8, m1, gn3)."""
    text = bundled_table_text(name, fmt)
    return parse_cayley_json(text) if fmt == "json" else parse_cayley_csv(text)
