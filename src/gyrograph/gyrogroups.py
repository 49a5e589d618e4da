"""Finite gyrogroups presented by Cayley tables.

A gyrogroup is a magma with a left identity, left inverses, and a
gyroassociative law mediated by the gyrations gyr[a,b], which are
automorphisms satisfying the left loop property gyr[a+b, b] = gyr[a, b].
Groups are exactly the gyrogroups whose gyrations are all trivial.

Everything here works on tables with elements canonically indexed
0..N-1; loaders re-index externally labeled tables and keep the original
labels for display.  The power graph, the report's power entries and the
isomorphism search all read an element's powers through :func:`powers`.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Iterable, Iterator, Sequence

# Names of the Cayley tables shipped with the package.
BUNDLED_TABLES = ("k1", "n1", "g8", "m1", "gn3")

_DATA_DIR_ENV = "GYROGRAPH_DATA_DIR"


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


class GyroGroup(_Value):
    """A finite magma (table[i][j] = i + j) with a left identity row.

    Construction checks only cheap structural facts: the table is square,
    entries are integers in range, and a left identity exists.  The rows are
    tuples sharing one int per value (bools become ints).  The gyrogroup
    axioms proper are checked by :func:`verify_axioms`, which reports
    failures instead of raising so that defective tables can be diagnosed.
    """

    _fields = ("order", "table", "identity", "labels")

    def __init__(
        self,
        order: int,
        table: Iterable[Sequence[int]],
        identity: int,
        labels: tuple[str, ...] = (),
    ) -> None:
        n, e = order, identity
        if n <= 0:
            raise ValueError("table size does not match order")
        table = _interned_rows(table, n)
        if not 0 <= e < n or table[e] != tuple(range(n)):
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

    Each row is two rotations rot(L, r) = L[r:] + L[:r] of lists built once.
    As w = m/2-1 is odd, a unit mod m, j -> (c + w*j) mod m is Q[j] = w*j mod m
    rotated by r = c*w^-1.  With P = (0..m-1), L+m = L with m added to each
    entry and c = i mod m, row i is rot(P, i) + rot(P+m, i) for i in P and
    rot(Q+m, r) + rot(Q, (m/2+1)*r) for i in H.
    """
    check_gn(n)
    m = 2 ** (n - 1)
    try:  # an order past the memory is refused
        w = m // 2 - 1
        w_inv = pow(w, -1, m)
        p = list(range(m))
        q = [w * j % m for j in range(m)]
        # Each list twice over, so that rot(L, r) is the slice [r:r + m].
        p2, pm2 = p * 2, [v + m for v in p] * 2
        q2, qm2 = q * 2, [v + m for v in q] * 2

        def rows() -> Iterator[list[int]]:  # one row alive at a time, as it is interned
            for i in range(m):
                yield p2[i:i + m] + pm2[i:i + m]
            for r in (c * w_inv % m for c in range(m)):
                k = (m // 2 + 1) * r % m
                yield qm2[r:r + m] + q2[k:k + m]

        return GyroGroup(order=2 * m, table=rows(), identity=0)
    except (OverflowError, MemoryError):
        raise ValueError(f"G({n}) has order 2^{n}, too large to build") from None


def check_gn(n: int) -> None:
    """Refuse, before any work, an n that build_gn(n) refuses by its value."""
    if n < 3:
        raise ValueError(f"the G(n) family is defined for n >= 3, got n={n}")
    if n > sys.maxsize.bit_length():  # 2^(n-1) elements are past a list's length
        raise ValueError(f"G({n}) has order 2^{n}, too large to build")


def load_table(rows: Sequence[Sequence[int]], labels: tuple[str, ...] = ()) -> GyroGroup:
    """Build a GyroGroup from a square grid with entries in 0..N-1, whose
    identity is the lowest row equal to (0, 1, ..., N-1).  A caller that
    knows the identity passes it to GyroGroup, which checks it.
    """
    n = len(rows)
    if n == 0 or any(len(r) != n for r in rows):
        raise ValueError("grid is not square")
    ident = list(range(n))
    e = next((i for i, row in enumerate(rows) if list(row) == ident), None)
    if e is None:
        _interned_rows(rows, n)  # a bad entry is reported first
        raise ValueError("no left identity row found")
    return GyroGroup(order=n, table=rows, identity=e, labels=labels)


def _interned_rows(table: Iterable[Sequence[int]], n: int) -> tuple[tuple[int, ...], ...]:
    """The n rows of length n as tuples of the ints of one list (0, ..., n-1),
    so that they share one int object per value.  Each row is checked and
    interned as it is read, so a generator of rows is never held whole.
    Raises on the first row of another length or with an entry that is not
    an integer (operator.index semantics) or outside 0..n-1, then on a row
    count other than n."""
    values = list(range(n))
    rows = []
    for row in table:
        if len(row) != n:
            raise ValueError("table is not square")
        try:
            if min(row) < 0:
                raise IndexError
            rows.append(tuple(map(values.__getitem__, row)))
        except IndexError:
            bad = next(v for v in row if not 0 <= v < n)
            raise ValueError(f"table entry {bad} out of range 0..{n - 1}") from None
        except TypeError:
            raise ValueError("table entries must be integers") from None
    if len(rows) != n:
        raise ValueError("table size does not match order")
    return tuple(rows)


def cyclic_group(n: int) -> GyroGroup:
    """Cayley table of the cyclic group Z_n (addition mod n)."""
    if n < 1:
        raise ValueError("order must be positive")
    values = list(range(n))
    return GyroGroup(order=n, table=(values[i:] + values[:i] for i in range(n)), identity=0)


def relabel(g: GyroGroup, perm: Permutation) -> GyroGroup:
    """Transport the table along a bijection: new[p(a)][p(b)] = p(a+b)."""
    if perm.size != g.order:
        raise ValueError("permutation size must equal the group order")
    t, p = g.table, perm.map
    inv = sorted(range(g.order), key=p.__getitem__)  # inv[p(a)] = a
    return GyroGroup(
        order=g.order,
        table=([p[t[a][b]] for b in inv] for a in inv),
        identity=p[g.identity],
        labels=tuple(g.labels[a] for a in inv),
    )


# ---------------------------------------------------------------------------
# Powers
# ---------------------------------------------------------------------------


def powers(g: GyroGroup, a: int) -> list[int]:
    """[a^1, ..., a^L], left-iterated (a^(m+1) = a + a^m), stopping before
    the first repeat, so a^(L+1) is already in the list.  The set of the
    list is the power closure of a; L = |<a>| when the powers return to a."""
    _check_element(g, a)
    row, seen, x = g.table[a], {a: None}, a  # a dict keeps the walk's order
    while (x := row[x]) not in seen:
        seen[x] = None
    return list(seen)


def _check_element(g: GyroGroup, a: int) -> None:
    if not 0 <= a < g.order:
        raise ValueError(f"element {a} out of range 0..{g.order - 1}")


# ---------------------------------------------------------------------------
# Cayley table I/O
# ---------------------------------------------------------------------------


def parse_cayley_csv(text: str) -> GyroGroup:
    """Parse N rows of N comma-separated integers, each cell an optional
    "-" and ASCII digits; only quoted text loads the csv module
    (:func:`_csv_records`).  Every distinct cell text is converted once, so
    the rows share one int per cell text."""
    cell = _CellInts().__getitem__
    return _from_grid([list(map(cell, record)) for record in _csv_records(text)])


def _csv_records(text: str) -> Iterator[list[str]]:
    """The non-empty records csv.reader reads from text's lines, one at a
    time; text with no '"' is split on commas instead, which reads the same."""
    lines = text.splitlines()
    if '"' not in text:
        yield from (line.split(",") for line in lines if line)
        return
    import csv
    try:
        yield from filter(None, csv.reader(lines))
    except csv.Error as exc:  # a field past csv.field_size_limit()
        raise ValueError(f"CSV table: {exc}") from None


class _CellInts(dict):
    """Cell text -> its int, converted on first lookup."""

    def __missing__(self, text: str) -> int:
        if (value := read_int(text, "CSV cell")) is None:
            raise ValueError(f"CSV cell {text!r} is not an integer")
        self[text] = value
        return value


def read_int(text: str, name: str) -> int | None:
    """The int that text spells as an optional "-" and ASCII digits, else
    None; a ValueError calls it name past int()'s digit limit."""
    if not (text.isascii() and text.removeprefix("-").isdigit()):
        return None
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{name} is too large: {len(text.lstrip('-'))} digits") from None


def parse_cayley_json(text: str) -> GyroGroup:
    """Parse {"order": N, "table": [[...], ...]}."""
    try:
        data = json.loads(text)
    except RecursionError:
        raise ValueError("the JSON table is nested too deeply") from None
    except json.JSONDecodeError:
        raise
    except ValueError:  # the only other one: an integer past int()'s digit limit
        raise ValueError("a JSON table entry is too large to read as an integer") from None
    if not isinstance(data, dict):
        raise ValueError("a JSON table must be an object")
    table = data.get("table")
    if not isinstance(table, list) or not all(isinstance(row, list) for row in table):
        raise ValueError('"table" must be a list of rows, each a list')
    order = data.get("order", len(table))
    if any(type(x) is not int for row in [[order], *table] for x in row):  # not bool, an int subclass
        raise ValueError('the table entries and "order" must be integers')
    if order != len(table):
        raise ValueError("declared order does not match table size")
    return _from_grid(table)


def _from_grid(rows: list[list[int]]) -> GyroGroup:
    """Re-index arbitrary integer labels to 0..N-1, keeping display labels."""
    n = len(rows)
    if n == 0 or any(len(r) != n for r in rows):
        raise ValueError("grid is not square")
    values = sorted(set().union(*rows))
    if values == list(range(n)):
        return load_table(rows)
    if len(values) != n:
        raise ValueError(
            f"table uses {len(values)} distinct values but has order {n}"
        )
    index = {v: i for i, v in enumerate(values)}
    relabeled = [list(map(index.__getitem__, row)) for row in rows]
    return load_table(relabeled, labels=tuple(str(v) for v in values))


def read_cayley_file(path: str | os.PathLike) -> GyroGroup:
    """Load a Cayley table from a .csv or .json file."""
    path = os.fspath(path)
    with open(path, "r", encoding="utf-8-sig") as fh:  # a leading BOM is not text
        text = fh.read()
    if path.lower().endswith(".json"):
        return parse_cayley_json(text)
    return parse_cayley_csv(text)


def to_cayley_csv(g: GyroGroup) -> str:
    return "\n".join(",".join(map(str, row)) for row in g.table) + "\n"


def cayley_json_chunks(g: GyroGroup) -> Iterator[str]:
    """The text of :func:`to_cayley_json` in pieces of one row each."""
    rows = map(json.dumps, g.table)
    yield '{"order": %d, "table": [%s' % (g.order, next(rows))
    for row in rows:
        yield ", " + row
    yield "]}"


def to_cayley_json(g: GyroGroup) -> str:
    """json.dumps({"order": ..., "table": ...}, sort_keys=True), with no
    list-of-lists copy of the table."""
    return "".join(cayley_json_chunks(g))


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


# ---------------------------------------------------------------------------
# Old import path of the axiom check
# ---------------------------------------------------------------------------

#: Names of `gyrograph.axioms` still served from here.
_AXIOM_NAMES = ("AxiomReport", "gyration", "gyration_symbol_grid", "verify_axioms")


def __getattr__(name: str):
    """Serve the axiom check's public names from `gyrograph.axioms`, which
    runs on the first such read."""
    if name in _AXIOM_NAMES:
        from . import axioms
        return getattr(axioms, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
