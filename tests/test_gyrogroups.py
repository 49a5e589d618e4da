"""Gyrogroup construction, gyrations, axiom verification, and powers."""

import csv
import json
import random
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gyrograph
from gyrograph import (
    AxiomReport,
    GyroGroup,
    Permutation,
    build_gn,
    bundled_gyrogroup,
    cyclic_group,
    gyration,
    gyration_symbol_grid,
    load_table,
    parse_cayley_csv,
    parse_cayley_json,
    powers,
    relabel,
    to_cayley_csv,
    to_cayley_json,
    verify_axioms,
)
from gyrograph.axioms import MAX_COUNTEREXAMPLES, gatherer, table_rows
from test_verification import changed, count_calls, cyclic_monoid, left_powers, right_powers

KLEIN4 = [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]]


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------


def test_build_gn_left_identity():
    g = build_gn(3)
    assert g.op(0, 5) == 5
    assert all(g.op(0, a) == a for a in g.elements())


def test_build_gn_squares_in_pendant_half_vanish():
    # i + i lands on the identity for every i in the upper half.
    g = build_gn(3)
    assert g.op(4, 4) == 0
    assert all(g.op(i, i) == 0 for i in range(4, 8))


def test_build_gn_four_case_formula_spot_value():
    # (5, 6) is an upper-half pair: k = (3*5 + 1*6) mod 4 = 1.
    assert build_gn(3).op(5, 6) == 1


@pytest.mark.parametrize("n", [3, 4, 5])
def test_build_gn_table_is_well_formed(n):
    g = build_gn(n)
    assert g.order == 2**n
    assert g.identity == 0
    assert all(0 <= v < g.order for row in g.table for v in row)


def test_build_gn_rejects_small_n():
    for n in (0, 1, 2):
        with pytest.raises(ValueError):
            build_gn(n)


def test_load_table_bundled_k1():
    g = bundled_gyrogroup("k1")
    assert g.order == 8
    assert g.identity == 0


def test_load_table_singleton():
    g = load_table([[0]])
    assert g.order == 1
    assert g.identity == 0


def test_load_table_rejects_out_of_range_entry():
    rows = [list(r) for r in bundled_gyrogroup("k1").table]
    rows[3][3] = 9
    with pytest.raises(ValueError, match="out of range"):
        load_table(rows)


def test_load_table_rejects_non_square():
    with pytest.raises(ValueError, match="square"):
        load_table([[0, 1], [1, 0], [0, 1]])


def test_load_table_requires_identity_row():
    with pytest.raises(ValueError, match="identity"):
        load_table([[1, 0], [1, 0]])


def test_load_table_scans_for_identity_row():
    # Row 1 is the identity row here.
    assert load_table([[1, 0], [0, 1]]).identity == 1


def test_load_table_identity_hint_is_checked():
    # load_table takes no hint; a known identity goes to GyroGroup, which
    # checks it.
    with pytest.raises(ValueError, match="row 2 is not a left identity row"):
        GyroGroup(4, KLEIN4, 2)
    assert GyroGroup(4, KLEIN4, 0).identity == 0


def test_relabeled_external_table_round_trips():
    # A table over labels {10, 20} re-indexes to 0..1 and keeps the labels.
    g = parse_cayley_csv("10,20\n20,10\n")
    assert g.order == 2
    assert g.labels == ("10", "20")
    assert g.op(1, 1) == 0
    # CRLF line ends, blank lines and quoted cells read the same.
    crlf = parse_cayley_csv('\r\n"10",20\r\n\r\n20,"10"\r\n\r\n')
    assert (crlf.table, crlf.labels) == (g.table, g.labels)


#: Characters csv.reader treats as plain text (no quote), with the line
#: breaks that str.splitlines() cuts at.
QUOTE_FREE = "01-, \t\x00\n\r\x0b\x1c\u2028'\\a"


@settings(max_examples=500, deadline=None)
@given(st.text(QUOTE_FREE, max_size=60))
@example("0,1\n\n 1 ,0,\n\x00\n,\n")
def test_quote_free_csv_splits_into_the_records_csv_reader_reads(text):
    # Empty lines, spaces, NULs and trailing commas read as csv.reader reads them.
    expected = [record for record in csv.reader(text.splitlines()) if record]
    assert list(gyrograph.gyrogroups._csv_records(text)) == expected


@pytest.mark.parametrize("text", ['"0",1\n1,"0"\n', '"0,1",2\n', '0,"1""2"\n\n'])
def test_quoted_csv_is_read_by_csv_reader(text):
    expected = [record for record in csv.reader(text.splitlines()) if record]
    assert list(gyrograph.gyrogroups._csv_records(text)) == expected


def test_csv_json_round_trip():
    g = build_gn(3)
    assert parse_cayley_csv(to_cayley_csv(g)).table == g.table
    assert parse_cayley_json(to_cayley_json(g)).table == g.table


@pytest.mark.parametrize("name", ["k1", "n1", "g8", "m1", "gn3"])
def test_bundled_formats_agree(name):
    assert bundled_gyrogroup(name, "csv").table == bundled_gyrogroup(name, "json").table


def test_bundled_gn3_matches_generator():
    assert bundled_gyrogroup("gn3").table == build_gn(3).table


def four_case_gn(n):
    """The table of G(n) entry by entry from the four-case formula of the
    build_gn docstring, with numpy."""
    m, half = 2 ** (n - 1), 2 ** (n - 2)
    i, j = np.indices((2 * m, 2 * m))
    t = (i + j) % m
    upper = np.where(j < m, (i + (half - 1) * j) % m + m, ((half + 1) * i + (half - 1) * j) % m)
    return np.where(i < m, np.where(j < m, t, t + m), upper)


@pytest.mark.parametrize("n", range(3, 12))
def test_build_gn_matches_the_four_case_formula(n):
    g = build_gn(n)
    assert (g.order, g.identity) == (2**n, 0)
    assert np.array_equal(np.array(g.table), four_case_gn(n))


def test_build_gn_holds_one_copy_of_the_rows():
    # GyroGroup interns the rows as build_gn makes them, so the peak is the
    # kept table and one row list, not a second table of lists.
    tracemalloc.start()
    try:
        g = build_gn(11)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert g.order == 2048
    assert peak <= 1.1 * kept, f"peak {peak / 2**20:.1f} MiB, table {kept / 2**20:.1f} MiB"


def _relabel_g10():
    g, image = build_gn(10), list(range(1024))
    random.Random(10).shuffle(image)
    perm = Permutation(tuple(image))
    return lambda: relabel(g, perm)


@pytest.mark.parametrize(
    "setup", [lambda: lambda: cyclic_group(1024), _relabel_g10], ids=["cyclic_group", "relabel"]
)
def test_table_builders_hold_one_copy_of_the_rows(setup):
    # cyclic_group and relabel hand GyroGroup a generator of rows, as
    # build_gn does; a list of row lists would double the peak.
    make = setup()
    tracemalloc.start()
    try:
        g = make()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert g.order == 1024
    assert peak <= 1.1 * kept, f"peak {peak / 2**20:.1f} MiB, table {kept / 2**20:.1f} MiB"


@pytest.mark.parametrize("quoted", [False, True], ids=["split", "csv-reader"])
def test_parsing_a_csv_holds_one_record_of_cell_texts_at_a_time(quoted):
    # Each record's cell texts are converted and dropped before the next is
    # read: the peak is the table, the lines and the row lists, about twice
    # what is kept, where all records at once would be about eight times.
    image = list(range(256))
    random.Random(8).shuffle(image)
    text = to_cayley_csv(relabel(build_gn(8), Permutation(tuple(image))))
    if quoted:  # the first cell, so that csv.reader reads the text
        text = '"' + text.replace(",", '",', 1)
    tracemalloc.start()
    try:
        g = parse_cayley_csv(text)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert g.order == 256
    assert peak <= 3 * kept, f"peak {peak / 2**20:.2f} MiB, table {kept / 2**20:.2f} MiB"


def _distinct_entry_objects(g):
    return len({id(v) for row in g.table for v in row})


def _fresh_int_rows(n):
    # (i + j) % n makes a new int object for every entry above 256.
    return [[(i + j) % n for j in range(n)] for i in range(n)]


@pytest.mark.parametrize(
    "make",
    [
        lambda: build_gn(9),
        lambda: cyclic_group(300),
        lambda: load_table(_fresh_int_rows(300)),
        lambda: relabel(cyclic_group(300), Permutation(tuple(range(299, -1, -1)))),
        lambda: parse_cayley_csv(to_cayley_csv(cyclic_group(300))),
        lambda: parse_cayley_json(to_cayley_json(cyclic_group(300))),
        lambda: GyroGroup(300, tuple(map(tuple, _fresh_int_rows(300))), 0),
    ],
    ids=["build_gn", "cyclic_group", "load_table", "relabel", "csv", "json", "GyroGroup"],
)
def test_every_constructor_shares_one_int_object_per_value(make):
    g = make()
    assert g.order > 256
    assert _distinct_entry_objects(g) <= g.order
    assert all(type(row) is tuple for row in g.table)


def reference_cayley_json(g):
    return json.dumps({"order": g.order, "table": [list(r) for r in g.table]}, sort_keys=True)


# ---------------------------------------------------------------------------
# Gyrations
# ---------------------------------------------------------------------------


def test_gyration_at_identity_is_trivial():
    g = build_gn(3)
    for b in g.elements():
        assert gyration(g, 0, b).is_identity()


def test_gyration_first_row_of_k1_all_identity():
    g = bundled_gyrogroup("k1")
    assert all(gyration(g, 0, a).is_identity() for a in g.elements())


def test_gyration_gn3_explicit_permutation():
    # Frozen from solving (4+5) + d = 4 + (5+c) pointwise.
    g = build_gn(3)
    p = gyration(g, 4, 5)
    assert p.map == (0, 1, 2, 3, 6, 7, 4, 5)
    # It must be a table automorphism.
    for a in g.elements():
        for b in g.elements():
            assert p(g.op(a, b)) == g.op(p(a), p(b))


def test_gyration_solves_gyroassociative_law():
    # Independent oracle: d is the unique row solution of
    # (a+b) + d = a + (b+c); the formula-based map must agree.
    g = bundled_gyrogroup("g8")
    for a in g.elements():
        for b in g.elements():
            p = gyration(g, a, b)
            ab = g.op(a, b)
            for c in g.elements():
                target = g.op(a, g.op(b, c))
                d = g.table[ab].index(target)
                assert p(c) == d


# ---------------------------------------------------------------------------
# Axioms
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [3, 4, 5])
def test_gn_passes_all_axioms_and_is_not_a_group(n):
    r = verify_axioms(build_gn(n))
    assert r.left_identity_ok
    assert r.left_inverse_ok
    assert r.gyroassociativity_ok
    assert r.left_loop_ok
    assert r.gyr_is_automorphism_ok
    assert r.is_gyrogroup
    assert not r.is_group
    assert r.counterexamples == () or all(
        ax in ("gyrocommutative",) for ax, _ in r.counterexamples
    )


@pytest.mark.parametrize(
    "name,gyrocommutative",
    [("k1", False), ("n1", False), ("g8", True), ("m1", True)],
)
def test_bundled_tables_are_gyrogroups(name, gyrocommutative):
    r = verify_axioms(bundled_gyrogroup(name))
    assert r.is_gyrogroup
    assert not r.is_group
    assert r.gyrocommutative == gyrocommutative


def test_cyclic_group_is_a_group_with_trivial_gyrations():
    g = cyclic_group(4)
    r = verify_axioms(g)
    assert r.is_gyrogroup and r.is_group and r.gyrocommutative
    assert all(
        gyration(g, a, b).is_identity() for a in g.elements() for b in g.elements()
    )


def test_klein_four_group_axioms():
    r = verify_axioms(load_table(KLEIN4))
    assert r.is_gyrogroup and r.is_group


def test_corrupted_table_fails_with_witnesses():
    rows = [list(r) for r in bundled_gyrogroup("k1").table]
    rows[6][6] = 0  # was 1
    r = verify_axioms(load_table(rows))
    assert not r.is_gyrogroup
    failing = {ax for ax, _ in r.counterexamples}
    assert failing  # every false flag carries a witness
    assert not r.gyroassociativity_ok
    assert any(ax == "gyroassociativity" and len(w) == 3 for ax, w in r.counterexamples)


def test_left_loop_property_pointwise():
    for n in (3, 4):
        g = build_gn(n)
        for a in g.elements():
            for b in g.elements():
                assert gyration(g, g.op(a, b), b).map == gyration(g, a, b).map


def test_diagonal_gyration_consistency():
    # a + (a + c) = (a + a) + gyr[a,a]c for all a, c.
    g = build_gn(3)
    for a in g.elements():
        p = gyration(g, a, a)
        aa = g.op(a, a)
        for c in g.elements():
            assert g.op(a, g.op(a, c)) == g.op(aa, p(c))


def test_gyration_symbol_grids_match_published_layouts():
    expected = {
        "k1": ("IIIIIIII", "IIIIIIII", "IIIIXXXX", "IIIIXXXX",
               "IIXXIIXX", "IIXXIIXX", "IIXXXXII", "IIXXXXII"),
        "n1": ("IIIIIIII", "IIIIIIII", "IIIIXXXX", "IIIIXXXX",
               "IIXXIIXX", "IIXXIIXX", "IIXXXXII", "IIXXXXII"),
        "g8": ("IIIIIIII", "IIIIXXXX", "IIIIXXXX", "IIIIIIII",
               "IXXIIXIX", "IXXIXIXI", "IXXIIXIX", "IXXIXIXI"),
        "m1": ("IIIIIIII", "IIIIIIII", "IIIIXXXX", "IIIIXXXX",
               "IIXXIIXX", "IIXXIIXX", "IIXXXXII", "IIXXXXII"),
    }
    for name, target in expected.items():
        grid, legend = gyration_symbol_grid(bundled_gyrogroup(name))
        assert set(legend) == {"I", "X1"}
        assert tuple(r.replace("X1", "X") for r in grid) == target



def test_order_256_axiom_check_within_gate():
    g = build_gn(8)
    rows = [list(r) for r in g.table]
    rows[200][77] = (rows[200][77] + 1) % g.order
    start = time.perf_counter()
    valid = verify_axioms(g)
    corrupted = verify_axioms(load_table(rows))
    elapsed = time.perf_counter() - start
    assert valid.is_gyrogroup and not valid.is_group
    assert not corrupted.is_gyrogroup
    assert elapsed < 10.0, f"order-256 axiom checks took {elapsed:.1f} s"


def test_order_256_axiom_check_is_fast():
    # Byte rows compose in one bytes.translate per gather (about 0.1 s
    # on 2 CPUs; tuple rows through itemgetter took about 0.9 s).
    g = build_gn(8)
    timings = []
    for _ in range(3):
        start = time.perf_counter()
        report = verify_axioms(g)
        timings.append(time.perf_counter() - start)
    assert report.is_gyrogroup
    assert min(timings) < 0.3, f"verify_axioms(build_gn(8)) took {min(timings):.2f} s"


# ---------------------------------------------------------------------------
# Byte rows up to order 256, tuple rows above
# ---------------------------------------------------------------------------


def test_table_rows_are_bytes_up_to_order_256():
    assert table_rows(cyclic_group(1).table) == [b"\x00"]
    assert table_rows(cyclic_group(256).table)[255] == bytes([255, *range(255)])
    assert table_rows(cyclic_group(257).table)[0] == tuple(range(257))


@pytest.mark.parametrize("k", [1, 2, 255, 256])
def test_byte_gather_matches_the_tuple_gather(k):
    rng = random.Random(f"gather:{k}")
    for _ in range(5):
        index = [rng.randrange(k) for _ in range(k)]
        seq = [rng.choice([0, 255, rng.randrange(256)]) for _ in range(k)]
        got = gatherer(bytes(index))(bytes(seq))
        assert isinstance(got, bytes)
        assert tuple(got) == gatherer(tuple(index))(tuple(seq))


def corrupt_to_largest(g, rng):
    """g with one entry off the identity row and column set to the
    largest element, order - 1 (255 at order 256); no left inverse is
    lost, since the entry changed was not the identity."""
    e, top = g.identity, g.order - 1
    rows = [list(r) for r in g.table]
    while True:
        a, b = rng.randrange(g.order), rng.randrange(g.order)
        if e not in (a, b) and rows[a][b] not in (e, top):
            break
    rows[a][b] = top
    return GyroGroup(len(rows), rows, e)


# ---------------------------------------------------------------------------
# verify_axioms against the per-triple loop reference
# ---------------------------------------------------------------------------


def reference_verify_axioms(g):
    """The axiom check written as plain loops over pairs and triples, with
    every gyration checked for the automorphism property separately."""
    max_counterexamples = 3
    n = g.order
    t = g.table
    counterexamples = []

    def note(axiom, witness, flag):
        flag[0] = False
        if sum(1 for ax, _ in counterexamples if ax == axiom) < max_counterexamples:
            counterexamples.append((axiom, witness))

    li = [True]
    for a in range(n):
        if t[g.identity][a] != a:
            note("left_identity", (g.identity, a), li)

    inv = [True]
    left_inv = [None] * n
    for a in range(n):
        for y in range(n):
            if t[y][a] == g.identity:
                left_inv[a] = y
                break
        if left_inv[a] is None:
            note("left_inverse", (a,), inv)

    gyr = [[None] * n for _ in range(n)]
    for a in range(n):
        ra = t[a]
        for b in range(n):
            iab = left_inv[ra[b]]
            if iab is not None:
                gyr[a][b] = tuple(t[iab][ra[t[b][c]]] for c in range(n))

    gassoc = [True]
    for a in range(n):
        ra = t[a]
        for b in range(n):
            gab = gyr[a][b]
            if gab is None:
                note("gyroassociativity", (a, b), gassoc)
                continue
            rb = t[b]
            rab = t[ra[b]]
            for c in range(n):
                if ra[rb[c]] != rab[gab[c]]:
                    note("gyroassociativity", (a, b, c), gassoc)
                    break

    loop = [True]
    for a in range(n):
        for b in range(n):
            if gyr[a][b] is None or gyr[t[a][b]][b] is None:
                note("left_loop", (a, b), loop)
            elif gyr[t[a][b]][b] != gyr[a][b]:
                note("left_loop", (a, b), loop)

    auto = [True]
    ta = np.array(t, dtype=np.int64)
    for a in range(n):
        for b in range(n):
            gab = gyr[a][b]
            if gab is None or sorted(gab) != list(range(n)):
                note("gyr_is_automorphism", (a, b), auto)
                continue
            p = np.array(gab, dtype=np.int64)
            lhs = p[ta]
            rhs = ta[np.ix_(p, p)]
            if not np.array_equal(lhs, rhs):
                x, y = np.argwhere(lhs != rhs)[0]
                note("gyr_is_automorphism", (a, b, int(x), int(y)), auto)

    gcomm = [True]
    for a in range(n):
        for b in range(n):
            gab = gyr[a][b]
            if gab is None or t[a][b] != gab[t[b][a]]:
                note("gyrocommutative", (a, b), gcomm)
                break
        if not gcomm[0]:
            break

    group = all(
        t[t[a][b]][c] == t[a][t[b][c]]
        for a in range(n) for b in range(n) for c in range(n)
    )
    return AxiomReport(
        left_identity_ok=li[0],
        left_inverse_ok=inv[0],
        gyroassociativity_ok=gassoc[0],
        left_loop_ok=loop[0],
        gyr_is_automorphism_ok=auto[0],
        gyrocommutative=gcomm[0],
        is_group=group,
        counterexamples=tuple(counterexamples),
    )


def _corrupt(g, rng):
    """g with one entry outside the identity row changed."""
    rows = [list(r) for r in g.table]
    a = rng.choice([x for x in g.elements() if x != g.identity])
    b = rng.randrange(g.order)
    rows[a][b] = (rows[a][b] + rng.randrange(1, g.order)) % g.order
    return GyroGroup(len(rows), rows, g.identity)


def _assert_matches_reference(g):
    report = verify_axioms(g)
    assert report == reference_verify_axioms(g)
    # Plain ints, so the report serializes and prints like the reference.
    assert all(type(v) is int for _, w in report.counterexamples for v in w)


# Groups and gyrogroups of order <= 8 that the random magmas start from.
_BASES = (
    [cyclic_group(k) for k in range(1, 9)]
    + [load_table(KLEIN4), build_gn(3)]
    + [bundled_gyrogroup(name) for name in ("k1", "n1", "g8", "m1")]
)


@st.composite
def magmas(draw):
    """A table of order <= 8 with a left-identity row: either uniformly
    random (often without left inverses) or a relabelled group or
    gyrogroup with a few entries changed (often with left inverses but
    non-bijective or non-automorphic gyrations)."""
    if draw(st.booleans()):
        n = draw(st.integers(1, 8))
        e = draw(st.integers(0, n - 1))
        cell = st.integers(0, n - 1)
        rows = [
            list(range(n)) if a == e else draw(st.lists(cell, min_size=n, max_size=n))
            for a in range(n)
        ]
        return GyroGroup(len(rows), rows, e)
    base = draw(st.sampled_from(_BASES))
    g = relabel(base, Permutation(tuple(draw(st.permutations(range(base.order))))))
    rows = [list(r) for r in g.table]
    for _ in range(draw(st.integers(0, 3)) if g.order > 1 else 0):
        a = draw(st.sampled_from([x for x in g.elements() if x != g.identity]))
        rows[a][draw(st.integers(0, g.order - 1))] = draw(st.integers(0, g.order - 1))
    return GyroGroup(len(rows), rows, g.identity)


@settings(max_examples=300, deadline=None)
@given(magmas())
def test_verify_axioms_matches_reference_on_random_magmas(g):
    _assert_matches_reference(g)


@settings(max_examples=200, deadline=None)
@given(magmas())
def test_to_cayley_json_matches_the_reference_on_random_magmas(g):
    assert to_cayley_json(g) == reference_cayley_json(g)


@pytest.mark.parametrize("n", [3, 5, 9])
def test_to_cayley_json_matches_the_reference_on_relabelled_gn(n):
    perm = list(range(2**n))
    random.Random(n).shuffle(perm)
    g = relabel(build_gn(n), Permutation(tuple(perm)))
    assert to_cayley_json(g) == reference_cayley_json(g)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_verify_axioms_matches_reference_on_relabelled_and_corrupted_gn(n):
    rng = random.Random(n)
    g = build_gn(n)
    perm = list(g.elements())
    rng.shuffle(perm)
    h = relabel(g, Permutation(tuple(perm)))
    _assert_matches_reference(h)
    for _ in range(3):
        _assert_matches_reference(_corrupt(h, rng))


@pytest.mark.parametrize("name", ["k1", "n1", "g8", "m1", "gn3"])
def test_verify_axioms_matches_reference_on_bundled_tables(name):
    _assert_matches_reference(bundled_gyrogroup(name))


@pytest.mark.parametrize("k", [1, 2, 3, 5, 6, 12])
def test_verify_axioms_matches_reference_on_cyclic_groups(k):
    _assert_matches_reference(cyclic_group(k))


# ---------------------------------------------------------------------------
# gyration_symbol_grid against the per-pair reference
# ---------------------------------------------------------------------------


def reference_gyration_symbol_grid(g):
    """The symbol grid built from one gyration() call per pair."""
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


def _grid_or_error(grid, g):
    """(rows, legend items in order) of grid(g), or the text of its ValueError."""
    try:
        rows, legend = grid(g)
    except ValueError as exc:
        return str(exc)
    return rows, list(legend.items())


def _grid_table(name):
    """Relabelled G(n) for "G<n>", Z_k for "Z<k>", else a bundled table."""
    if name[0] == "Z":
        return cyclic_group(int(name[1:]))
    if name[0] == "G":
        perm = list(range(2 ** int(name[1:])))
        random.Random(name).shuffle(perm)
        return relabel(build_gn(int(name[1:])), Permutation(tuple(perm)))
    return bundled_gyrogroup(name)


@pytest.mark.parametrize(
    "name", ["G3", "G4", "G5", "k1", "n1", "g8", "m1", "gn3", *(f"Z{k}" for k in range(1, 13))]
)
def test_symbol_grid_matches_the_per_pair_reference(name):
    g = _grid_table(name)
    assert _grid_or_error(gyration_symbol_grid, g) == _grid_or_error(
        reference_gyration_symbol_grid, g
    )


@pytest.mark.parametrize(
    ("rows", "message"),
    [
        ([[0, 1, 2], [0, 1, 0], [0, 1, 0]], "element 1 has no left inverse"),
        ([[0, 1, 2], [0, 0, 0], [0, 0, 0]], "gyration map for (0,1) is not a bijection"),
    ],
    ids=["no-left-inverse", "not-a-bijection"],
)
def test_symbol_grid_errors_match_the_reference(rows, message):
    g = load_table(rows)
    assert _grid_or_error(gyration_symbol_grid, g) == message
    assert _grid_or_error(reference_gyration_symbol_grid, g) == message


@settings(max_examples=200, deadline=None)
@given(magmas())
def test_symbol_grid_matches_the_per_pair_reference_on_random_magmas(g):
    # The error, if any, names the first pair in row-major order that lacks
    # a left inverse or a bijective gyration.
    assert _grid_or_error(gyration_symbol_grid, g) == _grid_or_error(
        reference_gyration_symbol_grid, g
    )


def test_symbol_grid_builds_one_permutation_per_distinct_gyration(monkeypatch):
    g = build_gn(5)
    built = count_calls(monkeypatch, gyrograph.gyrogroups, "Permutation")
    grid, legend = gyration_symbol_grid(g)
    assert len(built) == len(legend) == 2  # not one per pair, 32 * 32


# ---------------------------------------------------------------------------
# verify_axioms against the whole-tensor reference
# ---------------------------------------------------------------------------


def tensor_verify_axioms(g):
    """The axiom check as boolean numpy masks over pairs and triples, read
    off one n^3 gyration tensor (n^3 memory: about 1 GB at order 512)."""
    n = g.order
    index = np.min_scalar_type(n - 1)
    t = np.array(g.table, dtype=index)
    elements = np.arange(n, dtype=index)
    counterexamples = []

    def note(axiom, mask, witness=lambda *i: i, limit=3):
        for i in np.argwhere(mask)[:limit]:
            counterexamples.append((axiom, witness(*i.tolist())))
        return not mask.any()

    li = note("left_identity", t[g.identity] != elements, lambda a: (g.identity, a))
    is_e = t == g.identity
    has_inv = is_e.any(axis=0)
    inv = is_e.argmax(axis=0).astype(index)
    inv_ok = note("left_inverse", ~has_inv)

    a_bc = t[:, t]
    undefined = ~has_inv[t]
    gyr = t[inv[t][:, :, None], a_bc]

    gassoc_fail = t[t[:, :, None], gyr] != a_bc
    gassoc = note(
        "gyroassociativity",
        undefined | gassoc_fail.any(axis=2),
        lambda a, b: (
            (a, b) if undefined[a, b] else (a, b, int(gassoc_fail[a, b].argmax()))
        ),
    )
    loop = note(
        "left_loop",
        undefined | undefined[t, elements] | (gyr[t, elements] != gyr).any(axis=2),
    )

    def automorphism_failure(p):
        if np.unique(p).size != p.size:
            return ()
        bad = p[t] != t[np.ix_(p, p)]
        return tuple(np.argwhere(bad)[0].tolist()) if bad.any() else None

    distinct = {}
    gyr_id = np.array(
        [distinct.setdefault(row.tobytes(), len(distinct)) for row in gyr.reshape(n * n, n)]
    ).reshape(n, n)
    failures = [automorphism_failure(np.frombuffer(key, dtype=index)) for key in distinct]
    failing = np.array([f is not None for f in failures])
    auto = note(
        "gyr_is_automorphism",
        undefined | failing[gyr_id],
        lambda a, b: (a, b) if undefined[a, b] else (a, b, *failures[gyr_id[a, b]]),
    )
    gcomm = note(
        "gyrocommutative",
        undefined | (t != gyr[elements[:, None], elements, t.T]),
        limit=1,
    )
    return AxiomReport(
        left_identity_ok=li,
        left_inverse_ok=inv_ok,
        gyroassociativity_ok=gassoc,
        left_loop_ok=loop,
        gyr_is_automorphism_ok=auto,
        gyrocommutative=gcomm,
        is_group=bool(np.array_equal(t[t], a_bc)),
        counterexamples=tuple(counterexamples),
    )


def corrupt_off_identity(g, rng):
    """g with one entry off the identity row and column changed, neither
    from nor to the identity: every element keeps a left inverse."""
    e = g.identity
    rows = [list(r) for r in g.table]
    while True:
        a, b = rng.randrange(g.order), rng.randrange(g.order)
        if e not in (a, b) and rows[a][b] != e:
            break
    rows[a][b] = rng.choice([v for v in g.elements() if v not in (e, rows[a][b])])
    return GyroGroup(len(rows), rows, e)


def _assert_matches_tensor_reference(g):
    report = verify_axioms(g)
    assert report == tensor_verify_axioms(g)
    for axiom in {ax for ax, _ in report.counterexamples}:
        witnesses = [w for ax, w in report.counterexamples if ax == axiom]
        assert witnesses == sorted(witnesses)
        assert len(witnesses) <= MAX_COUNTEREXAMPLES


def test_verify_axioms_matches_tensor_reference_on_relabelled_and_corrupted_g7():
    rng = random.Random("build:7")
    perm = list(range(128))
    rng.shuffle(perm)
    g = relabel(build_gn(7), Permutation(tuple(perm)))
    _assert_matches_tensor_reference(g)
    for _ in range(4):
        h = corrupt_off_identity(g, rng)
        assert not verify_axioms(h).is_gyrogroup
        _assert_matches_tensor_reference(h)


def test_verify_axioms_matches_tensor_reference_on_g8():
    g = build_gn(8)
    _assert_matches_tensor_reference(g)
    _assert_matches_tensor_reference(corrupt_off_identity(g, random.Random(8)))


@pytest.mark.parametrize("k", [1, 255, 256, 257])
def test_verify_axioms_matches_tensor_reference_at_the_byte_boundary(k):
    rng = random.Random(f"boundary:{k}")
    z = cyclic_group(k)
    _assert_matches_tensor_reference(z)
    if k == 1:
        return
    h = corrupt_to_largest(z, rng)
    assert not verify_axioms(h).is_gyrogroup
    _assert_matches_tensor_reference(h)
    if k == 256:
        # The identity is the byte 255 here.
        swap = Permutation((255, *range(1, 255), 0))
        _assert_matches_tensor_reference(relabel(z, swap))
        _assert_matches_tensor_reference(corrupt_off_identity(relabel(z, swap), rng))


def _small_tables():
    # Every table of order 1 or 2 with a left identity row.
    yield load_table([[0]])
    for e in (0, 1):
        for other in ([0, 0], [0, 1], [1, 0], [1, 1]):
            rows = [other, other]
            rows[e] = [0, 1]
            yield GyroGroup(len(rows), rows, e)


@pytest.mark.parametrize("g", list(_small_tables()), ids=lambda g: str(g.table))
def test_verify_axioms_matches_both_references_at_orders_1_and_2(g):
    _assert_matches_tensor_reference(g)
    _assert_matches_reference(g)


# ---------------------------------------------------------------------------
# Powers
# ---------------------------------------------------------------------------


def test_power_examples():
    g = build_gn(3)
    assert powers(g, 4) == [4, 0]
    assert powers(g, 1) == [1, 2, 3, 0]  # under addition mod 4
    assert powers(g, 0) == [0]


def test_powers_of_an_element_out_of_range_raise():
    g = build_gn(3)
    for a in (8, -1):
        with pytest.raises(ValueError, match=f"element {a} out of range 0..7"):
            powers(g, a)


def test_power_closures():
    g = build_gn(3)
    assert set(powers(g, 4)) == {4, 0}
    assert set(powers(g, 0)) == {0}
    assert set(powers(g, 1)) == {0, 1, 2, 3}
    for i in range(4, 8):
        assert set(powers(g, i)) == {i, 0}


def test_power_sequence_left_vs_right_agree_on_gn():
    for n in (3, 4):
        g = build_gn(n)
        for a in g.elements():
            walk = powers(g, a)
            assert walk == right_powers(g, a, len(walk))
            assert left_powers(g, a, g.order) == right_powers(g, a, g.order)


def test_power_left_iteration_is_default():
    # a^(m+1) = a + a^m by definition.
    g = bundled_gyrogroup("g8")
    for a in g.elements():
        walk = [a]
        while g.op(a, walk[-1]) not in walk:
            walk.append(g.op(a, walk[-1]))
        assert powers(g, a) == walk


def test_powers_stop_before_the_first_repeat_of_the_left_powers():
    # G(3..5), the bundled tables, Z1..Z12, rho-shaped cyclic monoids, and
    # G(4) and Z12 with one changed product.
    tables = [build_gn(n) for n in (3, 4, 5)]
    tables += [bundled_gyrogroup(name) for name in ("k1", "n1", "g8", "m1", "gn3")]
    tables += [cyclic_group(k) for k in range(1, 13)]
    tables += [cyclic_monoid(index, period) for index in (1, 2, 4) for period in (1, 3, 5)]
    tables += [changed(build_gn(4), 1, 2, 9), changed(cyclic_group(12), 1, 5, 3)]
    for g in tables:
        for a in g.elements():
            terms = left_powers(g, a, g.order + 1)  # a repeat within N + 1 terms
            length = next(k for k in range(1, g.order + 1) if terms[k] in terms[:k])
            assert powers(g, a) == terms[:length]


def test_relabel_transports_structure():
    g = build_gn(3)
    perm = Permutation((3, 0, 1, 2, 7, 4, 5, 6))
    h = relabel(g, perm)
    assert h.identity == perm(0)
    for a in g.elements():
        for b in g.elements():
            assert h.op(perm(a), perm(b)) == perm(g.op(a, b))
    assert verify_axioms(h).is_gyrogroup


# ---------------------------------------------------------------------------
# Metamorphic: axiom verdicts do not depend on labels or on the file format
# ---------------------------------------------------------------------------


def _metamorphic_table(name):
    if name == "G4-corrupted":
        return _corrupt(build_gn(4), random.Random(4))
    if name.startswith("G"):
        return build_gn(int(name[1:]))
    return bundled_gyrogroup(name)


def _verdicts(g):
    return {k: v for k, v in verify_axioms(g).to_dict().items() if k != "counterexamples"}


@pytest.mark.parametrize(
    "name", ["k1", "n1", "g8", "m1", "gn3", "G3", "G4", "G5", "G6", "G4-corrupted"]
)
def test_axiom_verdicts_survive_relabelling_and_round_trips(name):
    g = _metamorphic_table(name)
    want = _verdicts(g)
    assert want["is_gyrogroup"] == (name != "G4-corrupted")
    for seed in (1, 2):
        perm = list(g.elements())
        random.Random(seed).shuffle(perm)
        assert _verdicts(relabel(g, Permutation(tuple(perm)))) == want
    # CSV -> JSON -> CSV keeps the labels, so the whole report is equal.
    csv_text = to_cayley_csv(g)
    json_text = to_cayley_json(parse_cayley_csv(csv_text))
    back = parse_cayley_csv(to_cayley_csv(parse_cayley_json(json_text)))
    assert to_cayley_csv(back) == csv_text
    assert verify_axioms(back) == verify_axioms(g)
