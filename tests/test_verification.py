"""Structure and invariants of the verification report."""

import functools
import random
import sys
import time

import numpy as np
import pytest

from gyrograph import (
    Graph,
    GyroGroup,
    Permutation,
    build_gn,
    cyclic_group,
    distances,
    graphs,
    polynomials,
    powers,
    relabel,
    run_verification,
    spectral,
    verification,
    verify_axioms,
)
from gyrograph.errors import BoundExceededError
from gyrograph.verification import (
    _power_associative,
    verify_example_tables,
    verify_gn,
)


@pytest.fixture(scope="module")
def report():
    return run_verification([3])


def test_summary_counts_add_up(report):
    s = report.summary
    assert sum(s.values()) == len(report.entries)


def test_exactly_charpoly_entries_are_typo_corrected(report):
    corrected = sorted(
        e.claim_id for e in report.entries if e.verdict == "typo-corrected"
    )
    assert corrected == ["charpoly-pendant-part[n=3]", "charpoly[n=3]"]


def test_single_known_mismatch(report):
    mismatches = [e for e in report.entries if e.verdict == "mismatch"]
    assert [e.claim_id for e in mismatches] == ["gyro-noniso[g8,m1]"]
    assert "witness" in mismatches[0].computed
    assert report.has_mismatch


def test_family_entries_all_pass(report):
    family = [e for e in report.entries if "[n=3]" in e.claim_id]
    assert len(family) >= 17
    assert all(e.verdict in ("match", "typo-corrected") for e in family)


def test_every_lemma_area_has_an_entry(report):
    ids = " ".join(e.claim_id for e in report.entries)
    for needle in (
        "gn-axioms",
        "power-graph-shape",
        "planarity",
        "hamiltonicity",
        "pair-distance-counts",
        "hosoya-polynomial",
        "rs-hosoya-polynomial",
        "metric-dimension",
        "resolving-polynomial",
        "charpoly",
        "spectral-bounds",
        "detour-eccentricity",
        "dds",
        "interior-center",
        "closure-fixed-point",
        "power-graph-iso",
        "gyro-noniso",
        "gyration-pattern",
    ):
        assert needle in ids


def test_json_and_text_renderings_are_consistent(report):
    data = report.to_dict()
    assert len(data["entries"]) == len(report.entries)
    text = report.render_text()
    assert text.count("[match") == report.summary["match"]
    assert "summary:" in text


def test_report_is_deterministic():
    a = run_verification([3]).to_dict()
    b = run_verification([3]).to_dict()
    assert a == b


def assert_refusal_is_skipped(monkeypatch, search, claim_ids):
    """With `search` refusing every input, verify_gn(3) reports the
    claim_ids as skipped with the refusal text, and nothing as mismatch."""
    def refuse(*args, **kwargs):
        raise BoundExceededError(f"{search} refused: stand-in")

    monkeypatch.setattr(verification, search, refuse)
    entries = {e.claim_id: e for e in verify_gn(3)}
    assert [c for c, e in entries.items() if e.verdict == "skipped"] == claim_ids
    assert all(entries[c].note == f"{search} refused: stand-in" for c in claim_ids)
    assert all(e.verdict != "mismatch" for e in entries.values())


def test_detour_entries_skip_above_bound(monkeypatch):
    assert_refusal_is_skipped(
        monkeypatch, "detour_matrix", ["detour-eccentricity[n=3]", "dds-detour[n=3]"]
    )


def test_refused_planarity_is_skipped(monkeypatch):
    assert_refusal_is_skipped(monkeypatch, "is_planar", ["planarity[n=3]"])


def test_refused_resolving_search_is_skipped(monkeypatch):
    assert_refusal_is_skipped(
        monkeypatch,
        "resolving_polynomial",
        ["metric-dimension[n=3]", "resolving-polynomial[n=3]"],
    )


def test_verify_gn_passes_the_detour_bound_through(monkeypatch):
    # verify_gn has no detour bound of its own: detour_matrix runs on the
    # graph alone, at the library default, and every block of P(G(7)) is
    # complete, so order 128 is computed.
    calls = []
    original = verification.detour_matrix

    def spy(*args, **kwargs):
        calls.append((len(args), kwargs))
        return original(*args, **kwargs)

    monkeypatch.setattr(verification, "detour_matrix", spy)
    verdicts = {e.claim_id: e.verdict for e in verify_gn(7)}
    assert calls == [(1, {})]
    assert verdicts["detour-eccentricity[n=7]"] == "match"
    assert verdicts["dds-detour[n=7]"] == "match"
    assert verdicts["resolving-polynomial[n=7]"] == "match"


def test_report_reaches_n8_with_every_entry_computed():
    # P(G(8)) has order 256: no entry is skipped, and the report exits 1
    # on the g8/m1 mismatch alone.
    start = time.perf_counter()
    report = run_verification([8])
    elapsed = time.perf_counter() - start
    verdicts = {e.claim_id: e.verdict for e in report.entries}
    assert report.summary["skipped"] == 0
    assert verdicts["planarity[n=8]"] == "match"
    assert verdicts["detour-eccentricity[n=8]"] == "match"
    assert verdicts["spectral-bounds[n=8]"] == "match"
    assert [c for c, v in verdicts.items() if v == "mismatch"] == ["gyro-noniso[g8,m1]"]
    assert elapsed < 20.0, f"took {elapsed:.1f} s"


def left_powers(g, a, length):
    """[a^1, ..., a^length], left-iterated: a^(m+1) = a + a^m."""
    out, acc = [], a
    for _ in range(length):
        out.append(acc)
        acc = g.op(a, acc)
    return out


def right_powers(g, a, length):
    """[a^1, ..., a^length], right-iterated: a^(m+1) = a^m + a."""
    out, acc = [], a
    for _ in range(length):
        out.append(acc)
        acc = g.op(acc, a)
    return out


def walks(g):
    """powers(g, a) for each element a, as verify_gn reads them."""
    return [powers(g, a) for a in g.elements()]


def conventions_corrupted(g, rng):
    """A copy of g with one entry off the identity row changed: either
    x + a for a power x of a, which the right-iterated powers of a read,
    or a random entry."""
    rows = [list(r) for r in g.table]
    a = rng.randrange(1, g.order)
    if rng.random() < 0.7:
        x, b = rng.choice([x for x in left_powers(g, a, g.order - 1) if x != g.identity]), a
    else:
        x, b = rng.randrange(1, g.order), rng.randrange(g.order)
    rows[x][b] = (rows[x][b] + rng.randrange(1, g.order)) % g.order
    return GyroGroup(len(rows), rows, g.identity)


@pytest.mark.parametrize("n", [3, 4])
def test_power_conventions_entry_compares_left_and_right_powers(monkeypatch, n):
    # The entry checks a + x = x + a over the powers x of a; it must agree
    # with comparing the left- and right-iterated sequences up to 2^n.
    rng = random.Random(f"conventions:{n}")
    g = build_gn(n)
    graph = verification.power_graph(g)  # the graph entries stay on P(G(n))
    monkeypatch.setattr(verification, "_power_graph", lambda *_: graph)
    verdicts = []
    for h in [g] + [conventions_corrupted(g, rng) for _ in range(12)]:
        monkeypatch.setattr(verification, "build_gn", lambda _: h)
        entry = next(e for e in verify_gn(n) if e.claim_id == f"power-conventions[n={n}]")
        agree = all(
            left_powers(h, a, h.order) == right_powers(h, a, h.order) for a in h.elements()
        )
        assert entry.verdict == ("match" if agree else "mismatch")
        assert entry.computed == ("agree" if agree else "disagree")
        verdicts.append(agree)
    assert verdicts[0] and not all(verdicts) and sum(verdicts) > 1


def reference_power_associative(g):
    """The report's former loop: a^i + a^j = a^(i+j) for i + j <= order."""
    big = g.order
    for a in g.elements():
        seq = left_powers(g, a, big)
        for i in range(1, big):
            for j in range(1, big - i + 1):
                if g.op(seq[i - 1], seq[j - 1]) != seq[i + j - 1]:
                    return False
    return True


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_power_associativity_matches_the_loop(n):
    rng = random.Random(n)
    g = build_gn(n)
    tables = [g]
    for _ in range(8):
        rows = [list(r) for r in g.table]
        a = rng.randrange(1, g.order)
        b = rng.randrange(g.order)
        rows[a][b] = (rows[a][b] + rng.randrange(1, g.order)) % g.order
        tables.append(GyroGroup(len(rows), rows, g.identity))
    verdicts = []
    for h in tables:
        verdicts.append(_power_associative(h, walks(h)))
        assert verdicts[-1] == reference_power_associative(h)
    assert verdicts[0] and not all(verdicts)


def tensor_power_associative(table, powers):
    """The former numpy check: one gather of table rows per exponent i."""
    table, powers = np.array(table), np.array(powers)
    big = powers.shape[1]
    return all(
        (table[powers[:, i - 1, None], powers[:, : big - i]] == powers[:, i:]).all()
        for i in range(1, big)
    )


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
def test_power_associativity_matches_the_tensor_check(n):
    rng = random.Random(f"powers:{n}")
    g = build_gn(n)
    tables = [g]
    for trial in range(6):
        rows = [list(r) for r in g.table]
        a, b = rng.randrange(1, g.order), rng.randrange(g.order)
        if trial % 2:
            # Change a^2 + a, which a^3 = a + a^2 reads back.
            while g.op(a, a) in (g.identity, a):
                a = rng.randrange(1, g.order)
            a, b = g.op(a, a), a
        rows[a][b] = (rows[a][b] + rng.randrange(1, g.order)) % g.order
        tables.append(GyroGroup(len(rows), rows, g.identity))
    verdicts = []
    for h in tables:
        table_powers = [left_powers(h, a, h.order) for a in h.elements()]
        verdicts.append(_power_associative(h, walks(h)))
        assert verdicts[-1] == tensor_power_associative(h.table, table_powers)
    assert verdicts[0] and not all(verdicts)


@pytest.mark.parametrize("k", [255, 256, 257])
def test_power_associativity_matches_the_tensor_check_at_the_byte_boundary(k):
    z = cyclic_group(k)
    rows = [list(r) for r in z.table]
    rows[2][1] = k - 1  # 1^2 + 1^1 is now k - 1, not 1^3 = 1 + 1^2 = 3
    for h in (z, GyroGroup(len(rows), rows, 0)):
        table_powers = [left_powers(h, a, k) for a in h.elements()]
        verdict = _power_associative(h, walks(h))
        assert verdict == tensor_power_associative(h.table, table_powers)
        assert verdict == (h is z)


def power_entries(monkeypatch, h):
    """The power-conventions and power-associativity verdicts that
    verify_gn(n) gives the table h, for the least n >= 3 with 2^n >= its
    order N (the graph entries stay on P(G(n))).  Both read powers up to
    a^N, which is a^(2^n) on G(n)."""
    n = max(3, (h.order - 1).bit_length())
    graph = gn_power_graph(n)
    monkeypatch.setattr(verification, "build_gn", lambda _: h)
    monkeypatch.setattr(verification, "_power_graph", lambda *_: graph)
    verdicts = {e.claim_id: e.verdict for e in verify_gn(n)}
    return verdicts[f"power-conventions[n={n}]"], verdicts[f"power-associativity[n={n}]"]


@functools.lru_cache(maxsize=None)
def gn_power_graph(n):
    return verification.power_graph(build_gn(n))


def assert_power_entries_match_the_oracles(monkeypatch, tables):
    """Both power entries agree with the left/right comparison and the
    pairwise loop on every table; return the (conventions, associativity)
    verdicts."""
    verdicts = []
    for h in tables:
        conventions, associativity = power_entries(monkeypatch, h)
        agree = all(
            left_powers(h, a, h.order) == right_powers(h, a, h.order) for a in h.elements()
        )
        assert conventions == ("match" if agree else "mismatch")
        assert associativity == ("match" if reference_power_associative(h) else "mismatch")
        verdicts.append((agree, associativity == "match"))
    return verdicts


def relabelled_gn(n, rng):
    perm = list(range(2**n))
    rng.shuffle(perm)
    return relabel(build_gn(n), Permutation(tuple(perm)))


def long_cycle(g):
    """The powers a^1..a^L of the first element a with the longest cycle."""
    return max(walks(g), key=len)


def changed(g, x, y, value):
    """A copy of g with x + y set to value."""
    rows = [list(r) for r in g.table]
    rows[x][y] = value
    return GyroGroup(len(rows), rows, g.identity)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_power_entries_match_the_oracles_on_relabelled_gn(monkeypatch, n):
    rng = random.Random(f"relabel:{n}")
    tables = [relabelled_gn(n, rng) for _ in range(3)]
    for h in tables[:3]:
        cycle = long_cycle(h)
        x, y = rng.choice(cycle[:-1]), rng.choice(cycle)  # cycle[-1] is the identity
        tables.append(changed(h, x, y, rng.choice([v for v in cycle if v != h.op(x, y)])))
    verdicts = assert_power_entries_match_the_oracles(monkeypatch, tables)
    assert verdicts[:3] == [(True, True)] * 3


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_power_entries_match_the_oracles_inside_the_long_cycle(monkeypatch, n):
    # One product of two powers of a generator of the cyclic half changed.
    rng = random.Random(f"cycle:{n}")
    g = build_gn(n)
    cycle = long_cycle(g)
    tables = [g]
    for _ in range(10):
        x, y = rng.choice(cycle[:-1]), rng.choice(cycle)
        tables.append(changed(g, x, y, rng.choice([v for v in cycle if v != g.op(x, y)])))
    verdicts = assert_power_entries_match_the_oracles(monkeypatch, tables)
    assert verdicts[0] == (True, True)
    assert not all(pa for _, pa in verdicts)


def cyclic_monoid(index, period):
    """The identity 0 and the powers a^1..a^(index+period-1) of a = 1, with
    a^(index+period) = a^index: for index > 1 the powers of a are
    rho-shaped, and row a is not a bijection."""
    size = index + period

    def power(s):
        return s if s < size else index + (s - index) % period

    rows = [list(range(size))]
    rows += [[i] + [power(i + j) for j in range(1, size)] for i in range(1, size)]
    return GyroGroup(len(rows), rows, 0)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_power_entries_match_the_oracles_on_rho_shaped_powers(monkeypatch, n):
    # In G(n), a + a^(k+1) = a^(j+1) with 1 <= j <= k < L - 1 for a generator
    # a of the cyclic half: the powers of a run into a cycle that misses a.
    rng = random.Random(f"rho:{n}")
    g = build_gn(n)
    cycle = long_cycle(g)
    tables = []
    for _ in range(6):
        k = rng.randrange(1, len(cycle) - 1)
        h = changed(g, cycle[0], cycle[k], cycle[rng.randrange(1, k + 1)])
        assert len(powers(h, cycle[0])) == k + 1
        assert cycle[0] not in left_powers(h, cycle[0], 2 * k + 2)[k + 1 :]
        tables.append(h)
    # Cyclic monoids pass; one changed product in a non-identity row of each
    # mostly fails.
    monoids = [cyclic_monoid(n - 2 + r, p) for r in (0, 1, 2) for p in range(1, 2 * n)]
    tables += monoids
    for h in monoids:
        x, y = rng.randrange(1, h.order), rng.randrange(h.order)
        tables.append(changed(h, x, y, (h.op(x, y) + rng.randrange(1, h.order)) % h.order))
    verdicts = assert_power_entries_match_the_oracles(monkeypatch, tables)
    assert verdicts[6 : 6 + len(monoids)] == [(True, True)] * len(monoids)
    assert not all(pa for _, pa in verdicts[6 + len(monoids) :])


def padded_cyclic(period, order):
    """Z_period on 0..period-1, padded to the given order with elements x
    whose rows and columns are the identity's: x + v = v and u + x = x."""
    rows = [[(u + v) % period if max(u, v) < period else v for v in range(order)]
            for u in range(order)]
    return GyroGroup(order, rows, 0)


@pytest.mark.parametrize("period", [3, 4, 5, 8])
def test_power_entries_match_the_oracles_where_a_cycle_just_fits(monkeypatch, period):
    # One product a^x + a^y of powers of a = 1 changed, x + y near N, in Z_L
    # padded to N = 2L - 2 .. 2L + 1: a's own pairs read it only when
    # x + y <= N, but a^(L-1) reads it through smaller exponents.
    tables = []
    for order in range(2 * period - 2, 2 * period + 2):
        z = padded_cyclic(period, order)
        for x in range(1, period):
            for y in range(period):
                if order - 1 <= x + (y or period) <= order + 2:
                    tables.append(changed(z, x, y, (x + y + 1) % period))
    verdicts = assert_power_entries_match_the_oracles(monkeypatch, tables)
    assert not all(pa for _, pa in verdicts)


def test_power_entries_match_the_oracles_on_cyclic_groups(monkeypatch):
    # Z1..Z40 pass.  A generator's cycle is the whole group (2L > N, so it
    # does not cover its powers); one changed product in each of Z3..Z40
    # makes tables that mostly fail.
    rng = random.Random("cyclic")
    tables = [cyclic_group(k) for k in range(1, 41)]
    for z in tables[2:40]:
        x, y = rng.randrange(1, z.order), rng.randrange(z.order)
        tables.append(changed(z, x, y, (z.op(x, y) + rng.randrange(1, z.order)) % z.order))
    verdicts = assert_power_entries_match_the_oracles(monkeypatch, tables)
    assert verdicts[:40] == [(True, True)] * 40
    assert not all(pa for _, pa in verdicts[40:])


@pytest.mark.parametrize("n", [6, 7, 8])
def test_power_entries_stop_at_the_cycle(monkeypatch, n):
    # On G(n), N = 2^n, verify_gn walks the powers of each element once, for
    # the power graph and both power entries.  A walk stops at the
    # cycle: N/2 elements of the cyclic half, whose orders sum to about
    # N^2/6, and N/2 of order 2.  The table entries that the walks and the
    # two entries read come to about 0.75 N^2: each walk reads its terms,
    # the conventions entry two per term and power associativity about N^2/4
    # on the cyclic half.  Walking N terms per element in either entry reads
    # at least N^2/2 more.
    big = 2**n
    g = build_gn(n)
    report = verify_axioms(g)
    reads = []

    class Row(tuple):
        def __getitem__(self, i):
            reads.append(i)
            return tuple.__getitem__(self, i)

    g.__dict__["table"] = tuple(map(Row, g.table))  # entry reads are counted
    terms = []

    def counted_powers(h, a):
        walk = powers(h, a)
        terms.append(len(walk))
        return walk

    monkeypatch.setattr(verification, "build_gn", lambda _: g)
    monkeypatch.setattr(verification, "verify_axioms", lambda _: report)
    monkeypatch.setattr(verification, "powers", counted_powers)
    monkeypatch.setattr(graphs, "powers", counted_powers)
    entries = verify_gn(n)
    assert all(e.verdict != "mismatch" for e in entries)
    assert len(terms) <= big
    assert sum(terms) <= big * big // 2
    assert len(reads) <= big * big + 8 * big


def test_example_entries_isolated():
    entries = verify_example_tables()
    ids = [e.claim_id for e in entries]
    assert "power-graph-iso[k1,n1]" in ids
    assert "gyration-pattern[g8]" in ids
    by_id = {e.claim_id: e for e in entries}
    assert by_id["power-graph-iso[g8,m1]"].verdict == "match"
    assert "m1 -> g8" in by_id["power-graph-iso[g8,m1]"].note
    assert by_id["gyro-noniso[k1,n1]"].verdict == "match"
    assert by_id["gyro-noniso[g8,m1]"].verdict == "mismatch"


def count_calls(monkeypatch, module, name):
    """Replace module.name in every gyrograph module that holds it with a
    wrapper recording each call's first argument; return the record."""
    original = getattr(module, name)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    for key, mod in list(sys.modules.items()):
        if key == "gyrograph" or key.startswith("gyrograph."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, counting)
    return calls


@pytest.mark.parametrize(("n", "detour_runs"), [(3, 1), (4, 1), (5, 1)])
def test_verify_gn_computes_detour_and_charpoly_once(monkeypatch, n, detour_runs):
    # One detour matrix serves both detour entries; the exact charpoly runs
    # once on the adjacency matrix and once on the pendant part, never
    # again inside the spectral-bounds entry.
    detours = count_calls(monkeypatch, distances, "detour_matrix")
    charpolys = count_calls(monkeypatch, spectral, "char_poly_exact")
    entries = verify_gn(n)
    assert all(e.verdict != "mismatch" for e in entries)
    assert len(detours) == detour_runs
    assert [m.n for m in charpolys] == [2**n, 2**n]


@pytest.mark.parametrize("n", [3, 4, 5])
def test_verify_gn_builds_one_twin_quotient_per_matrix(monkeypatch, n):
    # The charpoly and the spectral radius of P(G(n)) share one quotient
    # and one recurrence; the pendant-part graph gets its own.
    quotients = record_builds(monkeypatch, "twin_quotient", Graph, key=lambda graph: graph.n)
    runs = count_calls(monkeypatch, polynomials, "char_poly")
    entries = verify_gn(n)
    assert all(e.verdict != "mismatch" for e in entries)
    assert quotients == [2**n, 2**n]
    assert len(runs) == 2


@pytest.mark.parametrize("n", [3, 4, 5])
def test_verify_gn_runs_one_bfs(monkeypatch, n):
    # Hosoya, rs-Hosoya, resolving, dds and interior/center entries all
    # read the one shortest-distance matrix.
    bfs = count_calls(monkeypatch, distances, "distance_matrix")
    entries = verify_gn(n)
    assert all(e.verdict != "mismatch" for e in entries)
    assert [graph.n for graph in bfs] == [2**n]


def record_builds(monkeypatch, name, cls=distances.DistanceMatrix, key=lambda dm: dm.kind):
    """Replace the cached view cls.<name> with one that records key(obj)
    for every obj it is built for (by default the kind of every distance
    matrix); return the record."""
    builds = []
    build = getattr(cls, name).func

    def counting(obj):
        builds.append(key(obj))
        return build(obj)

    prop = functools.cached_property(counting)
    prop.__set_name__(cls, name)
    monkeypatch.setattr(cls, name, prop)
    return builds


def test_verify_gn_scans_each_matrix_for_infinity_once(monkeypatch):
    # Every metric invariant asks whether its matrix is finite; the answer
    # is computed once per matrix (one BFS matrix, one detour matrix).
    scans = record_builds(monkeypatch, "is_finite")
    entries = verify_gn(5)
    assert all(e.verdict != "mismatch" for e in entries)
    assert sorted(scans) == ["detour", "shortest"]


def test_verify_gn_builds_each_view_of_a_matrix_once(monkeypatch):
    # Both matrices' distance counts and vertex-to-part maps are built once.
    counts = record_builds(monkeypatch, "counts")
    part_maps = record_builds(monkeypatch, "_part_of")
    entries = verify_gn(5)
    assert all(e.verdict != "mismatch" for e in entries)
    assert sorted(counts) == sorted(part_maps) == ["detour", "shortest"]
