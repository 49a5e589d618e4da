"""Value semantics of the validated types (Permutation, GyroGroup, Graph,
DistanceMatrix) and the serialised form of the result records."""

import copy
import pickle

import pytest

from gyrograph import (
    Graph,
    GyroGroup,
    IntPolynomial,
    Permutation,
    build_gn,
    cyclic_group,
    distance_matrix,
    is_planar,
    load_table,
    power_graph,
    resolving_polynomial,
    to_cayley_json,
    verify_axioms,
    verify_isomorphism,
    verify_spectral_bounds,
)
from gyrograph.distances import INF, DistanceMatrix
from gyrograph.verification import ReportEntry, VerificationReport


def make_values():
    """Two independently built copies of one value of each type."""
    return [
        lambda: Permutation((1, 2, 0)),
        lambda: GyroGroup(order=2, table=((0, 1), (1, 0)), identity=0),
        lambda: Graph.cycle(4),
        lambda: DistanceMatrix(
            "detour", (((0,), "untwinned"), ((1,), "untwinned")), ((0, INF), (INF, 0))
        ),
        lambda: DistanceMatrix("shortest", (((0, 1), "adjacent"),), ((1,),)),
    ]


@pytest.mark.parametrize("make", make_values())
def test_equal_values_compare_and_hash_equal(make):
    a, b = make(), make()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


@pytest.mark.parametrize("make", make_values())
def test_fields_cannot_be_assigned_or_deleted(make):
    value = make()
    name = value._fields[0]
    with pytest.raises(AttributeError, match="cannot assign"):
        setattr(value, name, getattr(value, name))
    with pytest.raises(AttributeError, match="cannot assign"):
        value.extra = 1
    with pytest.raises(AttributeError, match="cannot delete"):
        delattr(value, name)
    assert value == make()


@pytest.mark.parametrize("make", make_values())
def test_copy_and_pickle_give_an_equal_value(make):
    value = make()
    for other in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert other == value and hash(other) == hash(value)
        assert type(other) is type(value)


def test_repr_names_each_field():
    assert repr(Permutation((1, 0))) == "Permutation(map=(1, 0))"
    assert repr(cyclic_group(2)) == (
        "GyroGroup(order=2, table=((0, 1), (1, 0)), identity=0, labels=('0', '1'))"
    )
    assert repr(Graph(2, frozenset({(1, 0)}))) == (
        "Graph(n=2, edges=frozenset({(0, 1)}), labels=('0', '1'))"
    )
    assert repr(DistanceMatrix("shortest", (((0, 1), "adjacent"),), ((1,),))) == (
        "DistanceMatrix(kind='shortest', parts=(((0, 1), 'adjacent'),), table=((1,),))"
    )


def test_values_of_different_types_are_unequal():
    assert Permutation((0, 1)) != (0, 1)
    assert Graph(1, ()) != DistanceMatrix("shortest", (((0,), "untwinned"),), ((0,),))
    assert Permutation((0, 1)) != Graph(2, frozenset())


def test_graph_equality_ignores_the_adjacency_stores():
    a = Graph(3, frozenset({(0, 1), (1, 2)}))
    b = Graph(3, frozenset({(2, 1), (1, 0)}))  # normalised to the same edges
    assert a == b and hash(a) == hash(b)
    a.__dict__.update(twin_parts=(), blocks=())  # cached views, not values
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
    assert Graph(3, frozenset({(0, 1)})) != Graph(3, frozenset({(0, 2)}))
    assert Graph(2, frozenset(), ("a", "b")) != Graph(2, frozenset())


def test_distance_matrix_caches_is_finite_without_changing_equality():
    dm = distance_matrix(Graph(3, frozenset({(0, 1)})))
    fresh = distance_matrix(Graph(3, frozenset({(0, 1)})))
    assert dm.is_finite is False
    assert "is_finite" in vars(dm) and "is_finite" not in vars(fresh)
    assert dm == fresh and hash(dm) == hash(fresh)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Permutation((0, 0)), "permutation image is not a bijection on 0..N-1"),
        (lambda: GyroGroup(2, ((0, 1),), 0), "table size does not match order"),
        (lambda: GyroGroup(0, (), 0), "table size does not match order"),
        (lambda: GyroGroup(2, iter(((0, 1),)), 0), "table size does not match order"),
        (lambda: GyroGroup(2, ((0, 1), (1,)), 0), "table is not square"),
        (lambda: GyroGroup(2, ((0, 1), (1, 2)), 0), "table entry 2 out of range 0..1"),
        (lambda: GyroGroup(2, (b"\0\1", b"\1\2"), 0), "table entry 2 out of range 0..1"),
        (lambda: GyroGroup(2, ((0, 1), (1, 0)), 1), "row 1 is not a left identity row"),
        (lambda: GyroGroup(2, ((0, 1), (1, 0)), 2), "row 2 is not a left identity row"),
        (lambda: GyroGroup(2, ((0, 1), (1, 0.5)), 0), "table entries must be integers"),
        (lambda: GyroGroup(2, ((0, 1), (1, "0")), 0), "table entries must be integers"),
        (lambda: load_table([[0, 1.0], [1.0, 0]]), "table entries must be integers"),
        (lambda: load_table([[1.0, 0], [0, 1.5]]), "table entries must be integers"),
        (lambda: GyroGroup(2, ((0, 1), (1, 0)), 0, ("a",)), "label count does not match order"),
        (lambda: Graph(-1, frozenset()), "vertex count must be non-negative"),
        (lambda: Graph(2, frozenset({(0, 2)})), r"edge \(0,2\) out of range"),
        (lambda: Graph(2, frozenset({(1, 1)})), "self-loop at 1"),
        (lambda: Graph(2, frozenset(), ("a",)), "label count does not match vertex count"),
        # A negative vertex used to wrap to the last row.
        (lambda: Graph.path(4).has_edge(-1, 2), "vertex -1 out of range"),
        (lambda: Graph.path(4).has_edge(2, -1), "vertex -1 out of range"),
        (lambda: Graph.path(4).has_edge(0, 4), "vertex 4 out of range"),
        (lambda: Graph.path(4).degree(-1), "vertex -1 out of range"),
        (lambda: Graph.path(4).neighbors(-1), "vertex -1 out of range"),
        (lambda: distance_matrix(Graph.path(4))[-1, 0], "vertex -1 out of range"),
        (lambda: distance_matrix(Graph.path(4))[0, 4], "vertex 4 out of range"),
        (lambda: IntPolynomial({1.5: 2}), "polynomial exponents and coefficients must be integers"),
        (lambda: IntPolynomial({0: 1.7}), "polynomial exponents and coefficients must be integers"),
        (lambda: IntPolynomial({"2": 3}), "polynomial exponents and coefficients must be integers"),
    ],
)
def test_constructors_raise_the_documented_messages(build, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        build()


def test_gyrogroup_stores_bool_entries_as_ints():
    g = load_table([[False, True], [True, False]])
    assert g.table == ((0, 1), (1, 0))
    assert all(type(v) is int for row in g.table for v in row)
    assert to_cayley_json(g) == '{"order": 2, "table": [[0, 1], [1, 0]]}'


def test_gyrogroup_accepts_rows_given_as_bytes():
    g = GyroGroup(3, (b"\0\1\2", b"\1\2\0", b"\2\0\1"), 0)
    assert g == cyclic_group(3)
    assert load_table([b"\1\0", b"\0\1"]).table == ((1, 0), (0, 1))
    assert GyroGroup(1, (b"\0",), 0).table == ((0,),)


def test_gyrogroup_fills_default_labels():
    g = GyroGroup(order=3, table=cyclic_group(3).table, identity=0)
    assert g.labels == ("0", "1", "2")
    assert GyroGroup(3, g.table, 0, ("x", "y", "z")).labels == ("x", "y", "z")


# ---------------------------------------------------------------------------
# Records: the serialised forms, pinned as the frozen dataclasses wrote them
# ---------------------------------------------------------------------------


def test_axiom_report_to_dict():
    rows = [[(i + j) % 4 for j in range(4)] for i in range(4)]
    rows[1][2] = rows[2][1] = 0
    assert verify_axioms(load_table(rows)).to_dict() == {
        "left_identity_ok": True,
        "left_inverse_ok": True,
        "gyroassociativity_ok": False,
        "left_loop_ok": False,
        "gyr_is_automorphism_ok": False,
        "gyrocommutative": False,
        "is_group": False,
        "is_gyrogroup": False,
        "counterexamples": [
            ["gyroassociativity", [0, 1, 1]],
            ["gyroassociativity", [0, 2, 3]],
            ["gyroassociativity", [0, 3, 3]],
            ["left_loop", [0, 1]],
            ["left_loop", [0, 2]],
            ["left_loop", [0, 3]],
            ["gyr_is_automorphism", [0, 1]],
            ["gyr_is_automorphism", [0, 2]],
            ["gyr_is_automorphism", [0, 3]],
            ["gyrocommutative", [0, 1]],
        ],
    }


def test_record_json_forms():
    graph = power_graph(build_gn(3))
    assert verify_spectral_bounds(graph).to_dict() == {
        "spectral_radius": 3.3722813232690143,
        "bound_lower": 3.0,
        "bound_upper": 5.0,
        "satisfied": True,
    }
    assert resolving_polynomial(distance_matrix(graph)).to_dict() == {
        "polynomial": {"5": 12, "6": 19, "7": 8, "8": 1}, "psi": 5,
        "sequence": [12, 19, 8, 1], "witness_basis": [1, 2, 4, 5, 6],
    }
    assert is_planar(Graph.complete(5)).to_dict() == {
        "edges": [[0, 1], [0, 2], [0, 3], [0, 4], [1, 2], [1, 3], [1, 4],
                  [2, 3], [2, 4], [3, 4]],
        "kind": "K5", "planar": False,
    }
    assert is_planar(Graph.cycle(4)).to_dict() == {
        "planar": True, "rotation": [[1, 3], [0, 2], [1, 3], [0, 2]],
    }
    witness = verify_isomorphism(Graph.cycle(4), Graph.cycle(4), (1, 2, 3, 0))
    assert (list(witness.map.map), witness.valid) == ([1, 2, 3, 0], True)


def test_verification_report_json_and_text():
    report = VerificationReport(
        entries=(
            ReportEntry("a", "s", "1", "2", "mismatch", "n"),
            ReportEntry("b", "t", "x", "x", "match"),
        )
    )
    assert report.to_dict() == {
        "entries": [
            {"claim_id": "a", "computed": "2", "expected": "1", "note": "n",
             "statement": "s", "verdict": "mismatch"},
            {"claim_id": "b", "computed": "x", "expected": "x", "note": "",
             "statement": "t", "verdict": "match"},
        ],
        "summary": {"match": 1, "mismatch": 1, "skipped": 0, "typo-corrected": 0},
    }
    assert report.render_text() == (
        "[mismatch      ] a  s\n"
        "                  expected: 1\n"
        "                  computed: 2\n"
        "                  note: n\n"
        "[match         ] b  t\n"
        "summary: 1 match, 1 mismatch, 0 typo-corrected, 0 skipped\n"
    )
    assert VerificationReport().entries == ()
    assert not VerificationReport().has_mismatch
