"""Tests of the benchmark's own machinery: python -m pytest bench"""

from __future__ import annotations

import json
import subprocess
import sys
from types import SimpleNamespace

import pytest

import child
import run
from speed import REFERENCE_KERNEL_S, Speed

sys.path.insert(0, str(run.SRC))

from gyrograph.errors import BoundExceededError  # noqa: E402


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_names()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("exc", [BoundExceededError("too big"), RuntimeError("boom")])
def test_wrapper_reraises_unchanged(exc):
    spans: list = []

    def fails(graph):
        raise exc

    wrapped = child.wrap("m.fails", fails, spans, [])
    with pytest.raises(type(exc)) as caught:
        wrapped(None)
    assert caught.value is exc
    (name, start, end, parent, order, refused), = spans
    assert (name, parent, refused) == ("m.fails", None, isinstance(exc, ValueError))


def test_missing_function_is_reported(monkeypatch):
    import gyrograph.cli  # noqa: F401

    monkeypatch.setattr(child, "LAYERS", {"distances": {"no_such_function": ("calls",)}})
    assert child.install([], []) == ["distances.no_such_function"]


def test_traced_cli_records_nested_spans(tmp_path):
    spans_path = tmp_path / "spans.json"
    cmd = [sys.executable, str(run.CHILD), str(spans_path), "trace",
           "invariants", "--gn", "3", "--resolving", "--format", "json"]
    proc = subprocess.run(cmd, env=run.child_env(), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["resolving"]["psi"] == 5
    trace = json.loads(spans_path.read_text())
    assert trace["missing"] == [] and trace["samples"]
    names = [s[0] for s in trace["spans"]]
    assert "gyrograph" not in names and "resolving.resolving_polynomial" in names
    stats: dict = {}
    run.layer_stats(trace, stats)
    assert stats["gyrogroups.build_gn.calls"] == 1
    assert stats["resolving.resolving_polynomial.max_order"] == 8
    # distance_matrix runs inside resolving_polynomial, so it is a child span.
    top = {s[0] for s in trace["spans"] if s[3] is None}
    assert "distances.distance_matrix" not in top


def test_self_time_subtracts_children():
    trace = {"t0": 0.0, "t1": 10.0, "samples": [], "spans": [
        ["a.outer", 1.0, 5.0, None, 8, False],
        ["a.inner", 2.0, 3.5, 0, 16, True],
    ]}
    stats: dict = {}
    run.layer_stats(trace, stats)
    assert stats["a.outer.self_s"] == pytest.approx(2.5)
    assert stats["a.inner.self_s"] == pytest.approx(1.5)
    assert stats["a.inner.refused"] == 1 and stats["a.outer.refused"] == 0
    assert stats["cli.self_s"] == pytest.approx(6.0)


def test_speed_scales_each_stretch_by_the_kernel_time_at_its_start():
    # Half speed from t=0 (the kernel took twice its reference time), full
    # speed from t=1; before the first sample the first speed holds.
    speed = Speed([(0.0, 2 * REFERENCE_KERNEL_S), (1.0, REFERENCE_KERNEL_S)])
    assert speed.scaled(0.0, 2.0) == pytest.approx(0.5 + 1.0)
    assert speed.scaled(-1.0, 0.5) == pytest.approx(0.5 + 0.25)
    assert Speed([]).scaled(1.0, 3.0) == pytest.approx(2.0)


def test_pass_time_takes_each_command_at_its_median():
    shared = ("build", "g7.csv")
    set_a = [SimpleNamespace(argv=("invariants", "a.csv")), SimpleNamespace(argv=shared)]
    set_b = [SimpleNamespace(argv=("invariants", "b.csv")), SimpleNamespace(argv=shared)]
    passes = [
        run.PassRun(op_times={set_a[0].argv: (3.0, 0), shared: (5.0, 0)}),
        run.PassRun(op_times={set_b[0].argv: (1.0, 0), shared: (4.0, 0)}),
        run.PassRun(op_times={set_a[0].argv: (2.0, 0), shared: (6.0, 0)}),
    ]
    # Set a: 2.5 + 5, set b: 1 + 5; the shared command counts at its median in both.
    assert run.pass_time(passes, [set_a, set_b]) == pytest.approx(6.75)


def test_input_sets_depend_only_on_the_seed(tmp_path):
    import ops

    def files(seed, where):
        where.mkdir()
        sets = ops.input_sets("tables", seed, where)
        return [[op.argv for op in s] for s in sets], {
            f.name: f.read_text() for f in where.iterdir()}

    first, again, other = (files(1, tmp_path / "a"), files(1, tmp_path / "b"),
                           files(2, tmp_path / "c"))
    assert first[1] == again[1] and first[1] != other[1]
    argvs = first[0]
    assert len(argvs) == ops.INPUT_SETS["tables"]
    # The valid build op is shared by every set; the other inputs are not.
    assert argvs[0][-2] == argvs[1][-2]
    assert argvs[0][0] != argvs[1][0] and argvs[0][-1] != argvs[1][-1]
