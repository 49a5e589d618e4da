"""Workload definitions: seeded inputs, the CLI ops of one pass, and the
correctness check, refusal tally and negative control of each op.

A check returns a list of problems (empty when the output is correct).  A
negative control alters a correct output the way a wrong program could and
must make the check report a problem.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import networkx as nx
import numpy as np

from gyrograph import closed_forms as cf
from gyrograph.gyrogroups import (
    Permutation,
    build_gn,
    cyclic_group,
    load_table,
    relabel,
    to_cayley_csv,
)
from gyrograph.spectral import closed_form_charpoly_gn

PAPER_SEED_FILE = Path(__file__).with_name("paper_seed.json")

#: Input sets each seed fixes per workload.  Every run covers every set,
#: however fast the program is, so two commits are timed on the same inputs.
#: Detour work on a relabelled G(4) table depends on the labelling, and the
#: axiom check's work on a corrupted table on where the corrupted entry
#: lies, so `tables` averages over four of each instead of resting on one.
INPUT_SETS = {"paper": 1, "tables": 4}

#: Tolerance passed to the Z28 op and used to check its spectral radius.
SPECTRAL_TOL = 1e-10

#: Z28 runs every invariant but --detour (order 28 > the CLI detour bound)
#: and --rs-hosoya, which cyclic tables refuse: `invariants --all` exits 2
#: on them because the reciprocal-status edge sums are half-integers.
Z28_FLAGS = (
    "--distances", "--hosoya", "--dds", "--twins", "--resolving",
    "--metric-dimension", "--spectral", "--planarity", "--hamiltonicity",
    "--power-graph",
)


@dataclass(frozen=True)
class Op:
    name: str
    argv: tuple[str, ...]
    expect_rc: int
    #: (stdout, stderr) -> problems
    check: Callable[[str, str], list[str]]
    #: stdout -> (results requested, results refused by an order bound)
    tally: Callable[[str], tuple[int, int]]
    #: (stdout, stderr) -> altered (stdout, stderr) the check must reject
    control: Callable[[str, str], tuple[str, str]]


def _relabelled(g, rng: random.Random):
    perm = list(range(g.order))
    rng.shuffle(perm)
    return relabel(g, Permutation(tuple(perm)))


def _write(path: Path, text: str) -> str:
    path.write_text(text, encoding="utf-8")
    return str(path)


def input_sets(workload: str, seed: int, workdir: Path) -> list[list[Op]]:
    """The ops of each input set, with input files written under `workdir`.

    In `tables` the `build` op on the valid G(7) table is the same in every
    set, so it runs in every pass and its median has the most samples; the
    `invariants` ops and the corrupted table differ between sets."""
    if workload == "paper":
        return [[paper_op()]]
    if workload == "tables":
        rng = random.Random(f"build:{seed}")
        g = _relabelled(build_gn(7), rng)
        rows = [list(r) for r in g.table]
        valid = build_op("build-g7", _write(workdir / "g7.csv", to_cayley_csv(g)), rows, 0)
        return [invariants_ops(random.Random(f"tables:{seed}:{i}"), i, workdir)
                + [valid, corrupted_build_op(rows, g.identity, rng, i, workdir)]
                for i in range(INPUT_SETS[workload])]
    raise ValueError(f"unknown workload {workload!r}")


def invariants_ops(rng: random.Random, index: int, workdir: Path) -> list[Op]:
    ops = []
    for n in (3, 4, 5):
        path = _write(workdir / f"g{n}-{index}.csv", to_cayley_csv(_relabelled(build_gn(n), rng)))
        ops.append(gn_invariants_op(n, path))
    z = _relabelled(cyclic_group(28), rng)
    ops.append(cyclic_invariants_op(_write(workdir / f"z28-{index}.csv", to_cayley_csv(z)), z))
    return ops


def corrupted_build_op(rows: list[list[int]], identity: int, rng: random.Random,
                       index: int, workdir: Path) -> Op:
    bad = corrupt(rows, identity, rng)
    path = _write(workdir / f"g7bad-{index}.csv", to_cayley_csv(load_table(bad)))
    return build_op("build-g7-corrupt", path, bad, 1)


def corrupt(rows: list[list[int]], identity: int, rng: random.Random) -> list[list[int]]:
    """Change one entry off the identity row and column.  Neither the old nor
    the new value is the identity, so every element keeps a left inverse and
    the axiom check reports counterexamples instead of refusing the table."""
    n = len(rows)
    while True:
        a, b = rng.randrange(n), rng.randrange(n)
        if identity not in (a, b) and rows[a][b] != identity:
            break
    new = rng.choice([v for v in range(n) if v not in (identity, rows[a][b])])
    out = [list(r) for r in rows]
    out[a][b] = new
    return out


# ---------------------------------------------------------------------------
# paper: verify-paper --n 3..6
# ---------------------------------------------------------------------------


def paper_op() -> Op:
    seed = json.loads(PAPER_SEED_FILE.read_text(encoding="utf-8"))
    return Op(
        name="verify-paper",
        argv=("verify-paper", "--n", "3..6", "--format", "json"),
        expect_rc=seed["exit_code"],
        check=lambda out, err: check_paper(out, seed["entries"]),
        tally=tally_paper,
        control=flip_verdict,
    )


def check_paper(out: str, seed_entries: list[list[str]]) -> list[str]:
    """Same entry ids as the seed commit, and each verdict equal to the seed's,
    except that an entry the seed skipped may now match."""
    report = json.loads(out)
    entries = report["entries"]
    ids = [e["claim_id"] for e in entries]
    want_ids = [cid for cid, _ in seed_entries]
    if ids != want_ids:
        return [f"entry ids differ from the seed: {sorted(set(ids) ^ set(want_ids))}"]
    problems = []
    for e, (cid, want) in zip(entries, seed_entries):
        got = e["verdict"]
        if got != want and not (want == "skipped" and got == "match"):
            problems.append(f"{cid}: verdict {got}, expected {want}")
    counts: dict[str, int] = {}
    for e in entries:
        counts[e["verdict"]] = counts.get(e["verdict"], 0) + 1
    if any(report["summary"].get(k, 0) != v for k, v in counts.items()):
        problems.append(f"summary {report['summary']} does not count the entries")
    return problems


def tally_paper(out: str) -> tuple[int, int]:
    entries = json.loads(out)["entries"]
    return len(entries), sum(e["verdict"] == "skipped" for e in entries)


def flip_verdict(out: str, err: str) -> tuple[str, str]:
    report = json.loads(out)
    entry = next(e for e in report["entries"] if e["verdict"] == "match")
    entry["verdict"] = "mismatch"
    report["summary"]["match"] -= 1
    report["summary"]["mismatch"] += 1
    return json.dumps(report), err


# ---------------------------------------------------------------------------
# tables: invariants on relabelled G(n) and on Z28
# ---------------------------------------------------------------------------


def gn_invariants_op(n: int, path: str) -> Op:
    return Op(
        name=f"invariants-g{n}",
        argv=("invariants", "--table", path, "--all", "--format", "json"),
        expect_rc=0,
        check=lambda out, err: check_gn_invariants(json.loads(out), n),
        tally=tally_invariants,
        control=change_coefficient,
    )


def check_gn_invariants(d: dict, n: int) -> list[str]:
    """Every label-invariant field against the closed forms for G(n)."""
    m = 2 ** (n - 1)
    dds = {tuple(s["tuple"]): s["count"] for s in d["dds"]["summary"]}
    lo, hi = cf.spectral_bounds_closed_form(n)
    expected = {
        "order": (d["order"], 2**n),
        "edges": (d["edges"], m * (m - 1) // 2 + m),
        "distances": ((d["distances"]["radius"], d["distances"]["diameter"]), (1, 2)),
        "hosoya": (d["hosoya"]["coefficients"], cf.hosoya_closed_form(n).to_dict()),
        "rs_hosoya": (d["rs_hosoya"]["coefficients"], cf.rs_hosoya_closed_form(n).to_dict()),
        "metric_dimension": (d["metric_dimension"], cf.metric_dimension_closed_form(n)),
        "resolving.psi": (d["resolving"]["psi"], cf.metric_dimension_closed_form(n)),
        "resolving.sequence": (
            tuple(d["resolving"]["sequence"]), cf.resolving_sequence_closed_form(n)
        ),
        "resolving.polynomial": (
            d["resolving"]["polynomial"], cf.resolving_polynomial_closed_form(n).to_dict()
        ),
        "spectral.charpoly": (d["spectral"]["charpoly"], str(closed_form_charpoly_gn(n))),
        "spectral.radius_in_bounds": (lo < d["spectral"]["spectral_radius"] <= hi, True),
        "dds": (dds, cf.dds_summary_closed_form(n)),
        "planarity": (d["planarity"]["planar"], n == 3),
        "hamiltonicity": (d["hamiltonicity"]["hamiltonian"], False),
        "power_graph.gn_shape": (d["power_graph"]["gn_shape"], True),
    }
    if "skipped" not in d["detour"]:
        expected["detour"] = (
            (d["detour"]["radius"], d["detour"]["diameter"]),
            cf.detour_radius_diameter_closed_form(n),
        )
    return [f"{k}: got {got}, expected {want}" for k, (got, want) in expected.items()
            if got != want]


def tally_invariants(out: str) -> tuple[int, int]:
    fields = {k: v for k, v in json.loads(out).items() if k not in ("order", "edges")}
    refused = sum(isinstance(v, dict) and "skipped" in v for v in fields.values())
    return len(fields), refused


def change_coefficient(out: str, err: str) -> tuple[str, str]:
    d = json.loads(out)
    coeffs = d["hosoya"]["coefficients"]
    coeffs["1"] += 1
    return json.dumps(d), err


def cyclic_invariants_op(path: str, g) -> Op:
    graph = reference_power_graph(g.table)
    return Op(
        name="invariants-z28",
        argv=("invariants", "--table", path, *Z28_FLAGS,
              "--tol", repr(SPECTRAL_TOL), "--format", "json"),
        expect_rc=0,
        check=lambda out, err: check_cyclic_invariants(json.loads(out), graph),
        tally=tally_invariants,
        control=change_coefficient,
    )


def reference_power_graph(table) -> nx.Graph:
    """The power graph of a group, built from its table: u ~ v when one is a
    power of the other."""
    n = len(table)
    graph = nx.Graph()
    graph.add_nodes_from(range(n))
    for a in range(n):
        x = a
        while True:
            if x != a:
                graph.add_edge(a, x)
            x = table[x][a]
            if x == a:
                break
    return graph


def check_cyclic_invariants(d: dict, graph: nx.Graph) -> list[str]:
    """Z28 has no closed forms here, so check against independent answers:
    the power graph, its distances, planarity and the top eigenvalue."""
    problems = []
    n = graph.number_of_nodes()
    edges = sorted(sorted(e) for e in graph.edges())
    if d["power_graph"]["edges"] != edges or d["edges"] != len(edges):
        problems.append("power-graph edges differ from the table's power graph")
    dist = dict(nx.all_pairs_shortest_path_length(graph))
    ecc = [max(dist[v].values()) for v in range(n)]
    if d["distances"]["eccentricities"] != ecc:
        problems.append("eccentricities differ from BFS")
    pairs: dict[str, int] = {}
    for u in range(n):
        for v in range(u, n):
            key = str(dist[u][v])
            pairs[key] = pairs.get(key, 0) + 1
    if d["hosoya"]["coefficients"] != pairs:
        problems.append(f"hosoya {d['hosoya']['coefficients']} != pair counts {pairs}")
    ham = d["hamiltonicity"]
    cycle = ham["cycle"] or []
    if not (
        ham["hamiltonian"]
        and sorted(cycle) == list(range(n))
        and all(graph.has_edge(cycle[i - 1], cycle[i]) for i in range(n))
    ):
        problems.append("no valid Hamiltonian cycle in the power graph")
    if d["planarity"]["planar"] != nx.check_planarity(graph)[0]:
        problems.append("planarity disagrees with networkx")
    top = float(np.linalg.eigvalsh(nx.to_numpy_array(graph, nodelist=range(n)))[-1])
    if abs(d["spectral"]["spectral_radius"] - top) > SPECTRAL_TOL:
        problems.append(f"spectral radius {d['spectral']['spectral_radius']} != {top}")
    basis = d["resolving"]["witness_basis"]
    vectors = {tuple(dist[v][s] for s in basis) for v in range(n)}
    if not (d["metric_dimension"] == d["resolving"]["psi"] == len(basis)
            and len(vectors) == n):
        problems.append("resolving witness basis is not a metric basis of size psi")
    return problems


# ---------------------------------------------------------------------------
# tables, continued: build on a valid and a corrupted G(7) table
# ---------------------------------------------------------------------------


def build_op(name: str, path: str, rows: list[list[int]], expect_rc: int) -> Op:
    return Op(
        name=name,
        argv=("build", "--table", path),
        expect_rc=expect_rc,
        check=lambda out, err: check_build(out, err, rows, valid=expect_rc == 0),
        tally=lambda out: (1, 0),
        control=drop_counterexamples if expect_rc else change_entry,
    )


def check_build(out: str, err: str, rows: list[list[int]], valid: bool) -> list[str]:
    problems = []
    emitted = json.loads(out)
    if emitted["table"] != rows or emitted["order"] != len(rows):
        problems.append("emitted table differs from the input")
    lines = err.splitlines()
    witnesses = [ln for ln in lines if ln.startswith("counterexample[")]
    if f"is_gyrogroup: {valid}" not in lines:
        problems.append(f"report does not say is_gyrogroup: {valid}")
    if valid == bool(witnesses):
        problems.append(f"{len(witnesses)} counterexample lines for a "
                        f"{'valid' if valid else 'corrupted'} table")
    return problems


def drop_counterexamples(out: str, err: str) -> tuple[str, str]:
    kept = [ln for ln in err.splitlines() if not ln.startswith("counterexample[")]
    return out, "\n".join(kept) + "\n"


def change_entry(out: str, err: str) -> tuple[str, str]:
    d = json.loads(out)
    row = d["table"][1]
    row[0], row[1] = row[1], row[0]
    return json.dumps(d), err
