"""Command-line interface.

Subcommands:
  build         construct a gyrogroup (family member or table file), run the
                axiom check, and emit the canonical JSON Cayley table
  invariants    compute selected graph invariants of a power graph
  verify-paper  run the full closed-form verification report

Exit codes: 0 success / all match, 1 axiom failure or mismatch, 2 usage or
precondition error, 3 search bound exceeded.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .distances import (
    DETOUR_BLOCK_BOUND,
    bondy_chvatal_closure,
    boundary_interior_center,
    detour_matrix,
    distance_degree_sequence,
    distance_matrix,
    eccentricity_profile,
    hosoya_polynomial,
    reciprocal_status_edge_sums,
)
from .errors import BoundExceededError
from .graphs import classify_gn_shape, export, power_graph
from .gyrogroups import (
    GyroGroup,
    build_gn,
    read_cayley_file,
    to_cayley_json,
    verify_axioms,
)
from .polynomials import IntPolynomial
from .resolving import metric_dimension, resolving_polynomial, twin_partition
from .spectral import adjacency_matrix, char_poly_exact, spectral_radius
from .structure import is_hamiltonian, is_planar
from .verification import VerificationReport, run_verification, verify_example_tables

INVARIANT_FLAGS = (
    "distances",
    "detour",
    "hosoya",
    "rs_hosoya",
    "dds",
    "twins",
    "resolving",
    "metric_dimension",
    "spectral",
    "planarity",
    "hamiltonicity",
    "power_graph",
)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "build":
            return _cmd_build(args)
        if args.command == "invariants":
            return _cmd_invariants(args)
        if args.command == "verify-paper":
            return _cmd_verify(args)
    except BoundExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    parser.error("no command given")
    return 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gyrograph",
        description="finite gyrogroups, power graphs, and exact graph invariants",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_input_flags(p: argparse.ArgumentParser) -> None:
        src = p.add_mutually_exclusive_group(required=True)
        src.add_argument("--gn", type=int, metavar="N",
                         help="build the order-2^N family member (N >= 3)")
        src.add_argument("--table", metavar="PATH",
                         help="load a Cayley table from a .csv or .json file")

    b = sub.add_parser("build", help="construct a gyrogroup and check its axioms")
    add_input_flags(b)
    b.add_argument("--out", metavar="PATH", help="write the canonical JSON table here")

    inv = sub.add_parser("invariants", help="compute power-graph invariants")
    add_input_flags(inv)
    for flag in INVARIANT_FLAGS:
        inv.add_argument(
            f"--{flag.replace('_', '-')}", action="store_true", dest=flag
        )
    inv.add_argument("--all", action="store_true", help="select every invariant")
    inv.add_argument(
        "--format",
        choices=("both", "text", "json", "dot"),
        default="both",
        help="'both' (default) prints the JSON payload followed by the "
        "human table derived from it",
    )
    inv.add_argument("--out", metavar="PATH", help="write output here instead of stdout")
    inv.add_argument("--tol", type=_tolerance, default=1e-10)
    inv.add_argument("--detour-bound", type=_count, default=DETOUR_BLOCK_BOUND)

    vp = sub.add_parser("verify-paper", help="verify all closed forms against "
                        "direct computation")
    vp.add_argument("--n", default="3..4", metavar="RANGE",
                    help="single n or inclusive range like 3..5 (default 3..4)")
    vp.add_argument("--examples", action="store_true",
                    help="only the bundled-table demonstrations")
    vp.add_argument("--format", choices=("text", "json"), default="text")
    vp.add_argument("--out", metavar="PATH")
    return parser


def _tolerance(text: str) -> float:
    """A --tol value: finite and > 0.  Nothing reads it, since the
    spectral radius is the exact top root of a characteristic polynomial,
    correctly rounded, with no tolerance; the flag stays so that existing
    command lines keep working."""
    try:
        tol = float(text)
    except ValueError:
        tol = math.nan
    if not (math.isfinite(tol) and tol > 0):
        raise argparse.ArgumentTypeError(f"expected a finite number > 0, got {text!r}")
    return tol


def _count(text: str) -> int:
    """A --detour-bound value: an integer >= 0."""
    if not text.strip().isdecimal():
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")
    return int(text)


def _load_input(args: argparse.Namespace) -> GyroGroup:
    if args.gn is not None:
        return build_gn(args.gn)
    return read_cayley_file(args.table)


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# build
# ---------------------------------------------------------------------------


def _cmd_build(args: argparse.Namespace) -> int:
    g = _load_input(args)
    table_json = to_cayley_json(g) + "\n"
    report = verify_axioms(g)
    if args.out:
        _emit(table_json, args.out)
        stream = sys.stdout
    else:
        sys.stdout.write(table_json)
        stream = sys.stderr
    axiom_flags = (
        "left_identity",
        "left_inverse",
        "gyroassociativity",
        "left_loop",
        "gyr_is_automorphism",
    )
    lines = [
        f"order: {g.order}",
        f"identity: {g.identity}",
    ]
    for key, value in report.to_dict().items():
        if key != "counterexamples":
            lines.append(f"{key}: {value}")
    for axiom, witness in report.counterexamples:
        if axiom in axiom_flags:
            lines.append(f"counterexample[{axiom}]: {witness}")
    print("\n".join(lines), file=stream)
    return 0 if report.is_gyrogroup else 1


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------


def _cmd_invariants(args: argparse.Namespace) -> int:
    g = _load_input(args)
    graph = power_graph(g)
    named = [f for f in INVARIANT_FLAGS if getattr(args, f)]
    selected = list(INVARIANT_FLAGS) if args.all or not named else named

    if args.format == "dot":
        _emit(export(graph, "dot"), args.out)
        return 0

    result: dict = {
        "order": g.order,
        "edges": graph.edge_count,
    }
    shortest = _ShortestDistances(graph)
    for flag in selected:
        if flag == "metric_dimension" and "psi" in result.get("resolving", {}):
            # The resolving profile already holds psi; do not search again.
            result[flag] = result["resolving"]["psi"]
            continue
        try:
            result[flag] = _compute_invariant(flag, graph, shortest, args)
        except BoundExceededError as exc:
            # A refusal fails the command only for a flag the user named;
            # one implied by --all (or by no flags) is reported as skipped.
            if flag in named:
                raise
            result[flag] = {"skipped": str(exc)}

    payload = json.dumps(result, sort_keys=True, indent=2, default=str) + "\n"
    if args.format == "json":
        _emit(payload, args.out)
    elif args.format == "text":
        _emit(_render_invariants(json.loads(payload)), args.out)
    else:  # both: the JSON contract plus the table derived from it
        _emit(payload + "\n" + _render_invariants(json.loads(payload)), args.out)
    return 0


class _ShortestDistances:
    """The graph's shortest-distance matrix, built by the first invariant
    that reads it: one BFS serves every flag, and flags that read no
    distances run none (a traced run shows the BFS inside that invariant)."""

    def __init__(self, graph) -> None:
        self.graph, self.matrix = graph, None

    def __getattr__(self, name: str):
        if self.matrix is None:
            self.matrix = distance_matrix(self.graph)
        return getattr(self.matrix, name)


def _compute_invariant(flag: str, graph, shortest, args) -> object:
    if flag == "distances":
        return _eccentricities(shortest)
    if flag == "detour":
        return _eccentricities(detour_matrix(graph, block_bound=args.detour_bound))
    if flag == "hosoya":
        p = hosoya_polynomial(shortest)
        return {"polynomial": str(p), "coefficients": p.to_dict()}
    if flag == "rs_hosoya":
        sums = reciprocal_status_edge_sums(shortest)
        if any(s.denominator != 1 for s in sums):
            # Non-integer edge sums make no polynomial in x; report their
            # exact multiset.
            return {"edge_sums": {str(s): count for s, count in sums.items()}}
        p = IntPolynomial({int(s): count for s, count in sums.items()})
        return {"polynomial": str(p), "coefficients": p.to_dict()}
    if flag == "dds":
        dds = distance_degree_sequence(shortest)
        return {
            "summary": [
                {"tuple": list(t), "count": c} for t, c in dds.summary
            ]
        }
    if flag == "twins":
        tp = twin_partition(graph)
        return [
            {"class": sorted(cls), "kind": kind} for cls, kind in tp.classes
        ]
    if flag == "metric_dimension":
        return metric_dimension(shortest)
    if flag == "resolving":
        profile = resolving_polynomial(shortest)
        return json.loads(profile.to_json())
    if flag == "spectral":
        adj = adjacency_matrix(graph)
        return {
            "charpoly": str(char_poly_exact(adj)),
            "spectral_radius": spectral_radius(adj),
        }
    if flag == "planarity":
        result = is_planar(graph)
        return json.loads(result.to_json())
    if flag == "hamiltonicity":
        ham = is_hamiltonian(graph)
        return {
            "hamiltonian": ham.is_hamiltonian,
            "cycle": list(ham.cycle) if ham.cycle else None,
            "reason": ham.reason,
        }
    if flag == "power_graph":
        shape = classify_gn_shape(graph)
        closure = bondy_chvatal_closure(graph)
        _, interior, center = boundary_interior_center(shortest)
        return {
            "edges": [list(e) for e in graph.sorted_edges()],
            "gn_shape": shape.matches_gn_shape,
            "interior": sorted(interior),
            "center": sorted(center),
            "closure_is_fixed_point": closure.edges == graph.edges,
        }
    raise AssertionError(f"unhandled invariant {flag}")


def _eccentricities(dm) -> dict:
    prof = eccentricity_profile(dm)
    return {
        "radius": prof.radius,
        "diameter": prof.diameter,
        "eccentricities": list(prof.eccentricities),
    }


def _render_invariants(data: dict) -> str:
    """Human-readable rendering derived from the JSON payload."""
    lines = [f"order: {data['order']}", f"edges: {data['edges']}"]
    for key in sorted(k for k in data if k not in ("order", "edges")):
        value = data[key]
        if isinstance(value, dict) and "polynomial" in value:
            lines.append(f"{key}: {value['polynomial']}")
        elif isinstance(value, (int, float, str)):
            lines.append(f"{key}: {value}")
        else:
            lines.append(f"{key}: {json.dumps(value, sort_keys=True)}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# verify-paper
# ---------------------------------------------------------------------------


def _parse_range(spec: str) -> list[int]:
    if ".." in spec:
        lo, hi = spec.split("..", 1)
        values = list(range(int(lo), int(hi) + 1))
    else:
        values = [int(spec)]
    if not values or any(v < 3 for v in values):
        raise ValueError(f"range {spec!r} must contain integers >= 3")
    return values


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.examples:
        report = VerificationReport(entries=tuple(verify_example_tables()))
    else:
        report = run_verification(_parse_range(args.n), include_examples=True)
    text = report.to_json() + "\n" if args.format == "json" else report.render_text()
    _emit(text, args.out)
    return 1 if report.has_mismatch else 0


if __name__ == "__main__":
    sys.exit(main())
