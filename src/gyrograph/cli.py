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
from contextlib import nullcontext
from itertools import chain
from typing import Iterable

from . import (
    axioms,
    distances,
    graphs,
    gyrogroups,
    polynomials,
    resolving,
    spectral,
    structure,
    verification,
)
from .errors import BoundExceededError

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
    args = _build_parser().parse_args(argv)  # a command is required
    run = {"build": _cmd_build, "invariants": _cmd_invariants, "verify-paper": _cmd_verify}
    try:
        return run[args.command](args)
    except BoundExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


class _Parser(argparse.ArgumentParser):
    """Its errors, and its subparsers', are one `error:` line and exit 2."""

    def error(self, message: str):
        self.exit(2, f"error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gyrograph",
        description="finite gyrogroups, power graphs, and exact graph invariants",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_input_flags(p: argparse.ArgumentParser) -> None:
        src = p.add_mutually_exclusive_group(required=True)
        src.add_argument("--gn", metavar="N",
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

    vp = sub.add_parser("verify-paper", help="verify all closed forms against "
                        "direct computation")
    scope = vp.add_mutually_exclusive_group()
    scope.add_argument("--n", default="3..4", metavar="RANGE",
                       help="single n or inclusive range like 3..5 (default 3..4)")
    scope.add_argument("--examples", action="store_true",
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


def _load_input(args: argparse.Namespace) -> gyrogroups.GyroGroup:
    if args.gn is None:
        return gyrogroups.read_cayley_file(args.table)
    if (n := gyrogroups.read_int(args.gn, "--gn")) is None:
        raise ValueError(f"--gn {args.gn!r} is not an integer")
    return gyrogroups.build_gn(n)


def _encode(payload: dict) -> str:
    """The one JSON encoding of a command's payload."""
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _emit(chunks: Iterable[str], out: str | None) -> None:
    with open(out, "w", encoding="utf-8") if out else nullcontext(sys.stdout) as fh:
        fh.writelines(chunks)


# ---------------------------------------------------------------------------
# build
# ---------------------------------------------------------------------------


def _cmd_build(args: argparse.Namespace) -> int:
    g = _load_input(args)
    report = axioms.verify_axioms(g)
    # The table is written one row at a time after the check, to stdout or
    # --out; the report goes to the other stream.
    _emit(chain(gyrogroups.cayley_json_chunks(g), ["\n"]), args.out)
    stream = sys.stdout if args.out else sys.stderr
    axiom_flags = ("left_identity", "left_inverse", "gyroassociativity", "left_loop",
                   "gyr_is_automorphism")
    lines = [f"order: {g.order}", f"identity: {g.identity}"]
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
    graph = graphs.power_graph(g)
    named = [f for f in INVARIANT_FLAGS if getattr(args, f)]
    selected = list(INVARIANT_FLAGS) if args.all or not named else named

    if args.format == "dot":
        _emit([graphs.to_dot(graph)], args.out)
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
            result[flag] = _compute_invariant(flag, graph, shortest)
        except BoundExceededError as exc:
            # A refusal fails the command only for a flag the user named;
            # one implied by --all (or by no flags) is reported as skipped.
            if flag in named:
                raise
            result[flag] = {"skipped": str(exc)}

    if args.format == "json":
        _emit([_encode(result)], args.out)
    elif args.format == "text":
        _emit([_render_invariants(result)], args.out)
    else:  # both: the JSON contract plus the table read from the same dict
        _emit([_encode(result), "\n", _render_invariants(result)], args.out)
    return 0


class _ShortestDistances:
    """The graph's shortest-distance matrix, built by the first invariant
    that reads it: one BFS serves every flag, and flags that read no
    distances run none (a traced run shows the BFS inside that invariant)."""

    def __init__(self, graph) -> None:
        self.graph, self.matrix = graph, None

    def __getattr__(self, name: str):
        if self.matrix is None:
            self.matrix = distances.distance_matrix(self.graph)
        return getattr(self.matrix, name)


def _compute_invariant(flag: str, graph, shortest) -> object:
    if flag == "distances":
        return _eccentricities(shortest)
    if flag == "detour":
        return _eccentricities(distances.detour_matrix(graph))
    if flag == "hosoya":
        p = distances.hosoya_polynomial(shortest)
        return {"polynomial": str(p), "coefficients": p.to_dict()}
    if flag == "rs_hosoya":
        scale, sums = distances._edge_status_sums(shortest)  # ints over one scale
        if any(s % scale for s in sums):
            # Non-integer edge sums make no polynomial in x; report their
            # exact multiset.
            from fractions import Fraction
            return {"edge_sums": {str(Fraction(s, scale)): c for s, c in sums.items()}}
        p = polynomials.IntPolynomial({s // scale: count for s, count in sums.items()})
        return {"polynomial": str(p), "coefficients": p.to_dict()}
    if flag == "dds":
        dds = distances.distance_degree_sequence(shortest)
        return {
            "summary": [
                {"tuple": list(t), "count": c} for t, c in dds.summary
            ]
        }
    if flag == "twins":
        tp = resolving.twin_partition(graph)
        return [
            {"class": sorted(cls), "kind": kind} for cls, kind in tp.classes
        ]
    if flag == "metric_dimension":
        return resolving.metric_dimension(shortest)
    if flag == "resolving":
        return resolving.resolving_polynomial(shortest).to_dict()
    if flag == "spectral":
        return {
            "charpoly": str(spectral.char_poly_exact(graph)),
            "spectral_radius": spectral.spectral_radius(graph),
        }
    if flag == "planarity":
        return structure.is_planar(graph).to_dict()
    if flag == "hamiltonicity":
        ham = structure.is_hamiltonian(graph)
        return {
            "hamiltonian": ham.is_hamiltonian,
            "cycle": list(ham.cycle) if ham.cycle else None,
            "reason": ham.reason,
        }
    if flag == "power_graph":
        shape = graphs.classify_gn_shape(graph)
        closure = distances.bondy_chvatal_closure(graph)
        _, interior, center = distances.boundary_interior_center(shortest)
        return {
            "edges": [list(e) for e in graph.sorted_edges()],
            "gn_shape": shape.matches_gn_shape,
            "interior": sorted(interior),
            "center": sorted(center),
            "closure_is_fixed_point": closure is graph,
        }
    raise AssertionError(f"unhandled invariant {flag}")


def _eccentricities(dm) -> dict:
    prof = distances.eccentricity_profile(dm)
    return {
        "radius": prof.radius,
        "diameter": prof.diameter,
        "eccentricities": list(prof.eccentricities),
    }


def _render_invariants(data: dict) -> str:
    """Human-readable rendering of the payload dict: a polynomial string
    where the value carries one, a scalar as is, anything else as compact
    JSON."""
    lines = [f"order: {data['order']}", f"edges: {data['edges']}"]
    for key in sorted(k for k in data if k not in ("order", "edges")):
        value = data[key]
        if isinstance(value, dict) and isinstance(value.get("polynomial"), str):
            lines.append(f"{key}: {value['polynomial']}")
        elif isinstance(value, (int, float, str)):
            lines.append(f"{key}: {value}")
        else:
            lines.append(f"{key}: {json.dumps(value, sort_keys=True)}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# verify-paper
# ---------------------------------------------------------------------------


def _parse_range(spec: str) -> range:
    lo, dots, hi = spec.partition("..")
    lo, hi = (gyrogroups.read_int(end, "verify-paper --n") for end in (lo, hi if dots else lo))
    if lo is None or hi is None or not 3 <= lo <= hi:
        raise ValueError(f"range {spec!r} must contain integers >= 3")
    gyrogroups.check_gn(hi)  # before any entry runs
    return range(lo, hi + 1)


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.examples:
        report = verification.VerificationReport(
            entries=tuple(verification.verify_example_tables())
        )
    else:
        report = verification.run_verification(_parse_range(args.n))
    text = _encode(report.to_dict()) if args.format == "json" else report.render_text()
    _emit([text], args.out)
    return 1 if report.has_mismatch else 0


if __name__ == "__main__":
    sys.exit(main())
