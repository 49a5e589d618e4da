"""gyrograph: finite gyrogroups, their power graphs, and exact invariants.

Build a gyrogroup (the order-2^n family, a bundled order-8 example, or
any Cayley table), take its power graph, and compute distances, Hosoya
and reciprocal-status Hosoya polynomials, metric dimension and the
resolving polynomial, exact characteristic polynomials and the spectral
radius, planarity and Hamiltonicity with certificates, and isomorphism
witnesses.  Every closed-form invariant ships with a brute-force
verification path (see `gyrograph.verification`).

Each layer module is registered in `sys.modules`, and bound here, through
`importlib.util.LazyLoader`: it is compiled and run on its first attribute
access, so a process pays only for the layers it uses.  The names below
are served from their home modules by `__getattr__` (PEP 562).
"""

import importlib.util
import sys

#: home module -> the names re-exported from it
_EXPORTS = {
    "axioms": ("AxiomReport", "gyration", "gyration_symbol_grid", "verify_axioms"),
    "closed_forms": (
        "dds_detour_summary_closed_form", "dds_summary_closed_form",
        "detour_radius_diameter_closed_form", "hosoya_closed_form",
        "metric_dimension_closed_form", "pair_distance_counts",
        "resolving_polynomial_closed_form", "resolving_sequence_closed_form",
        "rs_hosoya_closed_form", "spectral_bounds_closed_form",
    ),
    "distances": (
        "DistanceMatrix", "EccentricityProfile", "bondy_chvatal_closure",
        "boundary_interior_center", "detour_matrix", "distance_degree_sequence",
        "distance_matrix", "eccentricity_profile", "hosoya_polynomial",
        "reciprocal_status", "reciprocal_status_edge_sums", "reciprocal_status_hosoya",
    ),
    "errors": ("BoundExceededError", "DisconnectedGraphError"),
    "graphs": (
        "Graph", "StructureSummary", "biconnected_components", "classify_gn_shape",
        "induced_subgraph", "power_graph", "to_dot", "to_json",
    ),
    "gyrogroups": (
        "GyroGroup", "Permutation", "build_gn", "bundled_gyrogroup", "cyclic_group",
        "load_table", "parse_cayley_csv", "parse_cayley_json", "powers",
        "read_cayley_file", "relabel", "to_cayley_csv", "to_cayley_json",
    ),
    "isomorphism": (
        "IsomorphismWitness", "find_isomorphism", "gyro_isomorphic", "verify_isomorphism",
    ),
    "polynomials": ("IntPolynomial",),
    "resolving": (
        "ResolvingProfile", "TwinPartition", "is_resolving", "metric_dimension",
        "resolving_polynomial", "twin_partition",
    ),
    "spectral": (
        "SpectralSummary", "char_poly_exact", "closed_form_charpoly_gn",
        "spectral_radius", "verify_spectral_bounds",
    ),
    "structure": (
        "HamiltonicityResult", "PlanarityResult", "check_embedding", "is_hamiltonian",
        "is_planar", "trace_faces", "verify_kuratowski",
    ),
    "verification": ("ReportEntry", "VerificationReport", "run_verification"),
}
#: re-exported name -> home module
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_HOME)


def _register(module: str):
    """Put gyrograph.<module> in sys.modules without running it."""
    spec = importlib.util.find_spec(f"{__name__}.{module}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    lazy = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = lazy
    spec.loader.exec_module(lazy)
    return lazy


for _module in _EXPORTS:
    globals()[_module] = _register(_module)
del _module


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_HOME[name]], name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME})


__version__ = "0.1.0"
