"""gyrograph: finite gyrogroups, their power graphs, and exact invariants.

Build a gyrogroup (the order-2^n family, a bundled order-8 example, or
any Cayley table), take its power graph, and compute distances, Hosoya
and reciprocal-status Hosoya polynomials, metric dimension and the
resolving polynomial, exact characteristic polynomials and the spectral
radius, planarity and Hamiltonicity with certificates, and isomorphism
witnesses.  Every closed-form invariant ships with a brute-force
verification path (see `gyrograph.verification`).
"""

from .closed_forms import (
    dds_detour_summary_closed_form,
    dds_summary_closed_form,
    detour_radius_diameter_closed_form,
    hosoya_closed_form,
    metric_dimension_closed_form,
    pair_distance_counts,
    resolving_polynomial_closed_form,
    resolving_sequence_closed_form,
    rs_hosoya_closed_form,
    spectral_bounds_closed_form,
)
from .distances import (
    DistanceMatrix,
    EccentricityProfile,
    bondy_chvatal_closure,
    boundary_interior_center,
    detour_matrix,
    distance_degree_sequence,
    distance_matrix,
    eccentricity_profile,
    hosoya_polynomial,
    reciprocal_status,
    reciprocal_status_edge_sums,
    reciprocal_status_hosoya,
)
from .errors import BoundExceededError, DisconnectedGraphError
from .graphs import (
    Graph,
    StructureSummary,
    biconnected_components,
    classify_gn_shape,
    export,
    induced_subgraph,
    power_graph,
    to_dot,
    to_json,
)
from .gyrogroups import (
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
    power_closure,
    power_sequence,
    read_cayley_file,
    relabel,
    to_cayley_csv,
    to_cayley_json,
    verify_axioms,
)
from .polynomials import IntPolynomial
from .resolving import (
    ResolvingProfile,
    TwinPartition,
    is_resolving,
    metric_dimension,
    resolving_polynomial,
    twin_partition,
)
from .spectral import (
    SpectralSummary,
    char_poly_exact,
    closed_form_charpoly_gn,
    spectral_radius,
    verify_spectral_bounds,
)
from .structure import (
    HamiltonicityResult,
    IsomorphismWitness,
    PlanarityResult,
    check_embedding,
    find_isomorphism,
    gyro_isomorphic,
    is_hamiltonian,
    is_planar,
    trace_faces,
    verify_isomorphism,
    verify_kuratowski,
)
from .verification import ReportEntry, VerificationReport, run_verification

__version__ = "0.1.0"
