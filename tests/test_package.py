"""The package surface: the re-exported names and the layer modules, both
served by `gyrograph/__init__.py` without running a layer before its first
use."""

import importlib
import sys

import pytest

import gyrograph

#: Every name `gyrograph` re-exports from its layers.
EXPORTS = """
AxiomReport BoundExceededError DisconnectedGraphError DistanceMatrix
EccentricityProfile Graph GyroGroup HamiltonicityResult IntPolynomial
IsomorphismWitness Permutation PlanarityResult ReportEntry ResolvingProfile
SpectralSummary StructureSummary TwinPartition VerificationReport
biconnected_components bondy_chvatal_closure boundary_interior_center build_gn
bundled_gyrogroup char_poly_exact check_embedding classify_gn_shape
closed_form_charpoly_gn cyclic_group dds_detour_summary_closed_form
dds_summary_closed_form detour_matrix detour_radius_diameter_closed_form
distance_degree_sequence distance_matrix eccentricity_profile
find_isomorphism gyration gyration_symbol_grid gyro_isomorphic
hosoya_closed_form hosoya_polynomial induced_subgraph is_hamiltonian is_planar
is_resolving load_table metric_dimension metric_dimension_closed_form
pair_distance_counts parse_cayley_csv parse_cayley_json power_graph powers
read_cayley_file reciprocal_status
reciprocal_status_edge_sums reciprocal_status_hosoya relabel
resolving_polynomial resolving_polynomial_closed_form
resolving_sequence_closed_form rs_hosoya_closed_form run_verification
spectral_bounds_closed_form spectral_radius to_cayley_csv to_cayley_json to_dot
to_json trace_faces twin_partition verify_axioms verify_isomorphism
verify_kuratowski verify_spectral_bounds
""".split()

LAYERS = ("axioms", "closed_forms", "distances", "errors", "graphs", "gyrogroups",
          "isomorphism", "polynomials", "resolving", "spectral", "structure",
          "verification")

#: Names that moved out of a layer, which that layer still serves: old home
#: -> (new home, names).
MOVED = {
    "gyrogroups": ("axioms", ("AxiomReport", "gyration", "gyration_symbol_grid",
                              "verify_axioms")),
    "structure": ("isomorphism", ("IsomorphismWitness", "find_isomorphism",
                                  "gyro_isomorphic", "verify_isomorphism")),
}


def test_all_is_the_exported_set():
    assert len(EXPORTS) == 75
    assert sorted(gyrograph.__all__) == EXPORTS


@pytest.mark.parametrize("name", EXPORTS)
def test_each_name_is_the_object_its_home_module_defines(name):
    obj = getattr(gyrograph, name)
    home = obj.__module__
    assert home.startswith("gyrograph.") and home.count(".") == 1
    assert getattr(importlib.import_module(home), name) is obj


def test_dir_lists_every_name_and_layer():
    assert {*EXPORTS, *LAYERS, "__version__"} <= set(dir(gyrograph))


def test_star_import_binds_every_name():
    namespace: dict = {}
    exec("from gyrograph import *", namespace)
    for name in EXPORTS:
        assert namespace[name] is getattr(gyrograph, name), name


@pytest.mark.parametrize("layer", LAYERS)
def test_each_layer_attribute_is_the_registered_module(layer):
    module = getattr(gyrograph, layer)
    assert module is sys.modules[f"gyrograph.{layer}"]
    assert module is importlib.import_module(f"gyrograph.{layer}")


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        gyrograph.no_such_name  # noqa: B018
    assert not hasattr(gyrograph, "cli_main")
    with pytest.raises(ImportError):
        from gyrograph import no_such_name  # noqa: F401


@pytest.mark.parametrize("old_home", MOVED)
def test_moved_names_are_served_from_their_old_home(old_home):
    new_home, names = MOVED[old_home]
    old = importlib.import_module(f"gyrograph.{old_home}")
    new = importlib.import_module(f"gyrograph.{new_home}")
    for name in names:
        assert getattr(old, name) is getattr(new, name) is getattr(gyrograph, name), name
        assert getattr(new, name).__module__ == new.__name__, name
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        old.no_such_name  # noqa: B018
