"""The package's public names, resolved on first use, are kept.

`sympl_moduli/__init__.py` loads a submodule only when one of its names
is first asked for.  Each name listed here must resolve every way it did
when the package imported all its submodules up front, to the object
its submodule defines.
"""

import importlib

import pytest

import sympl_moduli

EXPORTS = {
    "geometry": ["BranchId", "Point4", "Tangent4", "apply_J", "contact_eval",
                 "coord_functions", "lambda_of_theta", "omega_eval",
                 "reeb_vector", "theta_from_lambda"],
    "invariants": ["AsymptoticData", "EndDescriptor", "GenericSpectrumCase",
                   "InvariantReport", "PolarSpectrumCase", "Side",
                   "adjunction_e_pairing", "asymptotic_constants",
                   "c1_pairing", "delta", "double_points_bruteforce",
                   "double_points_formula", "fredholm_index",
                   "index_lower_bound", "l0_spectrum", "m0_of",
                   "residue_pairs", "sphere_report"],
    "moduli": ["Label2", "Label3", "OrderedLabel3", "boundary_labels",
               "canonical_pair", "enumerate_labels", "validate_label2",
               "validate_label3"],
    "reeb": ["EndClass", "OrbitKind", "ReebOrbit", "ThetaRoots",
             "classify_pair", "orbit_point", "solve_theta0",
             "solve_theta0_bar", "theta_roots"],
    "curves": ["CurveSpec", "ThetaRange", "Trace", "TraceSample",
               "classify_branches", "eval_invariant_curve",
               "integrate_profile", "profile_ds_dtheta", "s_max",
               "s_of_theta"],
    "model_maps": ["DoublePoint", "ModelMapParams", "PhiValue",
                   "immersion_residual", "phi_double_points", "phi_eval"],
    "catalog": ["CatalogEntry", "catalog_entries"],
}
NAMES = [(module, name) for module, names in EXPORTS.items()
         for name in names]


def test_sixty_three_names():
    assert len(NAMES) == len({name for _, name in NAMES}) == 63
    assert sorted(sympl_moduli.__all__) == sorted(name for _, name in NAMES)


@pytest.mark.parametrize("module,name", NAMES,
                         ids=[name for _, name in NAMES])
def test_name_resolves_to_its_definition(module, name):
    defined = getattr(importlib.import_module(f"sympl_moduli.{module}"), name)
    namespace = {}
    exec(f"from sympl_moduli import {name}", namespace)
    assert namespace[name] is defined
    assert getattr(sympl_moduli, name) is defined
    assert name in dir(sympl_moduli)


@pytest.mark.parametrize("module", [*EXPORTS, "budgets", "errors"])
def test_submodule_attribute(module):
    assert getattr(sympl_moduli, module) is importlib.import_module(
        f"sympl_moduli.{module}")


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        sympl_moduli.no_such_name
    with pytest.raises(ImportError):
        exec("from sympl_moduli import no_such_name", {})


def test_version():
    assert sympl_moduli.__version__ == "0.1.0"
