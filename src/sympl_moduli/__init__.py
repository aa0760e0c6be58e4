"""Moduli data of torus-invariant pseudoholomorphic subvarieties in the
symplectization of S^1 x S^2.

Submodules by concern:

* :mod:`sympl_moduli.geometry` -- coordinates, the guarded conformal
  factor with f and h, the cone factor 1 - 3 cos^2 theta, the angle wrap;
* :mod:`sympl_moduli.reeb` -- closed Reeb orbit classification and
  orbit angles;
* :mod:`sympl_moduli.moduli` -- admissibility and enumeration of the
  two- and three-end moduli labels, boundary structure;
* :mod:`sympl_moduli.invariants` -- double-point counts (closed form
  and root-of-unity oracle), the windings of an end, Fredholm indices;
* :mod:`sympl_moduli.spectra` -- decay constants and asymptotic-operator
  spectra at an orbit;
* :mod:`sympl_moduli.curves` -- the invariant families' specs, the
  closed form of s(theta) and profile-cylinder traces;
* :mod:`sympl_moduli.points` -- points: the curves' points and s at an
  angle, orbit points, and at a point the contact and symplectic forms,
  the Reeb field and the almost complex structure; angle inversion.  No
  command loads it;
* :mod:`sympl_moduli.model_maps` -- the holomorphic model maps into
  C* x C* and their double points;
* :mod:`sympl_moduli.budgets` -- the size budgets past which a call
  is refused before any work;
* :mod:`sympl_moduli.catalog` -- the low-index curve table as
  executable checks;
* :mod:`sympl_moduli.cli` -- the ``sympl-moduli`` command.

The package's names are resolved on first use (PEP 562): ``import
sympl_moduli`` loads a submodule only when one of its names, or the
submodule itself, is first asked for, so a command pays only for the
modules it runs.
"""

import importlib

# curves stays eager: the benchmark times `import sympl_moduli` and reads
# the sympl_moduli.curves line of `python -X importtime`.  Drop this line
# once that probe imports the submodules it times by name.
from . import curves  # noqa: F401

_SUBMODULE_EXPORTS = {
    "invariants": ("EndDescriptor", "InvariantReport", "Side",
                   "adjunction_e_pairing", "c1_pairing",
                   "double_points_bruteforce", "double_points_formula",
                   "end_windings", "fredholm_index", "index_lower_bound",
                   "residue_pairs", "sphere_report"),
    "spectra": ("AsymptoticData", "asymptotic_constants", "generic_spectrum",
                "polar_spectrum"),
    "moduli": ("Label2", "Label3", "OrderedLabel3", "boundary_labels",
               "delta", "enumerate_labels", "validate_label2",
               "validate_label3"),
    "reeb": ("EndClass", "OrbitKind", "ReebOrbit", "ThetaRoots",
             "classify_pair", "solve_theta0", "theta_roots"),
    "curves": ("CurveSpec", "ThetaRange", "Trace", "TraceSample",
               "classify_branches", "integrate_profile"),
    "points": ("BranchId", "Point4", "Tangent4", "apply_J", "contact_eval",
               "coord_functions", "eval_invariant_curve", "lambda_of_theta",
               "omega_eval", "orbit_point", "profile_ds_dtheta",
               "reeb_vector", "s_max", "s_of_theta", "theta_from_lambda"),
    "model_maps": ("DoublePoint", "ModelMapParams", "PhiValue",
                   "immersion_residual", "phi_double_points", "phi_eval"),
    "catalog": ("CatalogEntry", "catalog_entries"),
}

#: Exported name -> the submodule that defines it.
_EXPORTS = {name: module for module, names in _SUBMODULE_EXPORTS.items()
            for name in names}

#: The submodules an attribute lookup may load (``sympl_moduli.moduli``).
_SUBMODULES = frozenset(_SUBMODULE_EXPORTS) | {"budgets", "errors",
                                               "geometry"}

__all__ = sorted(_EXPORTS)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))
