"""Moduli data of torus-invariant pseudoholomorphic subvarieties in the
symplectization of S^1 x S^2.

Subpackages by concern:

* :mod:`sympl_moduli.geometry` -- coordinates, the contact and
  symplectic forms, the almost complex structure, angle inversion;
* :mod:`sympl_moduli.reeb` -- closed Reeb orbit classification and
  parameterization;
* :mod:`sympl_moduli.moduli` -- admissibility and enumeration of the
  two- and three-end moduli labels, boundary structure;
* :mod:`sympl_moduli.invariants` -- double-point counts (closed form
  and root-of-unity oracle), Fredholm indices, asymptotic constants and
  spectra;
* :mod:`sympl_moduli.curves` -- explicit invariant subvarieties and
  profile-cylinder traces;
* :mod:`sympl_moduli.model_maps` -- the holomorphic model maps into
  C* x C* and their double points;
* :mod:`sympl_moduli.budgets` -- the size budgets past which a call
  is refused before any work;
* :mod:`sympl_moduli.catalog` -- the low-index curve table as
  executable checks;
* :mod:`sympl_moduli.cli` -- the ``sympl-moduli`` command.
"""

from .geometry import (BranchId, Point4, Tangent4, apply_J, contact_eval,
                       coord_functions, lambda_of_theta, omega_eval,
                       reeb_vector, theta_from_lambda)
from .invariants import (AsymptoticData, EndDescriptor, GenericSpectrumCase,
                         InvariantReport, PolarSpectrumCase, Side,
                         adjunction_e_pairing, asymptotic_constants,
                         c1_pairing, delta, double_points_bruteforce,
                         double_points_formula, fredholm_index,
                         index_lower_bound, l0_spectrum, m0_of, residue_pairs,
                         sphere_report)
from .moduli import (Label2, Label3, OrderedLabel3, boundary_labels,
                     canonical_pair, enumerate_labels, validate_label2,
                     validate_label3)
from .reeb import (EndClass, OrbitKind, ReebOrbit, ThetaRoots, classify_pair,
                   orbit_point, solve_theta0, solve_theta0_bar, theta_roots)
from .curves import (CurveSpec, ThetaRange, Trace, TraceSample,
                     classify_branches, eval_invariant_curve,
                     integrate_profile, profile_ds_dtheta, s_max, s_of_theta)
from .model_maps import (DoublePoint, ModelMapParams, PhiValue,
                         immersion_residual, phi_double_points, phi_eval)
from .catalog import CatalogEntry, catalog_entries

__version__ = "0.1.0"
