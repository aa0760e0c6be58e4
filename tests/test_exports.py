"""The package's public names, resolved on first use, are kept.

`sympl_moduli/__init__.py` loads a submodule only when one of its names
is first asked for.  Each name listed here must resolve every way it did
when the package imported all its submodules up front, to the object
its submodule defines.
"""

import cmath
import importlib
import linecache
import math
import traceback

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sympl_moduli
import sympl_moduli as sm
from sympl_moduli.errors import SymplModuliError

EXPORTS = {
    "invariants": ["EndDescriptor", "InvariantReport", "Side",
                   "adjunction_e_pairing", "c1_pairing", "delta",
                   "double_points_bruteforce", "double_points_formula",
                   "end_windings", "fredholm_index", "index_lower_bound",
                   "residue_pairs", "sphere_report"],
    "spectra": ["AsymptoticData", "asymptotic_constants", "generic_spectrum",
                "polar_spectrum"],
    "moduli": ["Label2", "Label3", "OrderedLabel3", "boundary_labels",
               "enumerate_labels", "validate_label2", "validate_label3"],
    "reeb": ["EndClass", "OrbitKind", "ReebOrbit", "ThetaRoots",
             "classify_pair", "solve_theta0", "theta_roots"],
    "curves": ["CurveSpec", "ThetaRange", "Trace", "TraceSample",
               "classify_branches", "integrate_profile"],
    "points": ["BranchId", "Point4", "Tangent4", "apply_J", "contact_eval",
               "coord_functions", "eval_invariant_curve", "lambda_of_theta",
               "omega_eval", "orbit_point", "profile_ds_dtheta",
               "reeb_vector", "s_max", "s_of_theta", "theta_from_lambda"],
    "model_maps": ["DoublePoint", "ModelMapParams", "PhiValue",
                   "immersion_residual", "phi_double_points", "phi_eval"],
    "catalog": ["CatalogEntry", "catalog_entries"],
}
NAMES = [(module, name) for module, names in EXPORTS.items()
         for name in names]


def test_sixty_names():
    assert len(NAMES) == len({name for _, name in NAMES}) == 60
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


@pytest.mark.parametrize("module", [*EXPORTS, "budgets", "errors",
                                    "geometry"])
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


#: The hostile entries: ints past the float range and past Python's limit
#: on the digits of an int's text, and the floats at and past the ends of
#: the float range.
INTS = [0, 1, -1, 2, -3, 7, 10 ** 17, -10 ** 17, 10 ** 400, 10 ** 5000,
        -10 ** 5000]
FLOATS = [0.0, -0.0, 5e-324, 1e-300, 0.5, math.pi, 3.0, 1e300, math.inf,
          -math.inf, math.nan]

_int = st.sampled_from(INTS)
_float = st.sampled_from(FLOATS)
_pair = st.tuples(_int, _int)
#: Two pairs, with admissible labels among them, some with huge entries.
_pairs2 = st.one_of(st.tuples(_pair, _pair), st.sampled_from([
    ((1, -1), (1, 7)), ((1, 0), (10 ** 5000, 7)), ((10 ** 5000, 1), (1, 2)),
    ((-10 ** 5000, 1), (1, 2)), ((1, 0), (10 ** 17, 7))]))
#: Three pairs, most of them summing to (0, 0).
_pairs3 = st.one_of(
    st.tuples(_pair, _pair).map(
        lambda xy: (*xy, (-xy[0][0] - xy[1][0], -xy[0][1] - xy[1][1]))),
    st.tuples(_pair, _pair, _pair),
    st.sampled_from([((1, -1), (1, 4), (-2, -3)),
                     ((10 ** 5000, 1), (1, 2), (-10 ** 5000 - 1, -3))]))
_floats4 = st.tuples(_float, _float, _float, _float)
_end = st.tuples(st.sampled_from(sm.Side), _int, st.one_of(st.none(), _int))
#: (example id, its arguments): examples 3 and 4 and a profile.
_spec = st.one_of(st.tuples(st.sampled_from([3, 4]), _float, _float),
                  st.tuples(st.just(5), _int, _int, _int, _float, _float))


def _curve(example, *args):
    if example == 5:
        return sm.CurveSpec.profile(*args)
    return (sm.CurveSpec.example3 if example == 3
            else sm.CurveSpec.example4)(*args)


#: Each exported entry point as (call, strategies of its arguments).  The
#: strategies draw only ints, floats and tuples of them; the call builds
#: the records it needs (a label, a point, a curve), and what it raises
#: while it does is judged as the call's outcome too.
CALLS = {
    "classify_pair": (lambda x: sm.classify_pair(*x), _pair),
    "solve_theta0": (lambda x: sm.solve_theta0(*x), _pair),
    "theta_roots": (lambda x: sm.theta_roots(*x), _pair),
    "orbit_point": (lambda x, upsilon, tau: sm.orbit_point(
        sm.ReebOrbit.generic(*x, upsilon), tau), _pair, _float, _float),
    "asymptotic_constants": (
        lambda x: sm.asymptotic_constants(sm.EndClass(*x)), _pair),
    "classify_branches": (lambda x: sm.classify_branches(*x), _pair),
    "s_of_theta": (lambda x, *floats: sm.s_of_theta(*x, *floats), _pair,
                   _float, _float, _float),
    "profile_ds_dtheta": (lambda x, theta: sm.profile_ds_dtheta(*x, theta),
                          _pair, _float),
    "Label2.make": (lambda xy: sm.Label2.make(*xy), _pairs2),
    "validate_label2": (lambda xy: sm.validate_label2(*xy), _pairs2),
    "double_points_formula": (
        lambda xy: sm.double_points_formula(sm.Label2.make(*xy)), _pairs2),
    "phi_double_points": (lambda xy, r: sm.phi_double_points(
        sm.ModelMapParams(sm.Label2.make(*xy), r)), _pairs2, _float),
    "phi_eval": (lambda xy, r, x, y: sm.phi_eval(
        sm.ModelMapParams(sm.Label2.make(*xy), r), complex(x, y)),
        _pairs2, _float, _float, _float),
    "immersion_residual": (lambda xy, x, y: sm.immersion_residual(
        sm.ModelMapParams(sm.Label2.make(*xy)), complex(x, y)),
        _pairs2, _float, _float),
    "Label3.make": (sm.Label3.make, _pairs3),
    "OrderedLabel3.make": (sm.OrderedLabel3.make, _pairs3, _int),
    "enumerate_labels": (sm.enumerate_labels, _int,
                         st.one_of(st.sampled_from([2, 3]), _int)),
    "c1_pairing": (lambda nu0, ends: sm.c1_pairing(
        nu0, [sm.EndDescriptor.polar(*end) for end in ends]),
        _int, st.lists(_end, max_size=2)),
    "end_windings": (lambda end: sm.end_windings(
        sm.EndDescriptor.polar(*end)), _end),
    "fredholm_index": (lambda chi, c1, ends: sm.fredholm_index(
        chi, c1, [sm.EndDescriptor.polar(*end) for end in ends]),
        _int, _int, st.lists(_end, max_size=2)),
    "generic_spectrum": (sm.generic_spectrum, _float, _int, _int),
    "polar_spectrum": (sm.polar_spectrum, _int, _int),
    "lambda_of_theta": (sm.lambda_of_theta, _float),
    "theta_from_lambda": (sm.theta_from_lambda, _float,
                          st.sampled_from(sm.BranchId)),
    "coord_functions": (lambda p: sm.coord_functions(sm.Point4(*p)),
                        _floats4),
    "contact_eval": (lambda p, v: sm.contact_eval(
        sm.Point4(*p), sm.Tangent4(*v)), _floats4, _floats4),
    "omega_eval": (lambda p, v, w: sm.omega_eval(
        sm.Point4(*p), sm.Tangent4(*v), sm.Tangent4(*w)),
        _floats4, _floats4, _floats4),
    "apply_J": (lambda p, v: sm.apply_J(sm.Point4(*p), sm.Tangent4(*v)),
                _floats4, _floats4),
    "eval_invariant_curve": (lambda spec, tau, u: sm.eval_invariant_curve(
        _curve(*spec), tau, u), _spec, _float, _float),
    "integrate_profile": (lambda x, rid, anchor, n: sm.integrate_profile(
        *x, rid, s_anchor=anchor, n_samples=n), _pair, _int, _float, _int),
}


def _finite(x) -> bool:
    """Whether every float and complex inside x (records, lists) is finite."""
    if isinstance(x, float):
        return math.isfinite(x)
    if isinstance(x, complex):
        return cmath.isfinite(x)
    if isinstance(x, (tuple, list)):
        return all(map(_finite, x))
    return True


def _raiser(exc: BaseException):
    """The package frame that raised exc, and its line: the innermost
    frame, or require_finite's caller, which names the error it raises."""
    frames = list(traceback.walk_tb(exc.__traceback__))
    frame, line = frames[-1]
    if frame.f_code.co_name == "require_finite":
        frame, line = frames[-2]
    return frame, linecache.getline(frame.f_code.co_filename, line).strip()


def _doc(frame) -> str:
    """The docstring of the function running in frame: a method's, else
    its class's (a constructor's checks are the class's), or a module
    function's."""
    name, scope = frame.f_code.co_name, frame.f_locals
    if "cls" in scope or "self" in scope:
        owner = scope["cls"] if "cls" in scope else type(scope["self"])
        return getattr(owner, name).__doc__ or owner.__doc__ or ""
    return frame.f_globals[name].__doc__ or ""


_BIG = 10 ** 5000     # 16,610 bits

#: Calls that raised the builtin ValueError 'Exceeds the limit' while
#: building their own refusal, each with the error it now raises (None:
#: the violations it returns), whose text names the int by its size.
HUGE_INT_REFUSALS = {
    "Label2.make": (lambda: sm.Label2.make((-_BIG, 1), (1, 2)),
                    sm.errors.DomainError),
    "validate_label2": (lambda: sm.validate_label2((-_BIG, 1), (1, 2)),
                        None),
    "Label3.make": (lambda: sm.Label3.make(
        [(_BIG, 1), (1, 2), (-_BIG - 1, -3)]), sm.errors.DomainError),
    "OrderedLabel3.make": (lambda: sm.OrderedLabel3.make(
        [(1, -1), (1, 4), (-2, -3)], which=_BIG), sm.errors.DomainError),
    "enumerate_labels": (lambda: sm.enumerate_labels(_BIG, 2),
                         sm.errors.DomainError),
    "c1_pairing": (lambda: sm.c1_pairing(0, [sm.EndDescriptor.polar(
        sm.Side.CONVEX, 1, winding=_BIG)]), sm.errors.DomainError),
    "polar_spectrum": (lambda: sm.polar_spectrum(1, _BIG),
                       sm.errors.DomainError),
    "phi_double_points": (lambda: sm.phi_double_points(sm.ModelMapParams(
        sm.Label2.make((_BIG, 1), (1, 2)))), sm.errors.DomainError),
    "integrate_profile": (lambda: sm.integrate_profile(
        1, 2, 1, n_samples=_BIG), sm.errors.DomainError),
}


_P = sm.Point4(0.0, 0.0, 1.0, 0.0)
_HUGE = sm.Tangent4(1e308, 1e308, 1e308, 1e308)

#: Calls that a hostile-input draw does not reach, each with the error it
#: raises (None: it returns finite values).  Each ended in a builtin
#: exception or returned nan, inf or eigenvalues for a negative decay
#: constant or a cover count that is not an int.
PINNED_HOSTILE_CALLS = {
    "generic_spectrum(zeta=-1e300)": (
        lambda: sm.generic_spectrum(-1e300, 3, 1), sm.errors.DomainError),
    "generic_spectrum(zeta=-1)": (
        lambda: sm.generic_spectrum(-1.0, 3, 1), sm.errors.DomainError),
    "generic_spectrum(zeta=1.7e308)": (
        lambda: sm.generic_spectrum(1.7e308, 3, 1), None),
    "generic_spectrum(period=2.5)": (
        lambda: sm.generic_spectrum(1.0, 2.5, 1), ValueError),
    "polar_spectrum(m=1.5)": (lambda: sm.polar_spectrum(1.5, 1), ValueError),
    "apply_J": (lambda: sm.apply_J(_P, _HUGE), sm.errors.DomainError),
    "omega_eval": (lambda: sm.omega_eval(
        _P, _HUGE, sm.Tangent4(1e308, -1e308, 1e308, -1e308)),
        sm.errors.DomainError),
    "contact_eval": (lambda: sm.contact_eval(
        sm.Point4(0.0, 0.0, 0.3, 0.0), sm.Tangent4(0.0, 1.7e308, 0.0,
                                                   -1.7e308)),
        sm.errors.DomainError),
}


class TestHostileInput:
    """Each entry point of CALLS, on the hostile ints and floats above,
    returns finite values or refuses: with a package error, or with a
    ValueError that the package raises itself and its docstring names,
    never with one that a builtin raised (math, float(), int-to-text:
    'Exceeds the limit').  Derandomized, and capped at 25 examples a
    call; HUGE_INT_REFUSALS and PINNED_HOSTILE_CALLS pin calls that did
    end otherwise."""

    @pytest.mark.parametrize("name", CALLS)
    @settings(derandomize=True, database=None, deadline=None,
              max_examples=25)
    @given(data=st.data())
    def test_finite_or_refused(self, name, data):
        call, *strategies = CALLS[name]
        args = [data.draw(strategy) for strategy in strategies]
        try:
            out = call(*args)
        except SymplModuliError:
            return
        except ValueError as exc:
            assert "Exceeds the limit" not in str(exc), name
            frame, line = _raiser(exc)
            assert frame.f_globals["__name__"].startswith("sympl_moduli."), (
                name, exc)
            assert line.startswith(("raise ValueError",
                                    "require_finite(ValueError")), (
                name, line, exc)
            assert "ValueError" in _doc(frame), (name, frame.f_code.co_name)
            return
        assert _finite(out), (name, out)

    @pytest.mark.parametrize("name", HUGE_INT_REFUSALS)
    def test_huge_int_named_by_its_size(self, name):
        call, error = HUGE_INT_REFUSALS[name]
        if error is None:
            ok, why = call()
            assert not ok and "<16610-bit int>" in "; ".join(why)
            return
        with pytest.raises(error, match="<1661[01]-bit int>"):
            call()

    @pytest.mark.parametrize("name", PINNED_HOSTILE_CALLS)
    def test_pinned_call_is_finite_or_refused(self, name):
        call, error = PINNED_HOSTILE_CALLS[name]
        if error is None:
            assert _finite(call()), name
            return
        with pytest.raises(error):
            call()
