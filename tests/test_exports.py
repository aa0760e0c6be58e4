"""The package's public names, resolved on first use, are kept.

`sympl_moduli/__init__.py` loads a submodule only when one of its names
is first asked for.  Each name listed here must resolve every way it did
when the package imported all its submodules up front, to the object
its submodule defines.  README's worked example runs as written.
"""

import cmath
import importlib
import math
import re
from collections.abc import Sequence
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sympl_moduli
import sympl_moduli as sm
from sympl_moduli.errors import DomainError, SymplModuliError

EXPORTS = {
    "invariants": ["EndDescriptor", "InvariantReport", "Side",
                   "adjunction_e_pairing", "c1_pairing",
                   "double_points_bruteforce", "double_points_formula",
                   "end_windings", "fredholm_index", "index_lower_bound",
                   "residue_pairs", "sphere_report"],
    "spectra": ["AsymptoticData", "asymptotic_constants", "generic_spectrum",
                "polar_spectrum"],
    "moduli": ["Label2", "Label3", "OrderedLabel3", "boundary_labels",
               "delta", "enumerate_labels", "validate_label2",
               "validate_label3"],
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


def test_delta_has_one_entry_point():
    assert sympl_moduli.delta is sympl_moduli.moduli.delta
    assert not hasattr(sympl_moduli.Label2, "delta")
    assert not hasattr(sympl_moduli.invariants, "delta")


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
    """Whether every float and complex inside x (records, lists and
    other sequences, such as a trace's rows) is finite."""
    if isinstance(x, float):
        return math.isfinite(x)
    if isinstance(x, complex):
        return cmath.isfinite(x)
    if isinstance(x, Sequence) and not isinstance(x, str):
        return all(map(_finite, x))
    return True


_BIG = 10 ** 5000     # 16,610 bits

#: Calls that raised the builtin ValueError 'Exceeds the limit' while
#: building their own refusal, or (validate_label2) the violations it
#: returns; the text names the int by its size.
HUGE_INT_REFUSALS = {
    "Label2.make": lambda: sm.Label2.make((-_BIG, 1), (1, 2)),
    "validate_label2": lambda: sm.validate_label2((-_BIG, 1), (1, 2)),
    "Label3.make": lambda: sm.Label3.make(
        [(_BIG, 1), (1, 2), (-_BIG - 1, -3)]),
    "OrderedLabel3.make": lambda: sm.OrderedLabel3.make(
        [(1, -1), (1, 4), (-2, -3)], which=_BIG),
    "enumerate_labels": lambda: sm.enumerate_labels(_BIG, 2),
    "c1_pairing": lambda: sm.c1_pairing(0, [sm.EndDescriptor.polar(
        sm.Side.CONVEX, 1, winding=_BIG)]),
    "polar_spectrum": lambda: sm.polar_spectrum(1, _BIG),
    "phi_double_points": lambda: sm.phi_double_points(sm.ModelMapParams(
        sm.Label2.make((_BIG, 1), (1, 2)))),
    "integrate_profile": lambda: sm.integrate_profile(
        1, 2, 1, n_samples=_BIG),
}


_P = sm.Point4(0.0, 0.0, 1.0, 0.0)
_HUGE = sm.Tangent4(1e308, 1e308, 1e308, 1e308)

#: Calls that a hostile-input draw does not reach, each with the words
#: of the rule that refuses it (None: it returns finite values).  Each
#: ended in a builtin exception or returned nan, inf or eigenvalues for
#: a negative decay constant or a cover count that is not an int.
PINNED_HOSTILE_CALLS = {
    "generic_spectrum(zeta=-1e300)": (
        lambda: sm.generic_spectrum(-1e300, 3, 1),
        "zeta = -1e+300 < 0: a decay constant is never negative"),
    "generic_spectrum(zeta=-1)": (
        lambda: sm.generic_spectrum(-1.0, 3, 1),
        "zeta = -1.0 < 0: a decay constant is never negative"),
    "generic_spectrum(zeta=1.7e308)": (
        lambda: sm.generic_spectrum(1.7e308, 3, 1), None),
    "generic_spectrum(period=2.5)": (
        lambda: sm.generic_spectrum(1.0, 2.5, 1),
        "period 2.5 is not an int >= 1"),
    "polar_spectrum(m=1.5)": (lambda: sm.polar_spectrum(1.5, 1),
                              "m 1.5 is not an int >= 1"),
    "apply_J": (lambda: sm.apply_J(_P, _HUGE), "v_s = -inf is not finite"),
    "omega_eval": (lambda: sm.omega_eval(
        _P, _HUGE, sm.Tangent4(1e308, -1e308, 1e308, -1e308)),
        "omega = nan is not finite"),
    "contact_eval": (lambda: sm.contact_eval(
        sm.Point4(0.0, 0.0, 0.3, 0.0), sm.Tangent4(0.0, 1.7e308, 0.0,
                                                   -1.7e308)),
        "alpha = inf is not finite"),
}


class TestHostileInput:
    """Each entry point of CALLS, on the hostile ints and floats above,
    returns finite values or refuses with a package error, never with a
    builtin exception (math, float(), int-to-text: 'Exceeds the limit').
    Derandomized, and capped at 25 examples a call; HUGE_INT_REFUSALS
    and PINNED_HOSTILE_CALLS pin calls that did end otherwise."""

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
        assert _finite(out), (name, out)

    @pytest.mark.parametrize("name", HUGE_INT_REFUSALS)
    def test_huge_int_named_by_its_size(self, name):
        call = HUGE_INT_REFUSALS[name]
        if name == "validate_label2":
            ok, why = call()
            assert not ok and "<16610-bit int>" in "; ".join(why)
            return
        with pytest.raises(DomainError, match="<1661[01]-bit int>"):
            call()

    @pytest.mark.parametrize("name", PINNED_HOSTILE_CALLS)
    def test_pinned_call_is_finite_or_refused(self, name):
        call, rule = PINNED_HOSTILE_CALLS[name]
        if rule is None:
            assert _finite(call()), name
            return
        with pytest.raises(DomainError, match=f"^{re.escape(rule)}$"):
            call()


class TestReadme:
    def test_worked_example_runs(self, capsys):
        # In a fresh namespace, as a reader would run it: its asserts
        # hold, and it prints the label's sphere report.
        text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = text.split("\n### A worked example\n", 1)[1]
        block = section.split("```python\n", 1)[1].split("\n```", 1)[0]
        exec(compile(block, "README.md", "exec"), {"__name__": "__readme__"})
        report = sm.sphere_report(sm.Label2.make((4, 1), (1, 1)))
        assert capsys.readouterr().out == f"{report}\n"
