"""Holomorphic model maps of the thrice-punctured sphere into C* x C*.

A label is read only through its pairs(), as in invariants: the two
pairs (p, p'), (q, q') of a two-end label, or the first two pairs of an
ordered three-end label, whose third pair -(p+q, p'+q') is the end at
infinity of the same sphere.  For either the model map is

    phi(z) = (a r^{p+q} z^{-p} (1-z)^{-q},
              a' r^{p'+q'} z^{-p'} (1-z)^{-q'}),

defined on C - {0, 1} with |a| = |a'| = 1 and a scale r >= 1.  Writing
the two factors as lambda = e^{u - i t} and lambda' = e^{v - i phi}
produces log coordinates obeying the exact identities

    q v - q' u = -Delta ln(r/|z|),
    p v - p' u =  Delta ln(r/|1-z|).

phi is an immersion: a singular point would need p/z - q/(1-z) and
p'/z - q'/(1-z) to vanish together, impossible when Delta != 0.

Distinct z != w hit the same image iff z^p (1-z)^q = w^p (1-w)^q and
z^{p'} (1-z)^{q'} = w^{p'} (1-w)^{q'}; any such pair has w = eta z and
1 - w = eta' (1 - z) with eta, eta' distinct Delta-th roots of unity,
neither equal to 1, constrained by eta^p eta'^q = eta^{p'} eta'^{q'} = 1.
Given such a root pair the double point is the closed form

    z = (1 - eta'^{-1}) / (1 - eta eta'^{-1}),     w = eta z,

with w the complex conjugate of z.  Double points are therefore found
by exact modular enumeration of residue pairs followed by the closed
form, never by two-dimensional numerical root search.  Each point is
then checked to the caller's relative residual tolerance tol (default
1e-9; the CLI's SYMPL_MODULI_TOL), in one of two ways.

Where the label's powers of z and 1 - z are normal floats (below
1021 / log2(1/sin(pi/Delta)), since |z| and |1 - z| lie in
[sin(pi/Delta), 1/sin(pi/Delta)]) and both sides of each equality are
finite normal floats, the residual is the direct quotient: the larger
of the equalities' relative gaps |x - y| / max(|x|, |y|).

Elsewhere a power or a side keeps too few bits to be compared, or has
no float value, and the point is certified instead.  First the exponent
relation is checked exactly, in the integers: p a + q b = p' a + q' b
= 0 (mod Delta), which holds iff eta^p eta'^q = eta^{p'} eta'^{q'} = 1.
Those congruences are what tie the point to the label, since the closed
form gives a z for any root pair.  Then the float closed form is held to
the well-conditioned relation 1 - w = eta'(1 - z): its relative gap
|(1 - w) - eta'(1 - z)| / |1 - w| is the point's residual.  It raises z
to no power, so it does not grow with the entries, and an entry of any
size is taken; its rounding is of order eps / |1 - eta|, about 4e-11 at
the Delta budget.

The roots eta, eta' are computed per point: a bit-identical per-label
table of the Delta roots took 1,500 double-points labels from 5.016 to
5.002 s alone, and with the direct quotient inlined read +5.6 % (7 of 8
pairs) and +4.1 % (3 of 4), inside the noise, for 0.2-0.3 MB more peak
RSS (2 CPUs).
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple

from .errors import DomainError, InternalError, _text
from .geometry import _TINY, _reduce_angle
from .invariants import LabelLike, residue_pairs
from .moduli import delta

DEFAULT_RESIDUAL_TOL = 1e-9


class _ModelMapParamsFields(NamedTuple):
    label: LabelLike
    r: float
    a: complex
    a_prime: complex


class ModelMapParams(_ModelMapParamsFields):
    """Label, scale and the two unit-modulus twist constants: DomainError
    unless r is finite and >= 1 and |a| = |a'| = 1 within 1e-12.

    The checks run in __new__, which the tuple methods _make and
    _replace bypass; nothing here calls them.
    """

    __slots__ = ()

    def __new__(cls, label: LabelLike, r: float = 10.0, a: complex = 1.0 + 0.0j,
                a_prime: complex = 1.0 + 0.0j) -> "ModelMapParams":
        if not 1.0 <= r < math.inf:
            raise DomainError("the scale r must be finite and >= 1")
        for name, val in (("a", a), ("a_prime", a_prime)):
            if not abs(abs(complex(val)) - 1.0) <= 1e-12:     # nan fails
                raise DomainError(f"|{name}| must be 1 within 1e-12")
        return super().__new__(cls, label, r, a, a_prime)


class PhiValue(NamedTuple):
    """phi(z) and its log coordinates."""

    lam: complex
    lam_prime: complex
    u: float
    v: float
    t: float
    phi: float


def _check_z(z: complex) -> None:
    """Refuse (DomainError) the punctures, z in {0, 1}, and a
    non-finite z, the third puncture or no point."""
    if z == 0 or z == 1:
        raise DomainError(f"z = {z} is a puncture")
    if not cmath.isfinite(z):
        raise DomainError(f"z = {z} is not finite")


def phi_eval(params: ModelMapParams, z: complex) -> PhiValue:
    """Evaluate the model map at a finite z outside the punctures
    (_check_z).

    u = ln|lambda| and t = -arg(lambda) in [0, 2pi) through geometry's
    one wrap, _reduce_angle, per the convention lambda = e^{u - i t}
    (same for (v, phi) from lambda').  DomainError where a power of z,
    1 - z or r, or lambda or lambda', overflows or underflows to 0
    (z = 1e-300j or 1e300j, r = 1e300), so u and v are finite."""
    z = complex(z)
    _check_z(z)
    (p, pp), (q, qp) = params.label.pairs()[:2]
    try:
        lam = params.a * params.r ** (p + q) * z ** (-p) * (1 - z) ** (-q)
        lamp = (params.a_prime * params.r ** (pp + qp) * z ** (-pp)
                * (1 - z) ** (-qp))
        u, v = math.log(abs(lam)), math.log(abs(lamp))
    except (OverflowError, ZeroDivisionError, ValueError):
        u = v = math.nan        # ValueError: the log of a lambda of 0
    if not (math.isfinite(u) and math.isfinite(v)):
        raise DomainError(f"z = {z}: a power of z, 1 - z or r leaves the "
                          f"finite floats")
    return PhiValue(
        lam=lam, lam_prime=lamp, u=u, v=v,
        t=_reduce_angle(-cmath.phase(lam)),
        phi=_reduce_angle(-cmath.phase(lamp)),
    )


def immersion_residual(params: ModelMapParams, z: complex) -> tuple[complex, complex]:
    """(p/z - q/(1-z), p'/z - q'/(1-z)) at a finite z outside the
    punctures (_check_z); never both zero when Delta != 0.  DomainError
    where an entry is not finite (z = 5e-324j: 1/z overflows)."""
    z = complex(z)
    _check_z(z)
    (p, pp), (q, qp) = params.label.pairs()[:2]
    try:
        out = (p / z - q / (1 - z), pp / z - qp / (1 - z))
    except OverflowError:       # an entry past the float range
        out = (math.nan, math.nan)
    if not (cmath.isfinite(out[0]) and cmath.isfinite(out[1])):
        raise DomainError(f"z = {z}: p/z, q/(1 - z) or a primed term leaves "
                          f"the finite floats")
    return out


class DoublePoint(NamedTuple):
    """One ordered double-point pair, with its root-of-unity residues."""

    a: int                # eta = exp(2 pi i a / Delta)
    b: int                # eta' = exp(2 pi i b / Delta)
    z: complex
    w: complex
    residual: float


def _point_residual(z: complex, w: complex, p: int, q: int, pp: int,
                    qp: int) -> float:
    """The larger of the two equalities' direct quotients
    |x - y| / max(|x|, |y|) at a point whose powers of z and 1-z are
    normal floats (see _powers_normal).

    nan where a side is subnormal or zero (it keeps too few bits to be
    compared), a power raises or a quotient is not finite: such a point
    is certified by phi_double_points instead.
    """
    omz = 1 - z
    omw = 1 - w
    try:
        x1 = z ** p * omz ** q
        y1 = w ** p * omw ** q
        x2 = z ** pp * omz ** qp
        y2 = w ** pp * omw ** qp
        ax1 = abs(x1)
        ay1 = abs(y1)
        ax2 = abs(x2)
        ay2 = abs(y2)
        if ax1 >= _TINY and ay1 >= _TINY and ax2 >= _TINY and ay2 >= _TINY:
            # max(ax, ay) as a comparison: the builtin call costs ~7x
            # more.
            r1 = abs(x1 - y1) / (ay1 if ay1 > ax1 else ax1)
            r2 = abs(x2 - y2) / (ay2 if ay2 > ax2 else ax2)
            if r1 < math.inf and r2 < math.inf:
                return r2 if r2 > r1 else r1     # max(r1, r2)
    except (OverflowError, ZeroDivisionError):
        pass
    return math.nan


def _powers_normal(top: int, d: int) -> bool:
    """Whether every power z^m, (1-z)^m with |m| <= top at a double point
    of a label with Delta = d is a normal float.

    |z| and |1-z| are quotients of two |1 - root| = 2 |sin(pi j / d)|,
    so they lie in [sin(pi/d), 1/sin(pi/d)]; a power stays within
    2^-1021 .. 2^1021 when top < 1021 / log2(1/sin(pi/d)).  top is
    compared with that float as an exact int, so an entry of any size
    is taken.  At d = 2, log2(1) = 0 and no entry is too large.
    """
    bits = math.log2(1.0 / math.sin(math.pi / d))
    return not bits or top < 1021 / bits


def phi_double_points(params: ModelMapParams,
                      tol: float = DEFAULT_RESIDUAL_TOL) -> list[DoublePoint]:
    """All ordered double points of the model map.

    Residue pairs (a, b) mod Delta with a, b in {1, .., Delta-1},
    a != b, p a + q b = 0 and p' a + q' b = 0 (mod Delta) are enumerated
    exactly and read one at a time, so the call holds its points and no
    list of pairs; each gives a double point via the closed form.  A
    point's residual is its direct quotient (_point_residual) where the
    label's powers are normal floats and that quotient is a number.  Any
    other point is certified: both congruences are checked again in
    exact integers, and its residual is the relative gap of
    1 - w = eta'(1 - z).  A failed congruence, a residual not below tol,
    or w != conj(z) beyond tol raises InternalError.  The output does
    not depend on r, a or a'.
    """
    (p, pp), (q, qp) = params.label.pairs()[:2]
    d = delta(params.label)
    pairs = residue_pairs(params.label)      # DomainError past the budget
    direct = _powers_normal(max(abs(p), abs(q), abs(pp), abs(qp)), d)
    # 2j * math.pi * a / d is (2j * math.pi) * a / d, so the hoisted
    # product leaves every root's bits as they were.
    two_pi_i = 2j * math.pi
    out: list[DoublePoint] = []
    for a, b in pairs:
        eta = cmath.exp(two_pi_i * a / d)
        etap = cmath.exp(two_pi_i * b / d)
        if etap == eta:
            raise InternalError("degenerate root pair slipped through")
        z = (etap - 1.0) / (etap - eta)
        w = eta * z
        residual = _point_residual(z, w, p, q, pp, qp) if direct else math.nan
        if residual != residual:      # nan: no direct quotient
            if (p * a + q * b) % d or (pp * a + qp * b) % d:
                raise InternalError(
                    f"double point {_text((a, b))} of "
                    f"{_text(params.label.pairs())} fails "
                    f"p a + q b = p' a + q' b = 0 (mod {_text(d)})")
            omw = 1.0 - w
            residual = abs(omw - etap * (1.0 - z)) / abs(omw)
        if not residual < tol:
            raise InternalError(
                f"double point {_text((a, b))} of "
                f"{_text(params.label.pairs())} has residual {residual} >= "
                f"{tol}")
        if not abs(w - z.conjugate()) <= tol * (1.0 + abs(z)):
            raise InternalError(f"double point {_text((a, b))}: w != conj(z) "
                                f"beyond tolerance")
        # DoublePoint checks nothing, so tuple.__new__ builds the same
        # record without the generated __new__ (~0.2 us a point).
        out.append(tuple.__new__(DoublePoint, (a, b, z, w, residual)))
    return out
