"""Geometry of the symplectization R x (S^1 x S^2).

Coordinates are (s, t, theta, phi): s runs along the R factor, t along
the S^1 factor, and (theta, phi) are spherical angles on S^2.  The
contact form is

    alpha = -(1 - 3 cos^2 theta) dt - sqrt(6) cos(theta) sin^2(theta) dphi

and the symplectic form is omega = d(e^{-sqrt(6) s} alpha), which in
terms of the auxiliary functions

    f = e^{-sqrt(6) s} (1 - 3 cos^2 theta)
    h = sqrt(6) e^{-sqrt(6) s} cos(theta) sin^2(theta)

reads omega = dt ^ df + dphi ^ dh.  The almost complex structure J is
fixed by J d/dt = g d/df and J d/dphi = g sin^2(theta) d/dh with
g = sqrt(6) e^{-sqrt(6) s} (1 + 3 cos^4 theta)^{1/2}; the bilinear form
g^{-1} omega(., J.) is then the round product metric
ds^2 + dt^2 + dtheta^2 + sin^2(theta) dphi^2.

f, h and g all carry the conformal factor e^{-sqrt(6) s}.  It is taken
in one place, fh_at: coord_functions, omega, and the profile traces,
ODE residuals and points of the curves module get it from there.  fh_at
refuses (DomainError) an s where f, h, g or the Jacobian of (f, h)
would overflow or keep too few bits, about s <= -289.12 or s >= 289.20.
The factor cancels in J, which is therefore the same at every s.

The ratio h/f depends on theta alone,

    lambda(theta) = sqrt(6) cos(theta) sin^2(theta) / (1 - 3 cos^2 theta),

and is strictly decreasing on each of the three components of (0, pi)
cut out by cos^2(theta) = 1/3; inverting it on a chosen component is
the basic root-finding primitive used by the invariant-curve code.
"""

from __future__ import annotations

import enum
import math
import sys
from typing import NamedTuple

from .errors import DomainError, PoleError, RangeError

SQRT6 = math.sqrt(6.0)

#: The angle with cos(theta) = 1/sqrt(3); together with pi - THETA_C it
#: bounds the three monotonicity components of lambda(theta).
THETA_C = math.acos(1.0 / math.sqrt(3.0))

#: Default clipping of a profile's theta range away from its fixed-angle
#: endpoints (curves.integrate_profile and the CLI's trace --clip).
DEFAULT_CLIP = 1e-4

#: The smallest normal float; below it e^{-sqrt6 s} loses bits.
_TINY = sys.float_info.min

#: The largest e^{-sqrt6 s} accepted: 2 sqrt6 e bounds |f|, |h|, g and
#: every entry of the Jacobian of (f, h), so none of them overflows.
_E_MAX = sys.float_info.max / (2.0 * SQRT6)


def _reduce_angle(x: float) -> float:
    """Reduce to [0, 2*pi)."""
    r = math.fmod(x, math.tau)
    return r + math.tau if r < 0.0 else r


class _Point4Fields(NamedTuple):
    s: float
    t: float
    theta: float
    phi: float


class Point4(_Point4Fields):
    """A point of R x (S^1 x S^2); t and phi are stored in [0, 2*pi).

    The check and the reduction run in __new__, which the tuple methods
    _make and _replace bypass; nothing here calls them.
    """

    __slots__ = ()

    def __new__(cls, s: float, t: float, theta: float,
                phi: float) -> "Point4":
        if not 0.0 <= theta <= math.pi:
            raise ValueError(f"theta = {theta} outside [0, pi]")
        return super().__new__(cls, s, _reduce_angle(t), theta,
                               _reduce_angle(phi))

    @property
    def at_pole(self) -> bool:
        return self.theta == 0.0 or self.theta == math.pi


class Tangent4(NamedTuple):
    """Coefficients on the coordinate frame (d/ds, d/dt, d/dtheta, d/dphi)."""

    v_s: float = 0.0
    v_t: float = 0.0
    v_theta: float = 0.0
    v_phi: float = 0.0

    def check_at(self, p: Point4) -> None:
        """The d/dphi direction degenerates at the poles."""
        if p.at_pole and self.v_phi != 0.0:
            raise ValueError("v_phi must vanish at theta in {0, pi}")


class BranchId(enum.Enum):
    """Monotonicity components of lambda(theta) on (0, pi).

    A: theta in (0, THETA_C), lambda ranges over (-inf, 0);
    B: theta in (THETA_C, pi - THETA_C), lambda ranges over all of R;
    C: theta in (pi - THETA_C, pi), lambda ranges over (0, +inf).
    """

    A = "A"
    B = "B"
    C = "C"


_BRANCH_INTERVAL = {
    BranchId.A: (0.0, THETA_C),
    BranchId.B: (THETA_C, math.pi - THETA_C),
    BranchId.C: (math.pi - THETA_C, math.pi),
}


def fh_at(s: float, theta: float) -> tuple[float, float, float]:
    """(e, f, h) at (s, theta): the conformal factor e = e^{-sqrt6 s},
    f = e (1 - 3 cos^2 theta) and h = sqrt6 e cos(theta) sin^2(theta).

    DomainError unless s is finite and _TINY <= e <= _E_MAX (about
    -289.12 < s < 289.20): past either end f, h or g overflow, or
    underflow to 0 or to a subnormal float that keeps too few bits.
    """
    try:
        e = math.exp(-SQRT6 * s)    # exp(inf) = inf, without raising
    except OverflowError:
        e = math.inf
    if not _TINY <= e <= _E_MAX:
        if not math.isfinite(s):
            why = "s is not finite"
        elif e > _E_MAX:
            why = "f, h or g overflow a float"
        else:
            why = "f and h underflow the normal floats"
        raise DomainError(f"{why} at theta = {theta} (s = {s})")
    c = math.cos(theta)
    return e, e * (1.0 - 3.0 * c * c), SQRT6 * e * c * math.sin(theta) ** 2


def coord_functions(p: Point4) -> tuple[float, float, float]:
    """Return (f, h, g) at p, with g = sqrt6 e^{-sqrt6 s}(1 + 3 cos^4
    theta)^{1/2} > 0; DomainError where fh_at refuses p.s."""
    e, f, h = fh_at(p.s, p.theta)
    return f, h, e * _unit_frame(p.theta)[0]


def contact_eval(p: Point4, v: Tangent4) -> float:
    """Evaluate the contact form: alpha(v) = -(1-3c^2) v_t - sqrt6 c sin^2 v_phi."""
    v.check_at(p)
    c = math.cos(p.theta)
    s2 = math.sin(p.theta) ** 2
    return -(1.0 - 3.0 * c * c) * v.v_t - SQRT6 * c * s2 * v.v_phi


def _unit_frame(theta: float) -> tuple[float, float, float, float, float]:
    """g and the partials (f_s, f_theta, h_s, h_theta) of (f, h) in
    (s, theta) at unit factor: at s each is e^{-sqrt6 s} times this
    (f and h scale with the factor, so f_s = -sqrt6 f)."""
    c = math.cos(theta)
    sn = math.sin(theta)
    return (SQRT6 * math.sqrt(1.0 + 3.0 * c ** 4),
            -SQRT6 * (1.0 - 3.0 * c * c), 6.0 * c * sn,
            -6.0 * c * sn * sn, SQRT6 * sn * (3.0 * c * c - 1.0))


def omega_eval(p: Point4, v: Tangent4, w: Tangent4) -> float:
    """omega = dt ^ df + dphi ^ dh on (v, w); DomainError past fh_at."""
    v.check_at(p)
    w.check_at(p)
    e = fh_at(p.s, p.theta)[0]
    _, f_s, f_th, h_s, h_th = _unit_frame(p.theta)
    df_v = f_s * v.v_s + f_th * v.v_theta
    df_w = f_s * w.v_s + f_th * w.v_theta
    dh_v = h_s * v.v_s + h_th * v.v_theta
    dh_w = h_s * w.v_s + h_th * w.v_theta
    return e * (v.v_t * df_w - df_v * w.v_t + v.v_phi * dh_w - dh_v * w.v_phi)


def reeb_vector(p: Point4) -> Tangent4:
    """The Reeb vector field: alpha(v) = 1 and dalpha(v, .) = 0.

    Solving those two conditions in the coordinate frame gives

        v = -(1 + 3 cos^4 theta)^{-1} [(1 - 3 cos^2 theta) d/dt
                                       + sqrt(6) cos(theta) d/dphi],

    which is independent of s, as a Reeb field must be.  At the poles
    the degenerate d/dphi coefficient is dropped.
    """
    c = math.cos(p.theta)
    n = 1.0 + 3.0 * c ** 4
    v_t = -(1.0 - 3.0 * c * c) / n
    v_phi = -SQRT6 * c / n
    if p.at_pole:
        v_phi = 0.0
    return Tangent4(v_t=v_t, v_phi=v_phi)


def apply_J(p: Point4, v: Tangent4) -> Tangent4:
    """Apply the almost complex structure J to v at p.

    J is defined on the (t, f, phi, h) frame by J d/dt = g d/df and
    J d/dphi = g sin^2(theta) d/dh (hence J d/df = -g^{-1} d/dt and
    J d/dh = -(g sin^2 theta)^{-1} d/dphi); converting d/df, d/dh to the
    (s, theta) frame means inverting the 2x2 Jacobian of (f, h) with
    respect to (s, theta).  That Jacobian is singular on the theta in
    {0, pi} locus, where this chart-level J is refused.  The factor
    e^{-sqrt6 s} of g and the Jacobian cancels, so both are at unit factor.
    """
    if p.at_pole:
        raise PoleError("J is not defined in these coordinates at theta in {0, pi}")
    v.check_at(p)
    s2 = math.sin(p.theta) ** 2
    g, f_s, f_th, h_s, h_th = _unit_frame(p.theta)
    det = f_s * h_th - f_th * h_s

    # (t, phi) components are rotated into the (s, theta) plane.
    a_f = g * v.v_t            # coefficient on d/df
    a_h = g * s2 * v.v_phi     # coefficient on d/dh
    out_s = (h_th * a_f - f_th * a_h) / det
    out_th = (-h_s * a_f + f_s * a_h) / det

    # (s, theta) components are rotated into the (t, phi) plane.
    b_f = f_s * v.v_s + f_th * v.v_theta
    b_h = h_s * v.v_s + h_th * v.v_theta
    out_t = -b_f / g
    out_phi = -b_h / (g * s2)

    return Tangent4(v_s=out_s, v_t=out_t, v_theta=out_th, v_phi=out_phi)


def lambda_of_theta(theta: float) -> float:
    """The ratio h/f = sqrt6 cos(theta) sin^2(theta)/(1 - 3 cos^2 theta)."""
    c = math.cos(theta)
    return SQRT6 * c * math.sin(theta) ** 2 / (1.0 - 3.0 * c * c)


def theta_from_lambda(lam: float, branch: BranchId) -> float:
    """Invert lambda(theta) on the given branch by bisection.

    Valid because lambda is strictly decreasing on each branch (its
    theta-derivative is -sqrt6 sin(theta)(1+3cos^4)(1-3cos^2)^{-2} < 0).
    The returned angle is accurate to well below 1e-12: the bracketing
    interval is halved until it is narrower than 1e-14 (under 50 steps
    from a branch interval inside (0, pi)).
    """
    if not math.isfinite(lam):
        raise RangeError(f"lambda = {lam} is not finite")
    if branch is BranchId.A and not lam < 0.0:
        raise RangeError(f"branch A needs lambda < 0, got {lam}")
    if branch is BranchId.C and not lam > 0.0:
        raise RangeError(f"branch C needs lambda > 0, got {lam}")

    lo, hi = _BRANCH_INTERVAL[branch]
    while hi - lo >= 1e-14:
        mid = 0.5 * (lo + hi)
        if lambda_of_theta(mid) > lam:
            lo = mid        # decreasing: the root is to the right
        else:
            hi = mid
    return 0.5 * (lo + hi)
