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

f, h and g all carry the conformal factor e^{-sqrt(6) s}.  It is taken,
with f and h, in one place, fh_rows, which maps parallel s and theta
sequences to three columns e, f and h: the curves module's profile
traces get a block of rows per call, and coord_functions, omega and
curve points get one row through fh_at.  fh_rows refuses (DomainError)
an s where f, h, g or the Jacobian of (f, h) would overflow or keep too
few bits, about s <= -289.12 or s >= 289.20.
The factor cancels in J, which is therefore the same at every s.

1 - 3 cos^2 theta vanishes on the cone cos^2 theta = 1/3, at THETA_C
and pi - THETA_C, and cancels near it.  It is taken at an angle in one
place, _cone_factor, which keeps its digits up to the cone by writing it
there from the exact cone angle.  fh_rows' f, lambda_of_theta,
contact_eval, reeb_vector, the Jacobian of (f, h) that omega_eval and
apply_J read, and the curves module's ds/dtheta, u and static points
all read it.

The ratio h/f depends on theta alone,

    lambda(theta) = sqrt(6) cos(theta) sin^2(theta) / (1 - 3 cos^2 theta),

and is strictly decreasing on each of the three components of [0, pi]
cut out by cos^2(theta) = 1/3, the outer two closed at their poles.
theta_from_lambda inverts it on a chosen component: it returns the
float angle where lambda crosses the given value, which is the one
angle rule of the curves module's closed-form families.
"""

from __future__ import annotations

import enum
import math
import sys
# fh_rows, _cone_factor and _reduce_angle call these as module globals,
# which costs less than binding them to locals on every call.
from math import cos, exp, sin, tau
from typing import NamedTuple, Sequence

from .errors import DomainError, PoleError, RangeError

SQRT6 = math.sqrt(6.0)

#: The cone angle, cos(theta) = 1/sqrt(3): with pi - THETA_C, the
#: package's one statement of the cone cos^2 theta = 1/3 outside reeb's
#: orbit cosines, where f = 0, h/f is infinite and the (0, +-1) orbits
#: lie.  The two bound the three monotonicity components of lambda(theta).
#: Written out, not taken from libm's acos: it is the float 0.82 ulp
#: below the exact angle (the nearest lies above), which _CONE_LOW states.
THETA_C = 0.9553166181245092

#: pi - THETA_C, and what the exact cone angles exceed the two floats
#: by (each below an ulp), for _cone_factor near the cone.
_THETA_C_BAR = math.pi - THETA_C
_CONE_LOW, _CONE_BAR_LOW = 9.1137196518718847e-17, 3.1327483396016471e-17
_INV_SQRT3 = 1.0 / math.sqrt(3.0)

#: Default clipping of a profile's theta range away from its fixed-angle
#: endpoints (curves.integrate_profile and the CLI's trace --clip).
DEFAULT_CLIP = 1e-4

#: The smallest normal float; below it e^{-sqrt6 s} loses bits.
_TINY = sys.float_info.min

#: The largest e^{-sqrt6 s} accepted: 2 sqrt6 e bounds |f|, |h|, g and
#: every entry of the Jacobian of (f, h), so none of them overflows.
_E_MAX = sys.float_info.max / (2.0 * SQRT6)


def require_finite(error: type[Exception], **fields: float) -> None:
    """Raise error, naming the first of fields that is nan or infinite.
    A hot caller tests math.isfinite itself and calls this to name it."""
    for name, x in fields.items():
        if not math.isfinite(x):
            raise error(f"{name} = {x} is not finite")


def _reduce_angle(x: float) -> float:
    """The package's one angle wrap: x reduced to [0, 2*pi).

    Python's % adds 2*pi to a negative remainder of fmod, and the sum
    rounds to 2*pi when that remainder lies in about (-4.4e-16, 0);
    that result is taken as 0.0.  A zero result is +0.0, and a nan or
    infinite x gives nan."""
    r = x % tau
    return 0.0 if r == tau else r


class _Point4Fields(NamedTuple):
    s: float
    t: float
    theta: float
    phi: float


class Point4(_Point4Fields):
    """A point of R x (S^1 x S^2); t and phi are finite, stored in
    [0, 2*pi) through _reduce_angle.  ValueError for a theta outside
    [0, pi] or a nan or infinite t or phi.

    The checks and the reduction run in __new__, which the tuple methods
    _make and _replace bypass; nothing here calls them.
    """

    __slots__ = ()

    def __new__(cls, s: float, t: float, theta: float,
                phi: float) -> "Point4":
        if not 0.0 <= theta <= math.pi:
            raise ValueError(f"theta = {theta} outside [0, pi]")
        if not (math.isfinite(t) and math.isfinite(phi)):
            require_finite(ValueError, t=t, phi=phi)
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
        """ValueError for a nan or infinite coefficient, as Point4
        refuses such a t or phi, and for a d/dphi coefficient at the
        poles, where that direction degenerates."""
        require_finite(ValueError, **self._asdict())
        if p.at_pole and self.v_phi != 0.0:
            raise ValueError("v_phi must vanish at theta in {0, pi}")


class BranchId(enum.Enum):
    """Monotonicity components of lambda(theta) on [0, pi].

    A: theta in [0, THETA_C), lambda <= 0, closed at the pole 0;
    B: theta in (THETA_C, pi - THETA_C), lambda ranges over all of R;
    C: theta in (pi - THETA_C, pi], lambda >= 0, closed at the pole pi.

    lambda is 0 at the pole 0 and rounds to ~1.8e-32 at the float pi.
    """

    A = "A"
    B = "B"
    C = "C"


#: Each branch's first and last float angle.  THETA_C and pi - THETA_C
#: lie below the exact cone angles, so each is the last float of the
#: branch below it.
_BRANCH_INTERVAL = {
    BranchId.A: (0.0, THETA_C),
    BranchId.B: (math.nextafter(THETA_C, math.pi), _THETA_C_BAR),
    BranchId.C: (math.nextafter(_THETA_C_BAR, math.pi), math.pi),
}


def _cone_factor(theta: float, c: float) -> float:
    """1 - 3 cos^2 theta at theta, with c = cos(theta): the package's one
    statement of it at an angle.  Where the plain 1 - 3 c^2 lies in
    (-1/4, 1/4) it cancels, so there it is 3 (1/sqrt3 - |c|)(1/sqrt3 +
    |c|), the first factor a product of sines of half the angle's sum
    with and gap to the exact cone angle, and it keeps its digits up to
    the cone: it is not 0 at any float angle in [0, pi]."""
    g = 1.0 - 3.0 * c * c
    if not -0.25 < g < 0.25:
        return g
    if c > 0.0:
        return 6.0 * sin(0.5 * (theta + THETA_C)) * sin(
            0.5 * (theta - THETA_C - _CONE_LOW)) * (_INV_SQRT3 + c)
    return -6.0 * sin(0.5 * (theta + _THETA_C_BAR)) * sin(
        0.5 * (theta - _THETA_C_BAR - _CONE_BAR_LOW)) * (_INV_SQRT3 - c)


def fh_rows(s_values: Sequence[float], thetas: Sequence[float]
            ) -> tuple[list[float], list[float], list[float]]:
    """The columns (es, fs, hs) over the parallel sequences: at each
    (s, theta) the conformal factor e = e^{-sqrt6 s}, f = e (1 - 3
    cos^2 theta), its second factor from _cone_factor, and h = sqrt6 e
    cos(theta) sin^2(theta); the one place f and h are written.

    DomainError, naming the first refused row, unless each s is finite
    and _TINY <= e <= _E_MAX (about -289.12 < s < 289.20): past either
    end f, h or g overflow, or underflow to 0 or to a subnormal float
    that keeps too few bits.
    """
    es, fs, hs = [], [], []
    for s, theta in zip(s_values, thetas):
        try:
            e = exp(-SQRT6 * s)     # exp(inf) = inf, without raising
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
        c = cos(theta)
        es.append(e)
        fs.append(e * _cone_factor(theta, c))
        hs.append(SQRT6 * e * c * sin(theta) ** 2)
    return es, fs, hs


def fh_at(s: float, theta: float) -> tuple[float, float, float]:
    """(e, f, h) at one (s, theta): fh_rows' columns at one row, with
    its DomainError."""
    (e,), (f,), (h,) = fh_rows((s,), (theta,))
    return e, f, h


def coord_functions(p: Point4) -> tuple[float, float, float]:
    """Return (f, h, g) at p, with g = sqrt6 e^{-sqrt6 s}(1 + 3 cos^4
    theta)^{1/2} > 0; DomainError where fh_at refuses p.s."""
    e, f, h = fh_at(p.s, p.theta)
    return f, h, e * _unit_frame(p.theta)[0]


def contact_eval(p: Point4, v: Tangent4) -> float:
    """Evaluate the contact form: alpha(v) = -(1-3c^2) v_t - sqrt6 c sin^2 v_phi;
    ValueError where v.check_at(p) refuses v, DomainError where alpha(v)
    overflows."""
    v.check_at(p)
    c = math.cos(p.theta)
    s2 = math.sin(p.theta) ** 2
    alpha = -_cone_factor(p.theta, c) * v.v_t - SQRT6 * c * s2 * v.v_phi
    if not math.isfinite(alpha):
        require_finite(DomainError, alpha=alpha)
    return alpha


def _unit_frame(theta: float) -> tuple[float, float, float, float, float]:
    """g and the partials (f_s, f_theta, h_s, h_theta) of (f, h) in
    (s, theta) at unit factor: at s each is e^{-sqrt6 s} times this
    (f and h scale with the factor, so f_s = -sqrt6 f)."""
    c = math.cos(theta)
    sn = math.sin(theta)
    k = _cone_factor(theta, c)
    return (SQRT6 * math.sqrt(1.0 + 3.0 * c ** 4), -SQRT6 * k,
            6.0 * c * sn, -6.0 * c * sn * sn, -SQRT6 * sn * k)


def omega_eval(p: Point4, v: Tangent4, w: Tangent4) -> float:
    """omega = dt ^ df + dphi ^ dh on (v, w); DomainError past fh_at or
    where the value overflows, ValueError where check_at refuses v or w."""
    v.check_at(p)
    w.check_at(p)
    e = fh_at(p.s, p.theta)[0]
    _, f_s, f_th, h_s, h_th = _unit_frame(p.theta)
    df_v = f_s * v.v_s + f_th * v.v_theta
    df_w = f_s * w.v_s + f_th * w.v_theta
    dh_v = h_s * v.v_s + h_th * v.v_theta
    dh_w = h_s * w.v_s + h_th * w.v_theta
    om = e * (v.v_t * df_w - df_v * w.v_t + v.v_phi * dh_w - dh_v * w.v_phi)
    if not math.isfinite(om):
        require_finite(DomainError, omega=om)
    return om


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
    v_t = -_cone_factor(p.theta, c) / n
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
    {0, pi} locus, where this chart-level J is refused, as it is where
    sin^2 theta underflows the normal floats (theta within ~1.5e-154 of
    a pole), since J divides by it.  ValueError where v.check_at(p)
    refuses v, DomainError where a component of J v overflows.  The
    factor e^{-sqrt6 s} of g and the Jacobian cancels, so both are at
    unit factor.
    """
    s2 = math.sin(p.theta) ** 2
    if p.at_pole or s2 < _TINY:
        raise PoleError("J is not defined in these coordinates at theta in "
                        "{0, pi}, nor where sin^2 theta underflows "
                        f"(theta = {p.theta})")
    v.check_at(p)
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

    out = Tangent4(v_s=out_s, v_t=out_t, v_theta=out_th, v_phi=out_phi)
    if not all(map(math.isfinite, out)):
        require_finite(DomainError, **out._asdict())
    return out


def lambda_of_theta(theta: float) -> float:
    """The ratio h/f = sqrt6 cos(theta) sin^2(theta)/(1 - 3 cos^2 theta);
    RangeError for theta outside [0, pi], nan and +-inf included."""
    if not 0.0 <= theta <= math.pi:
        raise RangeError(f"theta = {theta} outside [0, pi]")
    c = math.cos(theta)
    return SQRT6 * c * math.sin(theta) ** 2 / _cone_factor(theta, c)


def theta_from_lambda(lam: float, branch: BranchId) -> float:
    """The float angle where lambda(theta) crosses lam on the branch.

    lambda is strictly decreasing on each branch (its theta-derivative
    is -sqrt6 sin(theta)(1 + 3 cos^4)(1 - 3 cos^2)^{-2} < 0), so the
    bisection halves its bracket until it is two adjacent floats and
    returns the one whose lambda is nearer lam, the lower on a tie.
    Where lam lies at or past the lambda of a branch end, that end is
    the angle: lam = +-0 gives the pole 0.0 on A, and any lam below
    lambda(pi) ~ 1.8e-32, +-0 included, gives pi on C.  A call takes
    about 55 evaluations of lambda_of_theta, and at most ~600 where a
    tiny |lam| on A draws the bracket toward 0, across the crowded
    floats there (593 at lam = -5e-324).  RangeError for a nan or
    infinite lam, and for lam > 0 on A or lam < 0 on C.
    """
    if not math.isfinite(lam):
        raise RangeError(f"lambda = {lam} is not finite")
    if branch is BranchId.A and lam > 0.0:
        raise RangeError(f"branch A needs lambda <= 0, got {lam}")
    if branch is BranchId.C and lam < 0.0:
        raise RangeError(f"branch C needs lambda >= 0, got {lam}")

    lo, hi = _BRANCH_INTERVAL[branch]
    if not lambda_of_theta(lo) > lam:
        return lo
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if lambda_of_theta(mid) > lam:
            lo = mid        # decreasing: the root is to the right
        else:
            hi = mid
    # lambda(lo) > lam, and lambda(hi) <= lam unless hi is the branch's
    # high end and lam lies past it, where the gap to lam is negative.
    return hi if lam - lambda_of_theta(hi) < lambda_of_theta(lo) - lam else lo
