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
ds^2 + dt^2 + dtheta^2 + sin^2(theta) dphi^2.  This module holds what
every command loads; the points module evaluates these forms, the Reeb
field and J at a point.

f, h and g all carry the conformal factor e^{-sqrt(6) s}.  It is taken,
with f and h, in one place, fh_rows, which maps parallel s and theta
sequences to three columns e, f and h: the curves module's profile
traces get a block of rows per call, and the points module's
coord_functions, omega and curve points get one row through its fh_at.
fh_rows refuses (DomainError) only an s where e is not a normal float
or 2 sqrt6 e overflows, about s <= -289.12 or s >= 289.20; f and h,
e times factors that vanish near the cone (f) and at the poles (h), can
be 0 or subnormal there.  The factor cancels in J, the same at every s.

1 - 3 cos^2 theta vanishes on the cone cos^2 theta = 1/3, at THETA_C
and pi - THETA_C, and cancels near it.  It is taken at an angle in one
place, _cone_factor, which keeps its digits up to the cone by writing it
there from the exact cone angle.  fh_rows' f, the curves module's u,
and the points module's lambda, alpha, Reeb field, Jacobian of (f, h)
(which omega and J read), ds/dtheta and static points all read it.
THETA_C and pi - THETA_C also bound the three monotonicity components
of lambda(theta) = h/f, which the points module inverts.
"""

from __future__ import annotations

import math
import sys
# fh_rows, _cone_factor and _reduce_angle call these as module globals,
# which costs less than binding them to locals on every call.
from math import cos, exp, sin, tau
from typing import Sequence

from .errors import DomainError

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


def require_finite(**fields: float) -> None:
    """DomainError, naming the first of fields that is nan or infinite.
    A hot caller tests math.isfinite itself and calls this to name it."""
    for name, x in fields.items():
        if not math.isfinite(x):
            raise DomainError(f"{name} = {x} is not finite")


def _reduce_angle(x: float) -> float:
    """The package's one angle wrap: x reduced to [0, 2*pi).

    Python's % adds 2*pi to a negative remainder of fmod, and the sum
    rounds to 2*pi when that remainder lies in about (-4.4e-16, 0);
    that result is taken as 0.0.  A zero result is +0.0, and a nan or
    infinite x gives nan."""
    r = x % tau
    return 0.0 if r == tau else r


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
    and _TINY <= e <= _E_MAX (about -289.12 < s < 289.20), past which f,
    h or g overflow or e keeps too few bits.  Nothing else is refused:
    f and h are e times factors that vanish near the cone (f) and at the
    poles (h), so there they can be 0 or subnormal.
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
