"""Points of the invariant curves and of R x (S^1 x S^2): the layer
that no command runs yet.

This module is loaded on first use.  Neither `import sympl_moduli` nor
any `sympl-moduli` command loads it, so no command compiles it;
`sympl_moduli.<name>` and `from sympl_moduli import <name>` load it for
the names it exports.  It imports geometry, reeb and curves, and none
of them imports it.  It holds:

* points, Point4, and tangent vectors on the coordinate frame,
  Tangent4; at a point, the coordinate functions (f, h, g), the contact
  form alpha, omega, the Reeb field and J, as geometry's docstring
  states them, with e^{-sqrt6 s}, f and h from one row of
  geometry.fh_rows (fh_at);
* the ratio h/f, which depends on theta alone,

      lambda(theta) = sqrt(6) cos(theta) sin^2(theta) / (1 - 3 cos^2 theta),

  and is strictly decreasing on each of the three components of [0, pi]
  cut out by cos^2(theta) = 1/3, the outer two closed at their poles.
  theta_from_lambda inverts it on a chosen component: it returns the
  float angle where lambda crosses the given value, which is the one
  angle rule of the closed-form families here;
* the point of a closed Reeb orbit at a parameter (orbit_point);
* the points of curves' seven families (eval_invariant_curve): the
  static families' through _static_point, the profile families' by
  bracketed Newton iteration from the curve's cached
  curves._point_start record; s along a profile at an angle
  (s_of_theta, from curves' log terms) and its slope
  (profile_ds_dtheta); and the closed-form maximum of s on the planes
  and cylinders (s_max).
"""

from __future__ import annotations

import enum
import math
# _ds_dtheta, _static_point and _profile_point's probes call these as
# module globals, which costs less than binding them to locals on every
# call.
from math import cos, log, sin
from typing import NamedTuple, Optional

from .curves import (CurveSpec, LogTerms, _log_sums, _point_start, _u_of,
                     classify_branches, profile_log_terms)
from .errors import DomainError, _text
from .geometry import (_THETA_C_BAR, _TINY, SQRT6, THETA_C, _cone_factor,
                       _reduce_angle, fh_rows, require_finite)
from .reeb import OrbitKind, ReebOrbit


class _Point4Fields(NamedTuple):
    s: float
    t: float
    theta: float
    phi: float


class Point4(_Point4Fields):
    """A point of R x (S^1 x S^2); t and phi are finite, stored in
    [0, 2*pi) through _reduce_angle.  DomainError for a theta outside
    [0, pi] or a nan or infinite t or phi.

    The checks and the reduction run in __new__, which the tuple methods
    _make and _replace bypass; nothing here calls them.
    """

    __slots__ = ()

    def __new__(cls, s: float, t: float, theta: float,
                phi: float) -> "Point4":
        if not 0.0 <= theta <= math.pi:
            raise DomainError(f"theta = {theta} outside [0, pi]")
        if not (math.isfinite(t) and math.isfinite(phi)):
            require_finite(t=t, phi=phi)
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
        """DomainError for a nan or infinite coefficient, as Point4
        refuses such a t or phi, and for a d/dphi coefficient at the
        poles, where that direction degenerates."""
        require_finite(**self._asdict())
        if p.at_pole and self.v_phi != 0.0:
            raise DomainError("v_phi must vanish at theta in {0, pi}")


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
    DomainError where v.check_at(p) refuses v or where alpha(v)
    overflows."""
    v.check_at(p)
    c = math.cos(p.theta)
    s2 = math.sin(p.theta) ** 2
    alpha = -_cone_factor(p.theta, c) * v.v_t - SQRT6 * c * s2 * v.v_phi
    if not math.isfinite(alpha):
        require_finite(alpha=alpha)
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
    """omega = dt ^ df + dphi ^ dh on (v, w); DomainError past fh_at,
    where check_at refuses v or w, or where the value overflows."""
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
        require_finite(omega=om)
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
    a pole), since J divides by it.  DomainError where v.check_at(p)
    refuses v or where a component of J v overflows.  The
    factor e^{-sqrt6 s} of g and the Jacobian cancels, so both are at
    unit factor.
    """
    s2 = math.sin(p.theta) ** 2
    if p.at_pole or s2 < _TINY:
        raise DomainError("J is not defined in these coordinates at theta in "
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
        require_finite(**out._asdict())
    return out


def lambda_of_theta(theta: float) -> float:
    """The ratio h/f = sqrt6 cos(theta) sin^2(theta)/(1 - 3 cos^2 theta);
    DomainError for theta outside [0, pi], nan and +-inf included."""
    if not 0.0 <= theta <= math.pi:
        raise DomainError(f"theta = {theta} outside [0, pi]")
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
    floats there (593 at lam = -5e-324).  DomainError for a nan or
    infinite lam, and for lam > 0 on A or lam < 0 on C.
    """
    if not math.isfinite(lam):
        raise DomainError(f"lambda = {lam} is not finite")
    if branch is BranchId.A and lam > 0.0:
        raise DomainError(f"branch A needs lambda <= 0, got {lam}")
    if branch is BranchId.C and lam < 0.0:
        raise DomainError(f"branch C needs lambda >= 0, got {lam}")

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


def orbit_point(orbit: ReebOrbit, tau: float) -> tuple[float, float, float]:
    """The point (t, theta, phi) of the orbit at parameter tau.

    Generic orbits with p != 0 are traversed as (t = tau, theta =
    theta0, phi = phi0 + tau p'/p) with tau periodic of period 2 pi |p|
    and phi0 = -upsilon/p, so that p' t - p phi = upsilon identically.
    For p = 0 the circle is (t = upsilon/p', phi = tau).  t and phi lie
    in [0, 2 pi) through geometry's one wrap, _reduce_angle.  DomainError
    for a nan or infinite tau, as Point4 refuses such a t or phi, for a
    generic orbit with no pair or no theta0, naming the missing field,
    and naming the pair where p, p' or p' tau has no float.
    """
    if not math.isfinite(tau):
        require_finite(tau=tau)
    if orbit.kind is OrbitKind.POLE_PLUS:
        return (_reduce_angle(tau), 0.0, 0.0)
    if orbit.kind is OrbitKind.POLE_MINUS:
        return (_reduce_angle(tau), math.pi, 0.0)
    for field in ("pair", "theta0"):
        if getattr(orbit, field) is None:
            raise DomainError(f"a generic orbit has no points without a "
                              f"{field}")
    p, pp = orbit.pair.m, orbit.pair.m_prime
    if p == 0:
        return (_reduce_angle(orbit.upsilon / pp), orbit.theta0,
                _reduce_angle(tau))
    try:
        tau = math.fmod(tau, math.tau * abs(p))
        phi = -orbit.upsilon / p + tau * pp / p
    except OverflowError:
        phi = math.inf
    if not math.isfinite(phi):
        raise DomainError(f"{_text((p, pp))}: an entry or p' tau is past "
                          f"the float range")
    return (_reduce_angle(tau), orbit.theta0, _reduce_angle(phi))


def _ds_dtheta(p: int, p_prime: int, theta: float,
               terms: Optional[LogTerms] = None) -> float:
    """ds/dtheta along a profile by its formula, unchecked:
    ZeroDivisionError where the denominator rounds to 0.

    The denominator's first factor sqrt6 cos - a (1 - 3 cos^2) is
    3a (x - r_in)(x - r_out) expanded, x = cos(theta), and cancels at
    each root.  Where it does, |sqrt6 cos - a k| < (|sqrt6 cos| +
    |a k|) / 4 as _cone_factor tests itself, the two root gaps come
    from the pair's log terms (profile_log_terms, or the given record):
    x - r_in as offset - 2 sin(theta/2 + theta0/2) sin(theta/2 -
    theta0/2), and x - r_out as sign(p') (u - g), with u - g from sines
    of quarter angles where g > 0.  _log_sums writes both gaps too, for
    s; they are written again here, since a helper shared with it slowed
    traces by about 6 %.  p' = 0 never cancels."""
    a = p_prime / p
    c = cos(theta)
    sn = sin(theta)
    k = _cone_factor(theta, c)
    num = k + SQRT6 * a * c * sn * sn
    lin, quad = SQRT6 * c, a * k
    if abs(lin - quad) < 0.25 * (abs(lin) + abs(quad)):
        if terms is None:
            terms = profile_log_terms(p, p_prime)
        _, half_angle, offset = terms.inner
        _, g, at_pole_zero, half_root, root_offset, _ = terms.outer
        half = 0.5 * theta
        inner = offset - 2.0 * sin(half + half_angle) * sin(half - half_angle)
        w = sin(half) if at_pole_zero else cos(half)
        if g < 0.0:
            outer = 2.0 * w * w - g
        else:
            w_root = sin(half_root) if at_pole_zero else cos(half_root)
            quarter = 0.5 * (half + half_root)
            dw = 2.0 * sin(0.5 * (half - half_root)) * (
                cos(quarter) if at_pole_zero else -sin(quarter))
            outer = 2.0 * dw * (w + w_root) + root_offset
        den = 3.0 * a * inner * (-outer if at_pole_zero else outer) * sn
    else:
        den = (lin - quad) * sn
    return -num / den


def profile_ds_dtheta(p: int, p_prime: int, theta: float) -> float:
    """ds/dtheta along a profile, away from the fixed angles.

    DomainError unless classify_branches accepts the pair and theta
    lies strictly inside one of its ranges, as s_of_theta refuses
    (ds/dtheta has a pole at each fixed angle, though the float formula
    gives a huge finite value at most float theta0 and theta0_bar), where
    the denominator rounds to 0 and where the slope overflows (theta =
    5e-324).
    """
    _common_range(p, p_prime, theta, theta)
    try:
        slope = _ds_dtheta(p, p_prime, theta)
    except ZeroDivisionError:
        raise DomainError(
            f"theta = {theta} is a fixed angle of {_text((p, p_prime))} in "
            f"floats: the denominator of ds/dtheta rounds to 0") from None
    if not math.isfinite(slope):
        require_finite(ds_dtheta=slope)
    return slope


def _common_range(p: int, p_prime: int, a: float, b: float) -> None:
    """Raise unless a and b sit strictly inside one fixed-angle-free
    range (each angle is tested, so a nan in either place is refused)."""
    ranges = classify_branches(p, p_prime)
    if any(rng.lo < a < rng.hi and rng.lo < b < rng.hi for rng in ranges):
        return
    angles = [rng.lo for rng in ranges] + [math.pi]
    raise DomainError(
        f"{a} and {b} are not strictly inside one fixed-angle-free range "
        f"of {_text((p, p_prime))}; fixed angles: {angles}")


def s_of_theta(p: int, p_prime: int, theta_ref: float, s_ref: float,
               theta: float) -> float:
    """s at theta along the profile through (theta_ref, s_ref).

    The pair must be one classify_branches accepts (p > 0, admissible,
    coprime), else DomainError.  Both angles must lie strictly inside
    the same fixed-angle-free range, else DomainError, also when they
    are equal (s diverges at a fixed angle): the log terms of
    profile_log_terms are an antiderivative of ds/dtheta only there.
    """
    _common_range(p, p_prime, theta_ref, theta)
    if theta == theta_ref:
        return s_ref
    at_theta, at_ref = _log_sums(profile_log_terms(p, p_prime),
                                 (theta, theta_ref))
    return s_ref + (at_theta - at_ref)


def s_max(spec: CurveSpec) -> float:
    """The maximum of s on the cylinder or plane, in closed form.

    Plane family (2): -ln(kappa/2)/sqrt6, attained at the pole point.
    Cylinder family (3): -ln(kappa)/sqrt6, attained where theta = pi/2
    (f = kappa with 1 - 3 cos^2 theta = 1 there).
    Cylinder family (4): -ln(3|kappa|/(2 sqrt2))/sqrt6, attained where
    cos^2 theta = 1/3.
    """
    if spec.example_id == 2:
        return -math.log(spec.kappa / 2.0) / SQRT6
    if spec.example_id == 3:
        return -math.log(spec.kappa) / SQRT6
    if spec.example_id == 4:
        return -math.log(3.0 * abs(spec.kappa) / (2.0 * math.sqrt(2.0))) / SQRT6
    raise DomainError(
        f"no closed-form s_max for example {_text(spec.example_id)}")


def _static_point(f: float, h: float, t: float, phi: float,
                  theta: Optional[float] = None) -> Point4:
    """The point at (f, h, t, phi), the closed-form families' one angle
    rule and one height.  Unless given, theta is the float where h/f
    crosses on the branch the signs name (theta_from_lambda):
    B for f > 0, A for f < 0 < h, C for f < 0 and h <= 0.  A and C are
    closed at their poles, so an h/f that rounds to 0 there gives 0 or
    pi.  Where h/f is not finite (f = 0, or the quotient overflows) the
    point is on the cone cos^2 = 1/3, at THETA_C for h > 0 and
    pi - THETA_C for h < 0.  With e = e^{-sqrt6 s},
    |f| + |h| = e (|1 - 3 cos^2| + sqrt6 |cos| sin^2), and that bracket
    has no zero on [0, pi], so s keeps its digits where f or h vanishes.
    DomainError where the ratio of the two underflows to 0, as fh_at
    refuses e there."""
    if theta is None:
        lam = h / f if f else math.inf
        if not math.isfinite(lam):
            theta = THETA_C if h > 0 else math.pi - THETA_C
        else:
            theta = theta_from_lambda(lam, BranchId.B if f > 0 else
                                      BranchId.A if h > 0 else BranchId.C)
    c = cos(theta)
    bracket = abs(_cone_factor(theta, c)) + SQRT6 * abs(c) * sin(theta) ** 2
    ratio = (abs(f) + abs(h)) / bracket
    if not ratio:
        raise DomainError(f"f and h underflow the normal floats at "
                          f"theta = {theta} (|f| + |h| = {abs(f) + abs(h)})")
    return Point4(s=-log(ratio) / SQRT6, t=t, theta=theta, phi=phi)


def _example1_point(spec: CurveSpec, tau: float, u: float) -> Point4:
    orbit = spec.orbit
    if orbit is None:
        raise DomainError("example 1 needs an orbit")
    if orbit.kind is not OrbitKind.GENERIC:
        # theta constant at a pole: (t = -tau, f = -u), u > 0.
        if u <= 0:
            raise DomainError("pole cylinders need u > 0")
        return _static_point(-u, 0.0, -tau, 0.0, orbit.theta0)
    p, pp = orbit.pair
    if u == 0 or (u > 0) != ((p or pp) > 0):
        raise DomainError("sign(u) must equal sign(p), or sign(p') if p = 0")
    t, theta, phi = orbit_point(orbit, tau)
    # h/f = (p'/p) sin^2 theta0 along the orbit; f = 0 where p = 0.
    if p:
        return _static_point(u, pp / p * sin(theta) ** 2 * u, t, phi, theta)
    return _static_point(0.0, u, t, phi, theta)


def _example2_point(spec: CurveSpec, tau: float, u: float) -> Point4:
    if u < 0:
        raise DomainError("the plane is parameterized by u >= 0")
    sg = spec.sign_p_prime
    if u:
        return _static_point(-spec.kappa, sg * u, spec.t0, sg * tau)
    # The pole point, whose h = 0 names no branch.
    return _static_point(-spec.kappa, 0.0, spec.t0, 0.0,
                         0.0 if sg > 0 else math.pi)


def _example3_point(spec: CurveSpec, tau: float, u: float) -> Point4:
    return _static_point(spec.kappa, u, spec.t0, tau)


def _example4_point(spec: CurveSpec, tau: float, u: float) -> Point4:
    return _static_point(u, spec.kappa, tau, spec.phi0)


def _log_u_slope(p: int, p_prime: int, theta: float,
                 terms: LogTerms) -> float:
    """d log|u| / dtheta along the (p, p') profile at theta, where
    u = e^{-sqrt6 s} g and g = 1 - 3 cos^2 theta; nan where the
    denominator of ds/dtheta rounds to 0.  It takes the pair's log
    terms and no range lookup, so a probe pays for no lookup."""
    try:
        ds = _ds_dtheta(p, p_prime, theta, terms)
    except ZeroDivisionError:
        return math.nan
    c = cos(theta)
    # g from _cone_factor, as _u_of takes it; it is 0 at no float angle.
    return -SQRT6 * ds + 6.0 * c * sin(theta) / _cone_factor(theta, c)


def _profile_point(spec: CurveSpec, tau: float, u: float,
                   clip: float) -> Point4:
    """The point of the profile curve at (tau, u), found by bracketed
    Newton iteration on the clipped range from _point_start's record;
    eval_invariant_curve checks its s with fh_at.

    u = 0 is resolved first, in closed form: u_of = e^{-sqrt6 s} g,
    g = 1 - 3 cos^2 theta, vanishes at the cone angle, THETA_C or
    pi - THETA_C, whichever lies on the clipped range (u_of is strictly
    monotone there, so at most one does).  Where neither does, u_of
    reaches 0 only where e^{-sqrt6 s} underflows: DomainError.

    Each probe x is decided by _u_of, which moves one end of a bracket
    [a, b] around the angle where u_of crosses u, and the point is the
    midpoint of the first bracket narrower than 1e-13, as a bisection's
    would be.  The first probe is the clipped range's midpoint, whose
    u_of the record holds.  From each probe the next is a Newton step
    while the iteration converges (slope = d log|u_of|/dtheta there):
    - on log|u|, where u_of is a normal float of the sign of u: the step
      gap / slope, gap = log(u / u_of), which keeps its digits where
      |log u| is large (no step where the ratio overflows or rounds to
      0), while |gap| falls below half the previous probe's;
    - where u_of is u and a normal float, the step 0.
    A subnormal u_of takes no step: it has too few bits to place the
    crossing, and it equals u across spans far wider than 4e-14.
    Otherwise, and where the step leaves (a, b), the next probe is the
    bracket's midpoint; a probe with none of these steps lets the next
    one step.  A step shorter than 4e-14 is lengthened to 4e-14 toward
    the inside of the bracket: Newton's probes tend to approach the
    crossing from one side, and this one lands on the other, which
    closes the bracket.  Convergence is strict, so where u_of is u at a
    second probe in a row (flat in floats), the next one bisects.
    """
    lo, hi, terms, base, sign, u_min, u_max, u_x = _point_start(spec, clip)
    p, p_prime = spec.p, spec.p_prime
    if not u_min <= u <= u_max:
        raise DomainError(f"u = {u} outside [{u_min}, {u_max}] reachable "
                          f"on the clipped range")
    if u == 0.0:
        # The cone angle closes the bracket: the loop below does not run.
        a = b = THETA_C if lo <= THETA_C <= hi else math.pi - THETA_C
        if not lo <= a <= hi:
            raise DomainError(
                f"u = 0 is reached on [{lo}, {hi}] only where f and h "
                f"underflow the normal floats: no cone angle lies on it")
    else:
        a, b = lo, hi
    x = 0.5 * (a + b)
    last = math.inf                  # the previous probe's |gap|
    while b - a >= 1e-13:           # u_of is strictly monotone on the range
        if sign * (u_x - u) < 0.0:
            a = x
        else:
            b = x
        if b - a < 1e-13:
            break
        step = math.nan
        normal = _TINY <= abs(u_x) < math.inf
        if u_x == u and normal:
            size = step = 0.0
        elif normal and u_x * u > 0.0:
            ratio = u / u_x
            gap = log(ratio) if 0.0 < ratio < math.inf else math.inf
            size = abs(gap)
            if size < 0.5 * last:
                slope = _log_u_slope(p, p_prime, x, terms)
                step = gap / slope if slope else math.nan
        else:
            size = math.inf
        converging, last = size < 0.5 * last, size
        if converging and abs(step) < 4e-14:
            step = 4e-14 if x == a else -4e-14
        x = x + step if converging and a < x + step < b else 0.5 * (a + b)
        u_x = _u_of(terms, base, x)
    theta = 0.5 * (a + b)
    log_sum, = _log_sums(terms, (theta,))
    return Point4(s=base + log_sum, t=tau, theta=theta,
                  phi=spec.phi0 + tau * p_prime / p)


def eval_invariant_curve(spec: CurveSpec, tau: float, u: float,
                         clip: float = 1e-9) -> Point4:
    """Evaluate the parameterized subvariety at (tau, u).

    The static families take theta and s from their (f, h) through one
    helper, _static_point, whose angle is THETA_C or pi - THETA_C where
    h/f is not finite.  For the profile families the angle solving
    u = e^{-sqrt6 s(theta)}(1 - 3 cos^2 theta) is the cone angle on the
    clipped range at u = 0, and elsewhere is found by bracketed Newton
    iteration on the clipped range, to a bracket narrower than 1e-13 (u
    is strictly monotone in theta along a profile), from the curve's
    cached _point_start record (4 evaluations of s when first built:
    the clip ends, the anchor and the first probe).  A nan or
    infinite tau or u is a DomainError before any family runs, and every
    family's point is checked by fh_at, so a point is returned only
    where e^{-sqrt6 s} is a normal float (DomainError elsewhere).  The
    clip bounds only the u a point can reach: 1e-9 reaches far along
    each end.  A trace's end rows sit at its clip and need a normal
    e^{-sqrt6 s}, so a trace keeps geometry.DEFAULT_CLIP = 1e-4 (at
    1e-9, 88 of the 4,334 ranges of the coprime admissible p <= 30,
    |p'| <= 45 are refused, against 36 at 1e-4).
    """
    if not (math.isfinite(tau) and math.isfinite(u)):
        require_finite(tau=tau, u=u)
    if spec.example_id == 1:
        pt = _example1_point(spec, tau, u)
    elif spec.example_id == 2:
        pt = _example2_point(spec, tau, u)
    elif spec.example_id == 3:
        pt = _example3_point(spec, tau, u)
    elif spec.example_id == 4:
        pt = _example4_point(spec, tau, u)
    elif spec.example_id in (5, 6, 7):
        pt = _profile_point(spec, tau, u, clip)
    else:
        raise DomainError(f"unknown example id {_text(spec.example_id)}")
    fh_at(pt.s, pt.theta)       # every family: s where e^{-sqrt6 s} is normal
    return pt
