"""The explicit torus-invariant subvarieties and their profile curves.

Seven families of cylinders, planes and orbit cylinders are invariant
under a one-parameter subgroup of the torus acting on S^1 x S^2.  The
static families have closed-form parameterizations; the genuinely
one-parameter families (both labeled by a coprime pair (p, p') with
p > 0) satisfy, in the parameterization (t = tau, f = u,
phi = phi0 + (p'/p) tau, h = h(u)), the profile equation

    dh/du = (p'/p) sin^2(theta),

where theta is recovered from h/f = lambda(theta).  For fixed label the
angle theta is strictly monotone along a profile and confined to one of
the ranges cut out by the constant solutions {0, theta0, theta0_bar,
pi}; on any such range s = s(theta) is an antiderivative of

    - (1 - 3 cos^2 th + sqrt6 a cos th sin^2 th)
      / ((sqrt6 cos th - a (1 - 3 cos^2 th)) sin th),     a = p'/p.

This module works with s(theta) and recovers u = f = e^{-sqrt6 s}
(1 - 3 cos^2 theta) algebraically afterwards.  That avoids the
stiffness of the u-parameterized equation near the fixed angles, where
s diverges.  f and h come from geometry.fh_at, the package's one guarded
e^{-sqrt6 s}: trace rows, ODE residuals and profile points exist only
where that factor is a normal positive float (about -289.77 < s <
289.20), and are refused with DomainError elsewhere.

In x = cos(theta) the slope ds/dx is a proper rational function with
simple poles at x = +-1 and at the roots of 3 a x^2 + sqrt6 x - a (the
cosines of theta0 and theta0_bar), so s is in closed form a sum of
residue * log|x - pole| terms (profile_log_terms).
"""

from __future__ import annotations

import functools
import math
from decimal import Decimal, localcontext
from typing import NamedTuple, Optional

from .budgets import MAX_TRACE_SAMPLES
from .errors import (BranchError, DomainError, InvalidLabel, WrongExample)
from .geometry import (DEFAULT_CLIP, SQRT6, BranchId, Point4, fh_at,
                       theta_from_lambda)
from .reeb import ReebOrbit, OrbitKind, classify_pair, theta_roots

_LOG2 = math.log(2.0)


class ThetaRange(NamedTuple):
    """One monotonicity range of theta for a profile family."""

    lo: float
    hi: float
    lo_label: str   # "pole0" | "theta0" | "theta0_bar" | "polePi"
    hi_label: str


@functools.lru_cache(maxsize=256)
def classify_branches(p: int, p_prime: int) -> tuple[ThetaRange, ...]:
    """The theta ranges available to the (p, p') profile family, in
    increasing order; p > 0 and (p, p') admissible.

    The ranges are the gaps between consecutive fixed angles: the poles
    0 and pi, theta0, and theta0_bar when the pair has one.
    """
    if p <= 0:
        raise InvalidLabel(f"({p}, {p_prime}): profile families need p > 0")
    ok, why = classify_pair(p, p_prime)
    if not ok:
        raise InvalidLabel(f"({p}, {p_prime}): {why}")
    th0, thb = theta_roots(p, p_prime)
    angles = [(0.0, "pole0"), (th0, "theta0"), (math.pi, "polePi")]
    if thb is not None:
        angles.insert(2, (thb, "theta0_bar"))
    # Stable, on the angle only: a theta0_bar rounded onto a pole stays inside.
    angles.sort(key=lambda angle: angle[0])
    return tuple(ThetaRange(lo, hi, lo_label, hi_label)
                 for (lo, lo_label), (hi, hi_label) in zip(angles, angles[1:]))


def profile_ds_dtheta(p: int, p_prime: int, theta: float) -> float:
    """ds/dtheta along a profile, away from the fixed angles."""
    a = p_prime / p
    c = math.cos(theta)
    sn = math.sin(theta)
    num = 1.0 - 3.0 * c * c + SQRT6 * a * c * sn * sn
    den = (SQRT6 * c - a * (1.0 - 3.0 * c * c)) * sn
    return -num / den


def _common_range(p: int, p_prime: int, a: float, b: float) -> None:
    """Raise unless [a, b] sits strictly inside one fixed-angle-free range."""
    lo, hi = min(a, b), max(a, b)
    ranges = classify_branches(p, p_prime)
    if any(rng.lo < lo and hi < rng.hi for rng in ranges):
        return
    angles = [rng.lo for rng in ranges] + [math.pi]
    raise BranchError(
        f"[{lo}, {hi}] is not strictly inside a fixed-angle-free range of "
        f"({p}, {p_prime}); fixed angles: {angles}")


class LogTerm(NamedTuple):
    """One term residue * log|cos(theta) - pole| of s(theta)."""

    residue: float
    pole: float
    angle: Optional[float]   # the fixed angle over the pole; None if |pole| > 1
    offset: float            # cos(angle) - pole, which rounding leaves nonzero


def _dec_cos(x: float) -> Decimal:
    """cos(x) for |x| <= pi by its Taylor series, in the current context."""
    x2 = Decimal(x) ** 2
    term = total = Decimal(1)
    k = 0
    while True:
        k += 2
        term = -term * x2 / (k * (k - 1))
        if total + term == total:
            return total
        total += term


@functools.lru_cache(maxsize=256)
def profile_log_terms(p: int, p_prime: int) -> tuple[LogTerm, ...]:
    """The partial fractions of ds/dx, x = cos(theta).

    ds/dx = N(x) / D(x) with N = 1 - 3x^2 + sqrt6 a x (1 - x^2) and
    D = (3a x^2 + sqrt6 x - a)(1 - x^2), a = p'/p, so that
    s = sum residue * log|x - pole| + const with residue = N/D' at the
    pole.  The poles at x = 1 and x = -1 have residues 1/(2a + sqrt6)
    and 1/(sqrt6 - 2a); the quadratic's roots (its single root x = 0
    when a = 0) are taken in cancellation-free form at 40 digits.  A
    pole inside [-1, 1] carries its fixed angle, from theta_roots, and
    the offset cos(angle) - pole, since that angle is the float that
    bounds the theta ranges.
    """
    if p < 0:                        # s depends on p'/p only
        p, p_prime = -p, -p_prime
    a = p_prime / p
    th0, thb = theta_roots(p, p_prime)
    terms = [LogTerm(1.0 / (2.0 * a + SQRT6), 1.0, 0.0, 0.0),
             LogTerm(1.0 / (SQRT6 - 2.0 * a), -1.0, math.pi, 0.0)]
    with localcontext() as ctx:
        ctx.prec = 40
        a_dec = Decimal(p_prime) / p
        sqrt6 = Decimal(6).sqrt()
        big = sqrt6 + (6 + 12 * a_dec * a_dec).sqrt()
        roots = [(2 * a_dec / big, th0)]
        if p_prime != 0:
            roots.append((-big / (6 * a_dec), thb))
        for r_dec, angle in roots:
            r = float(r_dec)
            one_minus_r2 = (1.0 - r) * (1.0 + r)
            num = 1.0 - 3.0 * r * r + SQRT6 * a * r * one_minus_r2
            residue = num / ((6.0 * a * r + SQRT6) * one_minus_r2)
            offset = 0.0 if angle is None else float(_dec_cos(angle) - r_dec)
            terms.append(LogTerm(residue, r, angle, offset))
    return tuple(terms)


def _log_sum(terms: tuple[LogTerm, ...], theta: float) -> float:
    """sum residue * log|cos(theta) - pole|, which is s(theta) up to a
    constant on each range.  Near a fixed angle the gap is taken as a
    product of sines, which keeps its relative accuracy where
    cos(theta) - cos(angle) would cancel."""
    half = 0.5 * theta
    total = 0.0
    for residue, pole, angle, offset in terms:
        if angle is None:
            log_gap = math.log(abs(math.cos(theta) - pole))
        elif angle == 0.0:           # 1 - cos = 2 sin^2(theta/2)
            log_gap = _LOG2 + 2.0 * math.log(abs(math.sin(half)))
        elif angle == math.pi:       # 1 + cos = 2 cos^2(theta/2)
            log_gap = _LOG2 + 2.0 * math.log(abs(math.cos(half)))
        else:
            log_gap = math.log(abs(
                offset - 2.0 * math.sin(half + 0.5 * angle)
                * math.sin(half - 0.5 * angle)))
        total += residue * log_gap
    return total


def s_of_theta(p: int, p_prime: int, theta_ref: float, s_ref: float,
               theta: float) -> float:
    """s at theta along the profile through (theta_ref, s_ref).

    The pair must be one classify_branches accepts (p > 0, admissible,
    coprime), else InvalidLabel.  Both angles must lie strictly inside
    the same fixed-angle-free range, else BranchError, also when they
    are equal (s diverges at a fixed angle): the log terms of
    profile_log_terms are an antiderivative of ds/dtheta only there.
    """
    _common_range(p, p_prime, theta_ref, theta)
    if theta == theta_ref:
        return s_ref
    terms = profile_log_terms(p, p_prime)
    return s_ref + (_log_sum(terms, theta) - _log_sum(terms, theta_ref))


def _clipped(rng: ThetaRange, clip: float) -> tuple[float, float]:
    """[lo + clip, hi - clip], which must lie strictly inside the range."""
    lo, hi = rng.lo + clip, rng.hi - clip
    if not rng.lo < lo < hi < rng.hi:
        raise BranchError(
            f"clip {clip} leaves no angles strictly inside "
            f"[{rng.lo}, {rng.hi}]")
    return lo, hi


class CurveSpec(NamedTuple):
    """Parameters of one invariant subvariety.

    example_id 1: an orbit cylinder R x gamma (orbit field set);
    2: the plane t = t0, f = -kappa < 0 (sign_p_prime picks the pole);
    3: the cylinder t = t0, f = kappa > 0;
    4: the cylinder phi = phi0, h = kappa != 0;
    5/6/7: a profile family member, labeled by p > 0 coprime to p',
    the angle range index from classify_branches, the torus phase phi0
    and the anchor value of s.
    """

    example_id: int
    orbit: Optional[ReebOrbit] = None
    t0: float = 0.0
    kappa: float = 0.0
    sign_p_prime: int = 1
    phi0: float = 0.0
    p: int = 0
    p_prime: int = 0
    range_id: int = 0
    s_anchor: float = 0.0

    @classmethod
    def example1(cls, orbit: ReebOrbit) -> "CurveSpec":
        return cls(example_id=1, orbit=orbit)

    @classmethod
    def example2(cls, t0: float, kappa: float, sign_p_prime: int) -> "CurveSpec":
        if kappa <= 0:
            raise ValueError("the plane family needs kappa > 0")
        if sign_p_prime not in (-1, 1):
            raise ValueError("sign_p_prime is +-1")
        return cls(example_id=2, t0=t0, kappa=kappa, sign_p_prime=sign_p_prime)

    @classmethod
    def example3(cls, t0: float, kappa: float) -> "CurveSpec":
        if kappa <= 0:
            raise ValueError("this cylinder family needs kappa > 0")
        return cls(example_id=3, t0=t0, kappa=kappa)

    @classmethod
    def example4(cls, phi0: float, kappa: float) -> "CurveSpec":
        if kappa == 0:
            raise ValueError("this cylinder family needs kappa != 0")
        return cls(example_id=4, phi0=phi0, kappa=kappa)

    @classmethod
    def profile(cls, p: int, p_prime: int, range_id: int, phi0: float = 0.0,
                s_anchor: float = 0.0) -> "CurveSpec":
        ranges = classify_branches(p, p_prime)
        if not 0 <= range_id < len(ranges):
            raise ValueError(f"range_id {range_id} out of range")
        rid = ranges[range_id]
        endpoint_labels = {rid.lo_label, rid.hi_label}
        if endpoint_labels == {"theta0", "theta0_bar"}:
            example_id = 6
        elif "theta0_bar" in endpoint_labels:
            example_id = 7
        else:
            example_id = 5
        return cls(example_id=example_id, p=p, p_prime=p_prime,
                   range_id=range_id, phi0=phi0, s_anchor=s_anchor)

    def theta_range(self) -> ThetaRange:
        if self.example_id not in (5, 6, 7):
            raise WrongExample("only profile families carry a theta range")
        return classify_branches(self.p, self.p_prime)[self.range_id]

    def anchor_angle(self) -> float:
        """The range midpoint, where s = s_anchor."""
        rng = self.theta_range()
        return 0.5 * (rng.lo + rng.hi)


class TraceSample(NamedTuple):
    s: float
    t: float
    theta: float
    phi: float
    f: float
    h: float


class Trace(NamedTuple):
    spec: CurveSpec
    samples: tuple[TraceSample, ...]

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fp:
            fp.write("s,t,theta,phi,f,h\n")
            for r in self.samples:
                fp.write(",".join(f"{x:.12g}" for x in
                                  (r.s, r.t, r.theta, r.phi, r.f, r.h)) + "\n")


def _anchored(spec: CurveSpec) -> tuple[tuple[LogTerm, ...], float]:
    """The profile's log terms and the base with s = base +
    _log_sum(terms, theta), so that s = s_anchor at the range midpoint."""
    terms = profile_log_terms(spec.p, spec.p_prime)
    return terms, spec.s_anchor - _log_sum(terms, spec.anchor_angle())


def integrate_profile(p: int, p_prime: int, range_id: int,
                      s_anchor: float = 0.0, n_samples: int = 1000,
                      clip: float = DEFAULT_CLIP) -> Trace:
    """Trace one profile cylinder across a theta range.

    Samples theta uniformly on [lo + clip, hi - clip] (s diverges at the
    fixed angles), takes each s from the closed form relative to the
    range midpoint (where s = s_anchor), and recovers f and h
    algebraically.  Rows come out in increasing theta order, so theta
    is strictly monotone.  Each row is at t = phi = 0, with f and h from
    fh_at (DomainError where it refuses s).  DomainError past
    MAX_TRACE_SAMPLES, before any row.
    """
    if n_samples < 2:
        raise ValueError("need at least two samples")
    if n_samples > MAX_TRACE_SAMPLES:
        raise DomainError(f"{n_samples} samples exceed {MAX_TRACE_SAMPLES}, "
                          f"the budget of a trace")
    spec = CurveSpec.profile(p, p_prime, range_id, s_anchor=s_anchor)
    lo, hi = _clipped(spec.theta_range(), clip)
    terms, base = _anchored(spec)
    samples = []
    for i in range(n_samples):
        theta = lo + (hi - lo) * i / (n_samples - 1)
        s = base + _log_sum(terms, theta)
        _, f, h = fh_at(s, theta)
        # TraceSample checks nothing, so tuple.__new__ builds the same
        # row without the generated __new__.
        samples.append(tuple.__new__(TraceSample, (s, 0.0, theta, 0.0, f, h)))
    return Trace(spec=spec, samples=tuple(samples))


def profile_ode_residual(spec: CurveSpec, theta: float) -> float:
    """|dh/du - (p'/p) sin^2 theta| at one point of a profile curve.

    dh/du is a central finite difference of h with respect to u between
    two points of the curve, with the theta step 3e-4 times the
    distance from the nearest fixed angle (h and u grow like a power of
    that distance, so a fixed step would measure resolution, not the
    curve).  DomainError where fh_at refuses s at a step.
    """
    rng = spec.theta_range()
    dist = min(theta - rng.lo, rng.hi - theta)
    if not dist > 0:
        raise BranchError("theta outside the open range")
    terms, base = _anchored(spec)
    step = 3e-4 * dist
    lo, hi = theta - step, theta + step
    _, f_lo, h_lo = fh_at(base + _log_sum(terms, lo), lo)
    _, f_hi, h_hi = fh_at(base + _log_sum(terms, hi), hi)
    fd = (h_hi - h_lo) / (f_hi - f_lo)
    return abs(fd - (spec.p_prime / spec.p) * math.sin(theta) ** 2)


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
    raise WrongExample(f"no closed-form s_max for example {spec.example_id}")


def _example1_point(spec: CurveSpec, tau: float, u: float) -> Point4:
    orbit = spec.orbit
    if orbit is None:
        raise ValueError("example 1 needs an orbit")
    if orbit.kind is not OrbitKind.GENERIC:
        # theta constant at a pole: (t = -tau, f = -u), u > 0, and
        # s = -ln(u/2)/sqrt6.
        if u <= 0:
            raise DomainError("pole cylinders need u > 0")
        theta = 0.0 if orbit.kind is OrbitKind.POLE_PLUS else math.pi
        return Point4(s=-math.log(u / 2.0) / SQRT6, t=-tau, theta=theta, phi=0.0)
    assert orbit.pair is not None and orbit.theta0 is not None
    p, pp = orbit.pair.m, orbit.pair.m_prime
    th = orbit.theta0
    c = math.cos(th)
    if p == 0:
        if u * pp <= 0:
            raise DomainError("sign(u) must equal sign(p')")
        # h = u on the f = 0 cylinder.
        hconst = SQRT6 * c * math.sin(th) ** 2
        s = -math.log(u / hconst) / SQRT6
        return Point4(s=s, t=orbit.upsilon / pp, theta=th, phi=tau)
    if u == 0 or (u > 0) != (p > 0):
        raise DomainError("sign(u) must equal sign(p)")
    fconst = 1.0 - 3.0 * c * c
    s = -math.log(u / fconst) / SQRT6
    phi0 = -orbit.upsilon / p
    return Point4(s=s, t=tau, theta=th, phi=phi0 + tau * pp / p)


def _example2_point(spec: CurveSpec, tau: float, u: float) -> Point4:
    if u < 0:
        raise DomainError("the plane is parameterized by u >= 0")
    sg = spec.sign_p_prime
    if u == 0:
        theta = 0.0 if sg > 0 else math.pi
    else:
        lam = -sg * u / spec.kappa
        branch = BranchId.A if sg > 0 else BranchId.C
        theta = theta_from_lambda(lam, branch)
    c = math.cos(theta)
    s = -math.log(spec.kappa / (3.0 * c * c - 1.0)) / SQRT6
    return Point4(s=s, t=spec.t0, theta=theta, phi=(sg * tau) if u else 0.0)


def _example3_point(spec: CurveSpec, tau: float, u: float) -> Point4:
    theta = theta_from_lambda(u / spec.kappa, BranchId.B)
    c = math.cos(theta)
    s = -math.log(spec.kappa / (1.0 - 3.0 * c * c)) / SQRT6
    return Point4(s=s, t=spec.t0, theta=theta, phi=tau)


def _example4_point(spec: CurveSpec, tau: float, u: float) -> Point4:
    kappa = spec.kappa
    if u == 0:
        theta = math.acos(math.copysign(1.0, kappa) / math.sqrt(3.0))
    else:
        lam = kappa / u
        if kappa > 0:
            branch = BranchId.B if u > 0 else BranchId.A
        else:
            branch = BranchId.B if u > 0 else BranchId.C
        theta = theta_from_lambda(lam, branch)
    c = math.cos(theta)
    s = -math.log(kappa / (SQRT6 * c * math.sin(theta) ** 2)) / SQRT6
    return Point4(s=s, t=tau, theta=theta, phi=spec.phi0)


def _profile_point(spec: CurveSpec, tau: float, u: float,
                   clip: float) -> Point4:
    """The point of the profile curve at (tau, u), found by bisection on
    the clipped range; eval_invariant_curve checks its s with fh_at."""
    lo, hi = _clipped(spec.theta_range(), clip)
    terms, base = _anchored(spec)

    def u_of(theta: float) -> float:
        # Saturates where e^{-sqrt6 s} overflows or underflows: that
        # end's u is out of any float's reach, and the bisection only
        # needs the order.  The point it finds is checked by fh_at.
        g = 1.0 - 3.0 * math.cos(theta) ** 2
        try:
            return math.exp(-SQRT6 * (base + _log_sum(terms, theta))) * g
        except OverflowError:
            return math.copysign(math.inf, g)

    u_lo, u_hi = u_of(lo), u_of(hi)
    sign = 1.0 if u_hi > u_lo else -1.0
    if not min(u_lo, u_hi) <= u <= max(u_lo, u_hi):
        raise DomainError(
            f"u = {u} outside [{min(u_lo, u_hi)}, {max(u_lo, u_hi)}] "
            f"reachable on the clipped range")
    a, b = lo, hi
    while b - a >= 1e-13:           # u_of is strictly monotone on the range
        mid = 0.5 * (a + b)
        if sign * (u_of(mid) - u) < 0.0:
            a = mid
        else:
            b = mid
    theta = 0.5 * (a + b)
    return Point4(s=base + _log_sum(terms, theta), t=tau, theta=theta,
                  phi=spec.phi0 + tau * spec.p_prime / spec.p)


def eval_invariant_curve(spec: CurveSpec, tau: float, u: float,
                         clip: float = 1e-9) -> Point4:
    """Evaluate the parameterized subvariety at (tau, u).

    The static families are closed-form; for the profile families the
    angle solving u = e^{-sqrt6 s(theta)}(1 - 3 cos^2 theta) is found by
    bisection on the clipped range (u is strictly monotone in theta
    along a profile).  Every family's point is checked by fh_at, so a
    point is returned only where e^{-sqrt6 s} is a normal float
    (DomainError elsewhere).
    """
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
        raise WrongExample(f"unknown example id {spec.example_id}")
    fh_at(pt.s, pt.theta)       # every family: s where e^{-sqrt6 s} is normal
    return pt
