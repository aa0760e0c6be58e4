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
s diverges.  f and h come from geometry.fh_rows, the package's one
guarded e^{-sqrt6 s}, as columns over a block of angles (the points
module's fh_at reads one row of them): trace rows and profile points
exist only where that factor is a normal positive float (about
-289.12 < s < 289.20), and are refused with DomainError elsewhere.
Every 1 - 3 cos^2 theta here, in u, is geometry._cone_factor's, which
keeps its digits next to the cone angles, where it vanishes.

This module holds what the trace command runs: the families' specs,
the terms of s and traces.  The points of the families, s at an angle
and ds/dtheta are the points module's, which no command loads.

In x = cos(theta) the slope ds/dx is a proper rational function with
simple poles at x = +-1 and at the roots of 3 a x^2 + sqrt6 x - a (the
cosines of theta0 and theta0_bar), so s is in closed form a sum of
residue * log|x - pole| terms.  The outer root is taken from its pole
distance g = 1 - |root| in reeb, which comes from the exact integer
2 p'^2 - 3 p^2.  It approaches the pole x = -sign(p') as 2 p'^2 nears
3 p^2, where the two residues grow like p^2 / |2 p'^2 - 3 p^2| and
cancel: where |g| < 1/8 that root and pole are one term,
S log u + R log|1 - g/u| with u = |x - pole|, whose second log is
log1p(-g/u) where |g/u| <= 1/2 and log(|u - g| / u) elsewhere.  s is
refused only where theta_roots refuses the pair or 2 (p'/p)^2 or g
leaves the normal floats.  profile_log_terms builds the terms once per
pair as one cached record, in the form and order that _log_sums, the
one evaluator of s, adds them up: over a block of a trace's angles per
call, or at one or two angles for points' s_of_theta and the Newton
iteration of a profile point.
A curve's clipped range and anchored terms are one cached record,
_point_start, which its trace and its points share.
"""

from __future__ import annotations

import functools
import math
from itertools import repeat
# _log_sums and _u_of call these as module globals, which costs less
# than binding them to locals on every call.
from math import cos, log, log1p, sin
from typing import NamedTuple, Optional, Sequence

from .budgets import MAX_TRACE_SAMPLES, require_within
from .errors import DomainError, _text
from .geometry import (DEFAULT_CLIP, SQRT6, _cone_factor, fh_rows,
                       require_finite)
from .reeb import ReebOrbit, _pole_distance, classify_pair, theta_roots

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
        raise DomainError(
            f"{_text((p, p_prime))}: profile families need p > 0")
    ok, why = classify_pair(p, p_prime)
    if not ok:
        raise DomainError(f"{_text((p, p_prime))}: {'; '.join(why)}")
    th0, thb = theta_roots(p, p_prime)
    angles = [(0.0, "pole0"), (th0, "theta0"), (math.pi, "polePi")]
    if thb is not None:
        angles.append((thb, "theta0_bar"))
    angles.sort()
    return tuple(ThetaRange(lo, hi, lo_label, hi_label)
                 for (lo, lo_label), (hi, hi_label) in zip(angles, angles[1:]))


def _dec_cos(x: float):
    """cos(x) for |x| <= pi by its Taylor series, as a Decimal in the
    current context."""
    from decimal import Decimal
    x2 = Decimal(x) ** 2
    term = total = Decimal(1)
    k = 0
    while True:
        k += 2
        term = -term * x2 / (k * (k - 1))
        if total + term == total:
            return total
        total += term


class LogTerms(NamedTuple):
    """The terms of s(theta) (profile_log_terms), in the order _log_sums
    adds them."""

    at_zero: float     # residue over x = 1, times log(1 - cos theta)
    at_pi: float       # residue over x = -1, times log(1 + cos theta)
    inner: tuple[float, float, float]   # theta0's residue, half angle, offset
    # The outer root's residue, g, whether its pole is x = 1, theta0_bar's
    # half angle and u - g there (0.0 where g < 0), and S where |g| < 1/8;
    # None when p' = 0.
    outer: Optional[tuple[float, float, bool, float, float, Optional[float]]]


#: |g| below which the outer root and its pole are one term.  Inside it
#: both residues exceed 1.1 in size and 4 S, so as two terms they would
#: cancel in s; outside it neither exceeds 2.1, and the pole's own
#: residue keeps the slope of s at the pole, which S less the root's
#: would lose where the root's dominates (36 times the pole's at (1, 45)).
_PAIRED_G = 0.125


@functools.lru_cache(maxsize=256)
def profile_log_terms(p: int, p_prime: int) -> LogTerms:
    """The partial fractions of ds/dx, x = cos(theta).

    ds/dx = N(x) / D(x) with N = 1 - 3x^2 + sqrt6 a x (1 - x^2) and
    D = (3a x^2 + sqrt6 x - a)(1 - x^2), a = p'/p, so that
    s = sum residue * log|x - pole| + const with residue = N/D' at the
    pole; the residues sum to sqrt6/3 (sqrt6/2 when p' = 0).  The poles
    x = sign(p') and -sign(p') have residues 1/(sqrt6 +- 2|a|).  The
    inner root (x = 0 when p' = 0) is taken at 40 digits: its residue,
    and its offset cos(theta0) - root, which rounding of theta0 leaves
    nonzero.  The outer root r comes from g = 1 - |r|, reeb's signed
    pole distance from the exact integer 2 p'^2 - 3 p^2: its residue R,
    and where g > 0 (a companion angle) the offset u - g at theta0_bar,
    with u = |x - pole| and pole = -sign(p'), so that |x - r| = |u - g|.
    _log_sums takes u - g from sines of quarter angles, which keep their
    digits where theta0_bar nears the pole and the half-angle form of
    theta0's term would lose ulp(pi) / (pi - theta0_bar) relatively.

    r approaches the pole as 2 p'^2 nears 3 p^2, where the pole's
    residue and R grow like p^2 / |2 p'^2 - 3 p^2| with opposite signs
    and cancel in s.  Where |g| < 1/8 (_PAIRED_G) the two are one term,
    S log u + R log|1 - g/u| with S = sqrt6/3 less the other two
    residues, which cancels nothing; the pole's residue is then
    -(1 - g) / (|a| g (4 - 3g)), the same value free of the rounding of
    2|a| onto sqrt6.  _log_sums takes the pair's second log as
    log1p(-g/u) where |g/u| <= 1/2, elsewhere as log(|u - g| / u).
    Elsewhere the pole and the root are two terms.  DomainError where
    theta_roots refuses the pair, or where 2 (p'/p)^2 or g leaves the
    normal floats (p'/p rounds to 0 at (10^400, 1)).
    """
    # Here and in _dec_cos, its only users, decimal costs no start-up
    # time of a command that computes no roots at 40 digits.
    from decimal import Decimal, localcontext
    if p < 0:                        # s depends on p'/p only
        p, p_prime = -p, -p_prime
    th0, thb = theta_roots(p, p_prime)
    a = p_prime / p
    b = abs(a)
    far = 1.0 / (2.0 * b + SQRT6)
    with localcontext() as ctx:
        ctx.prec = 40
        a_dec = Decimal(p_prime) / p
        big = Decimal(6).sqrt() + (6 + 12 * a_dec * a_dec).sqrt()
        r_dec = 2 * a_dec / big
        r = float(r_dec)
        one_minus_r2 = (1.0 - r) * (1.0 + r)
        num = 1.0 - 3.0 * r * r + SQRT6 * a * r * one_minus_r2
        residue = num / ((6.0 * a * r + SQRT6) * one_minus_r2)
        inner = (residue, 0.5 * th0, float(_dec_cos(th0) - r_dec))
        if p_prime == 0:
            return LogTerms(far, far, inner, None)
        g = _pole_distance(p, p_prime, (p, p_prime))
        thb, offset = thb or 0.0, 0.0
        if g > 0.0:      # u - g at theta0_bar: sign(p') (cos - root)
            offset = float((_dec_cos(thb) + big / (6 * a_dec))
                           * (1 if a > 0.0 else -1))
    # With w = b (1 - g) = |a r| and m = b^2 (1 - r^2),
    # R = sqrt6 w (1 + m) / ((6w - sqrt6) m), where 6w > 2 sqrt6.
    w, m = b * (1.0 - g), b * g * (b * (2.0 - g))
    if abs(g) < _PAIRED_G:
        pair = SQRT6 / 3.0 - far - residue
        near = -(1.0 - g) / (b * g * (4.0 - 3.0 * g))
    else:
        pair, near = None, 1.0 / (SQRT6 - 2.0 * b)
    outer = (SQRT6 * w / (6.0 * w - SQRT6) * ((1.0 + m) / m), g, a < 0.0,
             0.5 * thb, offset, pair)
    return LogTerms(*((near, far) if a < 0.0 else (far, near)), inner, outer)


def _log_sums(terms: LogTerms, thetas: Sequence[float]) -> list[float]:
    """sum residue * log|cos(theta) - pole| at each theta, which is
    s(theta) up to a constant on each range, in profile_log_terms' form;
    the package's one evaluator of s, over a block of a trace or one
    angle per call.  Near a fixed angle the gap is taken as a product of
    sines, which keeps its relative accuracy where cos(theta) -
    cos(angle) would cancel.

    Every theta must lie strictly inside (0, pi), as every caller's
    does: then sin(theta/2) and cos(theta/2) are positive, and their
    logs are taken without abs()."""
    at_zero, at_pi, (residue, half_angle, offset), outer = terms
    if outer is not None:
        root_residue, g, at_pole_zero, half_root, root_offset, pair = outer
        near = math.inf              # u >= near: the log1p form
        if pair is not None:         # S stands for the pole's residue
            at_zero, at_pi = (pair, at_pi) if at_pole_zero else (at_zero,
                                                                  pair)
            near = 2.0 * abs(g)      # |g/u| > 1/2 where u < near
        w_root = sin(half_root) if at_pole_zero else cos(half_root)
    totals = []
    for theta in thetas:
        half = 0.5 * theta
        sh, ch = sin(half), cos(half)
        try:
            gap_zero = _LOG2 + 2.0 * log(sh)     # log(1 - cos)
        except ValueError:
            # half rounds to 0 only at theta = 5e-324; there
            # 2 log sin(theta/2) = 2 (log sin theta - log(2 cos(theta/2))).
            gap_zero = _LOG2 + 2.0 * (log(sin(theta)) - log(2.0 * ch))
        gap_pi = _LOG2 + 2.0 * log(ch)       # log(1 + cos)
        # points._ds_dtheta writes the two root gaps again, for the slope
        # of s: a helper shared with it slowed traces by about 6 %.
        total = at_zero * gap_zero + at_pi * gap_pi + residue * log(abs(
            offset - 2.0 * sin(half + half_angle) * sin(half - half_angle)))
        if outer is not None:
            w = sh if at_pole_zero else ch
            u = 2.0 * w * w                  # |cos(theta) - pole|
            if u >= near:
                total += root_residue * log1p(-g / u)
            else:
                if g < 0.0:
                    gap = u - g
                else:
                    # u - g = 2 (w - w_root)(w + w_root) + root_offset,
                    # w - w_root a product of sines of quarter angles.
                    quarter = 0.5 * (half + half_root)
                    dw = 2.0 * sin(0.5 * (half - half_root)) * (
                        cos(quarter) if at_pole_zero else -sin(quarter))
                    gap = abs(2.0 * dw * (w + w_root) + root_offset)
                if pair is None:
                    total += root_residue * log(gap)
                else:
                    # Where gap / u overflows (u below 1e-308 of a gap of
                    # at least |g|), the difference of logs cancels
                    # nothing.
                    ratio = gap / u if u else math.inf
                    total += root_residue * (
                        log(ratio) if ratio < math.inf else
                        log(gap) - (gap_zero if at_pole_zero else gap_pi))
        totals.append(total)
    return totals


class CurveSpec(NamedTuple):
    """Parameters of one invariant subvariety.

    example_id 1: an orbit cylinder R x gamma (orbit field set);
    2: the plane t = t0, f = -kappa < 0 (sign_p_prime picks the pole);
    3: the cylinder t = t0, f = kappa > 0;
    4: the cylinder phi = phi0, h = kappa != 0;
    5/6/7: a profile family member, labeled by p > 0 coprime to p',
    the angle range index from classify_branches, the torus phase phi0
    and the anchor value of s.  The constructors refuse a non-finite
    t0, phi0, kappa or s_anchor, and a range_id that classify_branches
    does not list, with DomainError.
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
        require_finite(t0=t0)
        if not 0 < kappa < math.inf:
            raise DomainError("the plane family needs a finite kappa > 0")
        if sign_p_prime not in (-1, 1):
            raise DomainError("sign_p_prime is +-1")
        return cls(example_id=2, t0=t0, kappa=kappa, sign_p_prime=sign_p_prime)

    @classmethod
    def example3(cls, t0: float, kappa: float) -> "CurveSpec":
        require_finite(t0=t0)
        if not 0 < kappa < math.inf:
            raise DomainError("this cylinder family needs a finite kappa > 0")
        return cls(example_id=3, t0=t0, kappa=kappa)

    @classmethod
    def example4(cls, phi0: float, kappa: float) -> "CurveSpec":
        require_finite(phi0=phi0)
        if kappa == 0 or not math.isfinite(kappa):
            raise DomainError("this cylinder family needs a finite kappa != 0")
        return cls(example_id=4, phi0=phi0, kappa=kappa)

    @classmethod
    def profile(cls, p: int, p_prime: int, range_id: int, phi0: float = 0.0,
                s_anchor: float = 0.0) -> "CurveSpec":
        require_finite(phi0=phi0, s_anchor=s_anchor)
        ranges = classify_branches(p, p_prime)
        if not 0 <= range_id < len(ranges):
            raise DomainError(f"range_id {_text(range_id)} out of range")
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
            raise DomainError("only profile families carry a theta range")
        return classify_branches(self.p, self.p_prime)[self.range_id]

    def anchor_angle(self) -> float:
        """The range midpoint, where s = s_anchor."""
        rng = self.theta_range()
        return 0.5 * (rng.lo + rng.hi)


#: Rows of a trace evaluated per _log_sums and fh_rows call, and built
#: from their columns in one pass.  A block keeps the per-call cost off
#: each row, and its intermediate lists stay small beside the rows, so
#: that a trace of MAX_TRACE_SAMPLES rows peaks at the memory of the
#: rows themselves.
_TRACE_BLOCK = 4096


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


def _anchored(spec: CurveSpec) -> tuple[LogTerms, float]:
    """The profile's log terms and the base that _log_sums' value at an
    angle is added to for its s, so that s = s_anchor at the range
    midpoint."""
    terms = profile_log_terms(spec.p, spec.p_prime)
    at_anchor, = _log_sums(terms, (spec.anchor_angle(),))
    return terms, spec.s_anchor - at_anchor


def integrate_profile(p: int, p_prime: int, range_id: int,
                      s_anchor: float = 0.0, n_samples: int = 1000,
                      clip: float = DEFAULT_CLIP) -> Trace:
    """Trace one profile cylinder across a theta range.

    Samples theta uniformly on [lo + clip, hi - clip] (s diverges at the
    fixed angles), takes each s from the closed form relative to the
    range midpoint (where s = s_anchor), and recovers f and h
    algebraically.  Rows come out in increasing theta order, so theta
    is strictly monotone.  Each row is at t = phi = 0.  The rows are
    evaluated _TRACE_BLOCK at a time: s by one _log_sums call and the
    f and h columns by one fh_rows call per block (DomainError, naming
    the first row fh_rows refuses), zipped into the block's rows.  The
    clipped range and the anchored log terms are the curve's
    _point_start record, which its points read too.
    DomainError for fewer than two samples, as CurveSpec.profile refuses
    its arguments, and past MAX_TRACE_SAMPLES, before any row.
    """
    if n_samples < 2:
        raise DomainError("need at least two samples")
    require_within("n_samples", n_samples, MAX_TRACE_SAMPLES, "a trace")
    spec = CurveSpec.profile(p, p_prime, range_id, s_anchor=s_anchor)
    lo, hi, terms, base = _point_start(spec, clip)[:4]
    width, last = hi - lo, n_samples - 1
    samples = []
    for start in range(0, n_samples, _TRACE_BLOCK):
        thetas = [lo + width * i / last
                  for i in range(start, min(start + _TRACE_BLOCK, n_samples))]
        s_values = [base + x for x in _log_sums(terms, thetas)]
        _, fs, hs = fh_rows(s_values, thetas)
        # TraceSample checks nothing, so tuple.__new__ builds the same
        # row from zip's tuple without the generated __new__, and map
        # calls it with no Python frame per row.
        samples += map(tuple.__new__, repeat(TraceSample),
                       zip(s_values, repeat(0.0), thetas, repeat(0.0),
                           fs, hs))
    return Trace(spec=spec, samples=tuple(samples))


def _u_of(terms: LogTerms, base: float, theta: float) -> float:
    """u = e^{-sqrt6 s} (1 - 3 cos^2 theta) for _anchored's terms and base;
    +-inf where e^{-sqrt6 s} overflows, since a bracket needs only order."""
    g = _cone_factor(theta, cos(theta))
    log_sum, = _log_sums(terms, (theta,))
    try:
        return math.exp(-SQRT6 * (base + log_sum)) * g
    except OverflowError:
        return math.copysign(math.inf, g)


@functools.lru_cache(maxsize=16)
def _point_start(spec: CurveSpec, clip: float) -> tuple:
    """(lo, hi, terms, base, sign, u_min, u_max, u_mid) of a profile
    curve at a clip: the clipped range (DomainError unless strictly
    inside the range), _anchored's record, _u_of's sign and ends, and
    u_mid = _u_of at the clipped range's midpoint, every point's first
    probe.  A trace reads the first four.  Errors are not cached.  A
    curve's trace and points come together: 16 suffice."""
    rng = spec.theta_range()
    lo, hi = rng.lo + clip, rng.hi - clip
    if not rng.lo < lo < hi < rng.hi:
        why = (f"rounds onto the end {rng.lo if lo == rng.lo else rng.hi} of"
               if clip > 0 and lo < hi else "leaves no angles strictly inside")
        raise DomainError(f"clip {clip} {why} [{rng.lo}, {rng.hi}]")
    terms, base = _anchored(spec)
    u_lo, u_hi = _u_of(terms, base, lo), _u_of(terms, base, hi)
    return (lo, hi, terms, base, 1.0 if u_hi > u_lo else -1.0,
            min(u_lo, u_hi), max(u_lo, u_hi),
            _u_of(terms, base, 0.5 * (lo + hi)))
