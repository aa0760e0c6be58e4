"""The tests' exact values: one high-precision statement of each
quantity the package returns as a float.

Each function reads the floats and ints it is given as exact numbers and
returns mpmath numbers, at 50 digits unless it says it needs more to
keep 50 where its formula cancels.  Every formula is written here from
the paper's geometry as the package's docstrings state it, and not from
the package: this module imports nothing from sympl_moduli
(tests/test_source.py), so no test checks a route against itself.  It is
the one module under tests/ that imports mpmath.

* At a point: 1 - 3 cos^2 theta (_cone, its one statement), lambda =
  h/f, e^{-sqrt6 s} with f, h and g, the frame partials of (f, h),
  alpha, omega, the Reeb field and J.
* Along a profile: the poles and residues of ds/dx, x = cos(theta), s by
  partial fractions, its own quadrature check, and ds/dtheta.
* Orbits: the roots of 3a x^2 + sqrt6 x - a and their angles, the decay
  constants, the generic and polar spectra, and an orbit's point.
* The closed-form families: the cosine where lambda crosses a value on a
  branch, and s from the coordinate a family fixes.
* The model map phi, its immersion residual and a double point.
"""

import mpmath as mp

#: The working digits of every value, unless a function adds its own.
DPS = 50


def mpf(x):
    """x as an exact mpmath number."""
    return mp.mpf(x)


def _digits_at_least(n):
    """A context of n digits, or more where the caller works at more:
    a value a caller asks for inside its own precision keeps it."""
    return mp.workdps(max(n, mp.mp.dps))


def _trig(theta):
    """(cos, sin) at the float theta."""
    x = mp.mpf(theta)
    return mp.cos(x), mp.sin(x)


# -- at a point --------------------------------------------------------

def _cone(c):
    """1 - 3 c^2, the cone factor at the cosine c, which vanishes on the
    cone cos^2 theta = 1/3."""
    return 1 - 3 * c * c


def cone_angles_above(theta_c, theta_c_bar):
    """How far the cone angles acos(1/sqrt3) and pi - acos(1/sqrt3),
    where 1 - 3 cos^2 theta = 0, lie above the floats given."""
    with _digits_at_least(DPS):
        cone = mp.acos(1 / mp.sqrt(3))
        return cone - mp.mpf(theta_c), mp.pi - cone - mp.mpf(theta_c_bar)


def lam(theta):
    """lambda = h/f = sqrt6 cos sin^2 / (1 - 3 cos^2) at the float theta."""
    with _digits_at_least(DPS):
        c, sn = _trig(theta)
        return mp.sqrt(6) * c * sn * sn / _cone(c)


def fh(s, theta):
    """(e, f, h): e = e^{-sqrt6 s}, f = e (1 - 3 cos^2 theta) and
    h = sqrt6 e cos sin^2 at s and the float theta, at three digits past
    DPS, which e loses to the size of sqrt6 s up to 10^3."""
    with _digits_at_least(DPS + 3):
        c, sn = _trig(theta)
        e = mp.exp(-mp.sqrt(6) * mp.mpf(s))
        return e, e * _cone(c), mp.sqrt(6) * e * c * sn * sn


def coords(s, theta):
    """(f, h, g), with g = sqrt6 e (1 + 3 cos^4)^{1/2}."""
    with _digits_at_least(DPS + 3):
        e, f, h = fh(s, theta)
        c, _ = _trig(theta)
        return f, h, mp.sqrt(6) * e * mp.sqrt(1 + 3 * c ** 4)


def frame(theta):
    """(g, f_s, f_theta, h_s, h_theta) at unit factor e = 1: g and the
    partials of (f, h) in (s, theta), each e^{-sqrt6 s} times this."""
    with _digits_at_least(DPS):
        c, sn = _trig(theta)
        r6, k = mp.sqrt(6), _cone(c)
        return (r6 * mp.sqrt(1 + 3 * c ** 4), -r6 * k, 6 * c * sn,
                -6 * c * sn * sn, -r6 * sn * k)


def alpha(theta, v):
    """alpha(v) = -(1 - 3 cos^2) v_t - sqrt6 cos sin^2 v_phi, v a
    (v_s, v_t, v_theta, v_phi) tuple of floats, with the sum of its two
    terms' sizes."""
    with _digits_at_least(DPS):
        c, sn = _trig(theta)
        terms = (-_cone(c) * mp.mpf(v[1]),
                 -mp.sqrt(6) * c * sn * sn * mp.mpf(v[3]))
        return sum(terms), sum(map(abs, terms))


def omega(s, theta, v, w):
    """omega = dt ^ df + dphi ^ dh on (v, w), with the sum of its terms'
    sizes, each partial of (f, h) taken apart."""
    with _digits_at_least(DPS + 3):
        e = fh(s, theta)[0]
        _, f_s, f_th, h_s, h_th = frame(theta)
        v, w = [mp.mpf(x) for x in v], [mp.mpf(x) for x in w]
        df_v, df_w = (f_s * v[0], f_th * v[2]), (f_s * w[0], f_th * w[2])
        dh_v, dh_w = (h_s * v[0], h_th * v[2]), (h_s * w[0], h_th * w[2])
        terms = [v[1] * x for x in df_w] + [-x * w[1] for x in df_v] + [
            v[3] * x for x in dh_w] + [-x * w[3] for x in dh_v]
        return e * mp.fsum(terms), e * mp.fsum(map(abs, terms))


def reeb(theta):
    """The Reeb field (v_s, v_t, v_theta, v_phi) = -(1 + 3 cos^4)^{-1}
    ((1 - 3 cos^2) d/dt + sqrt6 cos d/dphi), with no d/dphi coefficient
    at the poles, where that direction degenerates."""
    with _digits_at_least(DPS):
        c, _ = _trig(theta)
        n = 1 + 3 * c ** 4
        pole = theta in (0.0, float(mp.pi))
        return (mp.mpf(0), -_cone(c) / n, mp.mpf(0),
                mp.mpf(0) if pole else -mp.sqrt(6) * c / n)


def apply_J(theta, v):
    """J v: J d/dt = g d/df and J d/dphi = g sin^2 d/dh, so J d/df =
    -d/dt / g and J d/dh = -d/dphi / (g sin^2), with d/df and d/dh from
    the inverse of the Jacobian of (f, h) in (s, theta), at unit factor."""
    with _digits_at_least(DPS):
        _, sn = _trig(theta)
        g, f_s, f_th, h_s, h_th = frame(theta)
        s2, det = sn * sn, f_s * h_th - f_th * h_s
        v_s, v_t, v_th, v_phi = (mp.mpf(x) for x in v)
        a_f, a_h = g * v_t, g * s2 * v_phi
        b_f, b_h = f_s * v_s + f_th * v_th, h_s * v_s + h_th * v_th
        return ((h_th * a_f - f_th * a_h) / det, -b_f / g,
                (-h_s * a_f + f_s * a_h) / det, -b_h / (g * s2))


# -- along a profile ---------------------------------------------------

def _digits(p):
    """DPS past the cancellation of two residues of order p^2 / |D|
    near 2 p'^2 = 3 p^2."""
    return DPS + 2 * len(str(abs(p)))


def profile_poles(p, p_prime):
    """[(pole, residue)] of ds/dx, x = cos(theta), for the (p, p')
    profile, p > 0: the poles x = 1, x = -1 and the roots of
    3a x^2 + sqrt6 x - a, a = p'/p, the inner one first (x = 0 alone
    when p' = 0), each residue N/D' by the product rule, with no pairing
    and no pole distance."""
    with _digits_at_least(_digits(p)):
        a, r6 = mp.mpf(p_prime) / p, mp.sqrt(6)
        poles = [mp.mpf(1), mp.mpf(-1)]
        if p_prime:
            disc = mp.sqrt(6 + 12 * a * a)
            poles += [(-r6 + disc) / (6 * a), (-r6 - disc) / (6 * a)]
        else:
            poles.append(mp.mpf(0))

        def residue(c):
            quad = 3 * a * c * c + r6 * c - a
            d_prime = (6 * a * c + r6) * (1 - c * c) - 2 * c * quad
            return (_cone(c) + r6 * a * c * (1 - c * c)) / d_prime

        return [(c, residue(c)) for c in poles]


def _log_terms(poles, theta):
    """[residue * log|cos theta - pole|], with |cos theta -+ 1| as
    2 sin^2(theta/2) and 2 cos^2(theta/2)."""
    (_, at_zero), (_, at_pi), *roots = poles
    half = mp.mpf(theta) / 2
    x = mp.cos(2 * half)
    return ([at_zero * mp.log(2 * mp.sin(half) ** 2),
             at_pi * mp.log(2 * mp.cos(half) ** 2)]
            + [r * mp.log(abs(x - c)) for c, r in roots])


def profile_s(p, p_prime, theta_ref, thetas):
    """s(theta) - s(theta_ref) at each float theta of thetas, from
    profile_poles' partial fractions."""
    return [s for s, _ in profile_s_sized(p, p_prime, theta_ref, thetas)]


def profile_s_sized(p, p_prime, theta_ref, thetas):
    """(profile_s, the sum of the sizes of its log terms) at each theta:
    the size is what s cancels, where a pole and a root nearly meet."""
    with _digits_at_least(_digits(p)):
        poles = profile_poles(p, p_prime)
        at_ref = _log_terms(poles, theta_ref)
        out = []
        for theta in thetas:
            gaps = [x - y for x, y in zip(_log_terms(poles, theta), at_ref)]
            out.append((mp.fsum(gaps), mp.fsum(map(abs, gaps))))
        return out


def profile_residue_gap(p, p_prime):
    """|sum of the residues - sqrt6/3| (sqrt6/2 when p' = 0): ds/dx ~
    (that sum) / x at infinity, the ratio of the leading coefficients
    of N and D, so the partial fractions check themselves here."""
    with _digits_at_least(_digits(p)):
        total = mp.fsum(r for _, r in profile_poles(p, p_prime))
        return abs(total - mp.sqrt(6) / (2 if p_prime == 0 else 3))


def profile_s_quad(p, p_prime, theta_ref, theta):
    """s(theta) - s(theta_ref) as a float, by quadrature of ds_dtheta's
    integrand at 20 digits, split geometrically toward theta (which may
    sit next to a fixed angle, where the integrand blows up): a check of
    profile_s by another route."""
    with _digits_at_least(20):
        lo, hi = mp.mpf(theta_ref), mp.mpf(theta)
        cuts = [hi - (hi - lo) * mp.mpf(10) ** -k for k in range(0, 12, 3)]
        return float(mp.quad(lambda th: _slope(p, p_prime, th)[0],
                             cuts + [hi]))


def _slope(p, p_prime, theta):
    """(ds/dtheta, its scale) at the angle theta, an mpmath number."""
    a, r6 = mp.mpf(p_prime) / p, mp.sqrt(6)
    c, sn = mp.cos(theta), mp.sin(theta)
    k = _cone(c)
    num, den = k + r6 * a * c * sn * sn, (r6 * c - a * k) * sn
    return -num / den, (abs(k) + r6 * abs(a * c) * sn * sn) / abs(den)


def ds_dtheta(p, p_prime, theta):
    """ds/dtheta = -(1 - 3c^2 + sqrt6 a c sin^2) / ((sqrt6 c - a (1 -
    3c^2)) sin) along the (p, p') profile at the float theta, a = p'/p,
    c = cos(theta), with its scale (|1 - 3c^2| + sqrt6 |a c| sin^2) /
    |den|: the size of the value before the numerator cancels."""
    with _digits_at_least(_digits(p)):
        return _slope(p, p_prime, mp.mpf(theta))


# -- orbits --------------------------------------------------------------

def _orbit_digits(m, m_prime):
    """DPS past the pole distance of the orbit cosine and past
    1 - 3 cos^2, which is of order |m/m'| where |m'/m| is large."""
    return _digits(m) + len(str(abs(m_prime)))


def orbit_cos(m, m_prime):
    """cos(theta0) at the orbit of (m, m'): 0 for m' = 0,
    sign(m')/sqrt3 for m = 0, and otherwise the root of
    3a x^2 + sqrt6 x - a, a = m'/m, with the sign of m' (the inner one,
    |x| < 1/sqrt3, for m > 0, the outer one for m < 0), at DPS digits
    past its pole distance and past 1 - 3 cos^2."""
    with _digits_at_least(_orbit_digits(m, m_prime)):
        if m_prime == 0:
            return mp.mpf(0)
        if m == 0:
            return mp.sign(m_prime) / mp.sqrt(3)
        a = mp.mpf(m_prime) / m
        q = 1 + mp.sqrt(1 + 2 * a * a)
        return 2 * a / (mp.sqrt(6) * q) if m > 0 else -q / (mp.sqrt(6) * a)


def orbit_angle(m, m_prime):
    """theta0 = acos(orbit_cos) of the orbit of (m, m')."""
    with _digits_at_least(_orbit_digits(m, m_prime)):
        return mp.acos(orbit_cos(m, m_prime))


def fixed_angles(p, p_prime):
    """{label: angle} of the fixed angles of the (p, p') profile, p > 0,
    by classify_branches' labels: the poles, theta0, and theta0_bar
    (the orbit angle of (-p, -p')) where 2 p'^2 > 3 p^2."""
    with _digits_at_least(_digits(p)):
        out = {"pole0": mp.mpf(0), "polePi": +mp.pi,
               "theta0": orbit_angle(p, p_prime)}
        if 2 * p_prime * p_prime > 3 * p * p:
            out["theta0_bar"] = orbit_angle(-p, -p_prime)
        return out


def decay_constants(m, m_prime):
    """(zeta, kappa, sigma0) of the orbit of (m, m'), m and m' != 0:

        zeta = sqrt6 sin^2 (1 + 3 cos^2) (1 + 3 cos^4)^{-1/2} |1 - 3 cos^2|^{-1}
        kappa = 6^{-1/2} (1 + 3 cos^4)^{-1/2} |1 - 3 cos^2|
        sigma0 = 4 |cos| |m'/m| (1 + (m'/m)^2 sin^2)^{-1}

    at 400 digits, so that 1 - 3 cos^2 keeps over 200 of them for
    |m'/m| up to the float range."""
    with _digits_at_least(400):
        a = mp.mpf(m_prime) / m
        c = orbit_cos(m, m_prime)
        dev = abs(_cone(c))
        root = mp.sqrt(1 + 3 * c ** 4)
        return (mp.sqrt(6) * (1 - c * c) * (1 + 3 * c * c) / root / dev,
                dev / (mp.sqrt(6) * root),
                4 * abs(c) * abs(a) / (1 + a * a * (1 - c * c)))


def generic_spectrum(zeta, period, n_max):
    """The generic spectrum of the decay constant zeta and the period,
    each eigenvalue as often as its multiplicity, sorted: 0, -zeta, and
    for 0 < n <= n_max twice each (-zeta +- sqrt(zeta^2 + 4 n^2 /
    T^2)) / 2, the positive one as -(n/T)^2 over its negative partner
    (Vieta), so that nothing cancels."""
    with _digits_at_least(DPS):
        zeta = mp.mpf(zeta)
        out = [mp.mpf(0), -zeta]
        for n in range(1, n_max + 1):
            w2 = (mp.mpf(n) / period) ** 2
            neg = (-zeta - mp.sqrt(zeta * zeta + 4 * w2)) / 2
            out += 2 * [neg, -w2 / neg]
        return sorted(out)


def polar_spectrum(m, n_max):
    """The polar spectrum n/m - sqrt(3/2), |n| <= n_max, in order."""
    with _digits_at_least(DPS):
        base = mp.sqrt(mp.mpf(3) / 2)
        return [mp.mpf(n) / m - base for n in range(-n_max, n_max + 1)]


def orbit_point(m, m_prime, upsilon, tau):
    """(t, theta0, phi) of the orbit of (m, m') with phase upsilon at
    parameter tau: (tau, theta0, (p' tau - upsilon) / p) for p != 0 and
    (upsilon / p', theta0, tau) for p = 0, t and phi reduced to
    [0, 2 pi)."""
    with _digits_at_least(DPS + 20):
        tau, upsilon = mp.mpf(tau), mp.mpf(upsilon)
        if m == 0:
            t, phi = upsilon / m_prime, tau
        else:
            t, phi = tau, (m_prime * tau - upsilon) / m
        return (t % (2 * mp.pi), orbit_angle(m, m_prime),
                phi % (2 * mp.pi))


# -- the closed-form families ------------------------------------------

def _branch_digits(x):
    """DPS past one digit for each decade of |x| or 1/|x| (x != 0)."""
    return DPS + 10 + int(abs(mp.log10(abs(mp.mpf(x)))))


def branch_cosine(lam, branch):
    """The root c of G(c) = sqrt6 c (1 - c^2) - lam (1 - 3 c^2) = 0
    inside the branch's interval of cosines (A: (1/sqrt3, 1], B:
    (-1/sqrt3, 1/sqrt3), C: [-1, -1/sqrt3)): bisection to a bracket of
    2^-64, then Newton's method to the working precision.  G = 0 is
    lambda(theta) = lam, and lambda is monotone on a branch, so the root
    is G's one sign change there.  The branch end cancels one digit of
    1 - 3 c^2 or of 1 - c^2 per decade of |lam| or 1/|lam|, so those
    digits are added to the working precision."""
    if lam == 0:
        return {"A": mp.mpf(1), "B": mp.mpf(0), "C": mp.mpf(-1)}[branch]
    with _digits_at_least(_branch_digits(lam)):
        lam = mp.mpf(lam)
        third = 1 / mp.sqrt(3)
        lo, hi = {"A": (third, mp.mpf(1)), "B": (-third, third),
                  "C": (mp.mpf(-1), -third)}[branch]
        sqrt6 = mp.sqrt(6)

        def g(c):
            return sqrt6 * c * (1 - c * c) - lam * _cone(c)

        lo_positive = g(lo) > 0
        for _ in range(64):
            mid = (lo + hi) / 2
            if (g(mid) > 0) == lo_positive:
                lo = mid
            else:
                hi = mid
        c = (lo + hi) / 2
        for _ in range(40):
            step = g(c) / (sqrt6 * _cone(c) + 6 * lam * c)
            c -= step
            if abs(step) <= abs(c) * mp.eps:
                return c
    raise AssertionError(f"Newton's method did not converge at {lam}")


def branch_angle(lam, branch):
    """The angle where lambda(theta) = lam on the branch."""
    with _digits_at_least(_branch_digits(lam) if lam else DPS):
        return mp.acos(branch_cosine(lam, branch))


def height(c, f=None, h=None):
    """s at the cosine c from the coordinate given: e^{-sqrt6 s} =
    f / (1 - 3 c^2), or h / (sqrt6 c (1 - c^2))."""
    with _digits_at_least(DPS + 10):
        c = mp.mpf(c)
        if f is not None:
            e = mp.mpf(f) / _cone(c)
        else:
            e = mp.mpf(h) / (mp.sqrt(6) * c * (1 - c * c))
        return -mp.log(e) / mp.sqrt(6)


def _static_coordinates(example, kappa, u, sign):
    """(f, h, branch) of example 2 (with sign_p_prime = sign), 3 or 4 at
    (kappa, u): f = -kappa, f = kappa or h = kappa, the other u, and the
    branch of lambda = h/f the family lies on."""
    with _digits_at_least(DPS):
        kappa, u = mp.mpf(kappa), mp.mpf(u)
    if example == 2:
        return -kappa, sign * u, "A" if sign > 0 else "C"
    if example == 3:
        return kappa, u, "B"
    return u, kappa, "B" if u > 0 else "A" if kappa > 0 else "C"


def static_point(example, kappa, u, sign=1):
    """(theta, s) of example 2, 3 or 4 at (kappa, u): the angle where
    lambda = h/f on the family's branch, and s from the coordinate the
    family fixes."""
    f, h, branch = _static_coordinates(example, kappa, u, sign)
    with _digits_at_least(_branch_digits(h / f)):
        c = branch_cosine(h / f, branch)
        return mp.acos(c), height(c, h=h) if example == 4 else height(c, f=f)


def orbit_s(p, p_prime, u):
    """s of the orbit cylinder of (p, p') at u: through f = u where
    p != 0 and h = u where p = 0."""
    with _digits_at_least(_orbit_digits(p, p_prime)):
        c = orbit_cos(p, p_prime)
        return height(c, f=u) if p else height(c, h=u)


# -- model maps ----------------------------------------------------------

def phi(pairs, r, a, a_prime, z):
    """(lambda, lambda', u, v, t, phi) of the model map
    phi(z) = (a r^{p+q} z^{-p} (1-z)^{-q}, a' r^{p'+q'} z^{-p'} (1-z)^{-q'})
    of the pairs ((p, p'), (q, q')), with lambda = e^{u - i t} and
    lambda' = e^{v - i phi}, t and phi in [0, 2 pi)."""
    (p, pp), (q, qp) = pairs
    with _digits_at_least(DPS):
        z, r = mp.mpc(z), mp.mpf(r)
        lam1 = mp.mpc(a) * r ** (p + q) * z ** (-p) * (1 - z) ** (-q)
        lam2 = (mp.mpc(a_prime) * r ** (pp + qp) * z ** (-pp)
                * (1 - z) ** (-qp))
        return (lam1, lam2, mp.log(abs(lam1)), mp.log(abs(lam2)),
                (-mp.arg(lam1)) % (2 * mp.pi), (-mp.arg(lam2)) % (2 * mp.pi))


def immersion(pairs, z):
    """(p/z - q/(1-z), p'/z - q'/(1-z)) with the sizes of their terms."""
    (p, pp), (q, qp) = pairs
    with _digits_at_least(DPS):
        z = mp.mpc(z)
        terms = [(p / z, q / (1 - z)), (pp / z, qp / (1 - z))]
        return ([x - y for x, y in terms],
                [abs(x) + abs(y) for x, y in terms])


def double_point(a, b, d):
    """(z, w, eta) of the residue pair (a, b) mod d: eta = e^{2 pi i a/d},
    eta' = e^{2 pi i b/d}, z = (1 - eta'^{-1}) / (1 - eta eta'^{-1}) and
    w = eta z."""
    with _digits_at_least(DPS):
        eta = mp.expjpi(mp.mpf(2 * a) / d)
        etap = mp.expjpi(mp.mpf(2 * b) / d)
        z = (1 - 1 / etap) / (1 - eta / etap)
        return z, eta * z, eta
