"""Decay constants and spectra of the asymptotic operator at an orbit.

What `spectrum` runs, and all of it: the decay data (zeta, kappa,
sigma0) of a generic orbit from its end class alone, and the
eigenvalues, with multiplicities, of the asymptotic operator at a
generic orbit (generic_spectrum) and at a polar orbit covered m times
(polar_spectrum).  The windings of
the eigenvalues next to 0, which the Fredholm index reads, are
invariants.end_windings, in exact ints.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

from .budgets import MAX_SPECTRUM_N, require_within
from .errors import DomainError, _text
from .geometry import SQRT6, require_finite
from .reeb import EndClass, orbit_cosine


class AsymptoticData(NamedTuple):
    """Decay data of an end: the decay constant zeta of the linearized
    operator, the chart rate kappa, and the end exponent sigma0."""

    zeta: float
    kappa: float
    sigma0: float


def asymptotic_constants(end_class: EndClass) -> AsymptoticData:
    """(zeta, kappa, sigma0) at the orbit of the end class (m, m').

    zeta = sqrt6 sin^2 (1 + 3 cos^2)(1 + 3 cos^4)^{-1/2} |1 - 3 cos^2|^{-1}
    kappa = 6^{-1/2} (1 + 3 cos^4)^{-1/2} |1 - 3 cos^2|
    sigma0 = 4 |cos| |m'/m| (1 + (m'/m)^2 sin^2)^{-1}

    at the orbit angle theta0 (solve_theta0), from the cosine, its pole
    distance g and |1 - 3 cos^2| that reeb.orbit_cosine takes from the
    pair, with its refusals: sin^2 = g (2 - g), so an orbit keeps its
    digits near a pole and near cos^2 = 1/3, and (m, +-m') share every
    bit where both are accepted.  Only the m = 0 orbits (0, +-1) lie on
    cos^2 = 1/3 (DomainError).
    """
    m, m_prime = end_class
    if m == 0:
        raise DomainError("cos^2(theta0) = 1/3: no decay constants")
    c, g, dev = orbit_cosine(m, m_prime)
    s2 = g * (2.0 - g)
    root = math.sqrt(1.0 + 3.0 * c ** 4)
    zeta = SQRT6 * s2 * (1.0 + 3.0 * c * c) / root / dev
    kappa = dev / (SQRT6 * root)
    ratio = m_prime / m
    sigma0 = 4.0 * abs(c) * abs(ratio) / (1.0 + ratio * ratio * s2)
    return AsymptoticData(zeta=zeta, kappa=kappa, sigma0=sigma0)


def _check_sizes(n_max: int, name: str, cover: int) -> None:
    """The spectra's one check of their sizes, before any eigenvalue:
    DomainError for a negative n_max, past MAX_SPECTRUM_N, then where
    the cover count (the period, or m) is not an int >= 1."""
    if n_max < 0:
        raise DomainError("n_max must be >= 0")
    require_within("n_max", n_max, MAX_SPECTRUM_N, "the spectrum")
    if not isinstance(cover, int) or cover < 1:
        raise DomainError(f"{name} {_text(cover)} is not an int >= 1")


def generic_spectrum(zeta: float, period: int,
                     n_max: int) -> list[tuple[float, int]]:
    """Eigenvalues, with multiplicities, of the asymptotic operator at a
    generic orbit of decay constant zeta, whose covering
    parameterization has period T = m|p|.

    { (-zeta +- sqrt(zeta^2 + 4 n^2 / T^2)) / 2, 0 <= n <= n_max }; the
    two n = 0 eigenvalues (0 and -zeta) are simple, all n > 0 ones are
    double.  The negative one is taken as -(zeta / 2 + sqrt(...) / 2),
    the root as a hypot, and the positive one as (n^2 / T^2) over the
    negative's size, so none cancels or overflows at a large zeta.
    Returned sorted by eigenvalue.  Before any eigenvalue: DomainError
    for a negative n_max or one past MAX_SPECTRUM_N, a period that is
    not an int >= 1 or whose square is past the float range, or a nan,
    infinite or negative zeta (a decay constant is not negative).
    """
    _check_sizes(n_max, "period", period)
    require_finite(zeta=zeta)
    if zeta < 0.0:
        raise DomainError(f"zeta = {zeta} < 0: a decay constant "
                          f"is never negative")
    t2 = period ** 2
    if t2 > sys.float_info.max:
        raise DomainError(f"period = {_text(period)}: its square is "
                          f"past the float range")
    out = [(0.0, 1), (-zeta, 1)]
    for n in range(1, n_max + 1):
        w = 2.0 * n / period
        half = 0.5 * zeta + 0.5 * math.hypot(zeta, w)
        out.append((0.25 * w * w / half, 2))
        out.append((-half, 2))
    return sorted(out)


def polar_spectrum(m: int, n_max: int) -> list[tuple[float, int]]:
    """Eigenvalues, with multiplicities, of the asymptotic operator at a
    polar orbit covered m times.

    { -sqrt(3/2) + n/m, |n| <= n_max }, all double -- in particular
    never zero, since sqrt(3/2) is irrational.  For n > 0 it is taken as
    ((2 n^2 - 3 m^2) / m^2) / (2 (n/m + sqrt(3/2))), one correctly
    rounded int division, so it keeps its digits where 2 n^2 is near
    3 m^2 and no m is converted to a float.  Returned sorted by
    eigenvalue.  Before any eigenvalue: DomainError for a negative n_max
    or one past MAX_SPECTRUM_N, or an m that is not an int >= 1.
    """
    _check_sizes(n_max, "m", m)
    m2, root = m * m, math.sqrt(1.5)
    out: list[tuple[float, int]] = []
    for n in range(-n_max, 1):
        out.append((n / m - root, 2))
    for n in range(1, n_max + 1):
        out.append(((2 * n * n - 3 * m2) / m2 / (2.0 * (n / m + root)),
                    2))
    return sorted(out)
