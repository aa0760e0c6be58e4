"""Holomorphic model maps of the thrice-punctured sphere into C* x C*.

For an admissible two-end label {(p, p'), (q, q')} the model map is

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
form, never by two-dimensional numerical root search; the defining
equalities are then verified to a relative residual tolerance.
"""

from __future__ import annotations

import cmath
import math
import os
from dataclasses import dataclass

from .errors import InternalError, PunctureError, ResidualError
from .invariants import residue_pairs
from .moduli import Label2

_TWO_PI = 2.0 * math.pi

DEFAULT_RESIDUAL_TOL = 1e-9

#: Environment variable overriding the residual tolerance.
RESIDUAL_TOL_ENV = "SYMPL_MODULI_TOL"


def residual_tolerance() -> float:
    raw = os.environ.get(RESIDUAL_TOL_ENV)
    if raw is None:
        return DEFAULT_RESIDUAL_TOL
    try:
        tol = float(raw)
    except ValueError:
        tol = math.nan
    if not tol > 0:
        raise ValueError(
            f"{RESIDUAL_TOL_ENV} must be a positive number, got {raw!r}")
    return tol


@dataclass(frozen=True)
class ModelMapParams:
    """Label, scale and the two unit-modulus twist constants."""

    label: Label2
    r: float = 10.0
    a: complex = 1.0 + 0.0j
    a_prime: complex = 1.0 + 0.0j

    def __post_init__(self):
        if not self.r >= 1.0:
            raise ValueError("the scale r must be >= 1")
        for name, val in (("a", self.a), ("a_prime", self.a_prime)):
            if abs(abs(complex(val)) - 1.0) > 1e-12:
                raise ValueError(f"|{name}| must be 1 within 1e-12")

    def exponents(self) -> tuple[int, int, int, int]:
        (p, pp), (q, qp) = self.label.pairs()
        return p, pp, q, qp


@dataclass(frozen=True)
class PhiValue:
    """phi(z) and its log coordinates."""

    lam: complex
    lam_prime: complex
    u: float
    v: float
    t: float
    phi: float


def phi_eval(params: ModelMapParams, z: complex) -> PhiValue:
    """Evaluate the model map; punctures z in {0, 1} are refused.

    u = ln|lambda| and t = -arg(lambda) mod 2pi, per the convention
    lambda = e^{u - i t} (same for (v, phi) from lambda')."""
    z = complex(z)
    if z == 0 or z == 1:
        raise PunctureError(f"z = {z} is a puncture")
    p, pp, q, qp = params.exponents()
    lam = params.a * params.r ** (p + q) * z ** (-p) * (1 - z) ** (-q)
    lamp = params.a_prime * params.r ** (pp + qp) * z ** (-pp) * (1 - z) ** (-qp)
    return PhiValue(
        lam=lam, lam_prime=lamp,
        u=math.log(abs(lam)), v=math.log(abs(lamp)),
        t=(-cmath.phase(lam)) % _TWO_PI,
        phi=(-cmath.phase(lamp)) % _TWO_PI,
    )


def immersion_residual(params: ModelMapParams, z: complex) -> tuple[complex, complex]:
    """(p/z - q/(1-z), p'/z - q'/(1-z)); never both zero when Delta != 0."""
    z = complex(z)
    if z == 0 or z == 1:
        raise PunctureError(f"z = {z} is a puncture")
    p, pp, q, qp = params.exponents()
    return (p / z - q / (1 - z), pp / z - qp / (1 - z))


@dataclass(frozen=True)
class DoublePoint:
    """One ordered double-point pair, with its root-of-unity residues."""

    a: int                # eta = exp(2 pi i a / Delta)
    b: int                # eta' = exp(2 pi i b / Delta)
    z: complex
    w: complex
    residual: float


def _rel_residual(x: complex, y: complex) -> float:
    return abs(x - y) / max(abs(x), abs(y))


def phi_double_points(params: ModelMapParams,
                      tol: float | None = None) -> list[DoublePoint]:
    """All ordered double points of the model map.

    Residue pairs (a, b) mod Delta with a, b in {1, .., Delta-1},
    a != b, p a + q b = 0 and p' a + q' b = 0 (mod Delta) are enumerated
    exactly; each gives a double point via the closed form.  The
    defining equalities are verified to relative residual < tol and
    w = conj(z) is checked; failures raise ResidualError.  The output
    does not depend on r, a or a'.
    """
    if tol is None:
        tol = residual_tolerance()
    p, pp, q, qp = params.exponents()
    d = params.label.delta
    out: list[DoublePoint] = []
    for a, b in residue_pairs(params.label):
        eta = cmath.exp(2j * math.pi * a / d)
        etap = cmath.exp(2j * math.pi * b / d)
        if etap == eta:
            raise InternalError("degenerate root pair slipped through")
        z = (etap - 1.0) / (etap - eta)
        w = eta * z
        r1 = _rel_residual(z ** p * (1 - z) ** q, w ** p * (1 - w) ** q)
        r2 = _rel_residual(z ** pp * (1 - z) ** qp, w ** pp * (1 - w) ** qp)
        residual = max(r1, r2)
        if residual >= tol:
            raise ResidualError(
                f"double point ({a}, {b}) of {params.label} has residual "
                f"{residual} >= {tol}")
        if abs(w - z.conjugate()) > tol * (1.0 + abs(z)):
            raise ResidualError(
                f"double point ({a}, {b}): w != conj(z) beyond tolerance")
        out.append(DoublePoint(a=a, b=b, z=z, w=w, residual=residual))
    return out


def double_points_json(points: list[DoublePoint]) -> list[dict]:
    return [{"a": dp.a, "b": dp.b,
             "z": [dp.z.real, dp.z.imag],
             "w": [dp.w.real, dp.w.imag],
             "residual": dp.residual} for dp in points]
