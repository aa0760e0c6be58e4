"""Catalog of the low-index subvariety types, as executable index checks.

Each entry binds one case of the classification (cylinders, the plane,
the profile cylinders with a polar end, and the two- and three-convex-
end spheres) to the data needed to recompute its Fredholm index: Euler
characteristic of the model curve, the polar intersection count nu0,
and its end descriptors.  Stored polar windings saturate their bounds,
alpha_- on a convex end and -alpha_+ on a concave one; the windings of
the convex polar ends (profile family 5, subcase with the widest
admissible |p'|) are not pinned down by the winding identity alone and
are fixed by requiring index = aleph + 1: ``reverse-engineered``.

The index lower bound in terms of (genus, polar intersections, end
counts), with genus 0 since every entry is a punctured sphere, applies
to every entry except the polar cylinder itself, whose
intersection count with the polar locus -- a locus containing it -- is
not a finite number; that entry carries polar_intersections = None.

For the record (no computation attaches to it here): the deformation
operator of every curve type in this table has trivial cokernel, so the
index equals the kernel dimension and the moduli components are cut out
transversally.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .invariants import (EndDescriptor, Side, c1_pairing, fredholm_index,
                         index_lower_bound)
from .moduli import Label2, Label3
from .reeb import EndClass


class CatalogEntry(NamedTuple):
    """One classified subvariety type with its expected invariants."""

    case_id: str
    description: str
    chi: int
    nu0: int
    ends: tuple[EndDescriptor, ...]
    expected_index: int
    expected_aleph: int
    polar_intersections: Optional[int] = 0    # Q; None = undefined
    c1_override: Optional[int] = None
    label: Optional[Label2 | Label3] = None
    winding_provenance: str = ""

    def c1(self) -> int:
        if self.c1_override is not None:
            return self.c1_override
        return c1_pairing(self.nu0, self.ends)

    def index(self) -> int:
        return fredholm_index(self.chi, self.c1(), self.ends)

    def _count(self, kind: str, side: Side) -> int:
        return sum(1 for e in self.ends if e.kind == kind and e.side is side)

    def aleph(self) -> int:
        return self._count("generic", Side.CONVEX)

    def lower_bound(self) -> Optional[int]:
        """The index lower bound, or None where it does not apply."""
        if self.polar_intersections is None:
            return None
        return index_lower_bound(0, self.polar_intersections, self.aleph(),
                                 self._count("polar", Side.CONCAVE),
                                 self._count("polar", Side.CONVEX),
                                 self._count("generic", Side.CONCAVE))


def catalog_entries() -> list[CatalogEntry]:
    """The table of low-index types, one executable entry per case."""
    convex, concave = Side.CONVEX, Side.CONCAVE
    entries = [
        CatalogEntry(
            case_id="I=aleph=0.polar-cylinder",
            description="R x (polar orbit): the theta in {0, pi} locus itself",
            chi=0, nu0=0,
            ends=(EndDescriptor.polar(concave, 1),
                  EndDescriptor.polar(convex, 1)),
            c1_override=0,
            expected_index=0, expected_aleph=0,
            polar_intersections=None,
        ),
        CatalogEntry(
            case_id="I=aleph=1.orbit-cylinder",
            description="R x (generic closed Reeb orbit), here the (1, 1) orbit",
            chi=0, nu0=0,
            ends=(EndDescriptor.generic(concave, EndClass(1, 1)),
                  EndDescriptor.generic(convex, EndClass(1, 1))),
            expected_index=1, expected_aleph=1,
        ),
        CatalogEntry(
            case_id="I=aleph=2.constant-t-cylinder",
            description="t = const, f = kappa > 0 cylinder joining the two "
                        "cos^2 theta = 1/3 orbits",
            chi=0, nu0=0,
            ends=(EndDescriptor.generic(convex, EndClass(0, 1)),
                  EndDescriptor.generic(convex, EndClass(0, -1))),
            expected_index=2, expected_aleph=2,
        ),
        CatalogEntry(
            case_id="I=aleph=2.middle-profile-cylinder",
            description="profile cylinder of (1, 2) on the middle range, "
                        "joining the theta0 and companion-angle orbits",
            chi=0, nu0=0,
            ends=(EndDescriptor.generic(convex, EndClass(1, 2)),
                  EndDescriptor.generic(convex, EndClass(-1, -2))),
            expected_index=2, expected_aleph=2,
        ),
        CatalogEntry(
            case_id="I=aleph+1.plane",
            description="t = const, f = -kappa < 0 plane through one pole",
            chi=1, nu0=1,
            ends=(EndDescriptor.generic(convex, EndClass(0, 1)),),
            expected_index=2, expected_aleph=1,
            polar_intersections=1,
        ),
        CatalogEntry(
            case_id="I=aleph+1.widest-profile-cylinder",
            description="profile cylinder of (1, 1) between theta0 and the "
                        "theta = pi pole (|p'| = m0(p) - 1 subcase)",
            chi=0, nu0=0,
            ends=(EndDescriptor.generic(convex, EndClass(1, 1)),
                  EndDescriptor.polar(convex, 1, winding=1)),
            expected_index=2, expected_aleph=1,
            winding_provenance="reverse-engineered from index = aleph + 1; "
                               "saturates the convex winding bound m0 - 1",
        ),
        CatalogEntry(
            case_id="I=aleph+1.pole-crossing-cylinder",
            description="profile cylinder of (1, 2) between the companion "
                        "angle and the theta = pi pole (|p'| = m0(p) subcase)",
            chi=0, nu0=0,
            ends=(EndDescriptor.generic(convex, EndClass(-1, -2)),
                  EndDescriptor.polar(concave, 1, winding=-2)),
            expected_index=2, expected_aleph=1,
            winding_provenance="winding -sign(p) p' for the concave polar "
                               "end; saturates the concave bound -m0",
        ),
        CatalogEntry(
            case_id="I=aleph+1.two-end-sphere",
            description="immersed three-punctured sphere with two convex "
                        "ends, label {(2, 1), (1, 2)}",
            chi=-1, nu0=0,
            ends=(EndDescriptor.generic(convex, EndClass(2, 1)),
                  EndDescriptor.generic(convex, EndClass(1, 2)),
                  EndDescriptor.generic(concave, EndClass(3, 3))),
            expected_index=3, expected_aleph=2,
            label=Label2.make((2, 1), (1, 2)),
        ),
        CatalogEntry(
            case_id="I=aleph+1.three-end-sphere",
            description="immersed three-punctured sphere with three convex "
                        "ends, label {(1, -1), (1, 4), (-2, -3)}",
            chi=-1, nu0=0,
            ends=(EndDescriptor.generic(convex, EndClass(1, -1)),
                  EndDescriptor.generic(convex, EndClass(1, 4)),
                  EndDescriptor.generic(convex, EndClass(-2, -3))),
            expected_index=4, expected_aleph=3,
            label=Label3.make([(1, -1), (1, 4), (-2, -3)]),
        ),
    ]
    return entries
