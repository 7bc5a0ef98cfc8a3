"""p-adic valuations, Newton polygons and slope-based irreducibility verdicts.

Polygon convention, fixed once for the whole package: for f with f(0) != 0 we
take the lower convex hull of the points (i, v_p(c_i)).  Writing
f = f(0) * prod (1 - gamma T), a segment of slope s carries exactly
`length` reciprocal roots gamma with v_p(gamma) = s.  In particular the
reciprocal roots of negative valuation sit on the negative-slope segments.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction

from . import _gfp, _intfactor
from ._intfactor import _split_unit
from .exactpoly import DomainError, Poly, rat_to_str


@dataclass(frozen=True)
class Segment:
    slope: Fraction
    length: int  # horizontal lattice length


@dataclass(frozen=True)
class NewtonPolygon:
    prime: int
    vertices: tuple[tuple[int, int], ...]
    segments: tuple[Segment, ...]


def newton_polygon(f: Poly, p: int) -> NewtonPolygon:
    """Lower convex hull of {(i, v_p(c_i)) : c_i != 0}, with
    v_p(c_i) = v_p(content) + v_p(prim[i])."""
    if f.is_zero:
        raise DomainError("the zero polynomial has no Newton polygon")
    if not f.prim[0]:
        raise DomainError("the constant term must be nonzero")
    if not _intfactor.is_prime(p):
        raise DomainError(f"{p} is not prime")
    base = _split_unit(f.content.numerator, p)[0] - _split_unit(f.content.denominator, p)[0]
    points = [(i, base + _split_unit(c, p)[0]) for i, c in enumerate(f.prim) if c]
    hull: list[tuple[int, int]] = []
    for pt in points:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            # drop the middle point unless it turns strictly upward
            if (y2 - y1) * (pt[0] - x2) >= (pt[1] - y2) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(pt)
    segments = tuple(
        Segment(Fraction(b[1] - a[1], b[0] - a[0]), b[0] - a[0])
        for a, b in zip(hull, hull[1:])
    )
    return NewtonPolygon(prime=p, vertices=tuple(hull), segments=segments)


def reduce_mod_p(coeffs, p: int) -> list[int]:
    """The images in F_p of p-integral rationals, as a polynomial over F_p."""
    return _gfp.trim([c.numerator * pow(c.denominator, -1, p) % p for c in coeffs])


def residual_polynomial(f: Poly, polygon: NewtonPolygon, segment: Segment) -> list[int]:
    """The residual (associated) polynomial of a segment of `polygon`, the
    Newton polygon of f, over F_p.

    For a segment of slope u/n in lowest terms running from vertex (i0, v0)
    over horizontal length l = k*n, the residual has degree k and encodes the
    first-order splitting of the slope factor over Q_p.  Its j-th coefficient
    is c_(i0 + j*n) / p**(v0 + j*u) mod p: every point lies on or above the
    segment, so this is p-integral and nonzero exactly on the segment.
    """
    p = polygon.prime
    if segment not in polygon.segments:
        raise DomainError("segment does not belong to the Newton polygon of f")
    i0, v0 = polygon.vertices[polygon.segments.index(segment)]
    n = segment.slope.denominator
    u = segment.slope.numerator
    if segment.length % n != 0:
        raise ArithmeticError("segment length incompatible with slope denominator")
    k = segment.length // n
    scaled = [f.coefficient(i0 + j * n) / Fraction(p) ** (v0 + j * u) for j in range(k + 1)]
    return reduce_mod_p(scaled, p)


class SlopeOutcome(enum.Enum):
    IRREDUCIBLE = "irreducible"
    REDUCIBLE = "reducible"
    UNKNOWN = "unknown"
    NO_NEGATIVE_SLOPE = "no_negative_slope"


@dataclass(frozen=True)
class SlopeVerdict:
    value: SlopeOutcome
    reason: str

    def to_json(self) -> dict:
        return {"value": self.value.value, "reason": self.reason}


def negative_part_verdict(f: Poly, polygon: NewtonPolygon) -> tuple[SlopeVerdict, int]:
    """Decide whether the negative-slope part of f over Q_p comes from a
    single irreducible factor; `polygon` is the Newton polygon of f at p.

    The caller guarantees f is irreducible over Q.  The decision is purely
    combinatorial (polygon plus first-order residual polynomials).  Of the
    residual it needs only the number of distinct irreducible factors (the
    dimension of Berlekamp's fixed space) and, when that is one, the
    multiplicity; a proper power of one irreducible is genuinely undecided at
    this order and yields UNKNOWN rather than a guess.
    """
    p = polygon.prime
    negative = [seg for seg in polygon.segments if seg.slope < 0]
    negative_degree = sum(seg.length for seg in negative)
    if not negative:
        return (
            SlopeVerdict(SlopeOutcome.NO_NEGATIVE_SLOPE, "the Newton polygon has no negative slope"),
            0,
        )
    if len(negative) >= 2:
        slopes = ", ".join(rat_to_str(s.slope) for s in negative)
        return (
            SlopeVerdict(
                SlopeOutcome.REDUCIBLE,
                f"distinct negative slopes ({slopes}) force coprime factors over Q_p",
            ),
            negative_degree,
        )
    seg = negative[0]
    n = seg.slope.denominator
    if seg.length == n:
        return (
            SlopeVerdict(
                SlopeOutcome.IRREDUCIBLE,
                f"single negative segment of slope {rat_to_str(seg.slope)} with no interior lattice point",
            ),
            negative_degree,
        )
    residual = _gfp.monic(residual_polynomial(f, polygon, seg), p)
    distinct = len(_gfp.fixed_space(residual, p))
    if distinct >= 2:
        return (
            SlopeVerdict(
                SlopeOutcome.REDUCIBLE,
                f"residual polynomial splits into {distinct} distinct irreducible factors over F_{p}",
            ),
            negative_degree,
        )
    mult = _gfp.single_factor_multiplicity(residual, p)
    if mult == 1:
        return (
            SlopeVerdict(
                SlopeOutcome.IRREDUCIBLE,
                f"single negative segment with irreducible residual polynomial over F_{p}",
            ),
            negative_degree,
        )
    return (
        SlopeVerdict(
            SlopeOutcome.UNKNOWN,
            f"residual polynomial is a proper power (multiplicity {mult}) of one irreducible; "
            "first-order slope data cannot decide",
        ),
        negative_degree,
    )
