"""p-adic valuations, Newton polygons and slope-based irreducibility verdicts.

Polygon convention, fixed once for the whole package: for f with f(0) != 0 we
take the lower convex hull of the points (i, v_p(c_i)).  Its vertices are the
polygon's only data; a segment is a pair of consecutive vertices, and its
slope is the rise over the run between them.  Writing
f = f(0) * prod (1 - gamma T), a segment of slope s and run l carries exactly
l reciprocal roots gamma with v_p(gamma) = s.  In particular the reciprocal
roots of negative valuation sit on the negative-slope segments.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from . import _gfp, _intfactor
from ._intfactor import _split_unit
from .exactpoly import DomainError, Poly, _reduced_str


@dataclass(frozen=True)
class NewtonPolygon:
    prime: int
    vertices: tuple[tuple[int, int], ...]


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
    return NewtonPolygon(prime=p, vertices=tuple(hull))


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
    vertices = polygon.vertices
    # slopes rise along the hull, so the negative segments lead it and end
    # at the first vertex of least valuation
    low = min(range(len(vertices)), key=lambda i: vertices[i][1])
    if low == 0:
        outcome, reason = SlopeOutcome.NO_NEGATIVE_SLOPE, "the Newton polygon has no negative slope"
    elif low >= 2:
        slopes = ", ".join(
            _reduced_str(y1 - y0, x1 - x0) for (x0, y0), (x1, y1) in zip(vertices[:low], vertices[1 : low + 1])
        )
        outcome = SlopeOutcome.REDUCIBLE
        reason = f"distinct negative slopes ({slopes}) force coprime factors over Q_p"
    else:
        # one segment from (0, y0) to (x1, y1) of slope u/n in lowest terms,
        # with k = x1/n lattice steps
        (_, y0), (x1, y1) = vertices[0], vertices[1]
        rise = y1 - y0
        k = math.gcd(x1, rise)
        if k == 1:
            outcome = SlopeOutcome.IRREDUCIBLE
            reason = f"single negative segment of slope {_reduced_str(rise, x1)} with no interior lattice point"
        else:
            # The residual (associated) polynomial of the segment has j-th
            # coefficient c_(j*n) / p**(v_p(c_0) + j*u) mod p.  With
            # c = content * prim, that is prim[j*n] / p**(v_p(prim[0]) + j*u)
            # times one p-unit, which `monic` removes; every point lies on or
            # above the segment, so the division is exact.
            n, u = x1 // k, rise // k
            e0 = _split_unit(f.prim[0], p)[0]
            residual = _gfp.monic([f.prim[j * n] // p ** (e0 + j * u) % p for j in range(k + 1)], p)
            distinct = len(_gfp.fixed_space(residual, p))
            if distinct >= 2:
                outcome = SlopeOutcome.REDUCIBLE
                reason = f"residual polynomial splits into {distinct} distinct irreducible factors over F_{p}"
            elif (mult := _gfp.single_factor_multiplicity(residual, p)) == 1:
                outcome = SlopeOutcome.IRREDUCIBLE
                reason = f"single negative segment with irreducible residual polynomial over F_{p}"
            else:
                outcome = SlopeOutcome.UNKNOWN
                reason = (
                    f"residual polynomial is a proper power (multiplicity {mult}) of one irreducible; "
                    "first-order slope data cannot decide"
                )
    return SlopeVerdict(outcome, reason), vertices[low][0]
