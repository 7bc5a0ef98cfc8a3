"""Newton polygons, residual polynomials and slope verdicts.

The polygon oracle recomputes the lower hull by brute force over all
supporting lines through pairs of valuation points.
"""

import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from httool.exactpoly import DomainError, Poly
from httool.padicpoly import (
    NewtonPolygon,
    Segment,
    SlopeOutcome,
    negative_part_verdict,
    newton_polygon,
    residual_polynomial,
)
from test_helpers import slopes_with_multiplicity, vp

HALF = F(1, 2)


def hull_oracle(f: Poly, p: int):
    """Value of the lower convex hull at each index, by brute force over all
    segments between pairs of valuation points."""
    points = [(i, F(vp(c, p))) for i, c in enumerate(f.coeffs) if c != 0]
    lo, hi = points[0][0], points[-1][0]
    values = {}
    for x in range(lo, hi + 1):
        best = None
        for (i, vi), (j, vj) in [(a, b) for a in points for b in points if a[0] < b[0]]:
            if i <= x <= j:
                val = vi + (vj - vi) * F(x - i, j - i)
                if best is None or val < best:
                    best = val
        for (i, vi) in points:
            if i == x and (best is None or vi < best):
                best = vi
        values[x] = best
    return values


def polygon_value_at(polygon: NewtonPolygon, x: int) -> F:
    cx, cy = polygon.vertices[0]
    for seg in polygon.segments:
        nx = cx + seg.length
        if x <= nx:
            return cy + seg.slope * (x - cx)
        cx, cy = nx, cy + seg.slope * seg.length
    raise AssertionError("index beyond the polygon")


# ---------------------------------------------------------------------------
# valuations


def test_vp_examples():
    assert vp(F(7, 4), 2) == -2
    assert vp(F(0), 3) == math.inf
    assert vp(F(20), 5) == 1


def test_vp_additivity():
    assert vp(F(6, 5) * F(10, 3), 5) == vp(F(6, 5), 5) + vp(F(10, 3), 5)


def test_vp_rejects_composite():
    with pytest.raises(DomainError):
        vp(F(1), 6)


# ---------------------------------------------------------------------------
# polygons


def test_polygon_weil_quadratic():
    np = newton_polygon(Poly([1, -HALF, 1]), 2)
    assert np.vertices == ((0, 0), (1, -1), (2, 0))
    assert [(s.slope, s.length) for s in np.segments] == [(-1, 1), (1, 1)]


def test_polygon_weil_quartic():
    np = newton_polygon(Poly([1, 0, HALF, 0, 1]), 2)
    assert np.vertices == ((0, 0), (2, -1), (4, 0))
    assert [(s.slope, s.length) for s in np.segments] == [(F(-1, 2), 2), (F(1, 2), 2)]


def test_polygon_flat():
    np = newton_polygon(Poly([1, 1, 1]), 2)
    assert len(np.segments) == 1
    assert np.segments[0] == Segment(F(0), 2)


def test_polygon_matches_hull_oracle():
    fixtures = [
        (Poly([1, -HALF, 1]), 2),
        (Poly([1, 0, HALF, 0, 1]), 2),
        (Poly([1, -2, F(3, 4)]), 2),
        (Poly([F(1, 8), F(5, 2), 3, F(7, 16), 1]), 2),
        (Poly([9, F(1, 3), F(5, 27), 7]), 3),
    ]
    for f, p in fixtures:
        polygon = newton_polygon(f, p)
        oracle = hull_oracle(f, p)
        for x, val in oracle.items():
            assert polygon_value_at(polygon, x) == val
        slopes = [s.slope for s in polygon.segments]
        assert slopes == sorted(slopes) and len(set(slopes)) == len(slopes)


def test_polygon_rejects_zero_constant():
    with pytest.raises(DomainError):
        newton_polygon(Poly([0, 1]), 2)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.sampled_from([1, 2, 3, HALF, F(1, 4), F(3, 2), 5]), min_size=2, max_size=4),
    st.lists(st.sampled_from([1, 2, HALF, F(5, 4), F(2, 3), 7]), min_size=2, max_size=4),
)
def test_polygon_additive_on_products(cs1, cs2):
    f, g = Poly(cs1), Poly(cs2)
    if f.is_zero or g.is_zero or f.coefficient(0) == 0 or g.coefficient(0) == 0:
        return
    p = 2
    combined = sorted(
        slopes_with_multiplicity(newton_polygon(f, p))
        + slopes_with_multiplicity(newton_polygon(g, p))
    )
    product = sorted(slopes_with_multiplicity(newton_polygon(f * g, p)))
    assert product == combined


def test_polygon_symmetry_for_self_inversive():
    for f in (Poly([1, -HALF, 1]), Poly([1, 0, HALF, 0, 1]), Poly([1, HALF, F(9, 4), HALF, 1])):
        slopes = slopes_with_multiplicity(newton_polygon(f, 2))
        assert sorted(slopes) == sorted(-s for s in slopes)


def test_slope_length_sum_identity():
    for f, p in [
        (Poly([F(1, 8), F(5, 2), 3, F(7, 16), 1]), 2),
        (Poly([9, F(1, 3), F(5, 27), 7]), 3),
    ]:
        polygon = newton_polygon(f, p)
        total = sum(seg.slope * seg.length for seg in polygon.segments)
        assert total == vp(f.leading(), p) - vp(f.coefficient(0), p)


# ---------------------------------------------------------------------------
# residual polynomials


def test_residual_length_one_segment():
    f = Poly([1, -HALF, 1])
    polygon = newton_polygon(f, 2)
    res = residual_polynomial(f, polygon, polygon.segments[0])
    assert len(res) == 2  # degree 1


def test_residual_fractional_slope():
    f = Poly([1, 0, HALF, 0, 1])
    polygon = newton_polygon(f, 2)
    res = residual_polynomial(f, polygon, polygon.segments[0])
    assert len(res) == 2  # lattice length 2 over denominator 2


def test_residual_unit_product_segment():
    # (1 - T/2)(1 - 3T/2): one slope -1 segment of length 2, residual degree 2
    f = Poly([1, -HALF]) * Poly([1, F(-3, 2)])
    assert f == Poly([1, -2, F(3, 4)])
    polygon = newton_polygon(f, 2)
    assert polygon.segments[0] == Segment(F(-1), 2)
    res = residual_polynomial(f, polygon, polygon.segments[0])
    assert res == [1, 0, 1]  # (z + 1)**2 over F_2


def test_residual_rejects_foreign_segment():
    f = Poly([1, -HALF, 1])
    with pytest.raises(DomainError):
        residual_polynomial(f, newton_polygon(f, 2), Segment(F(-7), 3))


# ---------------------------------------------------------------------------
# verdicts


def test_verdict_single_short_segment():
    f = Poly([1, -HALF, 1])
    verdict, deg = negative_part_verdict(f, newton_polygon(f, 2))
    assert verdict.value is SlopeOutcome.IRREDUCIBLE
    assert deg == 1


def test_verdict_fractional_slope_no_interior_points():
    f = Poly([1, 0, HALF, 0, 1])
    verdict, deg = negative_part_verdict(f, newton_polygon(f, 2))
    assert verdict.value is SlopeOutcome.IRREDUCIBLE
    assert deg == 2


def test_verdict_no_negative_slope():
    f = Poly([1, 1, 1])
    verdict, deg = negative_part_verdict(f, newton_polygon(f, 2))
    assert verdict.value is SlopeOutcome.NO_NEGATIVE_SLOPE
    assert deg == 0


def test_verdict_two_segments_reducible():
    f = Poly([1, -HALF, 1]) * Poly([1, F(-1, 4), 1])
    verdict, deg = negative_part_verdict(f, newton_polygon(f, 2))
    assert verdict.value is SlopeOutcome.REDUCIBLE
    assert deg == 2


def test_verdict_proper_power_residual_is_unknown():
    f = Poly([1, -2, F(3, 4)])
    verdict, deg = negative_part_verdict(f, newton_polygon(f, 2))
    assert verdict.value is SlopeOutcome.UNKNOWN
    assert deg == 2
    assert verdict.reason


def test_verdict_split_residual_reducible():
    # 1 + T**3/8 = (1 + T/2)(1 - T/2 + T**2/4): residual z**3+1 = (z+1)(z^2+z+1)
    f = Poly([1, 0, 0, F(1, 8)])
    verdict, deg = negative_part_verdict(f, newton_polygon(f, 2))
    assert verdict.value is SlopeOutcome.REDUCIBLE
    assert deg == 3


def test_verdict_irreducible_residual_with_interior_points():
    # residual z**2 + z + 1 over F_2 (Hensel: the factor is the unramified quadratic)
    f = Poly([1, HALF, F(1, 4)])
    verdict, deg = negative_part_verdict(f, newton_polygon(f, 2))
    assert verdict.value is SlopeOutcome.IRREDUCIBLE
    assert deg == 2


def test_verdict_never_claims_without_reason():
    for f in (Poly([1, -HALF, 1]), Poly([1, -2, F(3, 4)]), Poly([1, 1, 1])):
        verdict, _ = negative_part_verdict(f, newton_polygon(f, 2))
        assert verdict.reason

