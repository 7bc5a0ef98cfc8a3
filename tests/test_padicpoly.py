"""Newton polygons and slope verdicts.

The polygon oracle recomputes the lower hull by brute force over all
supporting lines through pairs of valuation points; the verdict oracle is
the segment and `Fraction` residual route of `test_helpers`.
"""

import hashlib
import json
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from httool import cmfield, weilcheck
from httool.exactpoly import DomainError, Poly
from httool.padicpoly import NewtonPolygon, SlopeOutcome, negative_part_verdict, newton_polygon
from test_exactpoly import _load_workloads
from test_helpers import reference_negative_part_verdict, segments_of, slopes_with_multiplicity, vp

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
    vertices = polygon.vertices
    for (x0, y0), (x1, y1) in zip(vertices, vertices[1:]):
        if x <= x1:
            return y0 + F(y1 - y0, x1 - x0) * (x - x0)
    raise AssertionError("index beyond the polygon")


def sparse_polynomial(rng: random.Random, p: int) -> Poly:
    """Degree 1 to 12, each inner coefficient zero with probability 0.6,
    the others +-(1..2p) * p**(-3..3), all times a content p**(-2..2) * a/b."""
    degree = rng.randint(1, 12)
    content = F(rng.randint(1, 9), rng.randint(1, 9)) * F(p) ** rng.randint(-2, 2)
    coeffs = [
        rng.choice([-1, 1]) * rng.randint(1, 2 * p) * F(p) ** rng.randint(-3, 3)
        if i in (0, degree) or rng.random() < 0.4
        else 0
        for i in range(degree + 1)
    ]
    return Poly([content * c for c in coeffs])


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
    assert segments_of(np) == [(-1, 1), (1, 1)]


def test_polygon_weil_quartic():
    np = newton_polygon(Poly([1, 0, HALF, 0, 1]), 2)
    assert np.vertices == ((0, 0), (2, -1), (4, 0))
    assert segments_of(np) == [(F(-1, 2), 2), (F(1, 2), 2)]


def test_polygon_flat():
    np = newton_polygon(Poly([1, 1, 1]), 2)
    assert np.vertices == ((0, 0), (2, 0))
    assert segments_of(np) == [(0, 2)]


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
        slopes = [slope for slope, _run in segments_of(polygon)]
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
        assert polygon.vertices[0] == (0, vp(f.coefficient(0), p))
        assert polygon.vertices[-1] == (f.degree(), vp(f.leading(), p))
        total = sum(slope * run for slope, run in segments_of(polygon))
        assert total == vp(f.leading(), p) - vp(f.coefficient(0), p)


# ---------------------------------------------------------------------------
# residual polynomials, stated as the verdicts they give


def test_residual_length_one_segment():
    # a segment of run 1 has a residual of degree 1
    f = Poly([1, -HALF, 1])
    verdict, deg = negative_part_verdict(f, newton_polygon(f, 2))
    assert verdict.to_json() == {
        "value": "irreducible",
        "reason": "single negative segment of slope -1 with no interior lattice point",
    }
    assert deg == 1


def test_residual_fractional_slope():
    # run 2 over slope denominator 2: again a residual of degree 1
    f = Poly([1, 0, HALF, 0, 1])
    verdict, deg = negative_part_verdict(f, newton_polygon(f, 2))
    assert verdict.to_json() == {
        "value": "irreducible",
        "reason": "single negative segment of slope -1/2 with no interior lattice point",
    }
    assert deg == 2


def test_residual_unit_product_segment():
    # (1 - T/2)(1 - 3T/2): one slope -1 segment of run 2, whose residual
    # is (z + 1)**2 over F_2
    f = Poly([1, -HALF]) * Poly([1, F(-3, 2)])
    assert f == Poly([1, -2, F(3, 4)])
    polygon = newton_polygon(f, 2)
    assert polygon.vertices == ((0, 0), (2, -2))
    verdict, deg = negative_part_verdict(f, polygon)
    assert verdict.to_json() == {
        "value": "unknown",
        "reason": "residual polynomial is a proper power (multiplicity 2) of one irreducible; "
        "first-order slope data cannot decide",
    }
    assert deg == 2


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




def assert_matches_reference(f: Poly, p: int) -> SlopeOutcome:
    polygon = newton_polygon(f, p)
    verdict, negative_degree = negative_part_verdict(f, polygon)
    vertices, expected, expected_degree = reference_negative_part_verdict(f, p)
    assert polygon.vertices == vertices
    assert (verdict.to_json(), negative_degree) == (expected.to_json(), expected_degree)
    return verdict.value


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([2, 3, 5, 7]), st.randoms(use_true_random=False))
def test_verdict_matches_the_segment_reference(p, rng):
    assert_matches_reference(sparse_polynomial(rng, p), p)


def test_sparse_polynomials_reach_every_outcome():
    # the generator of the test above, seeded: 400 polynomials at each
    # prime agree with the reference and reach all four outcomes
    rng = random.Random(0)
    outcomes = {assert_matches_reference(sparse_polynomial(rng, p), p) for p in (2, 3, 5, 7) for _ in range(400)}
    assert outcomes == set(SlopeOutcome)


def test_slope_verdicts_of_benchmark_traffic_pin(monkeypatch):
    # SHA-256 of (f, p, verdict, negative degree) for every slope verdict
    # made by 40 passes of the `check` workload at each of seeds 0-4, the
    # six census jobs, the q=2 degree-8 census and one seed-0 pass each of
    # `construct` and `extend`, revalidations included (1,794 calls),
    # pinned while the polygon still carried Fraction slopes
    workloads = _load_workloads()
    calls = []

    def record(f, polygon):
        verdict, negative_degree = negative_part_verdict(f, polygon)
        calls.append([f.to_strs(), polygon.prime, verdict.to_json(), negative_degree])
        return verdict, negative_degree

    monkeypatch.setattr(weilcheck, "negative_part_verdict", record)
    monkeypatch.setattr(cmfield, "negative_part_verdict", record)
    pools = workloads.load_pools()

    def run(ops):
        for op in ops:
            result = op.primary()
            if op.verify is not None:
                op.verify(result)

    for seed in range(5):
        check = workloads.Check(seed, pools)
        for _ in range(40):
            run(check.next_pass())
    run(workloads.Census(0, pools).next_pass())
    weilcheck.enumerate_candidates(2, 1, 8)
    run(workloads.Construct(0, pools).next_pass())
    run(workloads.Extend(0, pools).next_pass())
    assert len(calls) == 1794
    digest = hashlib.sha256(json.dumps(calls).encode()).hexdigest()
    assert digest == "3ef58c5ad1b491511235308ab3576d416e96cc0824401d469d3768a912df5452"
