"""Property checks on candidate L-factors, base extension, enumeration.

The unit-circle checker is cross-validated against a high-precision numeric
root-modulus oracle (mpmath at 60 digits, test-only).
"""

import hashlib
import json
import pathlib
import random
from fractions import Fraction as F

import mpmath
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from httool.exactpoly import (
    DomainError,
    Poly,
    SturmChain,
    cyclotomic_poly,
    factor_with_unit,
    reciprocal_lift,
    reciprocal_transform,
    trace_power_sums,
)
from httool import weilcheck
from httool.padicpoly import NewtonPolygon, SlopeOutcome, newton_polygon
from httool.weilcheck import (
    Status,
    WeilCandidate,
    base_extend,
    check_all,
    check_l_integrality,
    check_newton_shape,
    check_no_root_of_unity,
    check_power_structure,
    check_unit_circle,
    enumerate_candidates,
)
from test_exactpoly import _load_workloads
from test_helpers import (
    halve,
    reference_base_extend,
    reference_census,
    reference_newton_shape,
    slopes_with_multiplicity,
    squarefree_part,
    unit_circle_prechecks,
)

HALF = F(1, 2)
WEIL_QUADRATIC = Poly([1, -HALF, 1])
WEIL_QUARTIC = Poly([1, 0, HALF, 0, 1])


def numeric_roots(f: Poly, digits: int):
    mpmath.mp.dps = digits
    coeffs = [mpmath.mpf(c.numerator) / mpmath.mpf(c.denominator) for c in reversed(f.coeffs)]
    return mpmath.polyroots(coeffs, maxsteps=500, extraprec=500)


def all_roots_on_unit_circle(L: Poly, digits: int = 60) -> bool:
    roots = numeric_roots(squarefree_part(L), digits)  # multiple roots stall the solver
    tol = mpmath.mpf(10) ** (-digits // 3)
    return all(abs(abs(r) - 1) < tol for r in roots)


def transform_real_root_counts(L: Poly, digits: int = 60) -> tuple[int, int]:
    """Real roots of the squarefree part of H, where L(T) = T**d H(T + 1/T),
    in all and in [-2, 2], located numerically."""
    roots = numeric_roots(squarefree_part(reciprocal_transform(L)), digits)
    tol = mpmath.mpf(10) ** (-digits // 3)
    real = [mpmath.re(r) for r in roots if abs(mpmath.im(r)) < tol]
    return len(real), sum(1 for x in real if -2 - tol <= x <= 2 + tol)


# ---------------------------------------------------------------------------
# candidate validation


def test_candidate_validation():
    with pytest.raises(DomainError):
        WeilCandidate(Poly([2, 1, 1]), 2, 1)  # constant term != 1
    with pytest.raises(DomainError):
        WeilCandidate(Poly([1, 1]), 2, 1)  # odd degree
    with pytest.raises(DomainError):
        WeilCandidate(WEIL_QUADRATIC, 4, 1)  # composite p
    with pytest.raises(DomainError):
        WeilCandidate(WEIL_QUADRATIC, 2, 0)


# ---------------------------------------------------------------------------
# single-property checks


def test_unit_circle_examples():
    assert check_unit_circle(WeilCandidate(WEIL_QUADRATIC, 2, 1)).status is Status.PASS
    fail = check_unit_circle(WeilCandidate(Poly([1, 3, 1]), 2, 1))
    assert fail.status is Status.FAIL
    assert fail.witness["real_roots_in_range"] == 0
    assert "offending_interval" in fail.witness
    assert check_unit_circle(WeilCandidate(Poly([1, 1, 1]), 2, 1)).status is Status.PASS


def test_unit_circle_rejects_non_palindromic():
    fail = check_unit_circle(WeilCandidate(Poly([1, 2, 1, 1, 1]), 2, 1))
    assert fail.status is Status.FAIL
    assert fail.witness["reason"] == "not self-inversive"


def test_unit_circle_odd_symmetry_case():
    L = Poly([1, 0, -1])  # (1 - T)(1 + T): reversal negates L
    verdict = check_unit_circle(WeilCandidate(L, 2, 1))
    assert verdict.status is Status.FAIL
    assert verdict.witness["root_of_unity"] == 1


def test_unit_circle_against_numeric_oracle_seeded():
    rng = random.Random(20240601)
    agreements = witnessed = 0
    for _ in range(1000):
        two_d = rng.choice([2, 4, 6])
        d = two_d // 2
        half = [
            F(rng.randint(-4 * 2, 4 * 2), rng.choice([1, 2, 4]))
            for _ in range(d)
        ]
        if rng.random() < 0.5:
            coeffs = [F(1)] + half + list(reversed(half[:-1])) + [F(1)]
        else:
            coeffs = [F(1)] + half + [F(rng.randint(-3, 3), 2) for _ in range(d - 1)] + [F(1)]
        L = Poly(coeffs)
        if L.degree() != two_d or L.coefficient(0) != 1:
            continue
        candidate = WeilCandidate(L, 2, 1)
        expected = all_roots_on_unit_circle(L)
        verdict = check_unit_circle(candidate)
        assert (verdict.status is Status.PASS) == expected, L
        if verdict.witness.get("reason") == "a root lies off the unit circle":
            counts = (verdict.witness["real_roots"], verdict.witness["real_roots_in_range"])
            assert counts == transform_real_root_counts(L), L
            witnessed += 1
        agreements += 1
    assert agreements > 900
    assert witnessed > 100


def test_no_root_of_unity_examples():
    L = Poly([1, 1, 1])
    fail = check_no_root_of_unity(WeilCandidate(L, 2, 1), factor_with_unit(L))
    assert fail.status is Status.FAIL and fail.witness["cyclotomic_index"] == 3
    L = WEIL_QUADRATIC
    assert check_no_root_of_unity(WeilCandidate(L, 2, 1), factor_with_unit(L)).status is Status.PASS
    L = WEIL_QUARTIC
    assert check_no_root_of_unity(WeilCandidate(L, 2, 1), factor_with_unit(L)).status is Status.PASS


def test_integrality_examples():
    assert check_l_integrality(WeilCandidate(WEIL_QUADRATIC, 2, 1)).status is Status.PASS
    fail = check_l_integrality(WeilCandidate(Poly([1, F(-1, 3), 1]), 2, 1))
    assert fail.status is Status.FAIL and fail.witness["coefficient_index"] == 1
    assert check_l_integrality(WeilCandidate(Poly([1, 7, 1]), 2, 1)).status is Status.PASS


def test_newton_shape_examples():
    verdict, h, d = check_newton_shape(WeilCandidate(WEIL_QUADRATIC, 2, 1), newton_polygon(WEIL_QUADRATIC, 2))
    assert verdict.status is Status.PASS and (h, d) == (1, 1)
    verdict, h, d = check_newton_shape(WeilCandidate(WEIL_QUARTIC, 2, 1), newton_polygon(WEIL_QUARTIC, 2))
    assert verdict.status is Status.PASS and (h, d) == (2, 2)
    L = Poly([1, 1, 1])
    verdict, h, d = check_newton_shape(WeilCandidate(L, 2, 1), newton_polygon(L, 2))
    assert verdict.status is Status.FAIL


def test_newton_shape_four_vertices():
    # h = 1, d = 2 at a = 1: vertices (0,0), (1,-1), (3,-1), (4,0)
    L = Poly([1, HALF, F(1, 2), HALF, 1])
    verdict, h, d = check_newton_shape(WeilCandidate(L, 2, 1), newton_polygon(L, 2))
    assert verdict.status is Status.PASS and (h, d) == (1, 2)


def test_power_structure_examples():
    L = WEIL_QUADRATIC
    verdict, q_poly, e, slope = check_power_structure(
        WeilCandidate(L, 2, 1), factor_with_unit(L), newton_polygon(L, 2)
    )
    assert verdict.status is Status.PASS and q_poly == WEIL_QUADRATIC and e == 1
    L = WEIL_QUADRATIC**2
    verdict, q_poly, e, slope = check_power_structure(
        WeilCandidate(L, 2, 1), factor_with_unit(L), newton_polygon(L, 2)
    )
    assert verdict.status is Status.PASS and q_poly == WEIL_QUADRATIC and e == 2
    assert slope.value is SlopeOutcome.IRREDUCIBLE
    L = Poly([1, 0, 1, 0, 1])
    verdict, q_poly, e, slope = check_power_structure(
        WeilCandidate(L, 2, 1), factor_with_unit(L), newton_polygon(L, 2)
    )
    assert verdict.status is Status.FAIL
    assert "factors" in verdict.witness


def test_power_square_polygon_shape_at_a1_vs_a2():
    # the squared quadratic has polygon (0,0),(2,-2),(4,0); that is the
    # required shape for a = 2, not for a = 1
    square = WEIL_QUADRATIC**2
    verdict_a1, _, _ = check_newton_shape(WeilCandidate(square, 2, 1), newton_polygon(square, 2))
    assert verdict_a1.status is Status.FAIL
    verdict_a2, h, d = check_newton_shape(WeilCandidate(square, 2, 2), newton_polygon(square, 2))
    assert verdict_a2.status is Status.PASS and (h, d) == (2, 2)


def test_check_all_examples():
    report = check_all(WeilCandidate(WEIL_QUARTIC, 2, 1))
    assert report.admissible
    assert (report.h, report.d, report.e) == (2, 2, 1)
    report2 = check_all(WeilCandidate(Poly([1, 1, 1]), 2, 1))
    assert not report2.admissible
    assert {"no_root_of_unity", "newton_shape"} <= set(report2.failures)
    report3 = check_all(WeilCandidate(Poly([1, F(-1, 3), 1]), 2, 1))
    assert not report3.admissible
    assert {"ell_integrality", "newton_shape"} <= set(report3.failures)


def test_every_fail_has_a_witness():
    for L in (Poly([1, 1, 1]), Poly([1, 3, 1]), Poly([1, F(-1, 3), 1]), Poly([1, 0, 1, 0, 1])):
        report = check_all(WeilCandidate(L, 2, 1))
        payload = report.to_json()["properties"]
        for name in report.failures:
            assert payload[name]["witness"], name


# ---------------------------------------------------------------------------
# base extension


def test_base_extend_quadratic():
    c = WeilCandidate(WEIL_QUADRATIC, 2, 1)
    extended = base_extend(c, 2)
    assert extended.L == Poly([1, F(7, 4), 1])
    assert extended.a == 2
    polygon = newton_polygon(extended.L, 2)
    assert polygon.vertices == ((0, 0), (1, -2), (2, 0))


def test_base_extend_identity():
    c = WeilCandidate(WEIL_QUADRATIC, 2, 1)
    assert base_extend(c, 1) == c


def test_base_extend_quartic():
    c = WeilCandidate(WEIL_QUARTIC, 2, 1)
    extended = base_extend(c, 2)
    assert extended.a == 2 and extended.L.degree() == 4
    polygon = newton_polygon(extended.L, 2)
    assert polygon.vertices == ((0, 0), (2, -2), (4, 0))


def test_base_extend_rejects_zero():
    with pytest.raises(DomainError):
        base_extend(WeilCandidate(WEIL_QUADRATIC, 2, 1), 0)


def test_power_sums_match_roots():
    # L = (1 - T/2)(1 - 2T) has reciprocal roots 1/2 and 2, the roots of
    # T**2 * L(1/T), which is monic as L(0) = 1
    L = Poly([1, -HALF]) * Poly([1, -2])
    reversed_L = Poly.from_ints(L.prim[::-1], L.content)
    assert reversed_L == Poly([1, F(-5, 2), 1]) and reversed_L.is_monic()
    sums, den = trace_power_sums(reversed_L, 4)
    assert [F(s, den) for s in sums] == [2, F(5, 2), F(17, 4), F(65, 8), F(257, 16)]


def test_base_extend_pool_pin():
    # every pool member at n = 2..5: SHA-256 of the extended candidates,
    # pinned while base extension ran on Fraction power sums, and the
    # Fraction route itself (the reference) gives the same candidates
    extended = []
    for pool in POOLS["pools"]:
        for member in pool["members"]:
            c = WeilCandidate(Poly.from_strs(member), pool["p"], pool["a"])
            for n in range(2, 6):
                e = base_extend(c, n)
                assert e == reference_base_extend(c, n)
                extended.append(e.to_json())
    digest = hashlib.sha256(json.dumps(extended).encode()).hexdigest()
    assert digest == "44c545389faec8dfe2524c3ae7f4a093272751577d3fa7bf93400da973af88c0"


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=6), min_size=2, max_size=6).filter(
        lambda cs: len(cs) % 2 == 0 and cs[-1] != 0
    ),
    st.integers(2, 6),
)
def test_base_extend_matches_reference_off_the_pool(coeffs, n):
    # any L with L(0) = 1 and even degree, palindromic or not, Weil or not:
    # the integer route is exact for all of them.  Every pool member is
    # palindromic, equal to T**2d * L(1/T), so only such L show that the
    # reversal is taken
    c = WeilCandidate(Poly([1, *coeffs]), 3, 1)
    assert base_extend(c, n) == reference_base_extend(c, n)


@st.composite
def newton_vertex_tuples(draw):
    """(a, 2d, vertices) with 2 to 5 vertices at strictly increasing x from
    0 to 2d, as every Newton polygon of a candidate has them: the required
    shape at any h (h > d included) or a near miss, with one x or height
    off, asymmetric, or d > 10."""
    d = draw(st.integers(1, 13))
    a = draw(st.integers(1, 3))
    two_d = 2 * d
    count = draw(st.integers(2, min(5, two_d + 1)))
    xs = [0, *sorted(draw(st.sets(st.integers(1, two_d - 1), min_size=count - 2, max_size=count - 2))), two_d]
    if count == 4 and draw(st.booleans()) and xs[1] < d:
        xs[2] = two_d - xs[1]  # symmetric, the required x pattern
    if count == 3 and draw(st.booleans()):
        xs[1] = d
    heights = st.sampled_from([-a, -a, -a, 0, 1, -a - 1])
    ys = [draw(st.sampled_from([0, 0, 0, -1])), *(draw(heights) for _ in xs[2:]), draw(st.sampled_from([0, 0, 0, 1]))]
    return a, two_d, tuple(zip(xs, ys))


@settings(max_examples=400, deadline=None)
@given(newton_vertex_tuples())
@example((1, 4, ((0, 0), (2, -1), (4, 0))))  # h = d
@example((1, 4, ((0, 0), (1, -1), (3, -1), (4, 0))))  # h = 1 < d
@example((1, 4, ((0, 0), (3, -1), (4, 0))))  # h = 3 > d
@example((2, 6, ((0, 0), (1, -2), (4, -2), (6, 0))))  # asymmetric
@example((1, 4, ((0, 0), (1, -2), (3, -1), (4, 0))))  # a wrong height
@example((1, 22, ((0, 0), (5, -1), (17, -1), (22, 0))))  # d = 11
@example((2, 4, ((0, 0), (4, 0))))  # two vertices
def test_newton_shape_matches_two_branch_rule(shape):
    a, two_d, vertices = shape
    c = WeilCandidate(Poly([1] + [0] * (two_d - 1) + [1]), 2, a)
    polygon = NewtonPolygon(prime=2, vertices=vertices)
    verdict, h, d = check_newton_shape(c, polygon)
    expected, expected_h, expected_d = reference_newton_shape(c, polygon)
    assert (verdict.status, h, d, verdict.witness) == (expected.status, expected_h, expected_d, expected.witness)


# ---------------------------------------------------------------------------
# enumeration


def test_census_q2_degree2():
    found = enumerate_candidates(2, 1, 2)
    assert [c.L.coefficient(1) for c in found] == [F(-3, 2), -HALF, HALF, F(3, 2)]


def test_census_q3_degree2():
    found = enumerate_candidates(3, 1, 2)
    assert [c.L.coefficient(1) for c in found] == [
        F(-5, 3),
        F(-4, 3),
        F(-2, 3),
        F(-1, 3),
        F(1, 3),
        F(2, 3),
        F(4, 3),
        F(5, 3),
    ]


def test_census_closed_under_sign_involution():
    for found in (enumerate_candidates(2, 1, 2), enumerate_candidates(2, 1, 4)):
        coeff_sets = {c.L.coeffs for c in found}
        for c in found:
            flipped = Poly([(-1) ** i * v for i, v in enumerate(c.L.coeffs)])
            assert flipped.coeffs in coeff_sets


def test_census_members_have_symmetric_slope_multisets():
    # anything passing the unit-circle check is self-inversive, so the slope
    # multiset of its polygon must be closed under negation
    for member in enumerate_candidates(2, 1, 4):
        slopes = slopes_with_multiplicity(newton_polygon(member.L, member.p))
        assert sorted(slopes) == sorted(-s for s in slopes)


# n with phi(n) <= 4: the only cyclotomic polynomials that can divide a quartic
QUARTIC_CYCLOTOMIC_INDICES = (1, 2, 3, 4, 5, 6, 8, 10, 12)


@pytest.mark.parametrize(
    "p, a, count", [(2, 1, 18), (3, 1, 56), (2, 2, 80), (5, 1, 196)], ids=["q2", "q3", "q4", "q5"]
)
def test_census_degree4_matches_brute_force_box(p, a, count):
    # every palindromic quartic with coefficients m/q in the box
    # |c_i| <= binom(4, i) that roots on the unit circle force, with neither
    # the power-sum prune nor the cyclotomic screen
    q = p**a
    cyclotomics = [cyclotomic_poly(n) for n in QUARTIC_CYCLOTOMIC_INDICES]
    admissible = []
    screened = 0
    for m1 in range(-4 * q, 4 * q + 1):
        for m2 in range(-6 * q, 6 * q + 1):
            c1, c2 = F(m1, q), F(m2, q)
            candidate = WeilCandidate(Poly([1, c1, c2, c1, 1]), p, a)
            report = check_all(candidate)
            if any((candidate.L % phi).is_zero for phi in cyclotomics):
                # the screen drops only what check_all rejects on constraint (2)
                assert report.no_root_of_unity.status is Status.FAIL
                screened += 1
            if report.admissible:
                admissible.append(candidate.L.coeffs)
    found = [c.L.coeffs for c in enumerate_candidates(p, a, 4)]
    assert sorted(admissible) == found
    assert len(found) == count
    assert screened > 0


POOLS = json.loads((pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "pools.json").read_text())


@pytest.mark.parametrize(
    "pool",
    [pool for pool in POOLS["pools"] if pool["degree"] <= 6],
    ids=lambda pool: f"q{pool['p'] ** pool['a']}-deg{pool['degree']}",
)
def test_census_matches_frozen_pools(pool):
    found = enumerate_candidates(pool["p"], pool["a"], pool["degree"])
    assert [c.L.to_strs() for c in found] == pool["members"]


def test_census_q2_degree8_count():
    found = enumerate_candidates(2, 1, 8)
    assert len(found) == 200
    listing = json.dumps([c.L.to_strs() for c in found]).encode()
    assert hashlib.sha256(listing).hexdigest() == "a5a1ac601f8be150a515d3fd1ea0e929c78336242e5a0d999d9590222c04faea"


def test_census_lists_admissible_candidates_only():
    # at q = 4 and degree 4, [1, -2, 9/4, -2, 1] survives the search but its
    # power structure is unknown (no residual polynomial decides the slope
    # factor), so the census, a list of admissible candidates, leaves it out
    c = WeilCandidate(Poly.from_strs(["1", "-2", "9/4", "-2", "1"]), 2, 2)
    report = check_all(c)
    assert report.power_structure.status is Status.UNKNOWN and not report.admissible
    assert c.L not in [found.L for found in enumerate_candidates(2, 2, 4)]


def test_census_rejects_bad_degrees():
    with pytest.raises(DomainError):
        enumerate_candidates(2, 1, 3)
    with pytest.raises(DomainError):
        enumerate_candidates(2, 1, 20)


def test_census_value_filters():
    base = enumerate_candidates(2, 1, 2)
    target = base[0].L(F(1))
    filtered = enumerate_candidates(2, 1, 2, value_at_one=target)
    assert all(c.L(F(1)) == target for c in filtered)
    assert any(c.L(F(1)) != target for c in base)
    excluded = enumerate_candidates(2, 1, 2, value_at_minus_one_not=base[0].L(F(-1)))
    assert all(c.L(F(-1)) != base[0].L(F(-1)) for c in excluded)


def test_census_degree10_pin():
    # the acceptance census over the trace polynomial at the desk bound 10;
    # the listing was pinned from the search without the signs at +-2
    found = enumerate_candidates(2, 1, 10, desk_bound=10)
    assert len(found) == 546
    listing = json.dumps([c.L.to_strs() for c in found]).encode()
    assert hashlib.sha256(listing).hexdigest() == "6a12453c13a35bd285d2a918997e7c29c04abff0e4b3a571b2eed6ac751c549e"


CENSUS_JOBS = [(2, 1, 4), (3, 1, 4), (2, 2, 4), (5, 1, 4), (2, 1, 6), (3, 1, 6), (2, 1, 8)]
Q3_QUARTIC = reference_census(3, 1, 4)


@pytest.mark.parametrize(
    "p, a, two_d, filters",
    [pytest.param(p, a, two_d, {}, id=f"q{p ** a}-deg{two_d}") for p, a, two_d in CENSUS_JOBS]
    + [
        pytest.param(3, 1, 4, {"value_at_one": Q3_QUARTIC[0].L(F(1))}, id="q3-deg4-value_at_one"),
        pytest.param(3, 1, 4, {"value_at_minus_one_not": Q3_QUARTIC[0].L(F(-1))}, id="q3-deg4-value_at_minus_one_not"),
    ],
)
def test_census_matches_the_power_sum_descent(p, a, two_d, filters):
    # the signs at +-2 and the screen on H drop only what check_all rejects
    expected = [c.L for c in reference_census(p, a, two_d, **filters)]
    assert [c.L for c in enumerate_candidates(p, a, two_d, **filters)] == expected
    assert expected


def _endpoint_signs(L: Poly) -> list[tuple[int, int]]:
    """(sign of G^(k)(2), sign of (-1)**(d-k) * G^(k)(-2)) for k = 0..d, G a
    positive multiple of H = reciprocal_transform(L)."""
    H = reciprocal_transform(L)
    assert H.content > 0
    g, d, signs = list(H.prim), H.degree(), []
    for k in range(d + 1):
        at_two, at_minus_two = (sum(c * x**j for j, c in enumerate(g)) for x in (2, -2))
        signs.append(((at_two > 0) - (at_two < 0), (-1) ** (d - k) * ((at_minus_two > 0) - (at_minus_two < 0))))
        g = [j * c for j, c in enumerate(g)][1:]
    return signs


def test_pool_members_meet_the_budan_fourier_signs():
    # every root of H in (-2, 2), so every root of each derivative too
    for members in MEMBERS.values():
        for L in members:
            assert set(_endpoint_signs(L)) == {(1, 1)}, L.to_strs()


@pytest.mark.parametrize("p, a, two_d", CENSUS_JOBS[:5], ids=[f"q{p ** a}-deg{two_d}" for p, a, two_d in CENSUS_JOBS[:5]])
def test_census_hands_check_all_only_screened_leaves(monkeypatch, p, a, two_d):
    # what reaches check_all has H already built, meets the signs at +-2 for
    # every k strictly and has no cyclotomic factor
    seen = []

    def recording_check_all(c):
        seen.append((c, vars(c).get("transform")))
        return check_all(c)

    monkeypatch.setattr(weilcheck, "check_all", recording_check_all)
    found = enumerate_candidates(p, a, two_d)
    assert len(seen) >= len(found) > 0
    cyclotomics = [cyclotomic_poly(n) for n in range(1, 2 * two_d * two_d + 1) if cyclotomic_poly(n).degree() <= two_d]
    for c, seeded in seen:
        assert seeded == reciprocal_transform(c.L)
        assert set(_endpoint_signs(c.L)) == {(1, 1)}, c.L.to_strs()
        assert not any((c.L % phi).is_zero for phi in cyclotomics), c.L.to_strs()


# ---------------------------------------------------------------------------
# check_all's factorization, through the transform H when it applies

MEMBERS = {}
for _pool in POOLS["pools"]:
    MEMBERS.setdefault((_pool["p"], _pool["a"]), []).extend(Poly.from_strs(m) for m in _pool["members"])
OFF_CIRCLE = Poly([1, F(-5, 2), 1])  # (1 - 2T)(1 - T/2), palindromic
CYCLOTOMIC_FACTORS = [cyclotomic_poly(1) ** 2, cyclotomic_poly(2) ** 2] + [cyclotomic_poly(n) for n in range(3, 13)]


def factored_by_check_all(c: WeilCandidate):
    """The factorization `check_all` hands to the power-structure verdict."""
    seen = []
    original = weilcheck.check_power_structure
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(weilcheck, "check_power_structure", lambda c, f, polygon: seen.append(f) or original(c, f, polygon))
        check_all(c)
    return seen[0]


@st.composite
def weil_products(draw):
    """L of degree <= 24 over one q: a product of powers of pool members, or
    a base extension of one; times a cyclotomic factor, the off-circle
    (1 - 2T)(1 - T/2), or (1 + T)(1 + 2T), which breaks the palindrome, or
    none."""
    (p, a), members = draw(st.sampled_from(sorted(MEMBERS.items())))
    n = draw(st.sampled_from((1, 1, 2, 3)))
    if n > 1:
        member = draw(st.sampled_from([m for m in members if m.degree() <= 6]))
        L, a = base_extend(WeilCandidate(member, p, a), n).L, a * n
    else:
        L = Poly([1])
        for member in draw(st.lists(st.sampled_from(members), min_size=1, max_size=3)):
            L = L * member ** draw(st.integers(1, 2))
    extra = draw(st.sampled_from([None, OFF_CIRCLE, Poly([1, 3, 2])] + CYCLOTOMIC_FACTORS))
    if extra is not None:
        L = L * (extra * (1 / extra.coefficient(0)))
    assume(L.degree() <= 24)
    return WeilCandidate(L, p, a)


@settings(max_examples=150, deadline=None)
@given(weil_products())
def test_check_all_factorization_matches_factor_with_unit(c):
    assert factored_by_check_all(c) == factor_with_unit(c.L)


@pytest.mark.parametrize(
    "L",
    [
        Poly([1, 0, F(7, 4), 0, 1]) * cyclotomic_poly(1) ** 2,  # roots at 1: H(2) = 0
        Poly([1, 0, F(7, 4), 0, 1]) * cyclotomic_poly(2) ** 2,  # roots at -1: H(-2) = 0
        Poly([1, 0, F(7, 4), 0, 1]) ** 2 * cyclotomic_poly(12),
        # H = (x + 1)(x - 1/2): the lifts sort in the other order
        cyclotomic_poly(3) * Poly([1, -HALF, 1]),
        Poly([1, 0, F(7, 4), 0, 1]) * OFF_CIRCLE,
        Poly([1, 0, F(7, 4), 0, 1]) * Poly([1, 3, 2]),
        Poly([1, 0, F(7, 4), 0, 1]) * Poly([1, 0, -1]),  # odd symmetry
    ],
)
def test_check_all_factorization_examples(L):
    assert factored_by_check_all(WeilCandidate(L, 2, 1)) == factor_with_unit(L)


def test_product_is_factored_through_its_quadratic_transform():
    # (1 - T/2 + T**2)(1 + T/2 + T**2) has H = x**2 - 1/4 = (x - 1/2)(x + 1/2)
    L = Poly([1, 0, F(7, 4), 0, 1])
    degrees = []
    original = weilcheck.factor_with_unit
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(weilcheck, "factor_with_unit", lambda f: degrees.append(f.degree()) or original(f))
        report = check_all(WeilCandidate(L, 2, 1))
    assert degrees == [2]
    assert report.power_structure.witness["factors"] == [[["2", "-1", "2"], 1], [["2", "1", "2"], 1]]


# ---------------------------------------------------------------------------
# the integer prechecks against the Poly forms they replace


@st.composite
def symmetric_candidates(draw):
    """L with constant term 1 of even degree 2..12 and coefficients over
    p**k: palindromic, anti-palindromic (leading -1, so negative content),
    or palindromic with one coefficient moved; times (1 - T)**2, (1 + T)**2
    or 1, which keep a palindrome and put a root at 1 or -1."""
    p = draw(st.sampled_from((2, 3, 5)))
    den = p ** draw(st.integers(0, 2))
    extra = draw(st.sampled_from((None, cyclotomic_poly(1) ** 2, cyclotomic_poly(2) ** 2)))
    two_d = draw(st.sampled_from((2, 4, 6, 8, 10, 12) if extra is None else (2, 4, 6, 8, 10)))
    d = two_d // 2
    half = [F(draw(st.integers(-3 * den, 3 * den)), den) for _ in range(d)]
    kind = draw(st.sampled_from(("palindromic", "anti-palindromic", "near-palindromic")))
    if kind == "anti-palindromic":
        coeffs = [F(1)] + half[:-1] + [F(0)] + [-c for c in reversed(half[:-1])] + [F(-1)]
    else:
        coeffs = [F(1)] + half + list(reversed(half[:-1])) + [F(1)]
        if kind == "near-palindromic":
            coeffs[draw(st.integers(1, two_d - 1))] += F(draw(st.sampled_from((-1, 1))), den)
    L = Poly(coeffs)
    if extra is not None:
        L = L * extra
    return WeilCandidate(L, p, 1)


def factored_degree(c: WeilCandidate) -> int:
    """The degree of the one polynomial `check_all` factors: d through the
    transform H, 2d on L itself."""
    degrees = []
    original = weilcheck.factor_with_unit
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(weilcheck, "factor_with_unit", lambda f: degrees.append(f.degree()) or original(f))
        check_all(c)
    assert len(degrees) == 1
    return degrees[0]


@settings(max_examples=300, deadline=None)
@given(symmetric_candidates())
def test_integer_prechecks_match_poly_forms(c):
    # the symmetry witness against L's reverse, and the choice of factoring
    # H against Fraction values L(1) * L(-1) != 0
    witness, nonzero_at_units = unit_circle_prechecks(c.L)
    verdict = check_unit_circle(c)
    if witness is None:
        assert verdict.witness.get("reason") in (None, "a root lies off the unit circle")
    else:
        assert verdict.status is Status.FAIL and verdict.witness == witness
    through_transform = verdict.status is Status.PASS and nonzero_at_units
    assert factored_degree(c) == (c.L.degree() // 2 if through_transform else c.L.degree())


# H with roots exactly at -2 and 2: L has roots at -1 and 1, on the circle
ROOTS_AT_THE_ENDS = [
    Poly([4, -4, -1, 1]),  # (x - 2)(x + 2)(x - 1)
    Poly([-4, 0, 3, 1]),  # (x + 2)**2 (x - 1)
    Poly([-4, 0, 1]),  # (x - 2)(x + 2)
    Poly([4, 4, 1]),  # (x + 2)**2
]


def test_sturm_counts_at_int_endpoints_equal_fraction_endpoints():
    transforms = [reciprocal_transform(m) for members in MEMBERS.values() for m in members]
    for H in transforms + ROOTS_AT_THE_ENDS:
        chain = SturmChain(H)
        for lo, hi in ((-2, 2), (-2, None), (None, 2), (0, 2), (-2, 0)):
            as_fractions = [None if x is None else F(x) for x in (lo, hi)]
            assert chain.count(lo, hi) == chain.count(*as_fractions), (H, lo, hi)
    # (x + 2)**2 (x - 1) has one root, 1, in (-2, 2]
    chain = SturmChain(ROOTS_AT_THE_ENDS[1])
    assert halve(chain, -2, 2) == halve(chain, F(-2), F(2)) == (0, 2)


@pytest.mark.parametrize("H", ROOTS_AT_THE_ENDS)
def test_unit_circle_counts_a_root_at_minus_two_in_range(H):
    # the range [-2, 2] is closed at both ends: the count over (-2, 2]
    # takes in a root at 2, and H(-2) = 0 adds the root at -2
    L = reciprocal_lift(H)
    assert check_unit_circle(WeilCandidate(L, 2, 1)).status is Status.PASS
    off = check_unit_circle(WeilCandidate(L * Poly([1, 3, 1]), 2, 1))
    assert off.witness["real_roots_in_range"] == SturmChain(H).squarefree.degree()


# H = (x + 2)(x**2 - 5x + 3): the root -2 is on the circle, (5 + sqrt(13))/2
# is off it
ROOT_AT_MINUS_TWO_AND_OFF = Poly([1, -3, -4, 0, -4, -3, 1])
# H = (x + 2)(x**2 + x + 1): the one real root is -2
ROOT_AT_MINUS_TWO_ONLY = Poly([1, 3, 6, 8, 6, 3, 1])


def test_unit_circle_witness_skips_the_root_at_minus_two():
    off = check_unit_circle(WeilCandidate(ROOT_AT_MINUS_TWO_AND_OFF, 2, 1))
    assert off.witness["offending_interval"] == ["4", "8"]
    only = check_unit_circle(WeilCandidate(ROOT_AT_MINUS_TWO_ONLY, 2, 1))
    assert only.status is Status.FAIL
    assert only.witness["real_roots"] == only.witness["real_roots_in_range"] == 1
    assert "offending_interval" not in only.witness


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-6, 6), max_size=3), st.sampled_from([-2, 2]), st.integers(0, 2))
@example([3, -5], -2, 1)  # ROOT_AT_MINUS_TWO_AND_OFF
@example([1, 1], -2, 1)  # ROOT_AT_MINUS_TWO_ONLY
def test_unit_circle_interval_isolates_a_root_off_the_range(cs, end, k):
    # H = g * (x - end)**k with g monic: the interval is present exactly
    # when a real root of H lies outside [-2, 2], and then it holds exactly
    # one root of H, the least of those (the numeric roots of g's
    # squarefree part, at 60 digits, decide which are real and off the range)
    g = Poly([*cs, 1])
    H = g * Poly([-end, 1]) ** k
    assume(H.degree() >= 1)
    witness = check_unit_circle(WeilCandidate(reciprocal_lift(H), 2, 1)).witness
    roots = numeric_roots(squarefree_part(g), 60) if g.degree() else []
    off = [r.real for r in roots if abs(mpmath.im(r)) < 1e-30 and abs(r.real) > 2 + 1e-30]
    assert ("offending_interval" in witness) == bool(off), (H, witness)
    if off:
        lo, hi = (F(x) for x in witness["offending_interval"])
        assert hi <= -2 or lo >= 2
        assert SturmChain(H).count(lo, hi) == 1
        lo_x, hi_x = (mpmath.mpf(x.numerator) / x.denominator for x in (lo, hi))
        assert lo_x < min(off) <= hi_x, (H, witness)


def test_unit_circle_witness_evaluates_a_root_at_two_once(monkeypatch):
    # a `check` perturbation whose H has the one real root 2: the witness
    # skips the interval around it instead of halving it towards 2
    c = WeilCandidate(Poly([1, 1, -HALF, -3, -HALF, 1, 1]), 2, 1)
    assert c.chain.count() == 1 and c.transform(F(2)) == 0
    calls = []
    count = SturmChain.count
    monkeypatch.setattr(SturmChain, "count", lambda self, *ends: calls.append(ends) or count(self, *ends))
    verdict = check_unit_circle(c)
    assert verdict.witness == {
        "reason": "a root lies off the unit circle",
        "transform_degree": 3,
        "real_roots": 1,
        "real_roots_in_range": 1,
    }
    assert len(calls) <= 3


def test_unit_circle_verdicts_of_benchmark_traffic_pin(monkeypatch):
    # SHA-256 of (L, p, a, verdict) for every unit-circle verdict made by 40
    # passes of the `check` workload at each of seeds 0-4, one `census`
    # pass, the q=2 degree-8 census and one seed-0 pass each of `construct`
    # and `extend`, revalidations included (2,252 calls, 126 of them `fail`
    # and 71 with an interval), pinned while the witness bisected with a
    # step cap
    workloads = _load_workloads()
    calls = []
    original = weilcheck.check_unit_circle

    def record(c):
        verdict = original(c)
        calls.append([c.L.to_strs(), c.p, c.a, verdict.to_json()])
        return verdict

    monkeypatch.setattr(weilcheck, "check_unit_circle", record)
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
    enumerate_candidates(2, 1, 8)
    run(workloads.Construct(0, pools).next_pass())
    run(workloads.Extend(0, pools).next_pass())
    verdicts = [call[3] for call in calls]
    assert len(calls) == 2252
    assert sum(v["status"] == "fail" for v in verdicts) == 126
    assert sum("offending_interval" in v["witness"] for v in verdicts) == 71
    digest = hashlib.sha256(json.dumps(calls).encode()).hexdigest()
    assert digest == "912606dfba2d7c8b8cca065ed6213c6a51dee07def667e48b3bb15a5f6552544"
