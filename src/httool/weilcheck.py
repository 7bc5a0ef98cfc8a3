"""Verdicts for the five admissibility constraints on candidate transcendental
L-factors, base extension (roots raised to the n-th power), and a desk-scale
exhaustive enumerator.

A candidate is L in 1 + T*Q[T] of even degree 2d together with the prime
power q = p**a.  Writing L = prod (1 - gamma_i T), the constraints are:

  (1) every gamma_i has complex absolute value 1;
  (2) no gamma_i is a root of unity;
  (3) every coefficient denominator is a power of p;
  (4) the Newton polygon at p has vertices (0,0), (h,-a), (2d-h,-a), (2d,0)
      with 1 <= h <= d <= 10;
  (5) L = Q**e with Q irreducible over Q having a unique irreducible factor
      of negative slope over Q_p.

All failures are verdicts carrying machine-checkable witnesses, never
exceptions.
"""

from __future__ import annotations

import enum
import functools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from . import _intfactor
from ._intfactor import _split_unit
from .exactpoly import (
    DomainError,
    Poly,
    SturmChain,
    _chebyshev_v,
    _cyclotomic_table,
    _newton_step,
    _zz_divmod,
    _zz_eval_scaled,
    elementary_from_power_sums,
    factor_with_unit,
    is_cyclotomic,
    isolate_real_roots,
    json_field,
    rat_to_str,
    reciprocal_lift,
    reciprocal_transform,
    trace_power_sums,
)
from .padicpoly import NewtonPolygon, SlopeOutcome, SlopeVerdict, negative_part_verdict, newton_polygon

# the version of every JSON document httool writes
SCHEMA_VERSION = 1


@dataclass(frozen=True)
class WeilCandidate:
    L: Poly
    p: int
    a: int

    def __post_init__(self):
        if not _intfactor.is_prime(self.p):
            raise DomainError(f"{self.p} is not prime")
        if self.a < 1:
            raise DomainError("the exponent a must be positive")
        if not self.L.prim or self.L.content.numerator * self.L.prim[0] != self.L.content.denominator:
            raise DomainError("candidates must have constant term 1")
        if self.L.degree() < 2 or self.L.degree() % 2 != 0:
            raise DomainError("candidates must have even degree >= 2")

    @functools.cached_property
    def transform(self) -> Poly:
        """H = `reciprocal_transform(L)`, built once for `check_all`; the
        enumerator sets it to the H its cyclotomic screen divided."""
        return reciprocal_transform(self.L)

    @functools.cached_property
    def chain(self) -> SturmChain:
        """The Sturm chain of `transform`; `weil_field` reuses it."""
        return SturmChain(self.transform)

    def to_json(self) -> dict:
        return {"L": self.L.to_strs(), "p": self.p, "a": self.a}

    @staticmethod
    def from_json(obj) -> "WeilCandidate":
        L = Poly.from_strs(json_field(obj, "L", list))
        return WeilCandidate(L, json_field(obj, "p", int), json_field(obj, "a", int))


class Status(enum.Enum):
    """The verdict of every pass/fail check, in reports and certificates;
    `not_applicable` marks a certificate check whose hypothesis is absent."""

    PASS = "pass"
    FAIL = "fail"
    UNKNOWN = "unknown"
    NOT_APPLICABLE = "not_applicable"


@dataclass(frozen=True)
class PropertyVerdict:
    status: Status
    witness: dict

    def to_json(self) -> dict:
        return {"status": self.status.value, "witness": self.witness}


_PASS = PropertyVerdict(Status.PASS, {})


def check_unit_circle(c: WeilCandidate) -> PropertyVerdict:
    """All complex roots on the unit circle, certified by Sturm counts on the
    transform H with L(T) = T**d * H(T + 1/T) (roots land in [-2, 2]).

    L = content * prim with prim[0] != 0, so L is self-inversive (its reverse
    is L) iff prim is a palindrome, and its reverse is -L iff prim reversed
    is -prim."""
    prim = c.L.prim
    rev = prim[::-1]
    if rev == tuple(-a for a in prim):
        return PropertyVerdict(
            Status.FAIL,
            {"reason": "odd reciprocal symmetry forces L(1) = 0", "root_of_unity": 1},
        )
    if rev != prim:
        defect = next(i for i, (a, b) in enumerate(zip(prim, rev)) if a != b)
        return PropertyVerdict(
            Status.FAIL,
            {"reason": "not self-inversive", "coefficient_index": defect},
        )
    chain = c.chain
    hs = chain.squarefree
    deg = hs.degree()
    ends = [x for x in (-2, 2) if _zz_eval_scaled(hs.prim, x, 1) == 0]
    in_range = chain.count(-2, 2) + (-2 in ends)
    if in_range == deg:
        return _PASS
    witness: dict = {
        "reason": "a root lies off the unit circle",
        "transform_degree": deg,
        "real_roots": chain.count(),
        "real_roots_in_range": in_range,
    }
    for lo, hi in isolate_real_roots(chain):
        if any(lo < x <= hi for x in ends):
            continue  # it isolates a root at -2 or 2, on the circle
        # A point +-2 inside is no root: H(+-2) is a nonzero integer, so the
        # root r has |r -+ 2| >= 1/(lc * (2 + b)**(deg - 1)), b the Cauchy
        # bound, and (-b, b] needs at most log2(2b * lc * (2 + b)**(deg - 1)) halvings.
        while lo < -2 < hi or lo < 2 < hi:
            mid = Fraction(lo + hi, 2)
            lo, hi = (lo, mid) if chain.count(lo, mid) else (mid, hi)
        if hi <= -2 or lo >= 2:
            witness["offending_interval"] = [rat_to_str(lo), rat_to_str(hi)]
            break
    return PropertyVerdict(Status.FAIL, witness)


def check_no_root_of_unity(
    c: WeilCandidate, factored: tuple[Fraction, list[tuple[Poly, int]]]
) -> PropertyVerdict:
    """No irreducible factor of L is a cyclotomic polynomial; `factored` is
    `factor_with_unit(c.L)`."""
    for factor, _mult in factored[1]:
        n = is_cyclotomic(factor)
        if n is not None:
            return PropertyVerdict(
                Status.FAIL,
                {"cyclotomic_index": n, "factor": factor.to_strs()},
            )
    return _PASS


def check_l_integrality(c: WeilCandidate) -> PropertyVerdict:
    """Every coefficient denominator is a power of p.  As gcd(prim) = 1,
    that holds iff it does for the content; else, with D the prime-to-p part
    of its denominator, the witness is the first i with D not dividing prim[i]."""
    den = _split_unit(c.L.content.denominator, c.p)[1]
    if den == 1:
        return _PASS
    i = next(i for i, a in enumerate(c.L.prim) if a % den)
    return PropertyVerdict(
        Status.FAIL,
        {"coefficient_index": i, "coefficient": rat_to_str(c.L.coefficient(i))},
    )


def check_newton_shape(
    c: WeilCandidate, polygon: NewtonPolygon
) -> tuple[PropertyVerdict, int | None, int | None]:
    """Polygon vertices exactly (0,0), (h,-a), (2d-h,-a), (2d,0) with
    1 <= h <= d <= 10 (the h = d case collapses the flat middle); `polygon`
    is `newton_polygon(c.L, c.p)`.

    The polygon has a vertex at x = 0 and one at x = 2d, so h, the x of the
    second vertex, is at least 1.  The required shape has four vertices
    when h < d and three, with h = d, otherwise, so a match has
    1 <= h <= d."""
    a = c.a
    two_d = c.L.degree()
    d = two_d // 2
    verts = polygon.vertices
    h = verts[1][0]
    if h < d:
        expected = ((0, 0), (h, -a), (two_d - h, -a), (two_d, 0))
    else:
        expected = ((0, 0), (d, -a), (two_d, 0))
    if verts != expected:
        h, reason = None, "polygon shape mismatch"
    elif d > 10:
        reason = f"half degree {d} exceeds 10"
    else:
        return _PASS, h, d
    witness = {"vertices": [[i, str(v)] for i, v in verts], "reason": reason}
    return PropertyVerdict(Status.FAIL, witness), h, d


def check_power_structure(
    c: WeilCandidate, factored: tuple[Fraction, list[tuple[Poly, int]]], polygon: NewtonPolygon
) -> tuple[PropertyVerdict, Poly | None, int | None, SlopeVerdict | None]:
    """L = Q**e with Q irreducible over Q, and the negative-slope part of Q
    over Q_p irreducible (three-valued; Unknown propagates); `factored` is
    `factor_with_unit(c.L)` and `polygon` is `newton_polygon(c.L, c.p)`,
    which is Q's own polygon when e = 1."""
    _unit, factors = factored
    if len(factors) != 1:
        return (
            PropertyVerdict(
                Status.FAIL,
                {
                    "reason": "multiple distinct irreducible factors",
                    "factors": [[g.to_strs(), m] for g, m in factors],
                },
            ),
            None,
            None,
            None,
        )
    base, e = factors[0]
    q_poly = Poly.from_ints(base.prim, Fraction(base.content.denominator, base.content.numerator * base.prim[0]))
    if q_poly ** e != c.L:
        raise ArithmeticError("factorization reconstruction failed")
    q_polygon = polygon if e == 1 else newton_polygon(q_poly, c.p)
    slope, negative_degree = negative_part_verdict(q_poly, q_polygon)
    if slope.value is SlopeOutcome.IRREDUCIBLE:
        verdict = _PASS
    elif slope.value is SlopeOutcome.UNKNOWN:
        verdict = PropertyVerdict(Status.UNKNOWN, {"reason": slope.reason})
    else:
        verdict = PropertyVerdict(
            Status.FAIL,
            {"reason": slope.reason, "negative_degree": negative_degree},
        )
    return verdict, q_poly, e, slope


# The five constraints in report order; each is a `WeilReport` field.
PROPERTY_NAMES = ("unit_circle", "no_root_of_unity", "ell_integrality", "newton_shape", "power_structure")


@dataclass(frozen=True)
class WeilReport:
    candidate: WeilCandidate
    unit_circle: PropertyVerdict
    no_root_of_unity: PropertyVerdict
    ell_integrality: PropertyVerdict
    newton_shape: PropertyVerdict
    power_structure: PropertyVerdict
    h: int | None
    d: int | None
    e: int | None
    Q: Poly | None
    slope: SlopeVerdict | None

    @property
    def properties(self) -> dict[str, PropertyVerdict]:
        return {name: getattr(self, name) for name in PROPERTY_NAMES}

    @property
    def admissible(self) -> bool:
        return all(v.status is Status.PASS for v in self.properties.values())

    @property
    def failures(self) -> list[str]:
        return [name for name, v in self.properties.items() if v.status is Status.FAIL]

    def to_json(self) -> dict:
        out = {
            "schema_version": SCHEMA_VERSION,
            "candidate": self.candidate.to_json(),
            "properties": {name: v.to_json() for name, v in self.properties.items()},
            "admissible": self.admissible,
            "h": self.h,
            "d": self.d,
            "e": self.e,
            "Q": self.Q.to_strs() if self.Q is not None else None,
            "slope_verdict": self.slope.to_json() if self.slope is not None else None,
        }
        return out


def check_all(c: WeilCandidate) -> WeilReport:
    """Aggregate all five property checks into a report with witnesses; L is
    factored once, for both the root-of-unity and the power-structure check,
    and its Newton polygon is built once, for the shape and the slope
    verdict.

    When the unit-circle verdict passes, every root of H is real and in
    [-2, 2], and L(1) * L(-1) = +-H(2) * H(-2) != 0 keeps them off +-2.
    Then L is factored through H, of half the degree: the lifts of H's
    factors (`reciprocal_lift`) are L's, with the same multiplicities and
    unit L.content."""
    L = c.L
    unit_circle = check_unit_circle(c)
    # L(1) and L(-1) are content times these sums
    if unit_circle.status is Status.PASS and sum(L.prim) and sum(L.prim[::2]) - sum(L.prim[1::2]):
        lifted = [(reciprocal_lift(h), m) for h, m in factor_with_unit(c.transform)[1]]
        factored = L.content, sorted(lifted, key=lambda fm: (fm[0].degree(), fm[0].prim))
    else:
        factored = factor_with_unit(L)
    no_rou = check_no_root_of_unity(c, factored)
    integrality = check_l_integrality(c)
    polygon = newton_polygon(c.L, c.p)
    shape, h, d = check_newton_shape(c, polygon)
    power, q_poly, e, slope = check_power_structure(c, factored, polygon)
    return WeilReport(
        candidate=c,
        unit_circle=unit_circle,
        no_root_of_unity=no_rou,
        ell_integrality=integrality,
        newton_shape=shape,
        power_structure=power,
        h=h if shape.status is Status.PASS else None,
        d=d if shape.status is Status.PASS else None,
        e=e,
        Q=q_poly,
        slope=slope,
    )


# ---------------------------------------------------------------------------
# base extension


def base_extend(c: WeilCandidate, n: int) -> WeilCandidate:
    """The candidate with reciprocal roots gamma_i**n over q**n.

    The gamma_i are the roots of T**2d * L(1/T), monic as L(0) = 1, so its
    integer power sums (`trace_power_sums`) give s_n, s_2n, ..., s_2dn and
    Newton's identities the new coefficients; properties (1), (3), (4)
    transfer, and (2) cannot break because powers of non-roots-of-unity
    are not roots of unity.
    """
    if n < 1:
        raise DomainError("extension degree must be positive")
    if n == 1:
        return c
    two_d = c.L.degree()
    sums, den = trace_power_sums(Poly.from_ints(c.L.prim[::-1], c.L.content), two_d * n)
    elem = elementary_from_power_sums([Fraction(sums[k * n], den) for k in range(1, two_d + 1)], two_d)
    coeffs = [Fraction(1)] + [(-1) ** k * e for k, e in enumerate(elem, 1)]
    return WeilCandidate(Poly(coeffs), c.p, c.a * n)


# ---------------------------------------------------------------------------
# the desk-scale enumerator


@functools.cache
def _census_tables(d: int):
    """The tables of `enumerate_candidates` at half degree d: for each level
    i = 1..d, the coefficients of y**(d-i) in V_(d-j)(2 + y) and in
    V_(d-j)(-2 + y) for j = 0..i-1 (V_j from `_chebyshev_v`), that is
    V_(d-j)^(k)(+-2) / k! for k = d - i; and psi_n = `reciprocal_transform`
    (Phi_n), monic, for every n >= 3 with phi(n) <= 2d."""
    vs = _chebyshev_v(d)

    def taylor(j: int, k: int, x: int) -> int:
        return sum(math.comb(l, k) * v * x ** (l - k) for l, v in enumerate(vs[j]) if l >= k)

    ends = tuple(tuple(tuple(taylor(d - j, d - i, x) for j in range(i)) for x in (2, -2)) for i in range(1, d + 1))
    cyclotomics = (Poly.from_ints(prim, 1) for n, prim in _cyclotomic_table(2 * d) if n >= 3)
    return ends, tuple(reciprocal_transform(phi).prim for phi in cyclotomics)


def enumerate_candidates(
    p: int,
    a: int,
    two_d: int,
    *,
    desk_bound: int = 8,
    value_at_one: Fraction | None = None,
    value_at_minus_one_not: Fraction | None = None,
) -> list[WeilCandidate]:
    """All admissible candidates of degree two_d for q = p**a.

    Search space: palindromic L with constant term 1 and coefficients
    c_i = m_i / den, den = p**a, bounded by |c_i| <= binom(2d, i), as roots
    on the unit circle force.  Level i of the descent picks m_i, i = 1..d.
    Three prunes bound it, and each drops only what `check_all` rejects.

    Power sums.  Roots on the unit circle force |s_k| <= 2d for every power
    sum s_k = sum gamma**k.  The search runs on integers: with
    E_i = e_i * den**i = (-1)**i m_i den**(i-1) and S_k = s_k * den**k,
    Newton's identity reads S_i = base - c*m_i with c = i * den**(i-1) and
    base the part of the recurrence without e_i, so level i tries only
    ceil((base - B)/c) <= m_i <= floor((base + B)/c), B = 2d * den**i.
    The descent thus bounds S_1..S_d; a complete L continues the recurrence
    over its mirrored coefficients from k = d + 1 up to 6d, where
    off-circle roots make the sums grow geometrically, under the same bound.

    Signs at +-2 (Budan-Fourier).  L(T) = T**d * H(T + 1/T), and
    G = den * H = den*V_d + sum_(i<d) m_i*V_(d-i) + m_d is an integer
    polynomial of degree d with leading coefficient den > 0 (V_j from
    `_chebyshev_v`; the middle coefficient m_d counts once, not as
    V_0 = 2).  An admissible L has every gamma on the unit circle and
    gamma != +-1 (constraint (2)), so all d roots gamma + 1/gamma of G are
    real and lie in the open interval (-2, 2).  Then so do the d - k roots
    of each derivative G^(k): a root of G^(k) of multiplicity r is one of
    multiplicity r - 1 of G^(k+1), and by Rolle one more lies strictly
    between any two consecutive distinct roots, d - k - 1 in all.  G^(k)
    leads with a positive coefficient and has no root in [2, oo) or in
    (-oo, -2], so G^(k)(2) > 0 and (-1)**(d-k) * G^(k)(-2) > 0, strictly.
    This is the all-derivatives case of Budan-Fourier: the sign variations
    of G, G', .., G^(d) number d at -2 and 0 at 2, V(-2) - V(2) = d.
    When level i picks m_i, every coefficient of G of degree >= k = d - i
    is fixed, and V_(d-i) is monic of degree k (V_0 replaced by 1 at
    i = d), so G^(k) / k! = F + m_i with F the integer part already
    chosen.  Both conditions are linear in m_i: m_i > -F(2), and
    m_i > -F(-2) for even i or m_i < -F(-2) for odd i.

    Cyclotomic screen on H.  At i = d (k = 0) the signs say L(1) = H(2) > 0
    and L(-1) = (-1)**d * H(-2) > 0, so neither Phi_1 nor Phi_2 divides L.
    For n >= 3, Phi_n divides L exactly when psi_n =
    `reciprocal_transform(Phi_n)`, the minimal polynomial of 2cos(2 pi/n),
    of degree phi(n)/2 <= d, divides H (if it does, L is Phi_n times the
    `reciprocal_lift` of the quotient; if Phi_n divides L, H vanishes at
    zeta_n + 1/zeta_n).  L is dropped when one does, as a root of unity
    among its reciprocal roots fails constraint (2).

    Each survivor (also of the optional value filters, which carry no
    semantics of their own) goes through `check_all` once, with the H the
    screen divided as its `transform`.  Output is sorted by
    coefficients.
    """
    if two_d % 2 != 0 or two_d < 2:
        raise DomainError("degree must be even and >= 2")
    if two_d > desk_bound:
        raise DomainError(f"degree {two_d} exceeds the desk bound {desk_bound}")
    if not _intfactor.is_prime(p) or a < 1:
        raise DomainError("invalid prime power")
    d = two_d // 2
    den = p ** a
    bound = [two_d * den ** k for k in range(6 * d + 1)]
    scale = Fraction(1, den)
    ends, psis = _census_tables(d)
    results: list[tuple[list[int], WeilCandidate]] = []  # (den * L, candidate)

    def finalize(chosen: list[int], scaled_elem: list[int], scaled_sums: list[int]) -> None:
        half_ints = chosen[1:]
        ints = [den] + half_ints + half_ints[-2::-1] + [den]  # den * L, palindromic
        # E_k joins just before the first step to read it: most leaves stop early
        elem, sums = list(scaled_elem), list(scaled_sums)
        for k in range(d + 1, 6 * d + 1):
            if k <= two_d:
                elem.append((ints[k] if k % 2 == 0 else -ints[k]) * den ** (k - 1))
            s = _newton_step(elem, sums)
            if abs(s) > bound[k]:
                return
            sums.append(s)
        L = Poly.from_ints(ints, scale)
        H = reciprocal_transform(L)
        if any(not _zz_divmod(H.prim, psi)[1] for psi in psis):
            return
        if value_at_one is not None and L(Fraction(1)) != value_at_one:
            return
        if value_at_minus_one_not is not None and L(Fraction(-1)) == value_at_minus_one_not:
            return
        cand = WeilCandidate(L, p, a)
        object.__setattr__(cand, "transform", H)  # the value `transform` would cache
        if check_all(cand).admissible:
            results.append((ints, cand))

    def descend(i: int, chosen: list[int], scaled_elem: list[int], scaled_sums: list[int]) -> None:
        # chosen = [den, m_1, .., m_(i-1)]
        if i > d:
            finalize(chosen, scaled_elem, scaled_sums)
            return
        base = _newton_step(scaled_elem, scaled_sums)
        den_pow = den ** (i - 1)
        c = i * den_pow
        limit = math.comb(two_d, i) * den
        at_two, at_minus_two = (sum(map(operator.mul, chosen, row)) for row in ends[i - 1])
        lo = max(-limit, -((bound[i] - base) // c), 1 - at_two)
        hi = min(limit, (base + bound[i]) // c)
        if i % 2:
            hi = min(hi, -at_minus_two - 1)
        else:
            lo = max(lo, 1 - at_minus_two)
        for m in range(lo, hi + 1):
            e_scaled = (m if i % 2 == 0 else -m) * den_pow
            descend(i + 1, chosen + [m], scaled_elem + [e_scaled], scaled_sums + [base - c * m])

    descend(1, [den], [], [])
    # den * L sorts as L does: den > 0 is the same for every candidate
    results.sort(key=lambda pair: pair[0])
    return [cand for _ints, cand in results]
