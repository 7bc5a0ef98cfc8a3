"""Exact polynomial arithmetic: factorization, Sturm counts, cyclotomic
detection, resultants, square classes.

Derived expected values are frozen from independent oracles implemented in
this file (exhaustive factor-shape search, exact arithmetic in a biquadratic
field, high-precision numeric root isolation, `Fraction` reference
versions of Yun's algorithm and of the Sturm chain, and a tuple-of-`Fraction`
reference of the ring operations, against which the integer kernels behind
`Poly` are checked).  Factorization is also compared with the Yun and
Zassenhaus reference in `test_helpers`, which has none of the shortcuts.
"""

import functools
import hashlib
import importlib.util
import itertools
import json
import math
import pathlib
import random
import sys
from fractions import Fraction as F

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from httool import _gfp, _intfactor, exactpoly, weilcheck
from httool.exactpoly import (
    DomainError,
    Poly,
    SturmChain,
    _good_prime,
    _hensel_corrections,
    _hensel_lift,
    _lift_bound,
    _newton_step,
    _zz_mul,
    _zz_pdivmod,
    _zz_primitive,
    _zz_quotient,
    _zz_sub,
    _zz_trunc,
    cyclotomic_poly,
    discriminant,
    elementary_from_power_sums,
    factor_with_unit,
    is_cyclotomic,
    isolate_real_roots,
    rat_from_str,
    rat_to_str,
    reciprocal_lift,
    reciprocal_transform,
    square_class,
    sturm_count,
    trace_power_sums,
)
from test_helpers import (
    brute_force_irreducible,
    compose,
    derivative,
    euler_phi,
    factor_over_Q,
    gfp_is_squarefree,
    halve,
    is_irreducible,
    poly_gcd,
    reference_factor_with_unit,
    reference_good_prime,
    reference_hensel_corrections,
    reference_hensel_lift,
    resultant,
    reverse,
    squarefree_decomposition,
    squarefree_part,
    sylvester_discriminant,
)

QUARTIC = Poly([1, 0, F(1, 2), 0, 1])


# ---------------------------------------------------------------------------
# oracles


def biquadratic_is_irreducible(a: F, b: F) -> bool:
    """Exhaustive factor-shape oracle for monic T**4 + a*T**2 + b over Q.

    Degree-2 splits of a biquadratic are (T^2+xT+y)(T^2-xT+z) with
    y+z-x^2 = a, x(z-y) = 0, yz = b; degree-1 factors require a rational
    root.  All shapes are decided exactly.
    """

    def is_rational_square(r: F) -> bool:
        if r < 0:
            return False
        num, den = r.numerator, r.denominator
        sn, sd = math.isqrt(num), math.isqrt(den)
        return sn * sn == num and sd * sd == den

    # rational root u would satisfy u**4 + a u**2 + b = 0, i.e. u**2 is a
    # rational root of t**2 + a t + b
    disc = a * a - 4 * b
    if is_rational_square(disc):
        root = F(math.isqrt((disc).numerator), math.isqrt((disc).denominator))
        for t in ((-a + root) / 2, (-a - root) / 2):
            if is_rational_square(t):
                return False  # rational root of the quartic
        # x = 0 split: y + z = a, y z = b with y, z rational
        return False  # t**2+at+b factors rationally, giving a quadratic split
    # e = y case: y**2 = b, then x**2 = 2y - a must be a rational square
    if is_rational_square(b):
        sqrt_b = F(math.isqrt(b.numerator), math.isqrt(b.denominator))
        for y in (sqrt_b, -sqrt_b):
            if is_rational_square(2 * y - a):
                return False
    return True


def resultant_oracle_quadratics() -> F:
    """Res(T^2+1, T^2-2) = prod (alpha - beta) over root pairs, computed with
    exact arithmetic in Q(i, sqrt2) represented as 4-tuples over Q."""

    def mul(u, v):
        # basis (1, s, i, i*s) with s**2 = 2, i**2 = -1
        a1, b1, c1, d1 = u
        a2, b2, c2, d2 = v
        return (
            a1 * a2 + 2 * b1 * b2 - c1 * c2 - 2 * d1 * d2,
            a1 * b2 + b1 * a2 - c1 * d2 - d1 * c2,
            a1 * c2 + c1 * a2 + 2 * (b1 * d2 + d1 * b2),
            a1 * d2 + d1 * a2 + b1 * c2 + c1 * b2,
        )

    roots_f = [(F(0), F(0), F(1), F(0)), (F(0), F(0), F(-1), F(0))]  # +-i
    roots_g = [(F(0), F(1), F(0), F(0)), (F(0), F(-1), F(0), F(0))]  # +-sqrt2
    acc = (F(1), F(0), F(0), F(0))
    for alpha in roots_f:
        for beta in roots_g:
            diff = tuple(x - y for x, y in zip(alpha, beta))
            acc = mul(acc, diff)
    assert acc[1] == acc[2] == acc[3] == 0
    return acc[0]


def numeric_real_root_count(f: Poly, digits: int = 50) -> int:
    mpmath.mp.dps = digits
    coeffs = [mpmath.mpf(c.numerator) / mpmath.mpf(c.denominator) for c in reversed(f.coeffs)]
    roots = mpmath.polyroots(coeffs, maxsteps=200, extraprec=200)
    count = 0
    seen = []
    for r in roots:
        if abs(mpmath.im(r)) < mpmath.mpf(10) ** (-digits // 2):
            if all(abs(mpmath.re(r) - s) > mpmath.mpf(10) ** (-digits // 4) for s in seen):
                seen.append(mpmath.re(r))
                count += 1
    return count


def fraction_primitive_parts(f: Poly) -> tuple[F, Poly]:
    """f = c * g over Q with g primitive integral, positive leading."""
    num_gcd, den_lcm = 0, 1
    for c in f.coeffs:
        num_gcd = math.gcd(num_gcd, abs(c.numerator))
        den_lcm = den_lcm * c.denominator // math.gcd(den_lcm, c.denominator)
    c = F(num_gcd, den_lcm) if f.leading() > 0 else -F(num_gcd, den_lcm)
    return c, f * (1 / c)


def fraction_gcd(f: Poly, g: Poly) -> Poly:
    """Monic gcd over Q by the Euclidean algorithm on `Fraction` coefficients."""
    a, b = f, g
    while not b.is_zero:
        a, b = b, a % b
        if not b.is_zero:
            b = b * (1 / abs(fraction_primitive_parts(b)[0]))
    return a.monic() if not a.is_zero else Poly()


def fraction_yun(f: Poly) -> tuple[F, list[tuple[Poly, int]]]:
    """Yun's algorithm over Q with `Fraction` gcds, parts made primitive with
    positive leading coefficient."""
    unit, prim = fraction_primitive_parts(f)
    if prim.degree() < 1:
        return unit, []
    parts = []
    d = derivative(prim)
    g = fraction_gcd(prim, d)
    w, y = prim // g, d // g
    z = y - derivative(w)
    i = 1
    while w.degree() > 0:
        h = fraction_gcd(w, z)
        if h.degree() > 0:
            parts.append((h, i))
        w, y = w // h, z // h
        z = y - derivative(w)
        i += 1
    lead = f.leading()
    norm = []
    for g_i, mult in parts:
        prim_i = fraction_primitive_parts(g_i)[1]
        lead /= prim_i.leading() ** mult
        norm.append((prim_i, mult))
    return lead, norm


def fraction_sturm_chain(f: Poly) -> list[Poly]:
    """The Sturm chain of the primitive squarefree part of f over Q: negated
    `Fraction` remainders with their positive content stripped."""
    g = fraction_primitive_parts(f // fraction_gcd(f, derivative(f)))[1]
    chain = [g, derivative(g)]
    while chain[-1].degree() > 0:
        r = -(chain[-2] % chain[-1])
        if r.is_zero:
            break
        chain.append(r * (1 / abs(fraction_primitive_parts(r)[0])))
    return chain


def fraction_sturm_count(chain: list[Poly], lo: F | None, hi: F | None) -> int:
    def variations(point, positive):
        signs = []
        for h in chain:
            if point is None:
                v = h.leading() if positive or h.degree() % 2 == 0 else -h.leading()
            else:
                v = h(point)
            if v != 0:
                signs.append(v > 0)
        return sum(1 for a, b in zip(signs, signs[1:]) if a != b)

    return variations(lo, False) - variations(hi, True)


# ---------------------------------------------------------------------------
# the content * prim representation against tuple-of-Fraction arithmetic


def ref_trim(cs) -> tuple:
    cs = [F(c) for c in cs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def ref_add(a, b, sign=1) -> tuple:
    n = max(len(a), len(b))
    return ref_trim(
        (a[i] if i < len(a) else 0) + sign * (b[i] if i < len(b) else 0) for i in range(n)
    )


def ref_mul(a, b) -> tuple:
    out = [F(0)] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return ref_trim(out)


def ref_divmod(a, b) -> tuple:
    rem = list(a)
    quo = [F(0)] * max(len(a) - len(b) + 1, 0)
    for shift in range(len(quo) - 1, -1, -1):
        c = rem[shift + len(b) - 1] / b[-1]
        quo[shift] = c
        for i, y in enumerate(b):
            rem[shift + i] -= c * y
    return ref_trim(quo), ref_trim(rem)


def ref_eval(a, x) -> F:
    acc = F(0)
    for c in reversed(a):
        acc = acc * x + c
    return acc


def ref_compose(a, b) -> tuple:
    acc = ()
    for c in reversed(a):
        acc = ref_add(ref_mul(acc, b), (c,))
    return acc


def assert_canonical(p: Poly) -> None:
    assert isinstance(p.content, F) and isinstance(p.prim, tuple)
    assert all(type(a) is int for a in p.prim)
    if p.is_zero:
        assert (p.prim, p.content) == ((), 0)
    else:
        assert p.content != 0 and p.prim[-1] > 0 and math.gcd(*p.prim) == 1


rational_coeffs = st.lists(st.fractions(min_value=-6, max_value=6, max_denominator=8), max_size=6)


@settings(max_examples=150, deadline=None)
@given(
    rational_coeffs,
    rational_coeffs,
    st.fractions(min_value=-5, max_value=5, max_denominator=9),
    st.fractions(min_value=-3, max_value=3, max_denominator=5),
    st.integers(0, 6),
)
def test_poly_matches_fraction_tuple_reference(cs1, cs2, scalar, x, power):
    a, b = ref_trim(cs1), ref_trim(cs2)
    f, g = Poly(cs1), Poly(cs2)
    results = {
        "coeffs": (f.coeffs, a),
        "add": ((f + g).coeffs, ref_add(a, b)),
        "sub": ((f - g).coeffs, ref_add(a, b, -1)),
        "neg": ((-f).coeffs, ref_add((), a, -1)),
        "mul": ((f * g).coeffs, ref_mul(a, b)),
        "scalar": ((f * scalar).coeffs, ref_trim(c * scalar for c in a)),
        "rscalar": ((scalar * f).coeffs, ref_trim(c * scalar for c in a)),
        "pow": ((f ** power).coeffs, functools.reduce(ref_mul, [a] * power, (F(1),))),
        "compose": (compose(f, g).coeffs, ref_compose(a, b)),
        "eval": (f(x), ref_eval(a, x)),
        "derivative": (derivative(f).coeffs, ref_trim(i * c for i, c in enumerate(a))[1:]),
        "reverse": (reverse(f).coeffs, ref_trim(reversed(a))),
    }
    if b:
        # g has rational content and, in general, a leading coefficient other
        # than 1; the scaled copy is non-monic whenever scalar != 1
        unit = scalar or 1
        for divisor, ref_divisor in ((g, b), (g * unit, ref_trim(c * unit for c in b))):
            q, r = divmod(f, divisor)
            results[f"divmod by {divisor}"] = ((q.coeffs, r.coeffs), ref_divmod(a, ref_divisor))
            results[f"floordiv, mod by {divisor}"] = ((f // divisor, f % divisor), (q, r))
    if a:
        results["monic"] = (f.monic().coeffs, ref_trim(c / a[-1] for c in a))
        results["leading"] = ((f.leading(), f.coefficient(0)), (a[-1], a[0]))
    for name, (got, expected) in results.items():
        assert got == expected, name
    derived = (f + g, f - g, f * g, f * scalar, f ** power, compose(f, g), derivative(f), reverse(f))
    for p in (f, g, *derived):
        assert_canonical(p)
        same = Poly.from_ints([c * 6 for c in p.prim], p.content / 6)
        assert same == p and hash(same) == hash(p) and same == Poly(p.coeffs)
    assert (f.content.denominator == 1) == all(c.denominator == 1 for c in a)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.integers(-30, 30), min_size=1, max_size=7).filter(lambda f: f[-1] != 0),
    st.lists(st.integers(-9, 9), min_size=1, max_size=4).filter(lambda g: g[-1] != 0),
)
def test_zz_pdivmod_identity(f, g):
    if len(f) < len(g):
        f, g = g, f
    quo, rem = _zz_pdivmod(f, g)
    k = len(f) - len(g) + 1
    lead = abs(g[-1])
    # |lc(g)|**k * f = quo * g + rem with deg rem < deg g
    assert len(quo) == k and len(rem) < len(g)
    assert Poly(f) * lead ** k == Poly(quo) * Poly(g) + Poly(rem)
    # the quotient entry at shift s carries |lc(g)|**s, and rem is a positive
    # multiple of the remainder over Q
    assert all(c % lead ** s == 0 for s, c in enumerate(quo))
    assert Poly(rem).coeffs == ref_trim(c * lead ** k for c in ref_divmod(ref_trim(f), ref_trim(g))[1])
    assert not rem or rem[-1] != 0


# ---------------------------------------------------------------------------
# factorization


def test_factor_difference_of_squares():
    assert factor_over_Q(Poly([-1, 0, 1])) == [(Poly([-1, 1]), 1), (Poly([1, 1]), 1)]


def test_factor_weil_quartic_is_irreducible():
    assert biquadratic_is_irreducible(F(1, 2), F(1))  # oracle
    factors = factor_over_Q(QUARTIC)
    assert len(factors) == 1
    assert factors[0][1] == 1
    assert factors[0][0].degree() == 4


def test_factor_constructed_square():
    sq = Poly([1, F(-1, 2), 1]) ** 2
    assert factor_over_Q(sq) == [(Poly([2, -1, 2]), 2)]


def test_factor_unit_reconstruction():
    f = Poly([F(3, 4), 0, F(-3, 2)]) * Poly([1, 2, 1])
    unit, factors = factor_with_unit(SturmChain(f))
    product = Poly([unit])
    for g, m in factors:
        product = product * g ** m
    assert product == f


def test_factor_rejects_zero():
    with pytest.raises(DomainError):
        factor_over_Q(Poly())


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(-4, 4), min_size=2, max_size=4),
    st.lists(st.integers(-4, 4), min_size=2, max_size=4),
)
def test_factor_refines_products(cs1, cs2):
    f, g = Poly(cs1), Poly(cs2)
    if f.is_zero or g.is_zero or f.degree() < 1 or g.degree() < 1:
        return
    combined: dict = {}
    for h, m in factor_over_Q(f) + factor_over_Q(g):
        combined[h] = combined.get(h, 0) + m
    assert dict(factor_over_Q(f * g)) == combined


# ---------------------------------------------------------------------------
# factorization by structure, against the Zassenhaus-only reference

POOLS = json.loads((pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "pools.json").read_text())
POOL_MEMBERS = [Poly([F(c) for c in m]) for pool in POOLS["pools"] for m in pool["members"]]
# every n with phi(n) <= 20 (all are at most 66)
CYCLOTOMIC_INDICES = [n for n in range(1, 67) if euler_phi(n) <= 20]
nonzero_scales = st.fractions(min_value=-30, max_value=30, max_denominator=35).filter(lambda c: c != 0)


def lifts_during(call):
    """The result of call() and the number of Hensel lifts it made."""
    before = _intfactor.COUNTERS["hensel_lifts"]
    result = call()
    return result, _intfactor.COUNTERS["hensel_lifts"] - before


def berlekamp_calls(f: Poly) -> list[tuple[int, int]]:
    """(p, degree) of each modular factorization by Berlekamp's algorithm
    that factor_with_unit(SturmChain(f)) runs, in order."""
    calls = []
    inner = _gfp.berlekamp

    def record(fp, p):
        calls.append((p, len(fp) - 1))
        return inner(fp, p)

    _gfp.berlekamp = record
    try:
        factor_with_unit(SturmChain(f))
    finally:
        _gfp.berlekamp = inner
    return calls


def squarefree_degree(f: Poly) -> int:
    """The degree of the squarefree part of f."""
    return SturmChain(f).squarefree.degree()


def with_cyclotomics(f: Poly, cyclotomics) -> Poly:
    for n, m in cyclotomics:
        f = f * cyclotomic_poly(n) ** m
    return f


def assert_matches_reference(f: Poly):
    """factor_with_unit equals the reference; its factors."""
    unit, factors = factor_with_unit(SturmChain(f))
    assert (unit, factors) == reference_factor_with_unit(f)
    return factors


def cyclotomic_indices(factors) -> dict[int, int]:
    """n -> multiplicity of each Phi_n among the factors, read by
    is_cyclotomic."""
    return {is_cyclotomic(g): m for g, m in factors if is_cyclotomic(g) is not None}


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.tuples(st.sampled_from(CYCLOTOMIC_INDICES), st.integers(1, 3)), min_size=1, max_size=3).filter(
        lambda cs: sum(euler_phi(n) for n in {n for n, _ in cs}) <= 30
    ),
    nonzero_scales,
)
def test_factor_cyclotomic_products_by_division(cyclotomics, scale):
    # products of Phi_n, repeated ones included: every factor is a Phi_n,
    # with the summed multiplicity
    f = with_cyclotomics(Poly([scale]), cyclotomics)
    expected: dict = {}
    for n, m in cyclotomics:
        expected[n] = expected.get(n, 0) + m
    factors = assert_matches_reference(f)
    assert len(factors) == len(expected)
    assert cyclotomic_indices(factors) == expected


def test_factor_pool_members_match_reference():
    for member in POOL_MEMBERS:
        assert_matches_reference(member)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(POOL_MEMBERS),
    st.integers(1, 2),
    st.lists(st.tuples(st.sampled_from(CYCLOTOMIC_INDICES[:20]), st.integers(1, 2)), max_size=2),
)
def test_factor_pool_members_with_cyclotomics(member, power, cyclotomics):
    # the shape of census candidates: a member or its square times roots of
    # unity, factored with one modular factorization when the squarefree
    # part has degree above 3
    f = with_cyclotomics(member ** power, cyclotomics)
    assert sorted(cyclotomic_indices(assert_matches_reference(f))) == sorted({n for n, _m in cyclotomics})
    assert len(berlekamp_calls(f)) == (squarefree_degree(f) > 3)


@pytest.mark.parametrize(
    "f",
    [cyclotomic_poly(3) ** 2, next(m for m in POOL_MEMBERS if m.degree() == 2) ** 2, cyclotomic_poly(1) ** 3],
    ids=["Phi_3 squared", "quadratic member squared", "Phi_1 cubed"],
)
def test_squarefree_degree_at_most_2_runs_no_berlekamp(f):
    # f has degree at least 3, but its squarefree part is decided by the
    # rule for degree at most 2
    assert berlekamp_calls(f) == []
    assert_matches_reference(f)


@pytest.mark.parametrize("cyclotomics", [[(5, 2)], [(3, 2), (4, 1)]])
def test_non_squarefree_input_factors_its_squarefree_part_once(cyclotomics):
    # one modular factorization, of the degree-8 squarefree part, whose
    # factors also decide Q; splitting the square apart first would run one
    # per part
    calls = berlekamp_calls(with_cyclotomics(Poly([1, 0, F(1, 2), 0, 1]), cyclotomics))
    assert len(calls) == 1 and calls[0][1] == 8


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(st.lists(st.integers(-9, 9), min_size=2, max_size=5).filter(lambda c: c[-1] != 0), st.integers(1, 3)),
        min_size=1,
        max_size=3,
    ),
    nonzero_scales,
)
def test_factor_square_factors_match_reference(parts, scale):
    f = Poly([scale])
    for cs, m in parts:
        f = f * Poly(cs) ** m
    assert_matches_reference(f)


@settings(max_examples=80, deadline=None)
@given(
    st.tuples(st.integers(1, 12), st.integers(-40, 40), st.integers(-40, 40)).filter(lambda abc: abc[2] != 0),
    st.booleans(),
    st.lists(st.tuples(st.sampled_from(CYCLOTOMIC_INDICES[:12]), st.integers(1, 2)), max_size=2),
)
def test_factor_quadratic_cofactor_by_discriminant(abc, split, cyclotomics):
    # a x**2 + b x + c, or (a x + b)(x + c) when split, times up to two
    # Phi_n: the reference's factors
    a, b, c = abc
    h = Poly([b, a]) * Poly([c, 1]) if split else Poly([c, b, a])
    f = with_cyclotomics(h, cyclotomics)
    assert factor_with_unit(SturmChain(f)) == reference_factor_with_unit(f)


SQUAREFREE = [-7, -6, -5, -3, -2, -1, 2, 3, 5, 6, 7, 10, 11]


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(SQUAREFREE),
    st.sampled_from(SQUAREFREE),
    st.lists(st.tuples(st.sampled_from(CYCLOTOMIC_INDICES[:12]), st.integers(1, 2)), max_size=2),
)
def test_factor_biquadratic_cofactor_falls_back(a, b, cyclotomics):
    # the minimal polynomial of sqrt(a) + sqrt(b) has Galois group C2 x C2, so
    # it splits into factors of degree <= 2 mod every prime: it is never
    # irreducible mod p, and Berlekamp and Zassenhaus must decide it
    if a == b:
        return
    h = Poly([(a - b) ** 2, 0, -2 * (a + b), 0, 1])
    f = with_cyclotomics(h, cyclotomics)
    factors, lifts = lifts_during(lambda: factor_with_unit(SturmChain(f)))
    assert (h, 1) in factors[1]
    assert factors == reference_factor_with_unit(f)
    assert lifts >= 1


def test_irreducible_mod_p_proves_irreducibility():
    # x**n - c is Eisenstein at the prime c, so irreducible.  A cubic one
    # has no rational root, found with no modular factorization and no
    # lift; one of degree n >= 4 is lifted exactly when it is reducible mod
    # the one prime of its modular factorization (x**n - 2 always is for
    # these n, x**4 - 3 is not)
    lifted = []
    for c in (2, 3, 5):
        f = Poly([-c, 0, 0, 1])
        assert lifts_during(lambda: factor_with_unit(SturmChain(f))) == ((1, [(f, 1)]), 0)
        assert berlekamp_calls(f) == []
    for c, n in itertools.product((2, 3, 5), range(4, 13)):
        f = Poly([-c] + [0] * (n - 1) + [1])
        ((p, _degree),) = berlekamp_calls(f)
        irreducible_mod_p = len(_gfp.berlekamp(_gfp.trim([x % p for x in f.prim]), p)) == 1
        factors, lifts = lifts_during(lambda: factor_with_unit(SturmChain(f)))
        assert factors == (1, [(f, 1)])
        assert lifts == (0 if irreducible_mod_p else 1)
        lifted.append(lifts)
    assert 0 in lifted and 1 in lifted
    # x**4 - 10x**2 + 1 = minpoly(sqrt 2 + sqrt 3) needs a lift to be proved
    f = Poly([1, 0, -10, 0, 1])
    assert lifts_during(lambda: factor_with_unit(SturmChain(f))) == ((1, [(f, 1)]), 1)


coefficients = st.integers(-10**12, 10**12)
linear_factors = st.tuples(st.integers(-10**6, 10**6), st.integers(1, 10**6)).map(lambda ba: Poly(list(ba)))


def eisenstein_cubic(ell, a, b, c, d):
    """(ell a + 1) x**3 + ell (b x**2 + c x + ell d + 1), irreducible by
    Eisenstein at the prime ell."""
    return Poly([ell * (ell * d + 1), ell * c, ell * b, ell * a + 1])


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(
        st.builds(eisenstein_cubic, st.sampled_from([2, 3, 5, 7]), *[coefficients] * 4),
        st.builds(
            lambda linear, c, b, a: linear * Poly([c, b, a]), linear_factors, coefficients, coefficients, coefficients
        ).filter(lambda f: f.degree() == 3),
        st.lists(linear_factors, min_size=3, max_size=3).map(lambda fs: math.prod(fs, start=Poly([1]))),
    ),
    nonzero_scales,
)
def test_cubics_are_decided_by_their_rational_roots(f, scale):
    # irreducible cubics, cubics with a rational root and products of three
    # linear factors, repeated ones included: the reference's factors, with
    # no modular factorization and no lift
    f = f * scale
    factors, lifts = lifts_during(lambda: factor_with_unit(SturmChain(f)))
    assert factors == reference_factor_with_unit(f)
    assert lifts == 0 and berlekamp_calls(f) == []


# every odd prime below 1000 divides the leading coefficient, so the first
# prime that does not is 1009
ODD_PRIMORIAL_1000 = math.prod(p for p in range(3, 1000, 2) if all(p % d for d in range(3, math.isqrt(p) + 1, 2)))


@pytest.mark.parametrize(
    "f, irreducible",
    [
        # (lc x - 1)(x**2 - x - 1)
        (Poly([-1, ODD_PRIMORIAL_1000]) * Poly([-1, -1, 1]), False),
        # lc x**3 + 8: three roots mod 1009, none of them rational, as
        # (x/2)**3 = -1/lc and lc > 1 is squarefree
        (Poly([8, 0, 0, ODD_PRIMORIAL_1000]), True),
    ],
    ids=["reducible", "irreducible"],
)
def test_cubic_with_a_leading_coefficient_divisible_by_every_small_odd_prime(f, irreducible):
    assert _good_prime(SturmChain(f))[0] == 1009
    factors, lifts = lifts_during(lambda: factor_with_unit(SturmChain(f)))
    assert factors == reference_factor_with_unit(f)
    assert (len(factors[1]) == 1) == irreducible
    assert lifts == 0 and berlekamp_calls(f) == []


@st.composite
def _hard_prime_inputs(draw):
    """f of degree 3 to 10 whose squarefree part g shuts out small primes:
    f = a**2 * b, not squarefree; lc(f) divisible by 105; or f = (x -
    r)**2 * h + 105 * k with 105 prime to lc(h) and deg k < deg f, so that
    3, 5 and 7 divide disc(g) when g = f."""
    coeffs = st.integers(-30, 30)
    kind = draw(st.sampled_from(("square", "lead", "double_root")))
    if kind == "square":
        a = draw(st.lists(coeffs, min_size=2, max_size=4).filter(lambda cs: cs[-1]))
        low = max(1, 4 - 2 * (len(a) - 1))
        b = draw(st.lists(coeffs, min_size=low, max_size=13 - 2 * len(a)).filter(lambda cs: cs[-1]))
        return Poly(a) * Poly(a) * Poly(b)
    n = draw(st.integers(3, 10))
    if kind == "lead":
        return Poly(draw(st.lists(coeffs, min_size=n, max_size=n)) + [105 * draw(st.integers(1, 4))])
    r = draw(st.integers(0, 104))
    h = draw(st.lists(coeffs, min_size=n - 2, max_size=n - 2)) + [draw(st.sampled_from((1, 2, 4, 11, 13)))]
    k = draw(st.lists(coeffs, min_size=n, max_size=n))
    return Poly([-r, 1]) ** 2 * Poly(h) + Poly(k) * Poly([105])


@settings(max_examples=200, deadline=None)
@given(_hard_prime_inputs())
def test_good_prime_is_the_gcd_search_prime(f):
    # the prime from the chain's discriminant is the least odd prime at
    # which an F_p gcd finds g squarefree, with the same g mod p, and the
    # least odd prime not dividing lc(g) * disc(g) by Sylvester's matrix
    chain = SturmChain(f)
    g = chain.squarefree
    p, gp = _good_prime(chain)
    assert (p, gp) == reference_good_prime(list(g.prim))
    lead_disc = g.prim[-1] * sylvester_discriminant(g)
    assert lead_disc.denominator == 1 and lead_disc != 0
    assert p == next(q for q in itertools.count(3, 2) if _intfactor.is_prime(q) and lead_disc.numerator % q)


# the Swinnerton-Dyer polynomials of sqrt 2 + sqrt 3 and sqrt 2 + sqrt 3 +
# sqrt 5, which split into factors of degree <= 2 mod every prime, and 40
# seeded products of 3 to 5 distinct q = 2 pool members up to degree 30:
# each product is lifted and recombined
def _factor_stress_set() -> list[Poly]:
    q2 = [Poly([F(c) for c in m]) for pool in POOLS["pools"] if pool["p"] == 2 for m in pool["members"]]
    rng = random.Random(30)
    polys = [Poly([1, 0, -10, 0, 1]), Poly([576, 0, -960, 0, 352, 0, -40, 0, 1])]
    while len(polys) < 42:
        picks = rng.sample(q2, rng.randint(3, 5))
        if sum(m.degree() for m in picks) <= 30:
            polys.append(math.prod(picks, start=Poly([1])))
    return polys


def test_factor_stress_set_pin():
    # SHA-256 of every factorization of the stress set, pinned before the
    # norm pre-test left Zassenhaus recombination; the recombination with
    # it (the reference) agrees factor for factor
    stress = _factor_stress_set()
    results = []
    for f in stress:
        unit, factors = factor_with_unit(SturmChain(f))
        results.append([str(unit), [[g.to_strs(), m] for g, m in factors]])
    digest = hashlib.sha256(json.dumps(results).encode()).hexdigest()
    assert digest == "71282c843a4c68684f6a90c03b9ea96aa549b269d59e122c7fa9c66d37d9eb65"
    assert all(factor_with_unit(SturmChain(f)) == reference_factor_with_unit(f) for f in stress)


def _load_workloads():
    path = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_factor_with_unit_runs_no_remainder_sequence_on_benchmark_traffic(monkeypatch):
    # the squarefree part comes off the Sturm chain that check_all hands
    # over, so the remainder sequences of seed-0 census and check traffic
    # all run outside factor_with_unit
    workloads = _load_workloads()
    inside = [False]
    counts = {True: 0, False: 0}
    factor, sequence = weilcheck.factor_with_unit, exactpoly._zz_remainder_sequence

    def record_factor(chain):
        inside[0] = True
        try:
            return factor(chain)
        finally:
            inside[0] = False

    def record_sequence(f, g):
        counts[inside[0]] += 1
        return sequence(f, g)

    monkeypatch.setattr(weilcheck, "factor_with_unit", record_factor)
    monkeypatch.setattr(exactpoly, "_zz_remainder_sequence", record_sequence)
    pools = workloads.load_pools()
    for op in workloads.Census(0, pools).next_pass():
        op.primary()
    check = workloads.Check(0, pools)
    for _ in range(300):
        for op in check.next_pass():
            op.primary()
    assert counts[True] == 0 and counts[False] > 0


def test_factorizations_of_benchmark_traffic_pin(monkeypatch):
    # SHA-256 of factor_with_unit on every input that check_all gives it in
    # 40 passes of the `check` workload at each of seeds 0-4, in the six
    # census jobs and in the q=2 degree-8 census (2,174 calls), pinned
    # while the cofactors were still factored at up to three primes
    workloads = _load_workloads()
    calls = []

    def record(chain):
        result = factor_with_unit(chain)
        calls.append([chain.poly.to_strs(), str(result[0]), [[g.to_strs(), m] for g, m in result[1]]])
        return result

    monkeypatch.setattr(weilcheck, "factor_with_unit", record)
    pools = workloads.load_pools()
    for seed in range(5):
        check = workloads.Check(seed, pools)
        for _ in range(40):
            for op in check.next_pass():
                op.primary()
    for op in workloads.Census(0, pools).next_pass():
        op.primary()
    weilcheck.enumerate_candidates(2, 1, 8)
    assert len(calls) == 2174
    digest = hashlib.sha256(json.dumps(calls).encode()).hexdigest()
    assert digest == "f866fb41fa61539a3e27122513911e935979dd027d2ff362b384dffada1ca4a7"


# the transforms H of pool members, whose products are the traffic of
# check_all on products of members
POOL_TRANSFORMS = [reciprocal_transform(m) for m in POOL_MEMBERS]
pool_products = st.lists(st.sampled_from(POOL_TRANSFORMS), min_size=2, max_size=3, unique=True)


def product(polys, scale=1) -> Poly:
    f = Poly([scale])
    for g in polys:
        f = f * g
    return f


@settings(max_examples=60, deadline=None)
@given(pool_products, nonzero_scales)
def test_factor_products_of_pool_transforms_match_reference(transforms, scale):
    f = product(transforms, scale)
    assert factor_with_unit(SturmChain(f)) == reference_factor_with_unit(f)


@settings(max_examples=80, deadline=None)
@given(
    st.one_of(
        st.sampled_from(POOL_TRANSFORMS),
        pool_products.map(product),
        st.lists(st.tuples(st.sampled_from(CYCLOTOMIC_INDICES), st.integers(1, 3)), min_size=1, max_size=3).map(
            lambda cs: with_cyclotomics(Poly([1]), cs)
        ),
        st.sampled_from(_factor_stress_set()),
    )
)
def test_one_modular_factorization_per_factoring(f):
    # a squarefree part above degree 3 is decided by its factors mod the
    # one prime that keeps it squarefree, a smaller one without them
    assert len(berlekamp_calls(f)) == (squarefree_degree(f) > 3)


@pytest.mark.parametrize(
    "cs",
    [
        [1, 1, 1],  # discriminant -3
        [-2, 0, 1],  # 8, no square
        [F(3, 2), -5, 7],  # 25 - 42, with a rational content
        [-6, 1, 1],  # 25 = 5**2: (x + 3)(x - 2)
        [-3, -1, 2],  # 25: (2x - 3)(x + 1)
        [F(6, 5), F(-3, 5), F(-9, 5)],  # 9: -3/5 (3x - 2)(x + 1)
        [4, 4, 1],  # 0: (x + 2)**2
        [9, -12, 4],  # 0: (2x - 3)**2
        [F(-9, 7), F(-12, 7), F(-4, 7)],  # 0: -1/7 (2x + 3)**2
    ],
)
def test_factor_quadratics_by_discriminant_before_any_reduction(cs):
    # a nonsquare, a square and a zero discriminant: no modular
    # factorization, no lift, and the reference's factors
    f = Poly(cs)
    factors, lifts = lifts_during(lambda: factor_with_unit(SturmChain(f)))
    assert factors == reference_factor_with_unit(f)
    assert lifts == 0 and berlekamp_calls(f) == []


@settings(max_examples=100, deadline=None)
@given(
    st.tuples(st.integers(-9, 9), st.integers(-9, 9), st.integers(-9, 9)),
    st.tuples(st.integers(-9, 9), st.integers(1, 9), st.integers(-9, 9), st.integers(1, 9)),
    st.booleans(),
    nonzero_scales,
)
def test_factor_degree_at_most_two_matches_reference(cs, roots, split, scale):
    # any polynomial of degree at most 2, or (ax + b)(cx + d), a square when
    # the two are proportional
    b, a, d, c = roots
    f = Poly([b, a]) * Poly([d, c]) * scale if split else Poly(cs) * scale
    if f.is_zero:
        return
    factors, lifts = lifts_during(lambda: factor_with_unit(SturmChain(f)))
    assert factors == reference_factor_with_unit(f)
    assert lifts == 0 and berlekamp_calls(f) == []


@pytest.mark.parametrize("p", [3, 5, 7])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_berlekamp_factors_into_sorted_monic_irreducibles(p, data):
    # a squarefree monic f of degree at most 7: the product of the factors
    # is f, each is monic and irreducible by trial division, and they are
    # ordered by degree, then coefficients
    fp = data.draw(
        st.lists(st.integers(0, p - 1), min_size=1, max_size=7)
        .map(lambda cs: cs + [1])
        .filter(lambda fp: gfp_is_squarefree(fp, p))
    )
    factors = _gfp.berlekamp(fp, p)
    assert functools.reduce(lambda a, g: _gfp.mul(a, g, p), factors, [1]) == fp
    assert all(g[-1] == 1 and brute_force_irreducible(g, p) for g in factors)
    assert factors == sorted(factors, key=lambda g: (len(g), g))


@settings(max_examples=40, deadline=None)
@given(pool_products, st.integers(1, 12))
def test_hensel_lift_reaches_exactly_p_to_the_l(transforms, l):
    chain = SturmChain(product(transforms))
    f = list(chain.squarefree.prim)
    p, fp = _good_prime(chain)
    modular = _gfp.berlekamp(fp, p)
    lifted = _hensel_lift(p, f, modular, l)
    pl = p**l
    for g, gp in zip(lifted, modular):
        assert g[-1] == 1 and _zz_trunc(g, pl) == g
        assert _gfp.trim([c % p for c in g]) == gp
    # lc(f) * the product is f mod p**l
    lifted_product = [f[-1]]
    for g in lifted:
        lifted_product = _zz_mul(lifted_product, g)
    assert _zz_trunc(_zz_sub(lifted_product, f), pl) == []


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.sampled_from(POOL_TRANSFORMS), min_size=1, max_size=4, unique=True),
    st.integers(2, 30),
    st.integers(1, 12),
    st.randoms(use_true_random=False),
)
def test_hensel_lift_matches_the_factor_tree(transforms, scale, l, rng):
    # scale * the squarefree part of 1 to 4 pool transforms (up to 12
    # factors mod p), at every prime 3..29 not dividing lc(f) that keeps f
    # squarefree, with the modular factors in any order: the linear
    # multifactor lift returns the quadratic factor tree's list
    f = [scale * c for c in SturmChain(product(transforms)).squarefree.prim]
    for p in (3, 5, 7, 11, 13, 17, 19, 23, 29):
        fp = _gfp.trim([c % p for c in f])
        if f[-1] % p == 0 or not gfp_is_squarefree(fp, p):
            continue
        modular = _gfp.berlekamp(_gfp.monic(fp, p), p)
        rng.shuffle(modular)
        assert _hensel_lift(p, f, modular, l) == reference_hensel_lift(p, f, modular, l)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.sampled_from(POOL_TRANSFORMS), min_size=1, max_size=4, unique=True),
    st.randoms(use_true_random=False),
)
def test_hensel_corrections_are_the_inverse_of_the_lift_map(transforms, rng):
    # the squarefree part of 1 to 4 pool transforms, at every prime 3..29
    # not dividing lc(f) that keeps f squarefree, with the modular factors
    # in any order: the partial-fraction blocks are A**-1 by Gauss-Jordan
    f = SturmChain(product(transforms)).squarefree.prim
    n = len(f) - 1
    for p in (3, 5, 7, 11, 13, 17, 19, 23, 29):
        fp = _gfp.trim([c % p for c in f])
        if f[-1] % p == 0 or not gfp_is_squarefree(fp, p):
            continue
        modular = _gfp.berlekamp(_gfp.monic(fp, p), p)
        rng.shuffle(modular)
        expected = reference_hensel_corrections(p, modular, n)
        assert expected is not None
        assert _hensel_corrections(p, modular, n) == expected


@pytest.mark.parametrize(
    "p, f, modular",
    [
        (3, [1, 2, 1], [[1, 1], [1, 1]]),  # (x + 1)**2: a repeated factor
        (5, [2, 5, 4, 1], [[1, 1], [2, 1], [1, 1]]),  # (x + 1)**2 (x + 2), r = 3
        (3, [1, 0, 3], [[1, 1], [2, 1]]),  # 3 | lc
        (5, [1, 1, 5], [[1, 0, 1]]),  # 5 | lc, one factor
    ],
)
def test_hensel_lift_rejects_shared_factors_and_a_nonunit_leading_coefficient(p, f, modular):
    with pytest.raises(ArithmeticError):
        _hensel_lift(p, f, modular, 4)


def test_hensel_lifts_of_benchmark_traffic_pin(monkeypatch):
    # SHA-256 of (p, f, modular factors, l, lifts) for every top-level
    # Hensel lift made by 40 passes of the `check` workload at each of
    # seeds 0-4 and by the six census jobs (508 lifts, all from `check`),
    # pinned when cubics began to be decided by their rational roots: the
    # earlier recording of 907 lifts with its 399 lifts of cubics removed
    workloads = _load_workloads()
    calls = []
    inner = exactpoly._hensel_lift

    def record(p, f, modular, l):
        lifted = inner(p, f, modular, l)
        calls.append([p, list(f), [list(fp) for fp in modular], l, lifted])
        return lifted

    monkeypatch.setattr(exactpoly, "_hensel_lift", record)
    pools = workloads.load_pools()
    for seed in range(5):
        check = workloads.Check(seed, pools)
        for _ in range(40):
            for op in check.next_pass():
                op.primary()
    for op in workloads.Census(0, pools).next_pass():
        op.primary()
    assert len(calls) == 508
    digest = hashlib.sha256(json.dumps(calls).encode()).hexdigest()
    assert digest == "40fe30bcb6659ac970dfa65eec8df1a0516d9c8275b58dc045f38048d4fbd4fd"


def test_fixed_spaces_of_benchmark_traffic_pin(monkeypatch):
    # SHA-256 of (p, f, basis) for every Berlekamp fixed space, from
    # `berlekamp` and from the slope residuals of `padicpoly`, on the
    # traffic of the Hensel-lift pin (651 calls), pinned while the
    # Frobenius rows were still built by repeated squaring
    workloads = _load_workloads()
    calls = []
    inner = _gfp.fixed_space

    def record(f, p):
        basis = inner(f, p)
        calls.append([p, list(f), basis])
        return basis

    monkeypatch.setattr(_gfp, "fixed_space", record)
    pools = workloads.load_pools()
    for seed in range(5):
        check = workloads.Check(seed, pools)
        for _ in range(40):
            for op in check.next_pass():
                op.primary()
    for op in workloads.Census(0, pools).next_pass():
        op.primary()
    assert len(calls) == 651
    digest = hashlib.sha256(json.dumps(calls).encode()).hexdigest()
    assert digest == "43e8ff94852afefa37d3cb2f0ef34fde9a804af0208e951de3c4ac5e9b786f3e"


@settings(max_examples=40, deadline=None)
@given(pool_products, nonzero_scales)
def test_lift_bound_covers_every_proper_factor(transforms, scale):
    # each proper factor g of f over Z, a product of some of its irreducible
    # factors, has lc(f) * g / lc(g) integral with every coefficient within
    # the bound
    f = product(transforms, scale)
    bound = _lift_bound(f.prim)
    lead = f.prim[-1]
    irreducibles = [g for g, m in factor_with_unit(SturmChain(f))[1] for _ in range(m)]
    for size in range(1, len(irreducibles)):
        for subset in itertools.combinations(irreducibles, size):
            g = product(subset).prim
            scaled = [c * lead for c in g]
            assert all(c % g[-1] == 0 for c in scaled)
            assert max(abs(c // g[-1]) for c in scaled) <= bound


def test_squarefree_decomposition_multiplicities():
    f = Poly([-1, 1]) ** 3 * Poly([1, 1]) * F(1, 2)
    unit, parts = squarefree_decomposition(f)
    assert parts == [(Poly([1, 1]), 1), (Poly([-1, 1]), 3)]
    assert unit == F(1, 2)


small_fractions = st.fractions(min_value=-5, max_value=5, max_denominator=6)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(st.lists(small_fractions, min_size=2, max_size=4), st.integers(1, 3)),
        max_size=3,
    ),
    st.lists(st.tuples(st.integers(1, 12), st.integers(1, 3)), max_size=2),
    st.fractions(min_value=-30, max_value=30, max_denominator=35).filter(lambda c: c != 0),
)
def test_squarefree_decomposition_matches_fraction_yun(factors, cyclotomics, scale):
    # f = c * prod g_i**m_i: rational and integer g_i, repeated cyclotomic
    # factors (possibly equal to each other or to a g_i), any sign, and a
    # rational scale with non-trivial content
    f = Poly([scale])
    for cs, m in factors:
        g = Poly(cs)
        if g.degree() >= 1:
            f = f * g ** m
    for n, m in cyclotomics:
        f = f * cyclotomic_poly(n) ** m
    unit, parts = squarefree_decomposition(f)
    assert (unit, parts) == fraction_yun(f)
    product = Poly([unit])
    for g, m in parts:
        assert g.content.denominator == 1 and g.leading() > 0
        product = product * g ** m
    assert product == f
    assert poly_gcd(f, derivative(f)) == fraction_gcd(f, derivative(f))
    # factor_with_unit refines the decomposition multiplicity by multiplicity
    f_unit, irreducibles = factor_with_unit(SturmChain(f))
    assert f_unit == unit
    for g, m in parts:
        refined = Poly([1])
        for irr, irr_m in irreducibles:
            if irr_m == m:
                refined = refined * irr
        assert refined == g
    assert {m for _, m in irreducibles} == {m for _, m in parts}


def test_zz_quotient_integer_cases():
    # monic divisor: the quotient when it divides, None when a remainder is left
    f, g = [5, -3, 0, 2, 7], [1, -2, 1]
    assert _zz_quotient(_zz_mul(f, g), g) == f
    assert _zz_quotient(f, g) is None
    # a primitive non-monic factor divides exactly (Gauss's lemma)
    assert _zz_quotient([-3, -1, 2], [-3, 2]) == [1, 1]
    # non-monic divisor whose quotient is not integral: x**2 + 1 by 2x + 1,
    # and (2x + 1)(x + 1) by 4x + 2 (a divisor over Q, not over Z)
    assert _zz_quotient([1, 0, 1], [1, 2]) is None
    assert _zz_quotient([1, 3, 2], [2, 4]) is None
    # a non-primitive divisor of a multiple of it, and a negative leading one
    assert _zz_quotient([2, 6, 4], [2, 4]) == [1, 1]
    assert _zz_quotient([1, 3, 2], [-1, -1]) == [-1, -2]
    # deg f < deg g: only the zero polynomial is divisible
    assert _zz_quotient([1, 2], [0, 0, 3]) is None
    assert _zz_quotient([], [0, 0, 3]) == []


def test_zz_primitive_leads_positive_as_poly_prim():
    assert _zz_primitive([4, -6]) == _zz_primitive([-4, 6]) == [-2, 3] == list(Poly([-4, 6]).prim)
    assert _zz_primitive([0, -5]) == [0, 1] and _zz_primitive([]) == []


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(-30, 30), max_size=7),
    st.lists(st.integers(-9, 9), min_size=1, max_size=4).filter(lambda g: g[-1] != 0),
    st.lists(st.integers(-6, 6), max_size=4),
)
def test_zz_quotient_matches_fraction_long_division(f, g, h):
    # f arbitrary, or a multiple of g by an integer h: g may be
    # non-primitive, and deg f < deg g is drawn too
    for dividend in (_gfp.trim(list(f)), _zz_mul(_gfp.trim(list(h)), g)):
        quo, rem = ref_divmod([F(c) for c in dividend], [F(c) for c in g])
        divides = not rem and all(c.denominator == 1 for c in quo)
        assert _zz_quotient(dividend, g) == ([int(c) for c in quo] if divides else None)


# ---------------------------------------------------------------------------
# Sturm counts


def test_sturm_cubic_all_roots():
    assert sturm_count(Poly([0, -1, 0, 1])) == 3


def test_sturm_half_open_window():
    # roots +-sqrt(3/2); the numeric oracle confirms both lie inside (-2, 2]
    mpmath.mp.dps = 50
    root = mpmath.sqrt(mpmath.mpf(3) / 2)
    assert root < 2 and -root > -2
    assert SturmChain(Poly([F(-3, 2), 0, 1])).count(F(-2), F(2)) == 2


def test_sturm_no_real_roots():
    assert sturm_count(Poly([1, 0, 1])) == 0


def test_sturm_endpoint_is_half_open():
    chain = SturmChain(Poly([-1, 1]) * Poly([-2, 1]))  # roots 1, 2
    assert chain.count(F(1), F(2)) == 1
    assert chain.count(F(0), F(2)) == 2
    assert chain.count(F(0), F(1)) == 1
    assert chain.count(F(2), F(3)) == 0


def test_sturm_handles_repeated_roots_via_squarefree_part():
    f = Poly([-1, 1]) ** 2 * Poly([1, 1])
    assert sturm_count(f) == 2


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(-6, 6), min_size=3, max_size=6))
def test_sturm_agrees_with_numeric_isolation(cs):
    f = Poly(cs)
    if f.is_zero or f.degree() < 2:
        return
    f = squarefree_part(f)
    if f.degree() < 1:
        return
    assert sturm_count(f) == numeric_real_root_count(f)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(st.fractions(min_value=-4, max_value=4, max_denominator=4), st.integers(1, 3)),
        min_size=1,
        max_size=4,
    ),
    st.booleans(),
    st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=4), max_size=4),
)
def test_sturm_chain_matches_sturm_count_and_exact_roots(roots, complex_pair, points):
    # f = -3/2 * prod (T - r)**m [* (T**2 + 1)]: repeated roots, a non-primitive
    # scale and an optional pair of non-real roots; the roots themselves are
    # among the endpoints, so the half-open convention is exercised
    f = Poly([F(-3, 2)])
    for r, m in roots:
        f = f * Poly([-r, 1]) ** m
    if complex_pair:
        f = f * Poly([1, 0, 1])
    distinct = sorted({r for r, _ in roots})
    chain = SturmChain(f)
    endpoints = [None] + sorted(set(points) | set(distinct))
    for lo in endpoints:
        for hi in endpoints[1:] + [None]:
            if lo is not None and hi is not None and lo >= hi:
                continue
            exact = sum(1 for r in distinct if (lo is None or lo < r) and (hi is None or r <= hi))
            assert chain.count(lo, hi) == exact, (lo, hi)
    assert sturm_count(f) == len(distinct)
    intervals = isolate_real_roots(chain)
    assert len(intervals) == len(distinct)
    for (lo, hi), r in zip(intervals, distinct):
        assert lo < r <= hi
        half_lo, half_hi = halve(chain, lo, hi)
        assert half_lo < r <= half_hi and half_hi - half_lo == (hi - lo) / 2


@settings(max_examples=40, deadline=None)
@given(
    st.integers(2, 6),
    st.lists(st.tuples(st.integers(1, 3), st.integers(2, 7)), min_size=1, max_size=2),
    st.lists(st.tuples(st.integers(1, 3), st.integers(-3, 3), st.integers(1, 4)), max_size=2),
    st.lists(st.tuples(st.fractions(min_value=-3, max_value=3, max_denominator=5), st.integers(1, 2)), max_size=2),
    st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=7), max_size=4),
)
def test_sturm_chain_matches_fraction_chain_on_integer_polys(
    lead, quadratics, complex_pairs, rational_roots, points
):
    # integer f = lead * prod (a x**2 - b) * prod (a x**2 + b x + c) *
    # prod (den x - num)**m: irrational roots +-sqrt(b/a) (b/a not a square),
    # pairs of non-real roots (which give chain members with negative leading
    # coefficients), a non-unit leading coefficient, rational roots with
    # multiplicity, and those roots among the endpoints
    f = Poly([lead])
    for a, b in quadratics:
        if math.isqrt(a * b) ** 2 == a * b:
            b += 1 if math.isqrt(a * (b + 1)) ** 2 != a * (b + 1) else 2
        f = f * Poly([-b, 0, a])
    for a, b, c in complex_pairs:
        c += b * b  # discriminant b**2 - 4ac < 0
        f = f * Poly([c, b, a])
    for r, m in rational_roots:
        f = f * Poly([-r.numerator, r.denominator]) ** m
    assert_chain_matches_fraction_chain(f, set(points) | {r for r, _ in rational_roots})


@pytest.mark.parametrize("cs", [[3, 2, -3, -3, 3, -3, 1], [-3, 1, 0, 0, 0, -3, 1]])
def test_sturm_chain_abnormal_remainder_sequence(cs):
    # the remainders drop two degrees onto a member with negative leading
    # coefficient, so the pseudo-remainder scale |lc|**3 must not be lc**3
    assert_chain_matches_fraction_chain(Poly(cs), {F(k, 2) for k in range(-8, 9)})


def assert_chain_matches_fraction_chain(f: Poly, points) -> None:
    chain = SturmChain(f)
    reference = fraction_sturm_chain(f)
    assert chain.squarefree == reference[0]
    assert len(chain.chain) == len(reference)
    for member, ref in zip(chain.chain, reference):
        # every integer member is a positive multiple of the Fraction member
        assert member[-1] * ref.leading() > 0
        assert Poly(member) * ref.leading() == ref * member[-1]
    endpoints = [None] + sorted(points)
    for lo in endpoints:
        for hi in endpoints[1:] + [None]:
            if lo is not None and hi is not None and lo >= hi:
                continue
            assert chain.count(lo, hi) == fraction_sturm_count(reference, lo, hi), (lo, hi)


def test_isolate_real_roots_brackets():
    f = Poly([0, -1, 0, 1])  # roots -1, 0, 1
    intervals = isolate_real_roots(SturmChain(f))
    assert len(intervals) == 3
    for (lo, hi), root in zip(intervals, (F(-1), F(0), F(1))):
        assert lo < root <= hi


# ---------------------------------------------------------------------------
# cyclotomic detection


def test_cyclotomic_examples():
    assert is_cyclotomic(Poly([1, 1, 1])) == 3
    assert is_cyclotomic(Poly([1, -1, 1])) == 6
    assert is_cyclotomic(Poly([1, F(1, 2), 1])) is None


def test_cyclotomic_exhaustive_low_degree():
    for n in range(1, 200):
        if euler_phi(n) <= 20:
            assert is_cyclotomic(cyclotomic_poly(n)) == n


def test_non_cyclotomic_integer_poly():
    assert is_cyclotomic(Poly([2, 1, 1])) is None
    assert is_cyclotomic(Poly([1, 3, 1])) is None


# ---------------------------------------------------------------------------
# discriminants, the Sylvester resultant of test_helpers (their reference),
# and the reciprocal transform


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.fractions(min_value=-30, max_value=30, max_denominator=12), min_size=1, max_size=8),
    st.fractions(min_value=-7, max_value=7, max_denominator=5).filter(bool),
    st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=6), max_size=3),
)
def test_discriminant_matches_sylvester_reference(lower, lead, repeated):
    # f = lead * (x**k + lower) * h**2: degrees 1 to 12, non-monic with
    # rational coefficients, and repeated roots whenever h is nonconstant
    f = Poly(lower + [lead]) * Poly(repeated or [1]) ** 2
    if f.is_zero:
        f = Poly([lead, 1])
    disc = discriminant(f)
    assert disc == sylvester_discriminant(f)
    assert (disc == 0) == (squarefree_part(f).degree() < f.degree())


def test_discriminant_examples():
    assert discriminant(Poly([F(-3, 2), 5])) == 1
    assert discriminant(Poly([3, F(1, 2), 2])) == F(1, 4) - 24
    # x**3 + p*x + q: -4p**3 - 27q**2, times lc**4 after scaling by 2
    assert discriminant(Poly([2, -2, 0, 1]) * 2) == 16 * (-4 * (-2) ** 3 - 27 * 2**2)
    assert discriminant(Poly([-1, 1]) ** 2 * Poly([1, 0, 1])) == 0


def test_resultant_linear():
    assert resultant(Poly([-2, 1]), Poly([-3, 1])) == -1


def test_resultant_common_root():
    assert resultant(Poly([-2, 0, 1]), Poly([-2, 0, 1])) == 0


def test_resultant_quadratics_against_exact_field_oracle():
    assert resultant_oracle_quadratics() == 9
    assert resultant(Poly([1, 0, 1]), Poly([-2, 0, 1])) == 9


def test_resultant_multiplicativity():
    f, g, h = Poly([1, 2, 1]), Poly([-3, 1]), Poly([1, 1, 2])
    assert resultant(f * g, h) == resultant(f, h) * resultant(g, h)


def test_minpoly_of_beta_quartic():
    beta = reciprocal_transform(QUARTIC)
    assert beta == Poly([F(-3, 2), 0, 1])
    # oracle: beta evaluated at T + 1/T, cleared of denominators, kills f
    m = beta.degree()
    lifted = Poly()
    for i, c in enumerate(beta.coeffs):
        lifted = lifted + Poly([0] * (m - i) + [c]) * (Poly([1, 0, 1]) ** i)
    assert (lifted % QUARTIC).is_zero


def test_minpoly_of_beta_gaussian():
    assert reciprocal_transform(Poly([1, 0, 1])) == Poly([0, 1])


def test_minpoly_of_beta_quadratic():
    assert reciprocal_transform(Poly([1, F(-1, 2), 1])) == Poly([F(-1, 2), 1])


@pytest.mark.parametrize(
    "f",
    [
        QUARTIC,
        Poly([1, F(-1, 2), 1]),
        Poly([1, F(1, 2), F(7, 4), F(1, 2), 1]),
    ],
)
def test_minpoly_divisibility_invariant(f):
    if not is_irreducible(f):
        pytest.skip("fixture must be irreducible")
    beta = reciprocal_transform(f)
    m = beta.degree()
    lifted = Poly()
    for i, c in enumerate(beta.coeffs):
        lifted = lifted + Poly([0] * (m - i) + [c]) * (Poly([1, 0, 1]) ** i)
    assert (lifted % f).is_zero


def lift_by_definition(h: Poly) -> Poly:
    """T**m * h(T + 1/T) = sum h_i * T**(m - i) * (1 + T**2)**i, m = deg h."""
    m = h.degree()
    lifted = Poly()
    for i, c in enumerate(h.coeffs):
        lifted = lifted + Poly([0] * (m - i) + [c]) * (Poly([1, 0, 1]) ** i)
    return lifted


@settings(max_examples=150, deadline=None)
@given(rational_coeffs.filter(any), rational_coeffs.filter(any))
def test_reciprocal_lift_inverts_the_transform_and_is_multiplicative(cs1, cs2):
    h, k = Poly(cs1), Poly(cs2)
    g = reciprocal_lift(h)
    assert g == lift_by_definition(h)
    assert g.degree() == 2 * h.degree() and reverse(g) == g
    assert reciprocal_transform(g) == h
    assert reciprocal_lift(h * k) == g * reciprocal_lift(k)
    # a primitive h with positive leading coefficient stays so
    assert reciprocal_lift(Poly.from_ints(h.prim, 1)).content == 1


# ---------------------------------------------------------------------------
# square classes


def test_square_class_examples():
    assert (square_class(F(4)).sign, square_class(F(4)).squarefree) == (1, 1)
    assert (square_class(F(-18)).sign, square_class(F(-18)).squarefree) == (-1, 2)
    assert (square_class(F(7, 9)).sign, square_class(F(7, 9)).squarefree) == (1, 7)


def test_square_class_rejects_zero():
    with pytest.raises(DomainError):
        square_class(F(0))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(-40, 40).filter(lambda n: n != 0),
    st.integers(1, 30),
    st.integers(1, 12),
    st.integers(1, 12),
)
def test_square_class_constant_on_square_multiples(num, den, s_num, s_den):
    r = F(num, den)
    s = F(s_num, s_den)
    assert square_class(r) == square_class(r * s * s)


# nonzero rationals over a few shared small primes (so products cancel and
# square up) next to unstructured ones
_CLASS_RATIONALS = st.one_of(
    st.builds(
        lambda sign, exps: sign * math.prod((F(p) ** e for p, e in zip((2, 3, 5, 7), exps)), start=F(1)),
        st.sampled_from((1, -1)),
        st.lists(st.integers(-3, 3), min_size=4, max_size=4),
    ),
    st.builds(F, st.integers(-(10**6), 10**6).filter(bool), st.integers(1, 10**4)),
)


@settings(max_examples=150, deadline=None)
@given(_CLASS_RATIONALS, _CLASS_RATIONALS)
def test_square_class_group_law(a, b):
    assert square_class(a).times(square_class(b)) == square_class(a * b)


# ---------------------------------------------------------------------------
# symmetric functions


_ROOTS = st.one_of(
    st.lists(st.integers(-5, 5).map(F), max_size=6),
    st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=7), max_size=6),
)


@settings(max_examples=150, deadline=None)
@given(_ROOTS, st.integers(0, 8))
def test_newton_step_power_sums_match_roots(roots, extra):
    n = len(roots)
    elem = [
        sum((math.prod(c, start=F(1)) for c in itertools.combinations(roots, k)), F(0))
        for k in range(1, n + 1)
    ]
    sums: list = []
    for _ in range(n + extra):
        sums.append(_newton_step(elem, sums))
    assert sums == [sum((r**k for r in roots), F(0)) for k in range(1, n + extra + 1)]
    back = elementary_from_power_sums(sums, n)
    assert back == elem and all(type(e) is F for e in back)
    # the step is exact on ints as well: integer roots give integer sums
    if all(r.denominator == 1 for r in roots):
        int_elem = [int(e) for e in elem]
        int_sums: list[int] = []
        for _ in range(n + extra):
            int_sums.append(_newton_step(int_elem, int_sums))
        assert all(type(s) is int for s in int_sums) and int_sums == sums
    # the integer power sums of the scaled polynomial, over a^k
    f = math.prod((Poly([-r, 1]) for r in roots), start=Poly([1]))
    ints, den = trace_power_sums(f, n + extra)
    assert [F(x, den) for x in ints] == [F(n)] + sums


# ---------------------------------------------------------------------------
# serialization


def slow_rat_from_str(s: str):
    """rat_from_str's general path: the value, or the DomainError message."""
    try:
        return F(s.strip())
    except (ValueError, ZeroDivisionError) as exc:
        return f"invalid rational {s!r}: {exc}"


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(
        st.integers(-(10**30), 10**30).map(str),
        st.from_regex(r"\A[-+ ]?[0-9_/٣²]{0,5} ?\Z"),
        st.sampled_from(["+7", " 7 ", "1_000", "٣", "-0", "7/1", "007", "", "-", "--1", "²", "1e3", "0x1"]),
    )
)
def test_rat_from_str_integer_fast_path_agrees(s):
    expected = slow_rat_from_str(s)
    if isinstance(expected, str):
        with pytest.raises(DomainError) as info:
            rat_from_str(s)
        assert str(info.value) == expected
    else:
        value = rat_from_str(s)
        assert type(value) is F and value == expected


def test_rational_round_trip():
    assert rat_to_str(F(-3, 4)) == "-3/4"
    assert rat_to_str(F(5)) == "5"
    assert rat_from_str("-3/4") == F(-3, 4)
    assert rat_from_str("5") == F(5)
    for bad in ("1/0", "1/", "x"):
        with pytest.raises(DomainError):
            rat_from_str(bad)
    assert Poly.from_strs(["1", "-1/2", "1"]) == Poly([1, F(-1, 2), 1])


def test_poly_gcd_monic():
    f = Poly([-1, 1]) * Poly([1, 1])
    g = Poly([-1, 1]) * Poly([2, 1])
    assert poly_gcd(f, g) == Poly([-1, 1])
