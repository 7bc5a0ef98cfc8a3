"""Integer factorization and F_p polynomial helpers, and the references
other test modules use: Lagrange interpolation, composition, Euler's
totient, Hensel lifting by a binary tree of quadratic steps (with the
extended Euclidean algorithm over F_p for its Bezout pairs), Berlekamp's
fixed space with its Frobenius rows by products,
factorization over Q by Yun's algorithm and Zassenhaus alone
(recombining behind the norm pre-test) and over F_p by Yun's algorithm
and Berlekamp, base extension by `Fraction` power sums, the Newton-shape
verdict by its two-branch rule,
the disc identity by factoring, the CM field with every axiom proved
again, determinants by Bareiss elimination (and over F_p by cofactor
expansion), resultants and discriminants
by Sylvester matrices, trace forms by reduction mod the defining
polynomial (on the basis of the program's blocks and on the power or
tensor basis) and by `Fraction` power-sum traces, absolute polynomials by
Horner over `Poly`, signatures by Sturm bisection, the scalar lambda by
root isolation and the sign of g, the complement's
diagonal by the peel search, the `Poly` forms the program once used
(reversal, rational valuations, the unit-circle prechecks), the census
by the power-sum descent alone, and small
wrappers over the program's kernels that only tests call."""

import itertools
import json
import math
import operator
import pathlib
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from httool import _gfp, _intfactor
from httool.cmfield import (
    CMData,
    NumberField,
    _absolute_defining,
    _hankel_traces,
    _last_true,
    build_extension,
    find_lambda,
    trace_form,
    weil_field,
)
from httool.exactpoly import (
    DomainError,
    Poly,
    SturmChain,
    _cyclotomic_table,
    _newton_step,
    _hensel_lift,
    _lift_bound,
    _zz_add,
    _zz_derivative,
    _zz_divmod,
    _zz_exact_quotient,
    _zz_gcd,
    _zz_mul,
    _zz_primitive,
    _zz_sub,
    _zz_trunc,
    elementary_from_power_sums,
    factor_with_unit,
    isolate_real_roots,
    rat_to_str,
    reciprocal_transform,
    square_class,
    sturm_count,
    trace_power_sums,
)
from httool.padicpoly import SlopeOutcome, SlopeVerdict
from httool.weilcheck import _PASS, PropertyVerdict, Status, WeilCandidate, check_all
from httool.qform import (
    ConstructionError,
    GramMatrix,
    QFormInvariants,
    QSpace,
    _binary_pool,
    _construct_binary,
    _scalar_candidates,
    admissible,
    complement_invariants,
    diagonalize,
    invariants,
)


def lagrange_interpolate(points: list[tuple[F, F]]) -> Poly:
    """The unique polynomial of degree < len(points) through the points."""
    result = Poly()
    for i, (xi, yi) in enumerate(points):
        term = Poly([yi])
        for j, (xj, _) in enumerate(points):
            if i == j:
                continue
            term = term * Poly([-xj, 1]) * F(1, xi - xj)
        result = result + term
    return result


def compose(f: Poly, g: Poly) -> Poly:
    """f(g(x)), by Horner's rule in g."""
    acc = Poly()
    for a in reversed(f.prim):
        acc = acc * g + Poly.from_ints([a], 1)
    return acc * f.content


def euler_phi(n: int) -> int:
    result = n
    for p in _intfactor.factorize(n):
        result -= result // p
    return result


def _reference_factoring_prime(f):
    """Among the first three odd primes p that keep f squarefree and its
    degree, stopping early at one where f has at most two factors, the one
    with the fewest factors mod p, and those factors by Berlekamp."""
    found = []
    p = 3
    while len(found) < 3:
        if _intfactor.is_prime(p) and f[-1] % p != 0:
            fp = _gfp.trim([c % p for c in f])
            if _gfp.is_squarefree(fp, p):
                factors = _gfp.berlekamp(_gfp.monic(fp, p), p)
                found.append((p, factors))
                if len(factors) <= 2:
                    break
        p += 2
    return min(found, key=lambda pf: (len(pf[1]), pf[0]))


def _zz_yun(f) -> list[tuple[list[int], int]]:
    """Yun's algorithm on a primitive f with positive leading coefficient:
    the nonconstant g_i with f = prod g_i**i, ascending i.

    Every gcd is primitive with positive leading coefficient, so every
    quotient below is exact in Z[x] and the g_i come out primitive with
    positive leading coefficient.
    """
    parts: list[tuple[list[int], int]] = []
    if len(f) < 2:
        return parts
    d = _zz_derivative(f)
    g = _zz_gcd(f, d)
    w = _zz_exact_quotient(f, g)
    y = _zz_exact_quotient(d, g)
    z = _zz_sub(y, _zz_derivative(w))
    i = 1
    while len(w) > 1:
        h = _zz_gcd(w, z)
        if len(h) > 1:
            parts.append((h, i))
        w = _zz_exact_quotient(w, h)
        y = _zz_exact_quotient(z, h)
        z = _zz_sub(y, _zz_derivative(w))
        i += 1
    return parts


def gcdex(f: list[int], g: list[int], p: int) -> tuple[list[int], list[int], list[int]]:
    """Return (s, t, h) with s*f + t*g = h = monic gcd(f, g) over F_p, by the
    extended Euclidean algorithm: the Bezout pair of each node of
    `reference_hensel_lift`."""
    r0, r1 = list(f), list(g)
    s0, s1 = [1], []
    t0, t1 = [], [1]
    while r1:
        q, r = _gfp.divmod_(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _gfp.trim([c % p for c in _zz_sub(s0, _gfp.mul(q, s1, p))])
        t0, t1 = t1, _gfp.trim([c % p for c in _zz_sub(t0, _gfp.mul(q, t1, p))])
    if not r0:
        return [], [], []
    inv = pow(r0[-1], -1, p)
    return [inv * c % p for c in s0], [inv * c % p for c in t0], _gfp.monic(r0, p)


def _reference_hensel_step(m, f, g, h, s, t):
    """The factors of one quadratic Hensel step: from f = g*h (mod m0) to
    f = g1*h1 (mod m), for m0 | m | m0**2, s*g + t*h = 1 (mod m0) and
    lc(h) = 1."""
    e = _zz_trunc(_zz_sub(f, _zz_mul(g, h)), m)
    q, r = _zz_divmod(_zz_mul(s, e), h)
    q = _zz_trunc(q, m)
    g1 = _zz_trunc(_zz_add(g, _zz_add(_zz_mul(t, e), _zz_mul(q, g))), m)
    h1 = _zz_trunc(_zz_add(h, r), m)
    return g1, h1


def _reference_bezout_step(m, g1, h1, s, t):
    """The Bezout pair of one quadratic Hensel step: from s*g + t*h = 1
    (mod m0) to s1*g1 + t1*h1 = 1 (mod m), for the lifted g1, h1."""
    b = _zz_trunc(_zz_sub(_zz_add(_zz_mul(s, g1), _zz_mul(t, h1)), [1]), m)
    c, d = _zz_divmod(_zz_mul(s, b), h1)
    c = _zz_trunc(c, m)
    u = _zz_add(_zz_mul(t, b), _zz_mul(c, g1))
    return _zz_trunc(_zz_sub(s, d), m), _zz_trunc(_zz_sub(t, u), m)


def reference_hensel_lift(p, f, modular_factors, l):
    """The program's `_hensel_lift` contract by a binary factor tree
    (von zur Gathen-Gerhard, Modern Computer Algebra, ch. 15): a node splits
    its factors into halves g (carrying lc(f)) and h (monic) and lifts
    f = g*h by quadratic steps m -> m**2, the last one capped at p**l,
    lifting the Bezout pair on every step but the last; each half is then
    lifted again from p by its own node."""
    r = len(modular_factors)
    lc = f[-1]
    pl = p**l
    if r == 1:
        if math.gcd(lc, pl) != 1:
            raise ArithmeticError("leading coefficient not a unit mod p**l")
        inv = pow(lc % pl, -1, pl)
        return [_zz_trunc([c * inv for c in f], pl)]
    k = r // 2
    g = [lc % p]
    for fi in modular_factors[:k]:
        g = _gfp.mul(g, fi, p)
    h = list(modular_factors[k])
    for fi in modular_factors[k + 1 :]:
        h = _gfp.mul(h, fi, p)
    s, t, one = gcdex(g, h, p)
    if one != [1]:
        raise ArithmeticError("modular factors are not coprime")
    g, h = _zz_trunc(g, p), _zz_trunc(h, p)
    s, t = _zz_trunc(s, p), _zz_trunc(t, p)
    m = p
    while m < pl:
        m = min(m * m, pl)
        g, h = _reference_hensel_step(m, f, g, h, s, t)
        if m < pl:
            s, t = _reference_bezout_step(m, g, h, s, t)
    return reference_hensel_lift(p, g, modular_factors[:k], l) + reference_hensel_lift(p, h, modular_factors[k:], l)


def _reference_zassenhaus(f, p, modular):
    """Zassenhaus recombination with the norm pre-test: the lifted factors
    of the program's `_hensel_lift`, and a trial goes to the exact division
    only when its primitive part's constant divides the cofactor's and
    ||trial||_1 * ||rest||_1 <= (isqrt(n + 1) + 1) * 2**n * ||f||_inf * b,
    rest the product of b and the other lifted factors, which a true split
    meets (||g*||_1 <= 2**m * M(g*), and M(trial) * M(rest) = |b'| *
    M(cofactor) <= b * sqrt(n + 1) * ||f||_inf)."""
    n = len(f) - 1
    bound = (math.isqrt(n + 1) + 1) * 2**n * max(abs(a) for a in f) * f[-1]
    l, pl = 1, p
    while pl < 2 * _lift_bound(f) + 1:
        pl *= p
        l += 1
    lifted = _hensel_lift(p, f, modular, l)
    active = list(range(len(lifted)))
    factors = []
    size = 1
    current = list(f)
    while 2 * size <= len(active):
        advanced = False
        combos = itertools.combinations(active, size)
        if 2 * size == len(active):
            combos = ((active[0], *c) for c in itertools.combinations(active[1:], size - 1))
        for combo in combos:
            trial, rest = [current[-1]], [current[-1]]
            for i in active:
                if i in combo:
                    trial = _zz_trunc(_zz_mul(trial, lifted[i]), pl)
                else:
                    rest = _zz_trunc(_zz_mul(rest, lifted[i]), pl)
            trial_prim = _zz_primitive(trial)
            if trial_prim[0] and current[0] % trial_prim[0]:
                continue
            if sum(map(abs, trial)) * sum(map(abs, rest)) > bound:
                continue
            try:
                q, r = _zz_divmod(current, trial_prim)
            except ArithmeticError:
                continue
            if r:
                continue
            factors.append(trial_prim)
            current = _zz_primitive(q)
            active = [i for i in active if i not in combo]
            advanced = True
            break
        if not advanced:
            size += 1
    factors.append(current)
    return [[-c for c in g] if g[-1] < 0 else g for g in factors]


def reference_factor_with_unit(f: Poly):
    """`factor_with_unit` with no shortcut: Yun's algorithm, then Berlekamp,
    Hensel lifting and Zassenhaus recombination with the norm pre-test
    (`_reference_zassenhaus`) on every squarefree part of degree 2 or
    more, cyclotomic or not."""
    factors = []
    for g, mult in _zz_yun(f.prim):
        irreducibles = [g] if len(g) == 2 else _reference_zassenhaus(g, *_reference_factoring_prime(g))
        factors.extend((Poly.from_ints(irr, 1), mult) for irr in irreducibles)
    factors.sort(key=lambda fm: (fm[0].degree(), fm[0].prim))
    return f.content, factors


def reference_base_extend(c: WeilCandidate, n: int) -> WeilCandidate:
    """The base extension by `Fraction` power sums of the reciprocal roots,
    s_k = sum gamma_i**k from the coefficients of L = prod (1 - gamma_i T)
    by Newton's identities, and back from s_n, s_2n, ..., s_2dn."""
    two_d = c.L.degree()
    elem = [(-1) ** i * x for i, x in enumerate(c.L.coeffs)][1:]
    sums: list[F] = []
    for _ in range(two_d * n):
        sums.append(F(_newton_step(elem, sums)))
    new_elem = elementary_from_power_sums([sums[k * n - 1] for k in range(1, two_d + 1)], two_d)
    return WeilCandidate(Poly([F(1)] + [(-1) ** k * e for k, e in enumerate(new_elem, 1)]), c.p, c.a * n)


def reference_newton_shape(c: WeilCandidate, polygon) -> tuple[PropertyVerdict, int | None, int | None]:
    """The Newton-shape verdict by two branches, three vertices with h = d or
    four with a flat middle of height -a, then a test that h is in [1, d]."""
    a, two_d = c.a, c.L.degree()
    d = two_d // 2
    verts = list(polygon.vertices)
    witness = {"vertices": [[i, str(v)] for i, v in verts]}
    h = None
    if len(verts) == 3 and verts[0] == (0, 0) and verts[1] == (d, -a) and verts[2] == (two_d, 0):
        h = d
    elif (
        len(verts) == 4
        and verts[0] == (0, 0)
        and verts[3] == (two_d, 0)
        and verts[1][1] == verts[2][1] == -a
        and verts[1][0] + verts[2][0] == two_d
    ):
        h = verts[1][0]
    if h is None:
        witness["reason"] = "polygon shape mismatch"
        return PropertyVerdict(Status.FAIL, witness), None, d
    if not 1 <= h <= d:
        witness["reason"] = f"height {h} outside [1, {d}]"
        return PropertyVerdict(Status.FAIL, witness), None, d
    if d > 10:
        witness["reason"] = f"half degree {d} exceeds 10"
        return PropertyVerdict(Status.FAIL, witness), h, d
    return _PASS, h, d


def bareiss_determinant(matrix: list[list[int]]) -> int:
    """Exact integer determinant by fraction-free (Bareiss) elimination with
    row swaps."""
    n = len(matrix)
    if n == 0:
        return 1
    m = [row[:] for row in matrix]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if pivot is None:
                return 0
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def resultant(f: Poly, g: Poly) -> F:
    """Res(f, g) as the determinant of the Sylvester matrix, so that
    Res(f, g) = lc(f)**deg(g) * prod g(alpha) over the roots of f."""
    if f.is_zero or g.is_zero:
        raise DomainError("resultant of the zero polynomial")
    m, n = f.degree(), g.degree()
    if m == 0:
        return f.leading() ** n
    if n == 0:
        return g.leading() ** m
    # Res(c*f, d*g) = c**deg(g) * d**deg(f) * Res(f, g) for constants c, d
    size = m + n
    fc = list(reversed(f.prim))
    gc = list(reversed(g.prim))
    rows = [[0] * i + fc + [0] * (size - m - 1 - i) for i in range(n)]
    rows += [[0] * i + gc + [0] * (size - n - 1 - i) for i in range(m)]
    return f.content ** n * g.content ** m * bareiss_determinant(rows)


def derivative(f: Poly) -> Poly:
    """f' over Q, by the integer kernel on f's primitive part."""
    return Poly.from_ints(_zz_derivative(f.prim), f.content)


def sylvester_discriminant(f: Poly) -> F:
    """disc(f) = (-1)**(n(n-1)/2) * Res(f, f') / lc(f), n = deg f >= 1, with
    the Sylvester resultant."""
    n = f.degree()
    return (-1) ** (n * (n - 1) // 2) * resultant(f, derivative(f)) / f.leading()


def reference_disc_identity(ext, det_class) -> tuple[bool, str]:
    """Whether det_class is the class of (-1)^d * disc(E), and the expected
    class, both from a factorization of that discriminant, which comes from
    the Sylvester resultant."""
    expected = square_class((-1) ** (ext.absolute.degree() // 2) * sylvester_discriminant(ext.absolute))
    return det_class == expected, str(expected)


def factor_over_Q(f: Poly) -> list[tuple[Poly, int]]:
    """Irreducible factorization over Q; factors are primitive integral with
    positive leading coefficient, ordered by degree then coefficients."""
    return factor_with_unit(SturmChain(f))[1]


def is_irreducible(f: Poly) -> bool:
    if f.degree() < 1:
        return False
    factors = factor_over_Q(f)
    return len(factors) == 1 and factors[0][1] == 1 and factors[0][0].degree() == f.degree()


def weil_field_of(Q: Poly) -> CMData:
    """`weil_field` of an admissible Q, given the chain of its own transform:
    the chain `check_all` builds for L = Q."""
    return weil_field(Q, SturmChain(reciprocal_transform(Q)))


def member_field(member: list[str], p: int, a: int) -> CMData:
    """The CM field of a pool member as `pipeline.run` builds it: from the
    report's Q and the chain that `check_all` built on the candidate."""
    candidate = WeilCandidate(Poly.from_strs(member), p, a)
    return weil_field(check_all(candidate).Q, candidate.chain)


def verified_weil_field(Q: Poly) -> CMData:
    """`weil_field` with each CM axiom proved again from Q alone; a failed
    assertion names the axiom."""
    assert not Q.is_zero and Q.degree() >= 2, "degree: expected degree >= 2"
    f = Q.monic()
    n = f.degree()
    assert n % 2 == 0, "degree: expected even degree"
    assert reverse(f) == f, "self_inversive: coefficients are not palindromic"
    assert f(F(1)) != 0 and f(F(-1)) != 0, "unit_roots: +-1 must not be roots"
    assert is_irreducible(f), "irreducible: defining polynomial factors over Q"
    assert sturm_count(f) == 0, "totally_imaginary: the field has a real embedding"
    beta = reciprocal_transform(f)
    half = n // 2
    beta_chain = SturmChain(beta)
    assert beta_chain.count() == half, "totally_real: the fixed field is not totally real"
    in_range = beta_chain.count(F(-2), F(2))
    assert in_range == half and beta(F(-2)) != 0, "unit_circle: some root lies off the unit circle"
    # gamma^{-1} = -(c_1 + c_2 gamma + ... + c_n gamma^{n-1}) / c_0
    conj = Poly(list(f.coeffs[1:])) * (-1 / f.coefficient(0))
    assert (Poly([0, 1]) * conj) % f == Poly([1]), "conjugation: inverse residue is wrong"
    assert compose_mod(conj, conj, f) == Poly([0, 1]), "conjugation: not an involution"
    return CMData(NumberField(f, 0), NumberField(beta, half), conj)


def compose_mod(outer: Poly, inner: Poly, f: Poly) -> Poly:
    """outer(inner) in Q[T]/(f), reduced after each Horner step."""
    acc = Poly()
    for c in reversed(outer.coeffs):
        acc = (acc * inner) % f + Poly([c])
    return acc % f


def power_sums(f: Poly, count: int) -> list[F]:
    """`trace_power_sums` as one `Fraction` per power sum."""
    sums, den = trace_power_sums(f, count)
    return [F(x, den) for x in sums]


def gram_entries(gram: GramMatrix) -> tuple[tuple[F, ...], ...]:
    """The Gram's entries, one `Fraction` each."""
    return tuple(tuple(F(x, gram.den) for x in row) for row in gram.rows)


def reference_block_invariants(blocks, den: int) -> QFormInvariants:
    """The invariants of the orthogonal sum of the symmetric integer blocks
    over den by the path that factors every pivot: `invariants` of their
    joined pivot diagonals (`diagonalize`), each entry D_k / (D_(k-1) den)
    taken to its square class."""
    return invariants(QSpace(sum((diagonalize(GramMatrix(block, den)).diagonal for block in blocks), ())))


def reference_trace_invariants(form) -> QFormInvariants:
    """`reference_block_invariants` of the trace form's two blocks,
    T(2 lambda) and T(-2 lambda delta)."""
    rows, d = form.gram.rows, len(form.gram.rows) // 2
    return reference_block_invariants([[row[:d] for row in rows[:d]], [row[d:] for row in rows[d:]]], form.gram.den)


def _power_traces(element: Poly, modulus: Poly, count: int) -> list[F]:
    """Tr(element * T^m) in Q[T]/(modulus) for m = 0..count-1; each power
    is one multiplication by T from the last."""
    sums = power_sums(modulus, modulus.degree() - 1)
    traces = []
    for _ in range(count):
        traces.append(sum((c * sums[i] for i, c in enumerate(element.coeffs)), F(0)))
        element = (element * Poly([0, 1])) % modulus
    return traces


def reduction_trace_gram(base, ext, lam: Poly) -> GramMatrix:
    """The trace form's Gram by reduction mod the defining polynomial, for
    ext built over the CM field base: for e = 1 the Toeplitz t_|i-j| with
    lambda(beta) composed into Q[T]/(f), beta = T + conj(T); for a
    compositum t[i+k] * U[j][l], U the unit form built the same way."""
    f = base.field.defining
    if ext.kind == "trivial":
        n = f.degree()
        t = _power_traces(compose_mod(lam, (Poly([0, 1]) + base.conj) % f, f), f, n)
        return GramMatrix.from_rows([[t[abs(i - j)] for j in range(n)] for i in range(n)])
    P, e = ext.real_subfield.defining, ext.e
    t = _power_traces(lam % P, P, 2 * e - 1)
    u = _power_traces(Poly([1]), f, 2)
    unit = [[u[abs(j - l)] for l in range(2)] for j in range(2)]
    return GramMatrix.from_rows(
        [[t[i + k] * unit[j][l] for k in range(e) for l in range(2)] for i in range(e) for j in range(2)]
    )


def inverse_mod(a: Poly, m: Poly) -> Poly:
    """a^-1 in Q[T]/(m), by the extended Euclidean algorithm: each pair
    (r, s) keeps s * a = r mod m."""
    r0, r1, s0, s1 = m, a % m, Poly(), Poly([1])
    while not r1.is_zero:
        q, r = divmod(r0, r1)
        r0, r1, s0, s1 = r1, r, s1, s0 - q * s1
    assert r0.degree() == 0, "a is not invertible mod m"
    return (s0 * (1 / r0.coefficient(0))) % m


def basis_trace_gram(base, ext, lam: Poly) -> GramMatrix:
    """The trace form's Gram on the basis x^i, x^i * omega of E, omega =
    gamma - 1/gamma, for ext built over the CM field base, by reduction mod
    the absolute polynomial A, each entry Tr_{E/Q}(lambda * b_i *
    conj(b_j)) with conj the substitution of conj(T) for T.  In Q[T]/(A):
    for e = 1, gamma = T and x = beta = T + 1/T; for a compositum, T = x +
    gamma, and gamma is the common root -a/b of f(X) and P(T - X) = a + b*X
    mod f(X), P the real subfield's polynomial (Horner, X^2 = -f_1 X -
    f_0), and x = T - gamma.  In both, conj(T) = T - gamma + 1/gamma."""
    A, f = ext.absolute, base.field.defining
    T = Poly([0, 1])
    if ext.e == 1:
        gamma = T
    else:
        f0, f1, _ = f.coeffs
        a, b = Poly(), Poly()
        for c in reversed(ext.real_subfield.defining.coeffs):
            # (a + b X)(T - X) + c
            a, b = (a * T + b * f0 + Poly([c])) % A, (b * T - a + b * f1) % A
        gamma = (-a * inverse_mod(b, A)) % A
    gamma_inv = inverse_mod(gamma, A)
    x = (gamma + gamma_inv) % A if ext.e == 1 else (T - gamma) % A
    omega = (gamma - gamma_inv) % A
    conj_T = (T - gamma + gamma_inv) % A
    d = ext.real_subfield.degree

    def basis(x, omega):
        powers = [Poly([1])]
        for _ in range(d - 1):
            powers.append((powers[-1] * x) % A)
        return powers + [(b * omega) % A for b in powers]

    lam_in_field = compose_mod(lam, x, A)
    left = [(lam_in_field * b) % A for b in basis(x, omega)]
    # conj(b_j), with conj(x) and conj(omega) by substitution
    right = basis(compose_mod(x, conj_T, A), compose_mod(omega, conj_T, A))
    sums, den = trace_power_sums(A, 2 * A.degree() - 2)

    def trace(w: Poly) -> F:
        return w.content * F(sum(c * sums[k] for k, c in enumerate(w.prim)), den)

    return GramMatrix.from_rows([[trace(u * v) for v in right] for u in left])


def poly_absolute_defining(P: Poly, f: Poly) -> Poly:
    """`cmfield._absolute_defining` by Horner over `Poly`: P(Z - gamma) =
    A + B*gamma with gamma^2 = -c1*gamma - c0, then the norm A^2 - c1*A*B +
    c0*B^2."""
    c0, c1, _ = f.coeffs
    z = Poly([0, 1])
    a, b = Poly(), Poly()
    for c in reversed(P.coeffs):
        a, b = a * z + b * c0 + Poly([c]), b * z - a + b * c1
    return a * a - a * b * c1 + b * b * c0


def fraction_hankel_traces(lam: Poly, g: Poly, count: int) -> list[F]:
    """Tr(lambda * x^m) in Q[x]/(g) for m = 0..count-1, one `Fraction` per
    trace: sum_j l_j p_(j+m) over lambda's rational coefficients l_j."""
    coeffs = (lam % g).coeffs
    p = power_sums(g, count + len(coeffs) - 2)
    return [sum(c * p[j + m] for j, c in enumerate(coeffs)) for m in range(count)]


def fraction_trace_gram(ext, lam: Poly) -> GramMatrix:
    """The trace form's Gram with one `Fraction` per entry: the blocks
    2 t_(i+k) and -2 sum_j delta_j t_(i+k+j), t_m = Tr(lambda * x^m) and
    delta_j the rational coefficients of `ext.delta`."""
    d, delta = ext.real_subfield.degree, ext.delta.coeffs
    t = fraction_hankel_traces(lam, ext.real_subfield.defining, 2 * d + len(delta) - 2)
    zeros = [F(0)] * d
    first = [[2 * t[i + k] for k in range(d)] + zeros for i in range(d)]
    second = [zeros + [-2 * sum(c * t[i + k + j] for j, c in enumerate(delta)) for k in range(d)] for i in range(d)]
    return GramMatrix.from_rows(first + second)


def halve(chain: SturmChain, lo, hi):
    """The half of (lo, hi] holding the root, for int or Fraction endpoints
    of an interval that isolates one root of the chain's polynomial."""
    mid = F(lo + hi, 2)
    return (lo, mid) if chain.count(lo, mid) else (mid, hi)


def bisection_signature_of(lam: Poly, field: NumberField) -> tuple[int, int]:
    """Signs of lambda at the real roots of the field's polynomial g: each
    isolating interval is halved until lambda has no root in it, then
    lambda is evaluated at its midpoint."""
    g = field.defining
    g_chain = SturmChain(g)
    assert g_chain.count() == field.degree == field.real_embeddings
    lam = lam % g
    assert not lam.is_zero and len(_zz_gcd(lam.prim, g.prim)) == 1, "lambda vanishes at a root"
    if lam.degree() == 0:
        return (field.degree, 0) if lam.coefficient(0) > 0 else (0, field.degree)
    lam_chain = SturmChain(lam)
    positives = 0
    for lo, hi in isolate_real_roots(g_chain):
        while lam(lo) == 0 or lam(hi) == 0 or lam_chain.count(lo, hi) != 0:
            lo, hi = halve(g_chain, lo, hi)
        if lam((lo + hi) / 2) > 0:
            positives += 1
    return positives, field.degree - positives


def reference_find_lambda(field: NumberField, target: tuple[int, int]) -> Poly:
    """find_lambda's scalar by isolating intervals: the Stern-Brocot descent
    of `find_lambda`, started from floor(lo_a) or ceil(hi_b), with each
    probe placed below, in or above the gap (a, b) between the s-th and
    (s+1)-th roots by the intervals (lo, hi] around a and b and, inside
    either interval, by the sign of g, which is (-1)^(d - s) in the gap."""
    r, s = target
    if r == 0 or s == 0:
        return Poly([1 if r else -1])
    g = field.defining
    (lo_a, hi_a), (lo_b, hi_b) = isolate_real_roots(SturmChain(g))[s - 1 : s + 1]
    positive = (field.degree - s) % 2 == 0

    def side(p: int, q: int) -> int:
        x = F(p, q)
        if x <= lo_a:
            return -1
        if x >= hi_b:
            return 1
        if hi_a <= x <= lo_b or (g(x) > 0) == positive:
            return 0
        return -1 if x < hi_a else 1

    if (start := side(0, 1)) == 0:
        return Poly([0, 1])
    if start < 0:
        p0, q0, p1, q1 = max(0, math.floor(lo_a)), 1, 1, 0
    else:
        p0, q0, p1, q1 = -1, 0, min(0, math.ceil(hi_b)), 1
    while (step := side(p0 + p1, q0 + q1)) != 0:
        if step < 0:
            j = _last_true(lambda j: side(p0 + j * p1, q0 + j * q1) < 0)
            p0, q0 = p0 + j * p1, q0 + j * q1
        else:
            j = _last_true(lambda j: side(p1 + j * p0, q1 + j * q0) > 0)
            p1, q1 = p1 + j * p0, q1 + j * q0
    return Poly([F(-(p0 + p1), q0 + q1), 1])


def peel_search_diagonal(inv: QFormInvariants) -> list[F]:
    """The diagonal realizing admissible invariants, peeling at every
    dimension >= 3 the first scalar of the binary pool whose complement is
    admissible, with the program's binary block."""
    r, s = inv.signature
    if inv.dim <= 1:
        return [inv.det.as_fraction()] * inv.dim
    signs = tuple(sign for sign, count in ((1, r), (-1, s)) if count)
    if inv.dim == 2:
        return _construct_binary(inv, signs)
    for z in _scalar_candidates(_binary_pool(inv), signs):
        unary = QFormInvariants(1, (1, 0) if z.sign == 1 else (0, 1), z, frozenset())
        rest = complement_invariants(unary, inv)
        if admissible(rest):
            return [z.as_fraction()] + peel_search_diagonal(rest)
    raise ConstructionError(f"no diagonal split found for {inv}")


def fraction_determinant(matrix) -> F:
    """Exact determinant of a rational matrix (row-wise denominator clearing)."""
    scale = F(1)
    int_rows = []
    for row in matrix:
        lcm = math.lcm(*(F(x).denominator for x in row))
        scale *= lcm
        int_rows.append([int(x * lcm) for x in row])
    return F(bareiss_determinant(int_rows)) / scale


def number_field(f: Poly) -> NumberField:
    """The field Q[T]/(f) of a monic irreducible f."""
    assert f.is_monic() and is_irreducible(f)
    return NumberField(f, sturm_count(f))


def poly_gcd(f: Poly, g: Poly) -> Poly:
    """Monic gcd over Q (gcd with 0 is the monic normalization of the other)."""
    h = _zz_gcd(f.prim, g.prim)
    return Poly.from_ints(h, 1).monic() if h else Poly()


def squarefree_part(f: Poly) -> Poly:
    return SturmChain(f).squarefree.monic()


def squarefree_decomposition(f: Poly):
    """Yun's algorithm: f = unit * prod g_i**i with g_i primitive integral,
    positive leading, squarefree and pairwise coprime; the unit is f's
    content."""
    return f.content, [(Poly.from_ints(h, 1), mult) for h, mult in _zz_yun(f.prim)]


def reverse(f: Poly) -> Poly:
    """T**deg * f(1/T); trailing zero coefficients of f drop the degree."""
    return Poly.from_ints(f.prim[::-1], f.content)


def vp(r: F, p: int) -> int | float:
    """The p-adic valuation of a rational; vp(0) is +infinity."""
    if not _intfactor.is_prime(p):
        raise DomainError(f"{p} is not prime")
    r = F(r)
    if r == 0:
        return math.inf
    return _intfactor._split_unit(r.numerator, p)[0] - _intfactor._split_unit(r.denominator, p)[0]


def unit_circle_prechecks(L: Poly) -> tuple[dict | None, bool]:
    """The unit-circle verdict's symmetry witness (None when L is
    self-inversive) and whether L(1) * L(-1) != 0, from `reverse` and
    `Fraction` values, as `check_unit_circle` and `check_all` once decided
    them on `Poly` forms."""
    two_d = L.degree()
    rev = reverse(L)
    if rev == -L:
        witness = {"reason": "odd reciprocal symmetry forces L(1) = 0", "root_of_unity": 1}
    elif rev != L:
        defect = next(i for i in range(two_d + 1) if L.coefficient(i) != L.coefficient(two_d - i))
        witness = {"reason": "not self-inversive", "coefficient_index": defect}
    else:
        witness = None
    return witness, L(F(1)) * L(F(-1)) != 0


def reference_census(
    p: int, a: int, two_d: int, value_at_one: F | None = None, value_at_minus_one_not: F | None = None
) -> list[WeilCandidate]:
    """The census as `enumerate_candidates` once searched it: the integer
    power-sum window inside the binomial box at each level, the power-sum
    continuation to 6d at each leaf, the screen dividing den * L by every
    Phi_n with phi(n) <= 2d, and `check_all` on each survivor of the value
    filters; no signs at +-2 and no screen on H."""
    d, den = two_d // 2, p**a
    bound = [two_d * den**k for k in range(6 * d + 1)]
    found = []

    def finalize(half_ints, elem, sums):
        ints = [den] + half_ints + half_ints[-2::-1] + [den]
        elem, sums = list(elem), list(sums)
        for k in range(d + 1, 6 * d + 1):
            if k <= two_d:
                elem.append((ints[k] if k % 2 == 0 else -ints[k]) * den ** (k - 1))
            s = _newton_step(elem, sums)
            if abs(s) > bound[k]:
                return
            sums.append(s)
        if any(not _zz_divmod(ints, prim)[1] for _n, prim in _cyclotomic_table(two_d)):
            return
        L = Poly.from_ints(ints, F(1, den))
        if value_at_one is not None and L(F(1)) != value_at_one:
            return
        if value_at_minus_one_not is not None and L(F(-1)) == value_at_minus_one_not:
            return
        candidate = WeilCandidate(L, p, a)
        if check_all(candidate).admissible:
            found.append((ints, candidate))

    def descend(i, half_ints, elem, sums):
        if i > d:
            finalize(half_ints, elem, sums)
            return
        base = _newton_step(elem, sums)
        c = i * den ** (i - 1)
        limit = math.comb(two_d, i) * den
        for m in range(max(-limit, -((bound[i] - base) // c)), min(limit, (base + bound[i]) // c) + 1):
            e_scaled = (m if i % 2 == 0 else -m) * den ** (i - 1)
            descend(i + 1, half_ints + [m], elem + [e_scaled], sums + [base - c * m])

    descend(1, [], [], [])
    found.sort(key=lambda pair: pair[0])
    return [candidate for _ints, candidate in found]


def segments_of(polygon) -> list[tuple[F, int]]:
    """(slope, run) of each pair of consecutive vertices of a Newton polygon."""
    vertices = polygon.vertices
    return [(F(y1 - y0, x1 - x0), x1 - x0) for (x0, y0), (x1, y1) in zip(vertices, vertices[1:])]


def slopes_with_multiplicity(polygon) -> list[F]:
    return [slope for slope, run in segments_of(polygon) for _ in range(run)]


def reference_negative_part_verdict(f: Poly, p: int) -> tuple[tuple[tuple[int, int], ...], SlopeVerdict, int]:
    """The Newton polygon's vertices, the slope verdict and the negative
    degree of f at p, as `padicpoly` once computed them: the hull of the
    valuations of the rational coefficients, its segments with `Fraction`
    slopes, and the residual of the one negative segment by `Fraction`
    division, reduced mod p."""
    hull: list[tuple[int, int]] = []
    for pt in [(i, vp(c, p)) for i, c in enumerate(f.coeffs) if c]:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (y2 - y1) * (pt[0] - x2) >= (pt[1] - y2) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(pt)
    negative = [(F(b[1] - a[1], b[0] - a[0]), b[0] - a[0]) for a, b in zip(hull, hull[1:]) if b[1] < a[1]]
    negative_degree = sum(length for _slope, length in negative)
    if not negative:
        verdict = SlopeVerdict(SlopeOutcome.NO_NEGATIVE_SLOPE, "the Newton polygon has no negative slope")
        return tuple(hull), verdict, 0
    if len(negative) >= 2:
        slopes = ", ".join(rat_to_str(slope) for slope, _length in negative)
        verdict = SlopeVerdict(
            SlopeOutcome.REDUCIBLE, f"distinct negative slopes ({slopes}) force coprime factors over Q_p"
        )
        return tuple(hull), verdict, negative_degree
    (slope, length), (i0, v0) = negative[0], hull[0]
    n, u = slope.denominator, slope.numerator
    if length == n:
        verdict = SlopeVerdict(
            SlopeOutcome.IRREDUCIBLE,
            f"single negative segment of slope {rat_to_str(slope)} with no interior lattice point",
        )
        return tuple(hull), verdict, negative_degree
    scaled = [f.coefficient(i0 + j * n) / F(p) ** (v0 + j * u) for j in range(length // n + 1)]
    residual = _gfp.monic(_gfp.trim([c.numerator * pow(c.denominator, -1, p) % p for c in scaled]), p)
    distinct = len(_gfp.fixed_space(residual, p))
    if distinct >= 2:
        verdict = SlopeVerdict(
            SlopeOutcome.REDUCIBLE,
            f"residual polynomial splits into {distinct} distinct irreducible factors over F_{p}",
        )
        return tuple(hull), verdict, negative_degree
    mult = _gfp.single_factor_multiplicity(residual, p)
    if mult == 1:
        verdict = SlopeVerdict(
            SlopeOutcome.IRREDUCIBLE, f"single negative segment with irreducible residual polynomial over F_{p}"
        )
        return tuple(hull), verdict, negative_degree
    verdict = SlopeVerdict(
        SlopeOutcome.UNKNOWN,
        f"residual polynomial is a proper power (multiplicity {mult}) of one irreducible; "
        "first-order slope data cannot decide",
    )
    return tuple(hull), verdict, negative_degree


def gfp_add(f: list[int], g: list[int], p: int) -> list[int]:
    n = max(len(f), len(g))
    return _gfp.trim([((f[i] if i < len(f) else 0) + (g[i] if i < len(g) else 0)) % p for i in range(n)])


def gfp_squarefree_decomposition(f: list[int], p: int) -> list[tuple[list[int], int]]:
    """Monic squarefree decomposition over F_p, handling f' = 0 via p-th roots."""
    f = _gfp.monic(f, p)
    if _gfp.degree(f) < 1:
        return []
    out: list[tuple[list[int], int]] = []

    def recurse(g: list[int], mult: int) -> None:
        d = _gfp.derivative(g, p)
        if not d:
            # g = h(x**p) = h(x)**p since the base field is F_p.
            h = _gfp.trim([g[i] for i in range(0, len(g), p)])
            recurse(h, mult * p)
            return
        w = _gfp.gcd(g, d, p)
        v = _gfp.divmod_(g, w, p)[0]
        i = 1
        while _gfp.degree(v) > 0:
            y = _gfp.gcd(v, w, p)
            z = _gfp.divmod_(v, y, p)[0]
            if _gfp.degree(z) > 0:
                out.append((z, mult * i))
            v = y
            w = _gfp.divmod_(w, y, p)[0]
            i += 1
        if _gfp.degree(w) > 0:
            recurse(w, mult)

    recurse(f, 1)
    merged: dict[tuple[int, ...], tuple[list[int], int]] = {}
    for g, m in out:
        key = tuple(g)
        if key in merged:
            merged[key] = (g, merged[key][1] + m)
        else:
            merged[key] = (g, m)
    return sorted(merged.values(), key=lambda gm: (_gfp.degree(gm[0]), gm[0]))


def gfp_factor(f: list[int], p: int) -> tuple[int, list[tuple[list[int], int]]]:
    """Complete factorization over F_p by Yun's algorithm and Berlekamp:
    (lead unit, [(monic irreducible, mult)])."""
    if not f:
        raise ZeroDivisionError("cannot factor the zero polynomial")
    lead = f[-1] % p
    out: list[tuple[list[int], int]] = []
    for g, mult in gfp_squarefree_decomposition(f, p):
        for irr in _gfp.berlekamp(g, p):
            out.append((irr, mult))
    out.sort(key=lambda gm: (_gfp.degree(gm[0]), gm[0]))
    return lead, out


def monic_polys_mod_p(p: int, degree: int):
    """Every monic polynomial of the given degree over F_p."""
    for encoded in range(p**degree):
        coeffs = []
        for _ in range(degree):
            coeffs.append(encoded % p)
            encoded //= p
        yield coeffs + [1]


def test_is_prime_small():
    primes = [2, 3, 5, 7, 11, 13, 97, 101, 7919]
    composites = [0, 1, 4, 9, 91, 561, 1105, 2047 * 3]
    assert all(_intfactor.is_prime(p) for p in primes)
    assert not any(_intfactor.is_prime(c) for c in composites)


def test_is_prime_carmichael_and_strong_pseudoprimes():
    assert not _intfactor.is_prime(341550071728321)
    # a strong pseudoprime to every prime base 2..37
    assert not _intfactor.is_prime(318665857834031151167461)
    assert _intfactor.factorize(318665857834031151167461) == {399165290221: 1, 798330580441: 1}
    assert _intfactor.is_prime(2**61 - 1)


def test_factorize_round_trip():
    for n in [1, 2, 12, 360, 97, 2**10 * 3**4 * 7, 999983 * 999979]:
        factors = _intfactor.factorize(n)
        prod = 1
        for p, e in factors.items():
            assert _intfactor.is_prime(p)
            prod *= p**e
        assert prod == n
    # the memo behind factorize is not shared with its callers
    _intfactor.factorize(999983 * 999979)[999983] = 5
    assert _intfactor.factorize(999983 * 999979) == {999979: 1, 999983: 1}
    # the root of a square is factored once, and so is each split part
    _intfactor._large_factors.cache_clear()
    splits = _intfactor.COUNTERS["pollard_rho_splits"]
    assert _intfactor.factorize((1000000007 * 1000000009) ** 2) == {1000000007: 2, 1000000009: 2}
    assert _intfactor.COUNTERS["pollard_rho_splits"] == splits + 1


def _prime_at_least(n: int) -> int:
    while not _intfactor.is_prime(n):
        n += 1
    return n


# 999,999,937 is the largest prime below 10**9
_PRIMES = st.integers(10**5, 999_999_937).map(_prime_at_least)


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(
        st.builds(operator.mul, _PRIMES, _PRIMES),
        _PRIMES.map(lambda p: p * p),
        st.builds(pow, st.sampled_from((3, 101)) | _PRIMES, st.integers(1, 5)),
    )
)
def test_factorize_semiprimes_squares_and_prime_powers(n):
    factors = _intfactor.factorize(n)
    assert all(_intfactor.is_prime(p) for p in factors)
    assert math.prod(p**e for p, e in factors.items()) == n


def test_squarefree_part():
    assert square_class(F(1)).squarefree == 1
    assert square_class(F(18)).squarefree == 2
    assert square_class(F(360)).squarefree == 10
    assert square_class(F(225)).squarefree == 1


def test_gfp_divmod_and_gcd():
    p = 5
    f = _gfp.trim([c % p for c in [1, 0, 4, 3]])
    g = _gfp.trim([c % p for c in [2, 1]])
    q, r = _gfp.divmod_(f, g, p)
    assert gfp_add(_gfp.mul(q, g, p), r, p) == f
    assert _gfp.degree(r) < _gfp.degree(g)


def test_gfp_gcdex_identity():
    p = 7
    f = _gfp.trim([c % p for c in [1, 2, 3, 1]])
    g = _gfp.trim([c % p for c in [4, 0, 1]])
    s, t, h = gcdex(f, g, p)
    lhs = gfp_add(_gfp.mul(s, f, p), _gfp.mul(t, g, p), p)
    assert lhs == h


def brute_force_irreducible(f, p):
    """Irreducibility over F_p by trial division with all lower-degree monics."""
    n = _gfp.degree(f)
    if n < 1:
        return False
    for d in range(1, n // 2 + 1):
        for g in monic_polys_mod_p(p, d):
            if not _gfp.rem(f, g, p):
                return False
    return True


def test_berlekamp_against_brute_force():
    for p in (2, 3, 5):
        for encoded in range(1, p**3):
            coeffs = []
            value = encoded
            for _ in range(3):
                coeffs.append(value % p)
                value //= p
            f = _gfp.trim(coeffs + [1])
            if _gfp.degree(f) != 3 or not _gfp.is_squarefree(f, p):
                continue
            factors = _gfp.berlekamp(f, p)
            product = [1]
            for g in factors:
                product = _gfp.mul(product, g, p)
            assert product == f
            assert (len(factors) == 1) == brute_force_irreducible(f, p)


def test_gfp_factor_with_multiplicities():
    p = 3
    f = _gfp.mul(
        _gfp.mul([1, 1], [1, 1], p),  # (1 + x)^2
        [1, 0, 1],  # x^2 + 1, irreducible mod 3
        p,
    )
    lead, factors = gfp_factor(f, p)
    rebuilt = [lead]
    for g, m in factors:
        for _ in range(m):
            rebuilt = _gfp.mul(rebuilt, g, p)
    assert rebuilt == f
    assert sorted(m for _, m in factors) == [1, 2]


def test_gfp_frobenius_power_decomposition():
    # x^4 + x^2 + 1 = (x^2 + x + 1)^2 over F_2
    p = 2
    f = [1, 0, 1, 0, 1]
    parts = gfp_squarefree_decomposition(f, p)
    assert parts == [([1, 1, 1], 2)]


def gfp_power(f: list[int], m: int, p: int) -> list[int]:
    out = [1]
    for _ in range(m):
        out = _gfp.mul(out, f, p)
    return out


def test_fixed_space_counts_distinct_factors_and_multiplicity():
    """For every monic f of small degree, the fixed space has one dimension
    per distinct irreducible factor, and a power of one irreducible has the
    multiplicity of the reference factorization, p | m included."""
    cases = [
        (f, p)
        for p, top in ((2, 6), (3, 4), (5, 4))
        for n in range(1, top + 1)
        for f in monic_polys_mod_p(p, n)
    ]
    cases += [
        (gfp_power([1, 1, 1], 2, 2), 2),  # (x^2 + x + 1)^2, m = p
        (gfp_power([1, 1, 1], 4, 2), 2),  # m = p^2
        (gfp_power([1, 1, 0, 1], 6, 2), 2),  # m = 2 * 3
        (gfp_power([1, 0, 1], 3, 3), 3),  # (x^2 + 1)^3, m = p
        (gfp_power([1, 0, 1], 6, 3), 3),  # m = 2 * p
        (gfp_power([2, 1], 5, 5), 5),  # (x + 2)^5, m = p
    ]
    powers = 0
    for f, p in cases:
        _, factors = gfp_factor(f, p)
        assert len(_gfp.fixed_space(f, p)) == len(factors), (f, p)
        if len(factors) == 1:
            assert _gfp.single_factor_multiplicity(f, p) == factors[0][1], (f, p)
            powers += factors[0][1] % p == 0
    assert powers >= 10


def determinant_mod_p(matrix: list[list[int]], p: int) -> int:
    """The determinant over F_p by cofactor expansion along the first row."""
    if not matrix:
        return 1
    minors = ([row[:j] + row[j + 1 :] for row in matrix[1:]] for j in range(len(matrix)))
    return sum((-1) ** j * a * determinant_mod_p(minor, p) for j, (a, minor) in enumerate(zip(matrix[0], minors))) % p


@settings(max_examples=300, deadline=None)
@given(st.sampled_from((2, 3, 5, 7)), st.integers(1, 5), st.data())
def test_gfp_inverse_against_the_determinant(p, n, data):
    # an invertible matrix times its inverse is the identity mod p, and a
    # singular one has no inverse; the input is left as it was
    matrix = data.draw(st.lists(st.lists(st.integers(0, p - 1), min_size=n, max_size=n), min_size=n, max_size=n))
    copy = [row[:] for row in matrix]
    inverse = _gfp.inverse(matrix, p)
    assert matrix == copy
    if determinant_mod_p(matrix, p) == 0:
        assert inverse is None
    else:
        product = [[sum(a * b for a, b in zip(row, column)) % p for column in zip(*inverse)] for row in matrix]
        assert product == [[int(i == j) for j in range(n)] for i in range(n)]


def reference_fixed_space(f: list[int], p: int) -> list[list[int]]:
    """`_gfp.fixed_space` with the Frobenius rows built by products: x**p mod
    f by repeated squaring, then each row x**(i*p) mod f the one before
    times x**p, reduced mod f."""
    n = _gfp.degree(f)
    xp, base, e = [1], _gfp.rem([0, 1], f, p), p
    while e:
        if e & 1:
            xp = _gfp.rem(_gfp.mul(xp, base, p), f, p)
        base = _gfp.rem(_gfp.mul(base, base, p), f, p)
        e >>= 1
    rows, current = [], [1]
    for _ in range(n):
        rows.append((current + [0] * n)[:n])
        current = _gfp.rem(_gfp.mul(current, xp, p), f, p)
    return _gfp._nullspace_mod_p([[(rows[j][i] - (i == j)) % p for j in range(n)] for i in range(n)], p)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from((3, 5, 7, 11, 13, 17, 31, 1_000_003)), st.integers(1, 10), st.data())
def test_fixed_space_matches_the_frobenius_rows_by_products(p, n, data):
    # x**p mod f by squaring from the high bit of p, one shift for each set
    # bit, gives the rows of the low-bit-first reference, so the basis is
    # the same, vector for vector
    f = data.draw(st.lists(st.integers(0, p - 1), min_size=n, max_size=n)) + [1]
    assert _gfp.fixed_space(f, p) == reference_fixed_space(f, p)


# ---------------------------------------------------------------------------
# the integer trace forms and absolute polynomials against their `Fraction`
# and `Poly` references

POOLS = json.loads((pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "pools.json").read_text())


def _quadratic_composita():
    """(cm, ext): each quadratic pool member extended to degrees 8 through
    20."""
    for pool in POOLS["pools"]:
        if pool["degree"] == 2:
            for member in pool["members"]:
                cm = member_field(member, pool["p"], pool["a"])
                for degree in range(8, 21, 2):
                    yield cm, build_extension(cm, pool["p"], degree)


def test_absolute_defining_matches_horner_over_poly():
    count = 0
    for cm, ext in _quadratic_composita():
        assert ext.kind == "eisenstein_compositum"
        P, f = ext.real_subfield.defining, cm.field.defining
        assert _absolute_defining(P, f) == poly_absolute_defining(P, f), P
        count += 1
    assert count == 84


def _own_degree_extensions():
    for pool in POOLS["pools"]:
        for member in pool["members"]:
            cm = member_field(member, pool["p"], pool["a"])
            yield build_extension(cm, pool["p"], cm.field.degree)


def test_trace_forms_match_the_fraction_builders():
    # the trace form of every pool member at its own degree and of every
    # quadratic member at degrees 8 to 20, each with
    # the scalar of signature (1, d - 1), and the Hankel traces of that
    # scalar on the real subfield
    count = 0
    for ext in [*_own_degree_extensions(), *(ext for _cm, ext in _quadratic_composita())]:
        real = ext.real_subfield
        lam = find_lambda(real, (1, real.degree - 1))
        assert trace_form(ext, lam).gram == fraction_trace_gram(ext, lam), (ext.absolute, lam)
        traces, den = _hankel_traces(lam % real.defining, real.defining, 2 * real.degree + 1)
        assert [F(t, den) for t in traces] == fraction_hankel_traces(lam, real.defining, 2 * real.degree + 1)
        count += 1
    assert count == 466 + 84


@st.composite
def _symmetric_rational_rows(draw):
    """Symmetric n x n rows, n <= 5, of pairs (value, the value written
    unreduced as "num*k/den*k"): negative and zero entries, and denominators
    that often share a factor with every numerator."""
    entry = st.builds(
        lambda num, den, k: (F(num, den), f"{num * k}/{den * k}"),
        st.integers(-60, 60),
        st.integers(1, 12),
        st.integers(1, 3),
    )
    n = draw(st.integers(0, 5))
    upper = {(i, j): draw(entry) for i in range(n) for j in range(i, n)}
    return [[upper[min(i, j), max(i, j)] for j in range(n)] for i in range(n)]


@settings(max_examples=200, deadline=None)
@given(_symmetric_rational_rows())
def test_gram_matrix_json_round_trip(pairs):
    values = [[v for v, _ in row] for row in pairs]
    expected = [[rat_to_str(v) for v in row] for row in values]
    gram = GramMatrix.from_rows(values)
    assert gram.to_json() == expected
    assert gram_entries(gram) == tuple(map(tuple, values))
    assert GramMatrix.from_json({"gram": [[s for _, s in row] for row in pairs]}) == gram
    assert math.gcd(gram.den, *(x for row in gram.rows for x in row)) == 1


def test_gram_matrix_is_reduced_over_one_denominator():
    gram = GramMatrix([[2, -6], [-6, 4]], 4)
    assert (gram.rows, gram.den) == (((1, -3), (-3, 2)), 2)
    assert gram.to_json() == [["1/2", "-3/2"], ["-3/2", "1"]]
    assert GramMatrix.from_json({"gram": [["4/2", "-6/4"], ["-3/2", "2/2"]]}).to_json() == [["2", "-3/2"], ["-3/2", "1"]]


@pytest.mark.parametrize(
    "rows",
    [
        [["1", "2"], ["3", "1"]],
        [["1", "1/2"], ["1/3", "1"]],
        [["1", "2"]],
        [["1"], ["1", "2"]],
        [["1", "0"], ["0"]],
    ],
)
def test_gram_matrix_from_json_refuses_non_square_or_non_symmetric(rows):
    with pytest.raises(DomainError):
        GramMatrix.from_json({"gram": rows})
