"""Exact arithmetic over Q: rationals, dense polynomials, factorization,
Sturm counts, cyclotomic detection, resultants and square classes.

Everything here is pure and deterministic.  Polynomials are stored dense in
ascending degree; no floating point enters any code path.  `Poly` holds
`fractions.Fraction` coefficients (re-exported as `Rat`) and is the type at
every public boundary.  The exact kernels behind it (gcd, Yun's squarefree
decomposition, Hensel lifting and Zassenhaus recombination, Sturm chains and
their sign evaluations) run on primitive integer coefficient lists.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from . import _gfp, _intfactor
from ._linalg import fraction_determinant

Rat = Fraction

# Process-wide call tallies of the two costly entry points; `pipeline.run`
# reports their growth over one run as telemetry counters.
COUNTERS = {"factor_with_unit_calls": 0, "sturm_chain_builds": 0}


class DomainError(ValueError):
    """An operation was called outside its mathematical domain."""


# ---------------------------------------------------------------------------
# rational serialization ("num/den", denominator omitted when 1)

def rat_to_str(r: Fraction) -> str:
    r = Fraction(r)
    if r.denominator == 1:
        return str(r.numerator)
    return f"{r.numerator}/{r.denominator}"


def rat_from_str(s) -> Fraction:
    if isinstance(s, int):
        return Fraction(s)
    if not isinstance(s, str):
        raise DomainError(f"expected a rational string, got {s!r}")
    return Fraction(s.strip())


# ---------------------------------------------------------------------------
# polynomials


class Poly:
    """A dense univariate polynomial over Q, coefficients ascending.

    Immutable; the zero polynomial has an empty coefficient tuple and
    degree -1.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    # -- basic structure ---------------------------------------------------

    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self) -> Fraction:
        if self.is_zero:
            raise DomainError("the zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def constant(self) -> Fraction:
        return self.coeffs[0] if self.coeffs else Fraction(0)

    def coefficient(self, i: int) -> Fraction:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else Fraction(0)

    def __bool__(self) -> bool:
        return not self.is_zero

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"Poly([{', '.join(rat_to_str(c) for c in self.coeffs)}])"

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        return Poly(a + b for a, b in itertools.zip_longest(self.coeffs, other.coeffs, fillvalue=Fraction(0)))

    def __sub__(self, other: "Poly") -> "Poly":
        return Poly(a - b for a, b in itertools.zip_longest(self.coeffs, other.coeffs, fillvalue=Fraction(0)))

    def __neg__(self) -> "Poly":
        return Poly(-c for c in self.coeffs)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Poly(c * other for c in self.coeffs)
        if self.is_zero or other.is_zero:
            return Poly()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise DomainError("negative polynomial power")
        result = Poly([1])
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __divmod__(self, other: "Poly") -> tuple["Poly", "Poly"]:
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dn, dd = len(rem) - 1, other.degree()
        if dn < dd:
            return Poly(), self
        inv = 1 / other.leading()
        quo = [Fraction(0)] * (dn - dd + 1)
        for shift in range(dn - dd, -1, -1):
            c = rem[shift + dd] * inv
            quo[shift] = c
            if c:
                for i, b in enumerate(other.coeffs):
                    rem[shift + i] -= c * b
        return Poly(quo), Poly(rem)

    def __floordiv__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[1]

    def divides(self, other: "Poly") -> bool:
        return (other % self).is_zero

    # -- calculus and evaluation -------------------------------------------

    def __call__(self, x: Fraction) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * Fraction(x) + c
        return acc

    def derivative(self) -> "Poly":
        return Poly(i * c for i, c in enumerate(self.coeffs) if i > 0)

    def compose(self, inner: "Poly") -> "Poly":
        acc = Poly()
        for c in reversed(self.coeffs):
            acc = acc * inner + Poly([c])
        return acc

    # -- normal forms --------------------------------------------------------

    def monic(self) -> "Poly":
        if self.is_zero:
            raise DomainError("the zero polynomial cannot be made monic")
        return self * (1 / self.leading())

    def reverse(self) -> "Poly":
        """T**deg * f(1/T); trailing zero coefficients of f drop the degree."""
        return Poly(reversed(self.coeffs))

    def has_integer_coeffs(self) -> bool:
        return all(c.denominator == 1 for c in self.coeffs)

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.leading() == 1

    # -- serialization ---------------------------------------------------------

    def to_strs(self) -> list[str]:
        return [rat_to_str(c) for c in self.coeffs]

    @staticmethod
    def from_strs(items) -> "Poly":
        return Poly([rat_from_str(s) for s in items])


X = Poly([0, 1])


# ---------------------------------------------------------------------------
# integer coefficient lists (ascending, no trailing zeros)

_IntPoly = list


def _zz_trim(f):
    while f and f[-1] == 0:
        f.pop()
    return f


def _zz_content(f):
    c = 0
    for a in f:
        c = math.gcd(c, abs(a))
    return c


def _zz_primitive(f):
    c = _zz_content(f)
    if c == 0:
        return []
    return [a // c for a in f]


def _zz_primitive_parts(f: Poly) -> tuple[Fraction, _IntPoly]:
    """f = c * g with g a primitive integer list of positive leading
    coefficient; the zero polynomial gives (0, [])."""
    if f.is_zero:
        return Fraction(0), []
    den = 1
    for c in f.coeffs:
        den = den * c.denominator // math.gcd(den, c.denominator)
    ints = [c.numerator * (den // c.denominator) for c in f.coeffs]
    g = _zz_content(ints)
    if ints[-1] < 0:
        g = -g
    return Fraction(g, den), [a // g for a in ints]


def _zz_derivative(f):
    return [i * a for i, a in enumerate(f) if i > 0]


def _zz_mul(f, g):
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] += a * b
    return _zz_trim(out)


def _zz_add(f, g):
    out = [0] * max(len(f), len(g))
    for i, a in enumerate(f):
        out[i] += a
    for i, b in enumerate(g):
        out[i] += b
    return _zz_trim(out)


def _zz_sub(f, g):
    out = [0] * max(len(f), len(g))
    for i, a in enumerate(f):
        out[i] += a
    for i, b in enumerate(g):
        out[i] -= b
    return _zz_trim(out)


def _zz_trunc(f, m):
    """Reduce coefficients into the symmetric residue system mod m."""
    out = []
    half = m // 2
    for c in f:
        c %= m
        if c > half:
            c -= m
        out.append(c)
    return _zz_trim(out)


def _zz_divmod(f, g):
    """Integer long division f = q*g + r with deg r < deg g.

    Raises ArithmeticError at the first quotient coefficient that is not an
    integer; that never happens when g is monic, or when g is primitive and
    divides f over Q (Gauss's lemma).
    """
    dg = len(g) - 1
    lead = g[-1]
    rem = list(f)
    if len(rem) <= dg:
        return [], rem
    quo = [0] * (len(rem) - dg)
    for shift in range(len(rem) - 1 - dg, -1, -1):
        c, frac = divmod(rem[shift + dg], lead)
        if frac:
            raise ArithmeticError("non-integral quotient in integer division")
        quo[shift] = c
        if c:
            for i, b in enumerate(g):
                rem[shift + i] -= c * b
    return quo, _zz_trim(rem[:dg])


def _zz_exact_quotient(f, g):
    """f / g for a g known to divide f in Z[x]."""
    q, r = _zz_divmod(f, g)
    if r:
        raise ArithmeticError("inexact polynomial division")
    return q


def _zz_prem(f, g):
    """Pseudo-remainder: the remainder of |lc(g)|**(deg f - deg g + 1) * f on
    division by g, hence a positive multiple of the remainder over Q."""
    dg = len(g) - 1
    scale = abs(g[-1])
    sign = 1 if g[-1] > 0 else -1
    rem = list(f)
    for top in range(len(rem) - 1, dg - 1, -1):
        c = sign * rem[top]
        shift = top - dg
        if scale != 1:
            rem[:top] = [scale * a for a in rem[:top]]
        if c:
            for i in range(dg):
                rem[shift + i] -= c * g[i]
    return _zz_trim(rem[:dg])


def _zz_gcd(f, g):
    """Primitive gcd in Z[x] with positive leading coefficient, by the
    primitive polynomial remainder sequence; gcd(f, 0) is f's primitive
    part and gcd(0, 0) is []."""
    a, b = _zz_primitive(f), _zz_primitive(g)
    while b:
        a, b = b, _zz_primitive(_zz_prem(a, b))
    if a and a[-1] < 0:
        a = [-c for c in a]
    return a


def _zz_squarefree(f):
    """The squarefree part of a primitive f with positive leading
    coefficient, itself primitive with positive leading coefficient."""
    if len(f) < 2:
        return [1]
    return _zz_exact_quotient(f, _zz_gcd(f, _zz_derivative(f)))


# ---------------------------------------------------------------------------
# gcd, squarefree machinery


def poly_gcd(f: Poly, g: Poly) -> Poly:
    """Monic gcd over Q (gcd with 0 is the monic normalization of the other)."""
    h = _zz_gcd(_zz_primitive_parts(f)[1], _zz_primitive_parts(g)[1])
    return Poly(h).monic() if h else Poly()


def squarefree_part(f: Poly) -> Poly:
    if f.is_zero:
        raise DomainError("squarefree part of the zero polynomial")
    return Poly(_zz_squarefree(_zz_primitive_parts(f)[1])).monic()


def _zz_yun(f) -> list[tuple[_IntPoly, int]]:
    """Yun's algorithm on a primitive f with positive leading coefficient:
    the nonconstant g_i with f = prod g_i**i, ascending i.

    Every gcd is primitive with positive leading coefficient, so every
    quotient below is exact in Z[x] and the g_i come out primitive with
    positive leading coefficient.
    """
    parts: list[tuple[_IntPoly, int]] = []
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


def squarefree_decomposition(f: Poly) -> tuple[Fraction, list[tuple[Poly, int]]]:
    """Yun's algorithm: f = unit * prod g_i**i with g_i primitive integral,
    positive leading, squarefree and pairwise coprime."""
    if f.is_zero:
        raise DomainError("cannot decompose the zero polynomial")
    unit, prim = _zz_primitive_parts(f)
    return unit, [(Poly(h), mult) for h, mult in _zz_yun(prim)]


# ---------------------------------------------------------------------------
# Hensel lifting and Zassenhaus factorization over Z


def _zz_l1(f):
    return sum(abs(a) for a in f)


def _zz_max_norm(f):
    return max(abs(a) for a in f) if f else 0


def _hensel_step(m, f, g, h, s, t):
    """One quadratic Hensel step: from a factorization mod m to one mod m**2.

    Inputs satisfy f = g*h (mod m), s*g + t*h = 1 (mod m), lc(h) = 1.
    """
    mm = m * m
    e = _zz_trunc(_zz_sub(f, _zz_mul(g, h)), mm)
    q, r = _zz_divmod(_zz_mul(s, e), h)
    q = _zz_trunc(q, mm)
    r = _zz_trunc(r, mm)
    u = _zz_add(_zz_mul(t, e), _zz_mul(q, g))
    g1 = _zz_trunc(_zz_add(g, u), mm)
    h1 = _zz_trunc(_zz_add(h, r), mm)
    b = _zz_trunc(_zz_sub(_zz_add(_zz_mul(s, g1), _zz_mul(t, h1)), [1]), mm)
    c, d = _zz_divmod(_zz_mul(s, b), h1)
    c = _zz_trunc(c, mm)
    d = _zz_trunc(d, mm)
    u = _zz_add(_zz_mul(t, b), _zz_mul(c, g1))
    s1 = _zz_trunc(_zz_sub(s, d), mm)
    t1 = _zz_trunc(_zz_sub(t, u), mm)
    return g1, h1, s1, t1


def _hensel_lift(p, f, modular_factors, l):
    """Lift monic pairwise-coprime factors of f mod p to factors mod p**l."""
    r = len(modular_factors)
    lc = f[-1]
    pl = p ** l
    if r == 1:
        inv = pow(lc % pl, -1, pl) if math.gcd(lc, pl) == 1 else None
        if inv is None:
            raise ArithmeticError("leading coefficient not a unit mod p**l")
        return [_zz_trunc([c * inv for c in f], pl)]
    k = r // 2
    d = max(1, math.ceil(math.log2(l)))
    g = [lc % p]
    for fi in modular_factors[:k]:
        g = [c % p for c in _zz_mul(g, fi)]
        g = _gfp.trim(g)
    h = list(modular_factors[k])
    for fi in modular_factors[k + 1:]:
        h = [c % p for c in _zz_mul(h, fi)]
        h = _gfp.trim(h)
    s, t, one = _gfp.gcdex(g, h, p)
    if one != [1]:
        raise ArithmeticError("modular factors are not coprime")
    g, h = _zz_trunc(g, p), _zz_trunc(h, p)
    s, t = _zz_trunc(s, p), _zz_trunc(t, p)
    m = p
    for _ in range(d):
        g, h, s, t = _hensel_step(m, f, g, h, s, t)
        m = m * m
    return _hensel_lift(p, g, modular_factors[:k], l) + _hensel_lift(p, h, modular_factors[k:], l)


def _choose_factoring_prime(f):
    """A small odd prime keeping f squarefree, preferring few modular factors."""
    lc = f[-1]
    found = []
    p = 3
    while len(found) < 3:
        if _intfactor.is_prime(p) and lc % p != 0:
            fp = _gfp.from_coeffs(f, p)
            if _gfp.degree(fp) == len(f) - 1 and _gfp.is_squarefree(fp, p):
                factors = _gfp.berlekamp(_gfp.monic(fp, p), p)
                found.append((p, factors))
                if len(factors) <= 2:
                    break
        p += 2
        if p > 10_000:
            raise ArithmeticError("no suitable factoring prime found")
    return min(found, key=lambda pf: (len(pf[1]), pf[0]))


def _zassenhaus(f):
    """Irreducible integer factors of a primitive squarefree f, lc(f) > 0."""
    n = len(f) - 1
    if n == 1:
        return [list(f)]
    lead = f[-1]
    const = f[0]
    a_norm = _zz_max_norm(f)
    # Knuth-Cohen style Mignotte bound on factor coefficients
    bound = (math.isqrt(n + 1) + 1) * (2 ** n) * a_norm * abs(lead)
    p, modular = _choose_factoring_prime(f)
    l = 1
    pl = p
    while pl < 2 * bound + 1:
        pl *= p
        l += 1
    lifted = _hensel_lift(p, f, modular, l)

    active = list(range(len(lifted)))
    factors = []
    size = 1
    current = list(f)
    b = lead
    fc = const
    while 2 * size <= len(active):
        advanced = False
        for combo in itertools.combinations(active, size):
            trial = [b]
            for i in combo:
                trial = _zz_trunc(_zz_mul(trial, lifted[i]), pl)
            trial_prim = _zz_primitive(trial)
            tc = trial_prim[0] if trial_prim else 0
            if tc and fc % tc != 0:
                continue
            rest = [b]
            for i in active:
                if i not in combo:
                    rest = _zz_trunc(_zz_mul(rest, lifted[i]), pl)
            if _zz_l1(trial) * _zz_l1(rest) <= bound:
                # Gauss: a primitive factor leaves an integral quotient, so a
                # non-integral step or a remainder means no factor
                try:
                    q, r = _zz_divmod(current, trial_prim)
                except ArithmeticError:
                    continue
                if r:
                    continue
                factors.append(trial_prim)
                current = _zz_primitive(q)
                active = [i for i in active if i not in combo]
                b = current[-1] if current else 1
                fc = current[0] if current else 1
                advanced = True
                break
        if not advanced:
            size += 1
    if current and len(current) > 1:
        factors.append(_zz_primitive(current))
    out = []
    for g in factors:
        if g[-1] < 0:
            g = [-c for c in g]
        out.append(g)
    return out


# ---------------------------------------------------------------------------
# factorization over Q


def factor_with_unit(f: Poly) -> tuple[Fraction, list[tuple[Poly, int]]]:
    """f = unit * prod g_i**m_i with g_i irreducible, primitive integral,
    positive leading coefficient; deterministic order."""
    if f.is_zero:
        raise DomainError("cannot factor the zero polynomial")
    COUNTERS["factor_with_unit_calls"] += 1
    unit, prim = _zz_primitive_parts(f)
    factors: list[tuple[Poly, int]] = []
    for g, mult in _zz_yun(prim):
        for irr in _zassenhaus(g):
            factors.append((Poly(irr), mult))
    factors.sort(key=lambda fm: (fm[0].degree(), fm[0].coeffs))
    return unit, factors


def factor_over_Q(f: Poly) -> list[tuple[Poly, int]]:
    """Irreducible factorization over Q; factors are primitive integral with
    positive leading coefficient, ordered by degree then coefficients."""
    return factor_with_unit(f)[1]


def is_irreducible(f: Poly) -> bool:
    if f.degree() < 1:
        return False
    factors = factor_over_Q(f)
    return len(factors) == 1 and factors[0][1] == 1 and factors[0][0].degree() == f.degree()


# ---------------------------------------------------------------------------
# Sturm sequences and real-root isolation


def _zz_sturm_chain(f):
    """The Sturm chain of a squarefree integer f of degree >= 1.

    Each member after f' is the negated pseudo-remainder divided by its
    positive content: a positive multiple of the negated remainder over Q,
    so every sign, and hence every count, is that of the classical chain.
    """
    chain = [f, _zz_derivative(f)]
    while len(chain[-1]) > 1:
        r = _zz_prem(chain[-2], chain[-1])
        if not r:
            break
        c = _zz_content(r)
        chain.append([-a // c for a in r])
    return chain


def _zz_eval_scaled(f, num, den):
    """den**deg(f) * f(num/den) by homogeneous Horner; for den > 0 it has
    the sign of f(num/den)."""
    acc = f[-1]
    scale = 1
    for c in reversed(f[:-1]):
        scale *= den
        acc = acc * num + c * scale
    return acc


def _sign_variations(values) -> int:
    signs = [1 if v > 0 else -1 for v in values if v != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


class SturmChain:
    """The Sturm chain of a nonzero f, built once and queried many times.

    The chain runs on `squarefree`, the squarefree part of f made primitive
    with positive leading coefficient, so repeated roots are counted once;
    its members are integer coefficient lists.
    """

    __slots__ = ("squarefree", "chain")

    def __init__(self, f: Poly):
        if f.is_zero:
            raise DomainError("the zero polynomial has no root count")
        COUNTERS["sturm_chain_builds"] += 1
        g = _zz_squarefree(_zz_primitive_parts(f)[1])
        self.squarefree = Poly(g)
        self.chain = _zz_sturm_chain(g) if len(g) > 1 else []

    def _variations(self, point: Fraction | None, positive: bool) -> int:
        if point is None:
            # sign at +-infinity: the leading coefficient's, flipped at
            # -infinity for odd degree (len(h) even)
            values = [h[-1] if positive or len(h) % 2 else -h[-1] for h in self.chain]
        else:
            num, den = point.numerator, point.denominator
            values = [_zz_eval_scaled(h, num, den) for h in self.chain]
        return _sign_variations(values)

    def count(self, lo: Fraction | None = None, hi: Fraction | None = None) -> int:
        """Number of distinct real roots in the half-open interval (lo, hi];
        `None` endpoints mean -infinity / +infinity."""
        return self._variations(lo, False) - self._variations(hi, True)

    def halve(self, lo: Fraction, hi: Fraction) -> tuple[Fraction, Fraction]:
        """The half of (lo, hi] holding the root, for an interval known to
        isolate exactly one root."""
        mid = (lo + hi) / 2
        if self.count(lo, mid) == 1:
            return lo, mid
        return mid, hi

    def isolate(self) -> list[tuple[Fraction, Fraction]]:
        """Disjoint rational intervals (lo, hi], one per distinct real root,
        in increasing order."""
        total = self.count()
        if total == 0:
            return []
        b = cauchy_bound(self.squarefree)
        stack = [(-b, b, total)]
        found: list[tuple[Fraction, Fraction]] = []
        while stack:
            lo, hi, k = stack.pop()
            if k == 1:
                found.append((lo, hi))
                continue
            mid = (lo + hi) / 2
            left = self.count(lo, mid)
            if left:
                stack.append((lo, mid, left))
            if k - left:
                stack.append((mid, hi, k - left))
        found.sort()
        return found


def sturm_count(f: Poly, lo: Fraction | None = None, hi: Fraction | None = None) -> int:
    """Number of distinct real roots of f in the half-open interval (lo, hi].

    `None` endpoints mean -infinity / +infinity.  Repeated roots are counted
    once (the computation runs on the squarefree part).
    """
    return SturmChain(f).count(lo, hi)


def cauchy_bound(f: Poly) -> Fraction:
    """B with every real root of f in (-B, B)."""
    lead = abs(f.leading())
    return 1 + max(abs(c) for c in f.coeffs) / lead


def isolate_real_roots(f: Poly) -> list[tuple[Fraction, Fraction]]:
    """Disjoint rational intervals (lo, hi], one per distinct real root,
    in increasing order."""
    return SturmChain(f).isolate()


# ---------------------------------------------------------------------------
# cyclotomic polynomials

_cyclotomic_cache: dict[int, Poly] = {}


def euler_phi(n: int) -> int:
    result = n
    for p in _intfactor.factorize(n):
        result -= result // p
    return result


def cyclotomic_poly(n: int) -> Poly:
    if n < 1:
        raise DomainError("cyclotomic index must be positive")
    if n in _cyclotomic_cache:
        return _cyclotomic_cache[n]
    f = Poly([-1] + [0] * (n - 1) + [1])
    for d in range(1, n):
        if n % d == 0:
            f = f // cyclotomic_poly(d)
    _cyclotomic_cache[n] = f
    return f


def is_cyclotomic(f: Poly) -> int | None:
    """The index n with f equal to the n-th cyclotomic polynomial, else None.

    Candidate indices satisfy phi(n) = deg f; since phi(n) >= sqrt(n/2), the
    search bound 3 * deg**2 is conservative.
    """
    deg = f.degree()
    if deg < 1 or not f.is_monic() or not f.has_integer_coeffs():
        return None
    bound = 3 * deg * deg
    for n in range(1, bound + 1):
        if euler_phi(n) == deg and cyclotomic_poly(n) == f:
            return n
    return None


# ---------------------------------------------------------------------------
# resultants, discriminants, interpolation


def resultant(f: Poly, g: Poly) -> Fraction:
    """Res(f, g) with the Sylvester-matrix determinant convention, so that
    Res(f, g) = lc(f)**deg(g) * prod g(alpha) over the roots of f."""
    if f.is_zero or g.is_zero:
        raise DomainError("resultant of the zero polynomial")
    m, n = f.degree(), g.degree()
    if m == 0:
        return f.leading() ** n
    if n == 0:
        return g.leading() ** m
    size = m + n
    rows: list[list[Fraction]] = []
    fc = list(reversed(f.coeffs))
    gc = list(reversed(g.coeffs))
    for i in range(n):
        rows.append([Fraction(0)] * i + fc + [Fraction(0)] * (size - m - 1 - i))
    for i in range(m):
        rows.append([Fraction(0)] * i + gc + [Fraction(0)] * (size - n - 1 - i))
    return fraction_determinant(rows)


def discriminant(f: Poly) -> Fraction:
    if f.degree() < 1:
        raise DomainError("discriminant needs degree >= 1")
    n = f.degree()
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    return sign * resultant(f, f.derivative()) / f.leading()


def lagrange_interpolate(points: list[tuple[Fraction, Fraction]]) -> Poly:
    """The unique polynomial of degree < len(points) through the points."""
    result = Poly()
    for i, (xi, yi) in enumerate(points):
        term = Poly([yi])
        for j, (xj, _) in enumerate(points):
            if i == j:
                continue
            term = term * Poly([-xj, 1]) * Fraction(1, xi - xj)
        result = result + term
    return result


def minpoly_of_beta(f: Poly) -> Poly:
    """Minimal polynomial of gamma + 1/gamma, where gamma is a root of the
    irreducible f with f(0) != 0.

    Computed from Res_T(f(T), T**2 - x*T + 1) by evaluation/interpolation;
    the resultant is a power of the minimal polynomial since all values
    gamma_i + 1/gamma_i are conjugate.
    """
    if f(Fraction(0)) == 0:
        raise DomainError("f must not vanish at 0")
    if not is_irreducible(f):
        raise DomainError("f must be irreducible over Q")
    n = f.degree()
    points = []
    for k in range(n + 1):
        x0 = Fraction(k)
        points.append((x0, resultant(f, Poly([1, -x0, 1]))))
    res = lagrange_interpolate(points)
    h = squarefree_part(res)
    # sanity: h(T + 1/T), cleared of denominators, must be divisible by f
    numerator = Poly()
    m = h.degree()
    for i, c in enumerate(h.coeffs):
        # c * (T^2+1)^i * T^(m-i)
        term = Poly([0] * (m - i) + [c]) * (Poly([1, 0, 1]) ** i)
        numerator = numerator + term
    if not (numerator % f).is_zero:
        raise ArithmeticError("minimal polynomial verification failed")
    return h.monic()


# ---------------------------------------------------------------------------
# square classes


@dataclass(frozen=True)
class SquareClass:
    """An element of Q^x / (Q^x)^2 as a sign and a squarefree positive part."""

    sign: int
    squarefree: int

    def __post_init__(self):
        if self.sign not in (1, -1) or self.squarefree < 1:
            raise DomainError("invalid square class")

    def times(self, other: "SquareClass") -> "SquareClass":
        prod = self.squarefree * other.squarefree
        return SquareClass(self.sign * other.sign, _intfactor.squarefree_part(prod))

    def as_fraction(self) -> Fraction:
        return Fraction(self.sign * self.squarefree)

    @property
    def is_trivial(self) -> bool:
        return self.sign == 1 and self.squarefree == 1

    def __str__(self) -> str:
        return str(self.sign * self.squarefree)


SQUARE_CLASS_ONE = SquareClass(1, 1)


def square_class(r: Fraction) -> SquareClass:
    r = Fraction(r)
    if r == 0:
        raise DomainError("0 has no square class")
    sign = 1 if r > 0 else -1
    n = abs(r.numerator) * r.denominator
    return SquareClass(sign, _intfactor.squarefree_part(n))


# ---------------------------------------------------------------------------
# symmetric-function utilities (Newton's identities)


def power_sums_from_elementary(elem: list[Fraction], count: int) -> list[Fraction]:
    """p_1..p_count from elementary symmetric values e_1..e_k (e_i = 0 beyond)."""
    e = [Fraction(c) for c in elem]
    p: list[Fraction] = []
    for k in range(1, count + 1):
        acc = Fraction(0)
        for i in range(1, min(k - 1, len(e)) + 1):
            acc += (-1) ** (i - 1) * e[i - 1] * p[k - i - 1]
        if k <= len(e):
            acc += (-1) ** (k - 1) * k * e[k - 1]
        p.append(acc)
    return p


def elementary_from_power_sums(p: list[Fraction], count: int) -> list[Fraction]:
    """e_1..e_count from power sums p_1..p_count."""
    e: list[Fraction] = []
    for k in range(1, count + 1):
        acc = Fraction(0)
        for i in range(1, k + 1):
            prev = e[k - i - 1] if k - i >= 1 else Fraction(1)
            acc += (-1) ** (i - 1) * prev * p[i - 1]
        e.append(acc / k)
    return e


def trace_power_sums(f: Poly, count: int) -> list[Fraction]:
    """p_0..p_count for the roots of monic f (p_0 = deg f)."""
    if not f.is_monic():
        raise DomainError("trace power sums need a monic polynomial")
    n = f.degree()
    elem = [(-1) ** i * f.coefficient(n - i) for i in range(1, n + 1)]
    return [Fraction(n)] + power_sums_from_elementary(elem, count)
