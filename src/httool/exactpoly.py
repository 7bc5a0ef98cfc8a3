"""Exact arithmetic over Q: rationals, dense polynomials, factorization,
Sturm counts, cyclotomic detection, discriminants and square classes.

Everything here is pure and deterministic; no floating point enters any code
path.  `Poly` is the type at every public boundary.  It stores a rational
`content` times `prim`, a primitive integer coefficient tuple in ascending
degree with positive leading coefficient, and every operation on it runs on
`prim` through the integer-list kernels below: `+ - *`, pseudo-division
and evaluation, Hensel lifting and Zassenhaus recombination, Sturm sign
evaluations, and gcds, Sturm chains and discriminants, all three read off
one remainder sequence.

A square class in Q^x / (Q^x)^2 is stored as a sign and the set of primes of
odd valuation.  `square_class` factors its rational once; products of
classes are symmetric differences of prime sets and factor nothing.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from . import _gfp, _intfactor


class DomainError(ValueError):
    """An operation was called outside its mathematical domain."""


# ---------------------------------------------------------------------------
# rational serialization ("num/den", denominator omitted when 1)

def rat_to_str(r: Fraction | int) -> str:
    # an int has numerator itself and denominator 1
    if r.denominator == 1:
        return str(r.numerator)
    return f"{r.numerator}/{r.denominator}"


def _reduced_str(num: int, den: int) -> str:
    """num / den for a positive den, written in lowest terms as `rat_to_str`
    writes it, with one gcd and no `Fraction`."""
    g = math.gcd(num, den)
    return str(num // g) if g == den else f"{num // g}/{den // g}"


def int_from_json(x, name: str) -> int:
    """A JSON integer; bools and floats are refused."""
    if type(x) is not int:  # bool is a subclass of int
        raise DomainError(f"{name} must be an integer, got {x!r}")
    return x


def json_field(obj, key: str, kind: type = object):
    """obj[key] of a JSON object obj, checked to be a `kind` (an int as by
    `int_from_json`); DomainError for an obj that is no object, a missing
    key or a wrong type."""
    if not isinstance(obj, dict):
        raise DomainError(f"expected an object with key {key!r}, got {type(obj).__name__}")
    if key not in obj:
        raise DomainError(f"missing key {key!r}")
    if kind is int:
        return int_from_json(obj[key], key)
    if not isinstance(obj[key], kind):
        raise DomainError(f"{key!r} must be a {kind.__name__}, got {type(obj[key]).__name__}")
    return obj[key]


def rat_from_str(s) -> Fraction:
    if type(s) is int:
        return Fraction(s)
    if not isinstance(s, str):
        raise DomainError(f"expected a rational string, got {s!r}")
    # an ASCII integer, as most entries are, needs no parsing by Fraction
    if s.isascii() and (s[1:] if s[:1] == "-" else s).isdigit():
        return Fraction(int(s))
    try:
        return Fraction(s.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"invalid rational {s!r}: {exc}") from None


# ---------------------------------------------------------------------------
# polynomials


class Poly:
    """A dense univariate polynomial over Q, stored as `content * prim`.

    `prim` is a primitive integer tuple in ascending degree with a positive
    leading coefficient, and `content` a nonzero `Fraction` carrying the
    sign; the zero polynomial is `((), Fraction(0))` with degree -1.  The
    form is canonical, so equal polynomials have equal pairs.  Immutable.
    """

    __slots__ = ("content", "prim")

    def __new__(cls, coeffs=()):
        cs = list(coeffs)
        den = math.lcm(*(c.denominator for c in cs))
        return cls.from_ints([c.numerator * (den // c.denominator) for c in cs], Fraction(1, den))

    @classmethod
    def from_ints(cls, ints, scale) -> "Poly":
        """scale * sum ints[i] * x**i, for an integer list or tuple."""
        n = len(ints)
        while n and not ints[n - 1]:
            n -= 1
        if not n or not scale:
            return _make(Fraction(0), ())
        g = math.gcd(*ints[:n])
        if ints[n - 1] < 0:
            g = -g
        if g == 1:  # a Fraction scale is then the content itself
            content, prim = scale, tuple(ints[:n])
        else:
            content, prim = scale * g, tuple(a // g for a in ints[:n])
        return _make(content if isinstance(content, Fraction) else Fraction(content), prim)

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    # -- basic structure ---------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(self.content * a for a in self.prim)

    def degree(self) -> int:
        return len(self.prim) - 1

    @property
    def is_zero(self) -> bool:
        return not self.prim

    def leading(self) -> Fraction:
        if self.is_zero:
            raise DomainError("the zero polynomial has no leading coefficient")
        return self.content * self.prim[-1]

    def coefficient(self, i: int) -> Fraction:
        return self.content * self.prim[i] if 0 <= i < len(self.prim) else Fraction(0)

    def __bool__(self) -> bool:
        return not self.is_zero

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.prim == other.prim and self.content == other.content

    def __hash__(self):
        return hash((self.content, self.prim))

    def __repr__(self) -> str:
        return f"Poly([{', '.join(self.to_strs())}])"

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        if other.is_zero:
            return self
        if self.is_zero:
            return other
        a, b = self.content, other.content
        den = math.lcm(a.denominator, b.denominator)
        ka, kb = a.numerator * (den // a.denominator), b.numerator * (den // b.denominator)
        total = _zz_add([ka * x for x in self.prim], [kb * y for y in other.prim])
        return Poly.from_ints(total, Fraction(1, den))

    def __sub__(self, other: "Poly") -> "Poly":
        return self + -other

    def __neg__(self) -> "Poly":
        return _make(-self.content, self.prim)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return _make(self.content * other, self.prim) if other else Poly()
        # Gauss's lemma: a product of primitive polynomials is primitive
        if self.is_zero or other.is_zero:
            return Poly()
        return _make(self.content * other.content, tuple(_zz_mul(self.prim, other.prim)))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise DomainError("negative polynomial power")
        if n <= 1:
            return self if n else _make(Fraction(1), (1,))
        # square-and-multiply from the top bit: f ** 1 is f, no product
        half = self ** (n // 2)
        return half * half * self if n & 1 else half * half

    def __divmod__(self, other: "Poly") -> tuple["Poly", "Poly"]:
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        k = len(self.prim) - len(other.prim) + 1
        if k <= 0:
            return Poly(), self
        quo, rem = _zz_pdivmod(self.prim, other.prim)
        scale = self.content / other.prim[-1] ** k
        return Poly.from_ints(quo, scale / other.content), Poly.from_ints(rem, scale)

    def __floordiv__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[1]

    # -- evaluation ------------------------------------------------------------

    def __call__(self, x: Fraction) -> Fraction:
        if self.is_zero:
            return Fraction(0)
        x = Fraction(x)
        value = _zz_eval_scaled(self.prim, x.numerator, x.denominator)
        c = self.content
        return Fraction(c.numerator * value, c.denominator * x.denominator ** self.degree())

    # -- normal forms --------------------------------------------------------

    def monic(self) -> "Poly":
        if self.is_zero:
            raise DomainError("the zero polynomial cannot be made monic")
        return _make(Fraction(1, self.prim[-1]), self.prim)

    def is_monic(self) -> bool:
        return bool(self.prim) and self.leading() == 1

    # -- serialization ---------------------------------------------------------

    def to_strs(self) -> list[str]:
        num, den = self.content.numerator, self.content.denominator
        return [_reduced_str(num * a, den) for a in self.prim]

    @staticmethod
    def from_strs(items) -> "Poly":
        return Poly([rat_from_str(s) for s in items])


def _make(content: Fraction, prim: tuple[int, ...]) -> Poly:
    """The `Poly` with a (content, prim) pair already in canonical form."""
    f = object.__new__(Poly)
    object.__setattr__(f, "content", content)
    object.__setattr__(f, "prim", prim)
    return f


# ---------------------------------------------------------------------------
# integer coefficient lists (ascending, no trailing zeros)

def _zz_primitive(f):
    c = math.gcd(*f)
    if c == 0:
        return []
    return [a // c for a in f]


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
    return _gfp.trim(out)


def _zz_add(f, g):
    out = [0] * max(len(f), len(g))
    for i, a in enumerate(f):
        out[i] += a
    for i, b in enumerate(g):
        out[i] += b
    return _gfp.trim(out)


def _zz_sub(f, g):
    return _zz_add(f, [-b for b in g])


def _zz_trunc(f, m):
    """Reduce coefficients into the symmetric residue system mod m."""
    out = []
    half = m // 2
    for c in f:
        c %= m
        if c > half:
            c -= m
        out.append(c)
    return _gfp.trim(out)


def _zz_eval_scaled(f, num, den):
    """den**deg(f) * f(num/den) by homogeneous Horner; for den > 0 it has
    the sign of f(num/den)."""
    acc = f[-1]
    scale = 1
    for c in reversed(f[:-1]):
        scale *= den
        acc = acc * num + c * scale
    return acc


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
    return quo, _gfp.trim(rem[:dg])


def _zz_exact_quotient(f, g):
    """f / g for a g known to divide f in Z[x]."""
    q, r = _zz_divmod(f, g)
    if r:
        raise ArithmeticError("inexact polynomial division")
    return q


def _zz_pdivmod(f, g):
    """Pseudo-division: (quo, rem) with |lc(g)|**k * f = quo*g + rem, where
    k = deg f - deg g + 1 and deg rem < deg g, for deg f >= deg g.

    The quotient entry at shift s carries |lc(g)|**s, and rem is a positive
    multiple of the remainder over Q.
    """
    dg = len(g) - 1
    scale = abs(g[-1])
    sign = 1 if g[-1] > 0 else -1
    rem = list(f)
    quo = [0] * (len(rem) - dg)
    for top in range(len(rem) - 1, dg - 1, -1):
        c = sign * rem[top]
        shift = top - dg
        quo[shift] = c
        if scale != 1:
            rem[:top] = [scale * a for a in rem[:top]]
        if c:
            for i in range(dg):
                rem[shift + i] -= c * g[i]
    if scale != 1:
        power = 1
        for s in range(len(quo)):
            quo[s] *= power
            power *= scale
    return quo, _gfp.trim(rem[:dg])


def _zz_remainder_sequence(f, g):
    """The members f, g, s_2, ... of the remainder sequence of f and a
    nonzero g in Z[x], s_(i+1) = -prem(s_(i-1), s_i) / c_i with prem from
    `_zz_pdivmod` and c_i > 0 its content (so a positive multiple of the
    negated remainder over Q), and the c_i.  It stops at a constant or at a
    member dividing the one before, then gcd(f, g) up to a constant."""
    seq, contents = [f, g], []
    while len(seq[-1]) > 1:
        r = _zz_pdivmod(seq[-2], seq[-1])[1]
        if not r:
            break
        c = math.gcd(*r)
        contents.append(c)
        seq.append([-a // c for a in r])
    return seq, contents


def _zz_gcd(f, g):
    """Primitive gcd in Z[x] with positive leading coefficient: the last
    member of the remainder sequence, made so; gcd(f, 0) is f's primitive
    part and gcd(0, 0) is []."""
    a = _zz_primitive(_zz_remainder_sequence(f, g)[0][-1] if g else f)
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
# Hensel lifting and Zassenhaus factorization over Z


def _hensel_lift(p, f, modular_factors, l):
    """Lift monic pairwise-coprime factors f_1, ..., f_r of f mod p to monic
    factors F_i mod p**l, in the same order, each reduced into the
    symmetric residue system mod p**l; their product is lc(f)**-1 * f mod
    p**l.  Raises ArithmeticError when p | lc(f) or two f_i share a factor.

    All factors are lifted at once by linear steps p**k -> p**(k+1)
    (Zassenhaus, J. Number Theory 1, 1969).  Let fm = lc(f)**-1 * f mod
    p**l, n = deg f and P_i = prod_(j != i) f_j.  Over F_p, sigma_i =
    P_i**-1 mod f_i is the first Bezout coefficient of (P_i mod f_i, f_i),
    found once (for r = 2 the one pair s*f_1 + t*f_2 = 1 gives sigma_1 = t
    and sigma_2 = s).  Step k starts from monic F_i = f_i mod p in
    [0, p**k) with prod F_i = fm mod p**k, so fm - prod F_i is p**k times
    an integer polynomial of degree < n, both being monic of degree n; e is
    that polynomial mod p.  Each F_i gains p**k * c_i, c_i = sigma_i * e
    mod f_i.  As sum_i c_i * P_i has degree < n and is e mod every f_i
    (f_i | P_j for j != i), it is e, and prod (F_i + p**k * c_i) = fm mod
    p**(k+1); the F_i stay monic, as deg c_i < deg f_i.  The lift is
    unique (Hensel's lemma): monic G_i = F_i + p**k * d_i, deg d_i < deg
    f_i, with the same product mod p**(k+1) have sum_i d_i * P_i = 0 mod p,
    so f_i | d_i and d_i = 0 mod p.  Any correct lift of the f_i, such as
    a factor tree's, thus gives the same list."""
    pl = p ** l
    if f[-1] % p == 0:
        raise ArithmeticError("leading coefficient not a unit mod p**l")
    inv = pow(f[-1], -1, pl)
    fm = [c * inv % pl for c in f]
    r = len(modular_factors)
    if r == 2:
        s, t, one = _gfp.gcdex(*modular_factors, p)
        bezout = [(t, one), (s, one)]
    else:
        whole = [1]
        for fi in modular_factors:
            whole = _gfp.mul(whole, fi, p)
        bezout = [
            _gfp.gcdex(_gfp.rem(_gfp.divmod_(whole, fi, p)[0], fi, p), fi, p)[::2] for fi in modular_factors
        ]
    if any(one != [1] for _, one in bezout):
        raise ArithmeticError("modular factors are not coprime")
    lifts = [list(fi) for fi in modular_factors]
    m = p
    for _ in range(l - 1):
        prod = functools.reduce(_zz_mul, lifts)
        e = _gfp.trim([(a - b) // m % p for a, b in zip(fm, prod)])
        for g, fi, (sigma, _) in zip(lifts, modular_factors, bezout):
            for j, c in enumerate(_gfp.rem(_gfp.mul(sigma, e, p), fi, p)):
                g[j] += m * c
        m *= p
    return [_zz_trunc(g, pl) for g in lifts]


def _lift_bound(f):
    """A bound on every coefficient of b' * g / lc(g), for each proper
    factor g of f in Z[x] and divisor b' of lc(f) (Mignotte, Math. Comp.
    28, 1974).  See `_zassenhaus` for the proof."""
    n = len(f) - 1
    lead = abs(f[-1])
    sq = sum(a * a for a in f)
    norm = math.isqrt(sq)
    norm += norm * norm < sq
    return max(math.comb(n - 2, j) * norm + (math.comb(n - 2, j - 1) * lead if j else 0) for j in range(n))


def _zassenhaus(f, p, modular):
    """Irreducible integer factors of a primitive squarefree f, lc(f) = b > 0
    and deg f = n >= 2, from the monic irreducible factors `modular` of f
    mod p, sorted, at a prime p not dividing b that keeps f squarefree.

    All are lifted at once to p**l, the least power above 2*B for B the
    bound of `_lift_bound`.  A trial is the product of b' = lc of the
    cofactor still to be split (b' | b) and a subset of the lifted factors,
    reduced into the symmetric residue system mod p**l.  If a true factor
    g of degree m < n has those modular factors, the trial is g* = b' * g /
    lc(g) mod p**l, and g* is integral.  Its roots are among those of f, so
    its Mahler measure M(g*) = |b'| * prod max(1, |root|) is at most M(f)
    <= ||f||_2 (Landau), and coefficient j of g* is at most
    C(m-1, j) * M(g*) + C(m-1, j-1) * |b'| (Knuth, TAOCP vol. 2, 4.6.2),
    which is at most B = max_j C(n-2, j) * ||f||_2 + C(n-2, j-1) * |b|, as
    m - 1 <= n - 2 and |b'| <= |b|.  So p**l > 2 * max |coefficient of
    g*|, and the trial is g* itself.
    A trial whose primitive part's constant divides the cofactor's goes to
    the exact division, and a primitive part dividing the cofactor exactly
    is a factor of it.  Subsets are tried in order of size, and a factor
    over Z with a proper factor would have been found through the smaller
    subset of that factor first, so each factor found is irreducible.  At
    subsets of half the factors, only those holding the first one are
    tried, as a subset and its complement are one split.
    Every factor has a positive leading coefficient: the cofactor is
    primitive with lc b' > 0, the lifts are monic and p**l > 2B >= 2b', so
    the trial's leading coefficient is b' itself; the last cofactor is
    the quotient of two such polynomials.
    """
    lift_bound = _lift_bound(f)
    l = 1
    pl = p
    while pl < 2 * lift_bound + 1:
        pl *= p
        l += 1
    _intfactor.COUNTERS["hensel_lifts"] += 1
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
            trial = [current[-1]]
            for i in combo:
                trial = _zz_trunc(_zz_mul(trial, lifted[i]), pl)
            trial = _zz_primitive(trial)
            if trial[0] and current[0] % trial[0]:
                continue
            # Gauss: a primitive factor leaves an integral quotient, so a
            # non-integral step or a remainder means no factor
            try:
                q, r = _zz_divmod(current, trial)
            except ArithmeticError:
                continue
            if r:
                continue
            factors.append(trial)
            current = _zz_primitive(q)
            active = [i for i in active if i not in combo]
            advanced = True
            break
        if not advanced:
            size += 1
    factors.append(current)
    return factors


# ---------------------------------------------------------------------------
# factorization over Q


def _reduction(f, start: int = 3):
    """The least odd prime p >= start not dividing lc(f), and f mod p made
    monic; f mod p keeps the degree of f."""
    p = start
    while not (_intfactor.is_prime(p) and f[-1] % p):
        p += 2
    return p, _gfp.monic(_gfp.from_coeffs(f, p), p)


def _good_prime(f, start: int = 3):
    """The least odd prime p >= start not dividing lc(f) at which f stays
    squarefree, and f mod p made monic."""
    p, fp = _reduction(f, start)
    while not _gfp.is_squarefree(fp, p):
        if p > 10_000:
            raise ArithmeticError("no suitable factoring prime found")
        p, fp = _reduction(f, p + 2)
    return p, fp


def _multiplicity(f, q) -> int:
    """The largest m with q**m | f, for primitive f and q with q | f."""
    m = 0
    try:
        while True:
            f, r = _zz_divmod(f, q)
            if r:
                return m
            m += 1
    except ArithmeticError:
        return m


def _small_factors(f):
    """The irreducible factors of a primitive f of degree at most 2 with
    lc(f) > 0, a repeated one twice, by the rule of `factor_with_unit`."""
    if len(f) < 3:
        return [f] if len(f) == 2 else []
    c, b, a = f
    disc = b * b - 4 * a * c
    r = math.isqrt(disc) if disc >= 0 else -1
    if r * r != disc:
        return [f]
    return [_zz_primitive([b - r, 2 * a]), _zz_primitive([b + r, 2 * a])]


def _cubic_factors(g, p, gp):
    """The irreducible factors of a squarefree primitive cubic g, lc(g) = b
    > 0, at a prime p not dividing b that keeps g squarefree, gp = g mod p
    made monic.  Each root x of gp, a simple one, is lifted by Newton steps
    m -> m**2 until m > 2 * (b + max |g_i|), past twice Cauchy's bound on
    |b * root|.  A rational root r/s (s | b) reduces to such a root, whose
    unique lift to Z_p is r/s itself, so k = b * r/s is the symmetric
    residue of b * x mod m; g is reducible exactly when it has one."""
    b = g[-1]
    bound = 2 * (b + max(map(abs, g)))
    dg = _zz_derivative(g)
    for root in range(p):
        if (((root + gp[2]) * root + gp[1]) * root + gp[0]) % p:
            continue
        x, m = root, p
        while m <= bound:
            m *= m
            x = (x - _zz_eval_scaled(g, x, 1) * pow(_zz_eval_scaled(dg, x, 1), -1, m)) % m
        k = b * x % m
        k -= m if 2 * k > m else 0
        if _zz_eval_scaled(g, k, b) == 0:
            linear = _zz_primitive([-k, b])
            return [linear] + _small_factors(_zz_exact_quotient(g, linear))
    return [g]


def factor_with_unit(f: Poly) -> tuple[Fraction, list[tuple[Poly, int]]]:
    """f = unit * prod g_i**m_i with g_i irreducible, primitive integral,
    positive leading coefficient; ordered by degree then coefficients.

    1. The squarefree part g.  If f stays squarefree mod the first odd
       prime p not dividing lc(f), it is squarefree, as a square factor
       q**2 would reduce to one of the same degree, p not dividing lc(q);
       then g = f.  Otherwise g = f / gcd(f, f'), whose irreducible factors
       are those of f, each once, and p is the first odd prime not dividing
       lc(g) that keeps g squarefree.  Step 2 factors g alone.  The
       multiplicity of an irreducible factor q of g in f is the number of
       times it divides f exactly: by Gauss's lemma a primitive q dividing
       the primitive f leaves an integral quotient.
    2. g at the one prime p.  A g of degree at most 2 is decided by the
       rule below, and a cubic by its rational roots (`_cubic_factors`):
       their images among the roots of g mod p, lifted by Newton steps.
       Of a g of degree 4 or more, a factor over Z reduces mod p to a
       product of factors mod p of the same degree, p not dividing lc(g).
       So g is irreducible when g mod p is, that is when Berlekamp's
       algorithm returns one factor mod p.  Otherwise lifting those factors
       all at once to the power of p that Mignotte's bound asks for
       (see `_zassenhaus`) and Zassenhaus recombination find the factors
       over Z, a cyclotomic Phi_n like any other.  On its main path
       `check_all` factors the transform H, whose roots are all real, and
       no Phi_n with n >= 3 divides it, as such a Phi_n has no real root.

    A primitive part of degree at most 2 skips steps 1 and 2: a linear one
    is irreducible, and a quadratic a*x**2 + b*x + c is irreducible exactly
    when b**2 - 4ac is not a square r**2; otherwise its factors are the
    primitive parts of 2a*x + b - r and 2a*x + b + r, whose product is 4a
    times it, one factor squared when r = 0.
    """
    if f.is_zero:
        raise DomainError("cannot factor the zero polynomial")
    _intfactor.COUNTERS["factor_with_unit_calls"] += 1
    if len(f.prim) <= 3:
        irreducibles = [Poly.from_ints(q, 1) for q in _small_factors(f.prim)]
        factors = [(q, irreducibles.count(q)) for q in dict.fromkeys(irreducibles)]
    else:
        g = f.prim
        p, gp = _reduction(g)
        if not _gfp.is_squarefree(gp, p):
            g = _zz_squarefree(g)
            # a squarefree f failed at p and every smaller odd prime divides
            # lc(f), so its search starts past p
            p, gp = _good_prime(g, p + 2 if len(g) == len(f.prim) else 3)
        if len(g) <= 3:
            irreducibles = _small_factors(g)
        elif len(g) == 4:
            irreducibles = _cubic_factors(g, p, gp)
        elif len(modular := _gfp.berlekamp(gp, p)) == 1:
            irreducibles = [g]
        else:
            irreducibles = _zassenhaus(g, p, modular)
        squarefree = len(g) == len(f.prim)
        factors = [(Poly.from_ints(q, 1), 1 if squarefree else _multiplicity(f.prim, q)) for q in irreducibles]
    factors.sort(key=lambda fm: (fm[0].degree(), fm[0].prim))
    return f.content, factors


# ---------------------------------------------------------------------------
# Sturm sequences and real-root isolation


def _sign_variations(values) -> int:
    signs = [1 if v > 0 else -1 for v in values if v != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


class SturmChain:
    """The Sturm chain of a nonzero f, built once and queried many times.

    The chain runs on `squarefree`, the squarefree part g of f made
    primitive with positive leading coefficient, so repeated roots are
    counted once.  It is the remainder sequence of (g, g'), with integer
    members that are positive multiples of the classical chain's, so every
    sign and count is the classical one.  That of (f, f') is the chain when
    it ends in a constant; else its last member is gcd(f, f').
    """

    __slots__ = ("squarefree", "chain")

    def __init__(self, f: Poly):
        if f.is_zero:
            raise DomainError("the zero polynomial has no root count")
        _intfactor.COUNTERS["sturm_chain_builds"] += 1
        g = list(f.prim)
        chain = _zz_remainder_sequence(g, _zz_derivative(g))[0] if len(g) > 1 else []
        if chain and len(chain[-1]) > 1:
            g = _zz_exact_quotient(g, _zz_gcd(chain[-1], []))
            chain = _zz_remainder_sequence(g, _zz_derivative(g))[0]
        self.squarefree = Poly.from_ints(g, 1)
        self.chain = chain

    def _variations(self, point: int | Fraction | None, positive: bool) -> int:
        if point is None:
            # sign at +-infinity: the leading coefficient's, flipped at
            # -infinity for odd degree (len(h) even)
            values = [h[-1] if positive or len(h) % 2 else -h[-1] for h in self.chain]
        else:
            num, den = point.numerator, point.denominator
            values = [_zz_eval_scaled(h, num, den) for h in self.chain]
        return _sign_variations(values)

    def count(self, lo: int | Fraction | None = None, hi: int | Fraction | None = None) -> int:
        """Number of distinct real roots in the half-open interval (lo, hi];
        endpoints are ints or Fractions (both have `numerator` and
        `denominator`), and `None` means -infinity / +infinity."""
        return self._variations(lo, False) - self._variations(hi, True)


def sturm_count(f: Poly) -> int:
    """Number of distinct real roots of f; repeated roots count once."""
    return SturmChain(f).count()


def isolate_real_roots(chain: SturmChain) -> list[tuple[Fraction, Fraction]]:
    """Disjoint rational intervals (lo, hi], one per distinct real root of
    the chain's polynomial, in increasing order."""
    total = chain.count()
    if total == 0:
        return []
    g = chain.squarefree.prim
    b = 1 + Fraction(max(map(abs, g)), g[-1])  # Cauchy: every root in (-b, b)
    stack = [(-b, b, total)]
    found: list[tuple[Fraction, Fraction]] = []
    while stack:
        lo, hi, k = stack.pop()
        if k == 1:
            found.append((lo, hi))
            continue
        mid = (lo + hi) / 2
        left = chain.count(lo, mid)
        # the left half goes on last, so it is split first
        if k - left:
            stack.append((mid, hi, k - left))
        if left:
            stack.append((lo, mid, left))
    return found


# ---------------------------------------------------------------------------
# cyclotomic polynomials


@functools.cache
def cyclotomic_poly(n: int) -> Poly:
    if n < 1:
        raise DomainError("cyclotomic index must be positive")
    f = Poly([-1] + [0] * (n - 1) + [1])
    for d in range(1, n):
        if n % d == 0:
            f = f // cyclotomic_poly(d)
    return f


@functools.cache
def _cyclotomic_table(max_degree: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """(n, Phi_n's coefficients) for every n with phi(n) <= max_degree,
    ascending n.  As phi(n) >= sqrt(n/2), those n are at most
    2 * max_degree**2; a sieve gives phi below that bound."""
    bound = 2 * max_degree * max_degree
    phi = list(range(bound + 1))
    for k in range(2, bound + 1):
        if phi[k] == k:
            for m in range(k, bound + 1, k):
                phi[m] -= phi[m] // k
    return tuple((n, cyclotomic_poly(n).prim) for n in range(1, bound + 1) if phi[n] <= max_degree)


def is_cyclotomic(f: Poly) -> int | None:
    """The index n with f equal to the n-th cyclotomic polynomial, else None."""
    deg = f.degree()
    if deg < 1 or f.content != 1:
        return None
    return next((n for n, prim in _cyclotomic_table(deg) if prim == f.prim), None)


# ---------------------------------------------------------------------------
# discriminants and the reciprocal transform


def discriminant(f: Poly) -> Fraction:
    """disc(f) = (-1)**(n(n-1)/2) * Res(f, f') / lc(f) for n = deg f >= 1,
    with Res(a, b) = lc(a)**deg(b) * prod b(alpha) over the roots alpha of a
    (the Sylvester determinant), read off the remainder sequence of (p, p'),
    p = f.prim and f = c*p:

    - Res(f, f') = c**(2n-1) * Res(p, p'), so disc(f) = c**(2n-2) * disc(p).
    - Take consecutive members a, b, s of degrees m > k > l, a = q*b + r
      over Q.  Res(a, b) = (-1)**(m*k) * Res(b, a) = (-1)**(m*k) * lc(b)**m
      * prod r(beta) over the roots beta of b, as a(beta) = r(beta); that is
      (-1)**(m*k) * lc(b)**(m-l) * Res(b, r).
    - `_zz_pdivmod`'s remainder is |lc(b)|**(m-k+1) * r, and s is it negated
      and divided by its content c > 0, so r = -c * s / |lc(b)|**(m-k+1).
      As Res(b, t*s) = t**k * Res(b, s) for a rational t, each step gives
      Res(a, b) = (-1)**(m*k) * lc(b)**(m-l) * (-c)**k / |lc(b)|**(k*(m-k+1))
      * Res(b, s).
    - The last member s is a constant, and Res(b, s) = s**deg(b); or else it
      divides the member before, so p and p' share a root and disc(f) = 0.
    """
    n = f.degree()
    if n < 1:
        raise DomainError("discriminant needs degree >= 1")
    seq, contents = _zz_remainder_sequence(f.prim, _zz_derivative(f.prim))
    if len(seq[-1]) > 1:
        return Fraction(0)
    num, den = seq[-1][0] ** (len(seq[-2]) - 1), f.prim[-1]
    for a, b, s, c in zip(seq, seq[1:], seq[2:], contents):
        m, k, l = len(a) - 1, len(b) - 1, len(s) - 1
        num *= (-1) ** (m * k) * b[-1] ** (m - l) * (-c) ** k
        den *= abs(b[-1]) ** (k * (m - k + 1))
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    return sign * f.content ** (2 * n - 2) * Fraction(num, den)


@functools.cache
def _chebyshev_v(d: int) -> tuple[tuple[int, ...], ...]:
    """Integer coefficients of V_0..V_d with T**k + T**-k = V_k(T + 1/T):
    V_0 = 2, V_1 = x and V_{k+1} = x*V_k - V_{k-1}."""
    vs = [(2,), (0, 1)]
    while len(vs) <= d:
        prev, cur = vs[-2], vs[-1]
        nxt = [0] + list(cur)
        for j, c in enumerate(prev):
            nxt[j] -= c
        vs.append(tuple(nxt))
    return tuple(vs[: d + 1])


def reciprocal_transform(L: Poly) -> Poly:
    """H with L(T) = T**d * H(T + 1/T) for a palindromic L of degree 2d,
    H = L_d + sum_{k=1..d} L_{d+k} * V_k.

    For an irreducible L the roots of H are the values gamma + 1/gamma over
    the roots gamma of L, and H is irreducible (a factorization of H would
    give one of L), so H is the minimal polynomial of gamma + 1/gamma up to
    its leading coefficient L_2d.  Conversely, when every root of H lies
    in (-2, 2), `reciprocal_lift` maps H's factorization to L's.
    """
    prim = L.prim
    d = (len(prim) - 1) // 2
    h = [0] * (d + 1)
    h[0] = prim[d]
    for k, vk in enumerate(_chebyshev_v(d)[1:], start=1):
        c = prim[d + k]
        if c:
            for j, v in enumerate(vk):
                h[j] += c * v
    return Poly.from_ints(h, L.content)


def reciprocal_lift(h: Poly) -> Poly:
    """g = T**n * h(T + 1/T) = sum h_j * T**(n-j) * (T**2 + 1)**j for h of
    degree n, the inverse of `reciprocal_transform`.  The map is
    multiplicative and keeps h's leading coefficient (at T**2n) and so its
    sign.  It keeps primitivity: if a prime l divided every coefficient of g, then
    h(T + 1/T) = 0 mod l, and T + 1/T is transcendental over F_l.  The lift
    of an irreducible h with a real root beta_0 in (-2, 2) is irreducible: a
    root gamma of an irreducible factor A of g has gamma**2 - beta*gamma + 1
    = 0 for a root beta of h.  If A had degree deg h, then Q(gamma) =
    Q(beta) and gamma = r(beta).  The embedding beta -> beta_0 would send
    gamma to a non-real root of x**2 - beta_0*x + 1, but r(beta_0) is real.
    """
    n = h.degree()
    g = [0] * (2 * n + 1)
    for j, c in enumerate(h.prim):
        for i in range(j + 1):
            g[n - j + 2 * i] += c * math.comb(j, i)
    return Poly.from_ints(g, h.content)


# ---------------------------------------------------------------------------
# square classes


@dataclass(frozen=True)
class SquareClass:
    """An element of Q^x / (Q^x)^2: a sign and the frozenset of primes of odd
    valuation, whose product is `squarefree`."""

    sign: int
    primes: frozenset

    def __post_init__(self):
        if self.sign not in (1, -1) or not isinstance(self.primes, frozenset):
            raise DomainError("invalid square class")

    def times(self, other: "SquareClass") -> "SquareClass":
        return SquareClass(self.sign * other.sign, self.primes ^ other.primes)

    @property
    def squarefree(self) -> int:
        return math.prod(self.primes)

    def as_fraction(self) -> Fraction:
        return Fraction(self.sign * self.squarefree)

    @property
    def is_trivial(self) -> bool:
        return self.sign == 1 and not self.primes

    def __str__(self) -> str:
        return str(self.sign * self.squarefree)


def square_class(r: Fraction, den: int = 1) -> SquareClass:
    """The square class of the nonzero rational r / den, for r an int or a
    `Fraction` and den a positive integer coprime to it, from one
    factorization."""
    if r == 0:
        raise DomainError("0 has no square class")
    # numerator and denominator are coprime and factored apart: their product
    # could hide two large primes from the primality test
    factors = _intfactor.factorize(abs(r.numerator)) | _intfactor.factorize(r.denominator * den)
    return SquareClass(1 if r > 0 else -1, frozenset(p for p, e in factors.items() if e % 2))


# ---------------------------------------------------------------------------
# symmetric-function utilities (Newton's identities)


def _newton_step(elem: list, sums: list):
    """p_k for k = len(sums) + 1 from e_1..e_n and p_1..p_(k-1), by Newton's
    identity p_k = sum_(i<k) (-1)**(i-1) e_i p_(k-i) + (-1)**(k-1) k e_k
    with e_i = 0 for i > n; on ints or `Fraction`s alike."""
    k = len(sums) + 1
    acc = 0
    for i in range(1, min(k - 1, len(elem)) + 1):
        term = elem[i - 1] * sums[k - i - 1]
        acc += term if i % 2 else -term
    if k <= len(elem):
        tail = k * elem[k - 1]
        acc += tail if k % 2 else -tail
    return acc


def elementary_from_power_sums(p: list[Fraction], count: int) -> list[Fraction]:
    """e_1..e_count from power sums p_1..p_count, solving Newton's identity
    for e_k: p_k = `_newton_step`(e_1..e_(k-1), p_1..p_(k-1)) + (-1)**(k-1) k e_k."""
    e: list[Fraction] = []
    for k in range(1, count + 1):
        e.append((-1) ** (k - 1) * (Fraction(p[k - 1]) - _newton_step(e, p[: k - 1])) / k)
    return e


def trace_power_sums(f: Poly, count: int) -> tuple[list[int], int]:
    """p_0..p_count for the roots of monic f (p_0 = deg f), as integers over
    one denominator: p_k = sums[k] / den.

    f is its primitive part over a, the leading coefficient of that part, so
    a times its roots are the roots of a^(n-1) * prim(x / a), monic and
    integral: Newton's identities give their power sums s_k in integers, and
    p_k = s_k / a^k = s_k * a^(count-k) / a^count."""
    if not f.is_monic():
        raise DomainError("trace power sums need a monic polynomial")
    n, a = f.degree(), f.prim[-1]
    elem = [(-1) ** i * f.prim[n - i] * a ** (i - 1) for i in range(1, n + 1)]
    sums: list[int] = []
    for _ in range(count):
        sums.append(_newton_step(elem, sums))
    return [n * a**count] + [s * a ** (count - k) for k, s in enumerate(sums, 1)], a**count
