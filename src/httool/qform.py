"""Quadratic spaces over Q: diagonalization, Hilbert symbols, the invariant
quadruple (dim, signature, determinant class, Hasse set), equivalence,
constructive realization of admissible invariants, and the K3 lattice.

The Hasse invariant of a space is stored as the finite set of places where
the symbol sum is nontrivial; the Hilbert product formula makes this set
even, and set symmetric-difference realizes addition in Br(Q)[2].  The
infinite place is represented by math.inf.

Determinants are square classes (a sign and the primes of odd valuation):
each rational is factored once, when its class is formed, and every later
step reads the primes, since (x, y)_v = 1 at odd primes dividing neither.
Symbols at those places are integer computations on the squarefree values,
and the places, which come from factorizations, are not proved prime again.

For a diagonal <a_1, ..., a_n> the Hasse symbol at a place v is
prod_{i<j} (a_i, a_j)_v.  By bilinearity of the Hilbert symbol this equals
prod_{j>=2} (a_1...a_{j-1}, a_j)_v, so `invariants` pairs each running
prefix class with the next entry instead of evaluating all n(n-1)/2 pairs
(Cassels, Rational Quadratic Forms, ch. 4).  It does so once per block
<a>^k of k equal entries: the block has determinant class a^(k mod 2) and
Hasse symbol (a, a)_v^(k(k-1)/2) = (a, -1)_v^(k(k-1)/2), and the sum rule
s(V + W) = s(V) s(W) (det V, det W) joins it to the prefix (Serre, A Course
in Arithmetic, ch. IV).  A K3 complement <1^a, (-1)^b, z, x, delta x> is
at most five blocks.

Construction peels the whole unit block <1^a, (-1)^b> above dimension 3 in
one step, with its invariants in closed form, then splits the admissible
ternary rest by a scalar search and the binary rest by a second one.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from . import _intfactor
from ._intfactor import _split_unit
from ._linalg import symmetric_pivots
from .exactpoly import (
    DomainError,
    SquareClass,
    _reduced_str,
    int_from_json,
    json_field,
    rat_from_str,
    rat_to_str,
    square_class,
)

INF = math.inf

Place = float  # an int prime, or INF


def _place_sort_key(v):
    return (1, 0) if v == INF else (0, v)


def place_to_json(v) -> str:
    return "inf" if v == INF else str(int(v))


def place_from_json(s) -> Place:
    """A place from JSON: "inf", or a prime as an integer or a decimal string."""
    if s == "inf":
        return INF
    if isinstance(s, str) and s.isdecimal():
        s = int(s)
    return _checked_place(int_from_json(s, "place"))


# ---------------------------------------------------------------------------
# Hilbert symbols


def _legendre(a: int, p: int) -> int:
    a %= p
    if a == 0:
        raise DomainError("legendre symbol of a multiple of p")
    r = pow(a, (p - 1) // 2, p)
    return -1 if r == p - 1 else 1


def _hilbert_at(a: int, b: int, p: int) -> int:
    """(a, b)_p for nonzero integers a, b at a prime p, which is taken as
    given: callers pass 2, a checked place or a prime from a factorization."""
    alpha, u = _split_unit(a, p)
    beta, v = _split_unit(b, p)
    if p != 2:
        result = 1
        if alpha % 2 and beta % 2 and p % 4 == 3:
            result = -result
        if beta % 2 and _legendre(u, p) == -1:
            result = -result
        if alpha % 2 and _legendre(v, p) == -1:
            result = -result
        return result
    u8, v8 = u % 8, v % 8
    eps_u = (u8 - 1) // 2 % 2
    eps_v = (v8 - 1) // 2 % 2
    omega_u = (u8 * u8 - 1) // 8 % 2
    omega_v = (v8 * v8 - 1) // 8 % 2
    exponent = (eps_u * eps_v + alpha * omega_v + beta * omega_u) % 2
    return -1 if exponent else 1


def _checked_place(place):
    """The place as an int prime or INF; DomainError for anything else, NaN
    and -inf included (int() would raise a different error on them)."""
    if place == INF:
        return INF
    if place != place or place == -INF or place != int(place) or not _intfactor.is_prime(int(place)):
        raise DomainError(f"{place} is not a valid place")
    return int(place)


def hilbert_symbol(a: Fraction, b: Fraction, place) -> int:
    """The Hilbert symbol (a, b) at a finite prime or the infinite place."""
    if place != INF:
        a, b, place = Fraction(a), Fraction(b), _checked_place(place)
    if a == 0 or b == 0:
        raise DomainError("Hilbert symbol arguments must be nonzero")
    if place == INF:
        return -1 if (a < 0 and b < 0) else 1
    # num * den lies in the square class of num / den
    return _hilbert_at(a.numerator * a.denominator, b.numerator * b.denominator, place)


def is_square_in_Qp(r: Fraction | int, place) -> bool:
    """Whether the nonzero rational r, an int or a `Fraction` (read through
    its numerator and denominator), is a square in Q_place."""
    if r == 0:
        raise DomainError("0 is not in the unit group")
    place = _checked_place(place)
    if place == INF:
        return r > 0
    v, u = _split_unit(r.numerator * r.denominator, place)
    if v % 2:
        return False
    if place == 2:
        return u % 8 == 1
    return _legendre(u, place) == 1


# ---------------------------------------------------------------------------
# spaces and invariants


@dataclass(frozen=True)
class GramMatrix:
    """A symmetric matrix over Q, stored as `Poly` is: an integer matrix
    `rows` over one positive integer `den`, with gcd(den, all entries) = 1,
    so equal matrices have equal pairs.  Any integer rows over any positive
    den may be given; the pair is reduced here."""

    rows: tuple[tuple[int, ...], ...]
    den: int = 1

    def __post_init__(self):
        rows = tuple(map(tuple, self.rows))
        n = len(rows)
        if any(len(row) != n for row in rows):
            raise DomainError("Gram matrix must be square")
        if any(rows[i][j] != rows[j][i] for i in range(n) for j in range(i)):
            raise DomainError("Gram matrix must be symmetric")
        g = math.gcd(self.den, *itertools.chain.from_iterable(rows))
        object.__setattr__(self, "rows", tuple(tuple(x // g for x in row) for row in rows) if g > 1 else rows)
        object.__setattr__(self, "den", self.den // g)

    @staticmethod
    def from_rows(rows) -> "GramMatrix":
        """The matrix of integer or `Fraction` entries, over the lcm of their
        denominators."""
        den = math.lcm(*(x.denominator for row in rows for x in row))
        return GramMatrix([[x.numerator * (den // x.denominator) for x in row] for row in rows], den)

    @staticmethod
    def from_json(obj) -> "GramMatrix":
        rows = json_field(obj, "gram", list)
        if not all(isinstance(row, list) for row in rows):
            raise DomainError("'gram' must be a list of lists")
        return GramMatrix.from_rows([[rat_from_str(x) for x in row] for row in rows])

    def to_json(self) -> list[list[str]]:
        """Each entry x / den in lowest terms, as `rat_to_str` writes it."""
        return [[_reduced_str(x, self.den) for x in row] for row in self.rows]


@dataclass(frozen=True)
class QSpace:
    """A nondegenerate quadratic space over Q via a diagonal representative."""

    diagonal: tuple[Fraction, ...]

    def __post_init__(self):
        if any(d == 0 for d in self.diagonal):
            raise DomainError("diagonal entries must be nonzero")

    def to_json(self) -> dict:
        return {"diagonal": [rat_to_str(d) for d in self.diagonal]}

    @staticmethod
    def from_json(obj) -> "QSpace":
        return QSpace(tuple(rat_from_str(s) for s in json_field(obj, "diagonal", list)))


@dataclass(frozen=True)
class QFormInvariants:
    dim: int
    signature: tuple[int, int]
    det: SquareClass
    hasse: frozenset

    def __post_init__(self):
        r, s = self.signature
        if r < 0 or s < 0 or r + s != self.dim:
            raise DomainError("signature incompatible with dimension")

    def sorted_hasse(self) -> list:
        return sorted(self.hasse, key=_place_sort_key)

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "signature": list(self.signature),
            "det": str(self.det),
            "hasse": [place_to_json(v) for v in self.sorted_hasse()],
        }

    @staticmethod
    def from_json(obj) -> "QFormInvariants":
        signature = json_field(obj, "signature", list)
        if len(signature) != 2:
            raise DomainError(f"'signature' must be a pair, got {signature!r}")
        places = [place_from_json(v) for v in json_field(obj, "hasse", list)]
        if len(set(places)) < len(places):
            raise DomainError("'hasse' repeats a place")
        return QFormInvariants(
            dim=json_field(obj, "dim", int),
            signature=tuple(int_from_json(x, "signature") for x in signature),
            det=square_class(rat_from_str(json_field(obj, "det"))),
            hasse=frozenset(places),
        )


TRIVIAL_CLASS = SquareClass(1, frozenset())
MINUS_ONE_CLASS = SquareClass(-1, frozenset())


def diagonalize(gram: GramMatrix) -> QSpace:
    """A diagonal form congruent to the Gram matrix G = m / den, DomainError
    if G is degenerate: the k-th entry is D_k / (D_(k-1) * den), D_k the
    pivots of m (`symmetric_pivots`, fraction-free), leading minors after
    congruences of determinant +-1 that repair zero pivots."""
    pivots = symmetric_pivots([list(row) for row in gram.rows])
    return QSpace(tuple(Fraction(p, prev * gram.den) for prev, p in zip([1] + pivots, pivots)))


def _ramified(x: SquareClass, y: SquareClass) -> set:
    """The places v with (x, y)_v = -1, among 2, infinity and the primes of
    x and y (the symbol is 1 at every other place, and everywhere when x
    or y is a square)."""
    if x.is_trivial or y.is_trivial:
        return set()
    a, b = x.sign * x.squarefree, y.sign * y.squarefree
    places = {2, INF} | x.primes | y.primes
    return {v for v in places if (hilbert_symbol(a, b, v) if v == INF else _hilbert_at(a, b, v)) == -1}


def invariants(space: QSpace) -> QFormInvariants:
    """The invariant quadruple, one block <a>^k per group of k equal
    entries a: determinant class a^(k mod 2), Hasse symbol
    (a, a)^(k(k-1)/2) = (a, -1)^(k(k-1)/2), joined to the running prefix
    by (det so far, a) when k is odd (an even block has square determinant)."""
    counts = Counter((a.numerator, a.denominator) for a in space.diagonal)
    r = sum(k for (n, _), k in counts.items() if n > 0)
    det = TRIVIAL_CLASS
    hasse: set = set()
    for (n, m), k in counts.items():
        entry = square_class(n, m)
        if k * (k - 1) // 2 % 2:
            hasse ^= _ramified(entry, MINUS_ONE_CLASS)
        if k % 2:
            hasse ^= _ramified(det, entry)
            det = det.times(entry)
    dim = len(space.diagonal)
    return QFormInvariants(dim, (r, dim - r), det, frozenset(hasse))


def pivot_invariants(blocks, den: int) -> QFormInvariants:
    """The invariants of the orthogonal sum of the forms M / den, one per
    list of pivots D_1, ..., D_n of a symmetric integer matrix M
    (`symmetric_pivots`).  Entry k of the pivot diagonal (`diagonalize`)
    is in the square class of c_k = D_k D_(k-1) den.  The Hasse symbol at v
    is prod_(j>=2) (c_1 ... c_(j-1), c_j)_v: (-1)^(s(s-1)/2) at infinity,
    for s negative c_k, and at a prime v read off the valuation parity and
    unit residue (mod v, or 8) of prefix and entry.

    Only the places of S = {2, inf} | primes(den) | primes(D_n of each
    block) are evaluated, so only den and each D_n are factored.  Proof that
    no odd prime p outside S is in the Hasse set: `symmetric_pivots` applies
    only congruences of determinant +-1, so D_n = det M, a unit at p, and M
    is unimodular over Z_p.  Such a form has a vector of unit norm (a unit
    diagonal entry m_ii, or else a unit m_ij and then m_ii + 2 m_ij + m_jj
    is a unit, p being odd), whose orthogonal complement is again
    unimodular; so M is congruent over Z_p to a diagonal of p-adic units.
    Scaling by 1/den, a unit at p, keeps them units, and (u, u')_p = 1 for
    units at odd p (Serre, A Course in Arithmetic, ch. III, Thm. 1).  The
    Hasse symbol is an invariant of the space, so its value on the pivot
    diagonal is 1 at p as well; and p, dividing no D_n nor den, is not in
    the determinant class either."""
    c = [x * prev * den for pivots in blocks for prev, x in zip((1, *pivots), pivots)]
    s = sum(1 for x in c if x < 0)
    den_primes = _intfactor.factorize(den)
    # the prime exponents of prod D_n * den^dim, den^dim up to squares
    exponents = Counter(den_primes if len(c) % 2 else {})
    for pivots in blocks:
        exponents.update(_intfactor.factorize(abs(pivots[-1])))
    hasse = {INF} if s * (s - 1) // 2 % 2 else set()
    for v in {2} | den_primes.keys() | exponents.keys():
        modulus, parity, unit, symbol = 8 if v == 2 else v, 0, 1, 1
        for x in c:
            e, u = _split_unit(x, v)
            symbol *= _hilbert_at(v**parity * unit, v ** (e % 2) * (u % modulus), v)
            parity, unit = (parity + e) % 2, unit * u % modulus
        if symbol == -1:
            hasse.add(v)
    det = SquareClass(-1 if s % 2 else 1, frozenset(p for p, e in exponents.items() if e % 2))
    return QFormInvariants(len(c), (len(c) - s, s), det, frozenset(hasse))


def equivalent(v: QSpace, w: QSpace) -> bool:
    """Isomorphism over Q is detected by the invariant quadruple."""
    return invariants(v) == invariants(w)


def sum_invariants(a: QFormInvariants, b: QFormInvariants) -> QFormInvariants:
    """Invariants of the orthogonal sum, via the additivity law
    w(V + W) = w(V) + w(W) + (det V, det W)."""
    return QFormInvariants(
        a.dim + b.dim,
        (a.signature[0] + b.signature[0], a.signature[1] + b.signature[1]),
        a.det.times(b.det),
        frozenset(a.hasse ^ b.hasse ^ _ramified(a.det, b.det)),
    )


def complement_invariants(sub: QFormInvariants, whole: QFormInvariants) -> QFormInvariants:
    """The unique tuple X with sum_invariants(sub, X) = whole.

    No admissibility judgment is made here; callers combine with
    admissible().
    """
    if sub.dim > whole.dim:
        raise DomainError("sub-space dimension exceeds the ambient dimension")
    r = whole.signature[0] - sub.signature[0]
    s = whole.signature[1] - sub.signature[1]
    if r < 0 or s < 0:
        raise DomainError("signatures are incompatible")
    det = whole.det.times(sub.det)  # square classes have order 2
    hasse = frozenset(whole.hasse ^ sub.hasse ^ _ramified(sub.det, det))
    return QFormInvariants(whole.dim - sub.dim, (r, s), det, hasse)


# ---------------------------------------------------------------------------
# admissibility and construction


def admissible(inv: QFormInvariants) -> bool:
    """Whether a quadratic space over Q with these invariants exists."""
    r, s = inv.signature
    if len(inv.hasse) % 2 != 0:
        return False
    det_sign = 1 if s % 2 == 0 else -1
    if inv.det.sign != det_sign:
        return False
    infinite_expected = (s * (s - 1) // 2) % 2 == 1
    if (INF in inv.hasse) != infinite_expected:
        return False
    if inv.dim == 0:
        return inv.det.is_trivial and not inv.hasse
    if inv.dim == 1:
        return not inv.hasse
    if inv.dim == 2:
        # A binary form of determinant d has Hasse symbol (x, -d); a place
        # where -d is a square cannot be ramified.
        minus_det = -inv.det.sign * inv.det.squarefree
        return all(not is_square_in_Qp(minus_det, v) for v in inv.hasse)
    return True


_POOL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19)


class ConstructionError(ArithmeticError):
    pass


def _scalar_candidates(pool: list[int], allowed_signs: tuple[int, ...], required=frozenset()):
    """The square classes of the squarefree scalars over a prime pool that hold
    the `required` primes of the pool, by size, then in combination order."""
    rest = [p for p in pool if p not in required]
    for size in range(len(rest) + 1):
        for combo in itertools.combinations(rest, size):
            primes = required | frozenset(combo)
            for sign in allowed_signs:
                yield SquareClass(sign, primes)


def _binary_pool(inv: QFormInvariants) -> list[int]:
    return sorted({*_POOL_PRIMES, *inv.det.primes, *(inv.hasse - {INF})})


def _binary_scalars(pool: list[int], signs: tuple[int, ...], required=frozenset()):
    """The pool's scalars holding the required primes, then each of them
    times one auxiliary prime q outside the pool, q ascending."""
    yield from _scalar_candidates(pool, signs, required)
    for q in itertools.count(3, 2):
        if q not in pool and _intfactor.is_prime(q):
            for c in _scalar_candidates(pool, signs, required):
                yield SquareClass(c.sign, c.primes | {q})


def _construct_binary(inv: QFormInvariants, signs: tuple[int, ...]) -> list[Fraction]:
    """The first <x, delta x> in the scalar search with the Hasse set of inv,
    for x of the given signs.

    Its determinant class is delta and its Hasse symbol is
    (x, delta x)_v = (x, -delta)_v, at 2, infinity and the primes of x and
    delta.  Its signature, hence its symbol at infinity, is inv's, since an
    admissible binary determinant has sign (-1)**s.

    The pool holds 2, the primes of delta and the finite Hasse places.  When
    none of its scalars fits, one auxiliary prime outside it always
    suffices: the proof of Serre, A Course in Arithmetic, ch. III, Thm. 4,
    gives an x = a*q with a a signed product of those primes and q a prime
    outside any given finite set (Dirichlet), so the search ends.

    The scan holds only the x whose primes contain R, the finite Hasse places
    other than 2 and delta's primes, in the full scan's order.  An x without
    a prime of R has symbol 1 there, so it never fits; R lies in the pool,
    so no auxiliary prime supplies one.  Sorted subsets of equal size compare,
    in combination order, by the least element of their symmetric difference,
    which adding R to both leaves unchanged.
    """
    minus_delta = -inv.det.sign * inv.det.squarefree
    required = inv.hasse - {INF, 2} - inv.det.primes
    for c in _binary_scalars(_binary_pool(inv), signs, required):
        x = c.sign * c.squarefree
        # lazy: the test stops at the first place whose symbol disagrees with inv
        wrong = ((_hilbert_at(x, minus_delta, p) == -1) != (p in inv.hasse) for p in {2} | c.primes | inv.det.primes)
        if not any(wrong):
            return [Fraction(x), inv.det.as_fraction() * x]


def _construct_diagonal(inv: QFormInvariants) -> list[Fraction]:
    r, s = inv.signature
    if inv.dim == 0:
        return []
    if inv.dim == 1:
        return [inv.det.as_fraction()]
    signs = tuple(sign for sign, count in ((1, r), (-1, s)) if count)
    if inv.dim == 2:
        return _construct_binary(inv, signs)
    if inv.dim >= 4:
        # peel the unit block <1^a, (-1)^b> of dimension dim - 3 in one step,
        # a = min(r, dim - 3): the +1s first, then -1s.  Its invariants are
        # (a + b, (a, b), (-1)^b, {2, inf} when b(b-1)/2 is odd), since
        # (-1, -1)_v = -1 exactly at 2 and inf and a +1 pairs trivially.
        # The rest X has dimension 3 and signature (r - a, s - b), both
        # >= 0 (a = r gives s - b = 3), so it is admissible when its Hasse
        # set is even, det X has sign (-1)**(s - b) and inf is in the set
        # exactly when (s - b)(s - b - 1)/2 is odd.  The set is the sum of
        # inv's, the block's and one symbol set, each even (Hilbert
        # reciprocity); det X = det inv * (-1)^b, of sign (-1)**(s - b).
        # Over R the sum law determines X's symbol at inf, and the real form
        # of signature (r - a, s - b) satisfies it with inv's and the
        # block's symbols, which are those of signatures (r, s) and (a, b).
        a = min(r, inv.dim - 3)
        b = inv.dim - 3 - a
        units = QFormInvariants(
            a + b,
            (a, b),
            MINUS_ONE_CLASS if b % 2 else TRIVIAL_CLASS,
            frozenset({2, INF}) if b * (b - 1) // 2 % 2 else frozenset(),
        )
        rest = _construct_diagonal(complement_invariants(units, inv))
        return [Fraction(1)] * a + [Fraction(-1)] * b + rest
    # dim 3: peel the first scalar z whose binary complement is admissible
    for z in _scalar_candidates(_binary_pool(inv), signs):
        unary = QFormInvariants(1, (1, 0) if z.sign == 1 else (0, 1), z, frozenset())
        rest = complement_invariants(unary, inv)
        if admissible(rest):
            return [z.as_fraction()] + _construct_diagonal(rest)
    raise ConstructionError(f"no diagonal split found for {inv}")


def construct_with_invariants(inv: QFormInvariants) -> QSpace:
    """A diagonal space realizing an admissible invariant tuple exactly.

    Deterministic: units +1, then -1, are peeled down to dimension 3, and
    the last scalar and the final binary block are found by ordered searches
    over squarefree scalars; the result is round-trip verified before it is
    returned.
    """
    if not admissible(inv):
        raise DomainError(f"inadmissible invariants: {inv}")
    diag = _construct_diagonal(inv)
    space = QSpace(tuple(diag))
    if invariants(space) != inv:
        raise ConstructionError(f"round trip failed for {inv}")
    return space


# ---------------------------------------------------------------------------
# the K3 lattice

# Gram matrix of the E8 root lattice (Bourbaki node ordering; node 2 is the
# branch node attached to node 4).
_E8_EDGES = ((1, 3), (3, 4), (2, 4), (4, 5), (5, 6), (6, 7), (7, 8))


def _e8_gram() -> list[list[int]]:
    g = [[0] * 8 for _ in range(8)]
    for i in range(8):
        g[i][i] = 2
    for a, b in _E8_EDGES:
        g[a - 1][b - 1] = -1
        g[b - 1][a - 1] = -1
    return g


def k3_lattice() -> GramMatrix:
    """The 22x22 Gram matrix of (-E8) + (-E8) + U + U + U."""
    minus_e8 = [[-x for x in row] for row in _e8_gram()]
    u = [[0, 1], [1, 0]]
    out = [[0] * 22 for _ in range(22)]
    offset = 0
    for block in (minus_e8, minus_e8, u, u, u):
        for i, row in enumerate(block):
            out[offset + i][offset : offset + len(row)] = row
        offset += len(block)
    return GramMatrix(out)


@functools.cache
def _k3_invariants_once() -> QFormInvariants:
    return invariants(diagonalize(k3_lattice()))


def k3_invariants() -> QFormInvariants:
    """Invariants of the K3 lattice, computed on the first call only."""
    return _k3_invariants_once()
