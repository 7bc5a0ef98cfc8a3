"""Quadratic spaces: Hilbert symbols against a lattice-point oracle,
diagonalization, invariants, additivity, complements, constructive
realization and the K3 lattice."""

import hashlib
import itertools
import json
import math
import pathlib
import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from httool import _intfactor, cmfield, pipeline, qform
from httool._linalg import symmetric_pivots
from httool.exactpoly import DomainError, Poly, SquareClass, square_class
from httool.qform import (
    INF,
    GramMatrix,
    ConstructionError,
    QFormInvariants,
    QSpace,
    _binary_scalars,
    _ramified,
    _scalar_candidates,
    admissible,
    complement_invariants,
    construct_with_invariants,
    diagonalize,
    equivalent,
    hilbert_symbol,
    invariants,
    is_square_in_Qp,
    k3_invariants,
    k3_lattice,
    pivot_invariants,
    sum_invariants,
)
from httool.weilcheck import WeilCandidate
from test_exactpoly import _load_workloads
from test_helpers import fraction_determinant, gram_entries, peel_search_diagonal, reference_block_invariants

GOLDEN = pathlib.Path(__file__).resolve().parent.parent / "docs" / "golden"


def qspace(*entries) -> QSpace:
    return QSpace(tuple(F(e) for e in entries))


# the invariants of the zero space, neutral for sum_invariants
NEUTRAL = QFormInvariants(0, (0, 0), square_class(F(1)), frozenset())


def hilbert_oracle(a: int, b: int, place) -> int:
    """Solvability of z**2 = a*x**2 + b*y**2 by exhaustive search for
    primitive zeros mod p**k (k = 6 at p = 2, else 3); a, b squarefree."""
    if place == INF:
        return -1 if (a < 0 and b < 0) else 1
    p = int(place)
    k = 6 if p == 2 else 3
    modulus = p**k
    has_unit_root: dict[int, bool] = {}
    for z in range(modulus):
        t = z * z % modulus
        entry = has_unit_root.get(t, False)
        has_unit_root[t] = entry or (z % p != 0)
    for x in range(modulus):
        for y in range(modulus):
            t = (a * x * x + b * y * y) % modulus
            if t not in has_unit_root:
                continue
            if x % p or y % p or has_unit_root[t]:
                return 1
    return -1


ORACLE_PAIRS = [
    (-1, -1),
    (1, -1),
    (2, 5),
    (-2, 3),
    (3, 3),
    (5, 5),
    (-1, 2),
    (2, 2),
    (-5, -7),
    (6, 10),
    (-6, 15),
    (7, -3),
]


@pytest.mark.parametrize("place", [2, 3, 5, 7, INF])
def test_hilbert_symbol_matches_lattice_oracle(place):
    for a, b in ORACLE_PAIRS:
        expected = hilbert_oracle(a, b, place)
        assert hilbert_symbol(F(a), F(b), place) == expected, (a, b, place)


def test_hilbert_symbol_examples():
    assert hilbert_symbol(F(-1), F(-1), INF) == -1
    assert hilbert_symbol(F(-1), F(-1), 2) == -1
    for p in (3, 5, 7, 11, 13):
        assert hilbert_symbol(F(-1), F(-1), p) == 1


def test_hilbert_symbol_bimultiplicative_and_symmetric():
    rng = random.Random(7)
    values = [F(n) for n in (-10, -3, -1, 2, 3, 5, 6, 7, 15)]
    for _ in range(60):
        a, b, c = (rng.choice(values) for _ in range(3))
        for place in (2, 3, 5, INF):
            assert hilbert_symbol(a, b, place) == hilbert_symbol(b, a, place)
            assert hilbert_symbol(a * b, c, place) == hilbert_symbol(
                a, c, place
            ) * hilbert_symbol(b, c, place)


def test_hilbert_product_formula_seeded():
    rng = random.Random(2024)
    for _ in range(120):
        a = F(rng.choice([n for n in range(-30, 31) if n != 0]))
        b = F(rng.choice([n for n in range(-30, 31) if n != 0]))
        places = {2, INF}
        for v in (abs(a.numerator), a.denominator, abs(b.numerator), b.denominator):
            for p in range(2, v + 1):
                if v % p == 0 and all(p % q for q in range(2, p)):
                    places.add(p)
        product = 1
        for place in places:
            product *= hilbert_symbol(a, b, place)
        assert product == 1


def test_is_square_in_qp():
    assert is_square_in_Qp(F(4), 3)
    assert not is_square_in_Qp(F(3), 3)
    assert is_square_in_Qp(F(17), 2)  # 17 = 1 mod 8
    assert not is_square_in_Qp(F(5), 2)
    assert is_square_in_Qp(F(-1), 5)
    assert not is_square_in_Qp(F(-1), INF)
    assert not is_square_in_Qp(F(1, 3), 3)  # odd valuation from the denominator
    assert not is_square_in_Qp(F(1, 2), 3)  # 1/2 = 2 mod 3, a non-residue
    assert is_square_in_Qp(F(17, 4), 2)
    # an int is read as a Fraction is, through numerator and denominator
    for r in (4, 3, 17, 5, -1, -7, 12):
        for place in (2, 3, 5, 7, INF):
            assert is_square_in_Qp(r, place) == is_square_in_Qp(F(r), place)
    for zero in (0, F(0)):
        with pytest.raises(DomainError):
            is_square_in_Qp(zero, 3)


@pytest.mark.parametrize("place", [0, 1, 4, -3, 2.5, -math.inf, math.nan])
def test_invalid_places_are_rejected(place):
    # is_square_in_Qp once accepted 4 and looped forever at 1
    with pytest.raises(DomainError):
        hilbert_symbol(F(2), F(3), place)
    with pytest.raises(DomainError):
        is_square_in_Qp(F(2), place)


# ---------------------------------------------------------------------------
# diagonalization


def test_diagonalize_identity():
    assert diagonalize(GramMatrix.from_rows([[1, 0], [0, 1]])) == qspace(1, 1)


def test_diagonalize_hyperbolic_plane():
    space = diagonalize(GramMatrix.from_rows([[0, 1], [1, 0]]))
    assert equivalent(space, qspace(1, -1))


def test_diagonalize_shifted_basis():
    space = diagonalize(GramMatrix.from_rows([[2, -1], [-1, 2]]))
    assert space == qspace(2, F(3, 2))
    assert str(invariants(space).det) == "3"


def test_diagonalize_rejects_degenerate():
    with pytest.raises(DomainError):
        diagonalize(GramMatrix.from_rows([[1, 1], [1, 1]]))


def full_elimination_diagonal(rows) -> list[F]:
    """Reference diagonalization: after each pivot, clear its row and column
    with full-width row and column operations on the whole matrix."""
    n = len(rows)
    m = [[F(x) for x in row] for row in rows]
    diag = []
    for k in range(n):
        if m[k][k] == 0:
            swap = next((j for j in range(k + 1, n) if m[j][j] != 0), None)
            if swap is not None:
                m[k], m[swap] = m[swap], m[k]
                for row in m:
                    row[k], row[swap] = row[swap], row[k]
            else:
                other = next((j for j in range(k + 1, n) if m[k][j] != 0), None)
                if other is None:
                    raise DomainError("degenerate Gram matrix")
                for j in range(n):
                    m[k][j] += m[other][j]
                for i in range(n):
                    m[i][k] += m[i][other]
        pivot = m[k][k]
        diag.append(pivot)
        for i in range(k + 1, n):
            factor = m[i][k] / pivot
            for j in range(n):
                m[i][j] -= factor * m[k][j]
            for j in range(n):
                m[j][i] -= factor * m[j][k]
    return diag


_ENTRIES = st.fractions(min_value=-4, max_value=4, max_denominator=3)


@st.composite
def symmetric_matrices(draw):
    """Symmetric rational matrices up to 8 x 8; diagonal entries are often
    zero, so that both the swap and the add repair of a zero pivot run."""
    n = draw(st.integers(1, 8))
    rows = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = draw(st.just(F(0)) | _ENTRIES)
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = draw(_ENTRIES)
    return rows


@settings(max_examples=300, deadline=None)
@given(symmetric_matrices())
@example([[0, 1], [1, 0]])  # zero pivot, no nonzero diagonal after it: add
@example([[0, 1, 2], [1, 0, 0], [2, 0, 3]])  # zero pivot, later nonzero diagonal: swap
@example([[1, 1], [1, 1]])  # degenerate
@example([[2, 2, 0], [2, 2, 1], [0, 1, 0]])  # pivot 2, then the add rule: 2, 2, -1/2
def test_diagonalize_matches_full_elimination(rows):
    try:
        expected = full_elimination_diagonal(rows)
    except DomainError:
        with pytest.raises(DomainError):
            diagonalize(GramMatrix.from_rows(rows))
        return
    assert list(diagonalize(GramMatrix.from_rows(rows)).diagonal) == expected


def _random_unimodular(rng: random.Random, n: int):
    m = [[F(1 if i == j else 0) for j in range(n)] for i in range(n)]
    for _ in range(2 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = F(rng.randint(-2, 2))
        for k in range(n):
            m[i][k] += c * m[j][k]
    return m


@pytest.mark.parametrize(
    "base",
    [
        GramMatrix.from_rows([[2, -1, 0], [-1, 2, 1], [0, 1, -3]]),
        # zero diagonal blocks exercise the pivot-repair branch
        GramMatrix.from_rows([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]),
    ],
)
def test_diagonalize_invariants_are_basis_independent(base):
    rng = random.Random(11)
    n, entries = len(base.rows), gram_entries(base)
    expected = invariants(diagonalize(base))
    for _ in range(50):
        s = _random_unimodular(rng, n)
        rows = [
            [
                sum(s[k][i] * entries[k][l] * s[l][j] for k in range(n) for l in range(n))
                for j in range(n)
            ]
            for i in range(n)
        ]
        transformed = GramMatrix.from_rows(rows)
        assert invariants(diagonalize(transformed)) == expected


# ---------------------------------------------------------------------------
# invariants, sums, complements


def test_invariants_examples():
    inv = invariants(qspace(2, 2))
    assert (inv.dim, inv.signature, str(inv.det), inv.sorted_hasse()) == (2, (2, 0), "1", [])
    inv2 = invariants(qspace(1, -1))
    assert (inv2.signature, str(inv2.det), inv2.sorted_hasse()) == ((1, 1), "-1", [])
    inv3 = invariants(qspace(-1, -1))
    assert (inv3.signature, str(inv3.det), inv3.sorted_hasse()) == ((0, 2), "1", [2, INF])
    assert inv3.to_json()["hasse"] == ["2", "inf"]


def test_equivalence_examples():
    assert equivalent(qspace(2, 2), qspace(1, 1))
    assert not equivalent(qspace(1, 1), qspace(1, -1))


def test_sum_examples():
    a = invariants(qspace(-1))
    total = sum_invariants(a, a)
    assert (total.dim, str(total.det), total.sorted_hasse()) == (2, "1", [2, INF])
    assert sum_invariants(a, NEUTRAL) == a
    b = invariants(qspace(1, -1))
    doubled = sum_invariants(b, b)
    assert doubled == invariants(qspace(1, -1, 1, -1))
    assert doubled.sorted_hasse() == [2, INF]


def test_sum_matches_concatenation_seeded():
    rng = random.Random(5)
    entries = [F(n) for n in (-6, -5, -3, -2, -1, 1, 2, 3, 5, 10)]
    for _ in range(80):
        v = QSpace(tuple(rng.choice(entries) for _ in range(rng.randint(1, 4))))
        w = QSpace(tuple(rng.choice(entries) for _ in range(rng.randint(1, 4))))
        assert sum_invariants(invariants(v), invariants(w)) == invariants(QSpace(v.diagonal + w.diagonal))


def test_complement_examples():
    k3 = k3_invariants()
    sub = invariants(qspace(2, 2))
    comp = complement_invariants(sub, k3)
    assert comp.dim == 20
    assert comp.signature == (1, 19)
    assert str(comp.det) == "-1"
    assert comp.sorted_hasse() == [2, INF]
    assert complement_invariants(k3, k3) == NEUTRAL
    assert complement_invariants(NEUTRAL, k3) == k3


def test_complement_inverts_sum_seeded():
    rng = random.Random(13)
    entries = [F(n) for n in (-7, -3, -1, 1, 2, 5, 6)]
    for _ in range(50):
        v = QSpace(tuple(rng.choice(entries) for _ in range(rng.randint(1, 3))))
        w = QSpace(tuple(rng.choice(entries) for _ in range(rng.randint(1, 3))))
        iv, iw = invariants(v), invariants(w)
        total = sum_invariants(iv, iw)
        assert complement_invariants(iv, total) == iw
        assert sum_invariants(iv, complement_invariants(iv, total)) == total


def reference_invariants(diag) -> QFormInvariants:
    """Invariants with the Hasse set taken from all n(n-1)/2 Hilbert symbols
    (a_i, a_j) at each place dividing an entry, 2 and infinity."""
    primes = {2}
    for a in diag:
        primes.update(_intfactor.factorize(abs(a.numerator)))
        primes.update(_intfactor.factorize(a.denominator))
    hasse = set()
    for place in sorted(primes) + [INF]:
        total = math.prod(hilbert_symbol(a, b, place) for a, b in itertools.combinations(diag, 2))
        if total == -1:
            hasse.add(place)
    r = sum(1 for a in diag if a > 0)
    det = square_class(math.prod(diag, start=F(1)))
    return QFormInvariants(len(diag), (r, len(diag) - r), det, frozenset(hasse))


# signed products of small prime powers (shared primes, powers of 2, negative
# exponents for denominators) next to plain nonzero integers
_SMOOTH_RATIONALS = st.builds(
    lambda sign, exps: sign * math.prod((F(p) ** e for p, e in zip((2, 3, 5, 7, 11), exps)), start=F(1)),
    st.sampled_from((1, -1)),
    st.lists(st.integers(-3, 5), min_size=5, max_size=5),
)
_NONZERO_INTEGERS = st.integers(-60, 60).filter(bool).map(F)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.one_of(_SMOOTH_RATIONALS, _NONZERO_INTEGERS), min_size=1, max_size=8))
def test_invariants_match_all_pairs_reference(diag):
    assert invariants(QSpace(tuple(diag))) == reference_invariants(diag)


@st.composite
def _diagonal_of_runs(draw):
    """Runs of +1, -1 and one other small rational, in any order, each of a
    length 0..10 (every class mod 4), in dimension 1..22; the other
    rational may itself be +-1."""
    other = draw(st.one_of(st.sampled_from((F(1), F(-1))), _SMOOTH_RATIONALS, _NONZERO_INTEGERS))
    lengths = draw(st.lists(st.integers(0, 10), min_size=3, max_size=3).filter(lambda ks: 1 <= sum(ks) <= 22))
    runs = draw(st.permutations(list(zip((F(1), F(-1), other), lengths))))
    return [a for a, k in runs for _ in range(k)]


@settings(max_examples=200, deadline=None)
@given(_diagonal_of_runs())
@example([F(1)] * 15 + [F(-1)] * 2 + [F(3), F(-5), F(-15)])
@example([F(-1)] * 3 + [F(6)] * 7)
def test_invariants_of_repeated_entries_match_all_pairs_reference(diag):
    # the block rule: <a>^k has determinant a^(k mod 2) and Hasse symbol
    # (a, -1)^(k(k-1)/2)
    assert invariants(QSpace(tuple(diag))) == reference_invariants(diag)


# ints next to `Fraction`s, with entries of one class but unequal value
_CLASS_TWINS = st.sampled_from((1, F(1), -1, F(-1), 2, F(2), 8, F(1, 2), F(8, 9), -3, F(-3), -27, F(-1, 3), 5, F(5, 4)))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.one_of(_CLASS_TWINS, _NONZERO_INTEGERS.map(int), _SMOOTH_RATIONALS), st.integers(1, 4)), min_size=1, max_size=6))
@example([(2, 1), (8, 1), (F(2), 2)])
@example([(F(1, 2), 3), (2, 1), (-3, 2), (-27, 1), (F(-3), 1)])
def test_invariants_group_ints_and_fractions_by_value(runs):
    # runs of equal entries, the same value possibly as int and `Fraction`
    # in different runs: grouping on (numerator, denominator) pairs must
    # agree with the all-pairs reference
    diag = [a for a, k in runs for _ in range(k)]
    assert invariants(QSpace(tuple(diag))) == reference_invariants(diag)


@st.composite
def _integer_blocks(draw):
    """One or two symmetric integer blocks of dimension 1..6 over a den that
    may share primes with the entries.  Zero entries are frequent, so zero
    leading minors force the swap and border repairs of `symmetric_pivots`,
    and multiples of 3 and 5 let a prime divide an inner pivot and not the
    determinant."""
    den = draw(st.sampled_from((1, 2, 3, 4, 6, 9, 12, 15, 45, 50, 98)) | st.integers(1, 400))
    entry = st.sampled_from((0, 0, 0, 1, -1, 2, 3, -3, 5, 6, 9, -10, 15, 25, 27)) | st.integers(-40, 40)
    blocks = []
    for _ in range(draw(st.integers(1, 2))):
        n = draw(st.integers(1, 6))
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                rows[i][j] = rows[j][i] = draw(entry)
        blocks.append(rows)
    return blocks, den


@settings(max_examples=400, deadline=None)
@given(_integer_blocks())
@example(([[[1, 0], [0, 1]]], 3))  # the Hasse place 3 comes from den alone
@example(([[[3, 0], [0, 3]]], 1))  # ... from the determinant alone
@example(([[[3, 1], [1, 0]]], 1))  # 3 divides the inner pivot 3, not the determinant -1
@example(([[[0, 1], [1, 0]], [[0, 3, 0], [3, 0, 1], [0, 1, 5]]], 6))  # border repair, then a swap
def test_pivot_invariants_match_the_pivot_diagonal_reference(case):
    blocks, den = case
    try:
        expected = reference_block_invariants(blocks, den)
    except DomainError:
        with pytest.raises(DomainError):
            [symmetric_pivots([list(row) for row in block]) for block in blocks]
        return
    assert pivot_invariants([symmetric_pivots([list(row) for row in block]) for block in blocks], den) == expected


# square factors in numerator and denominator, and a prime above 10**12 met
# as P or P**2 (never split by Pollard rho)
_WITH_LARGE_PRIME = st.builds(lambda r, e: r * F(10**12 + 39) ** e, _SMOOTH_RATIONALS, st.integers(-2, 2))


@settings(max_examples=150, deadline=None)
@given(_WITH_LARGE_PRIME, _WITH_LARGE_PRIME)
def test_ramified_matches_public_hilbert_symbols(a, b):
    places = {2, INF}
    for r in (a, b):
        places.update(_intfactor.factorize(abs(r.numerator)))
        places.update(_intfactor.factorize(r.denominator))
    expected = {v for v in places if hilbert_symbol(a, b, v) == -1}
    assert _ramified(square_class(a), square_class(b)) == expected


# ---------------------------------------------------------------------------
# admissibility and construction


def test_admissible_examples():
    ok = QFormInvariants(20, (1, 19), square_class(F(-1)), frozenset({2, INF}))
    assert admissible(ok)
    assert not admissible(QFormInvariants(3, (3, 0), square_class(F(-1)), frozenset()))
    assert not admissible(QFormInvariants(2, (2, 0), square_class(F(-1)), frozenset()))
    # an odd number of ramified places breaks Hilbert reciprocity
    assert not admissible(QFormInvariants(3, (3, 0), square_class(F(1)), frozenset({2})))
    # the zero space has trivial determinant and no ramified place
    assert admissible(QFormInvariants(0, (0, 0), square_class(F(1)), frozenset()))
    assert not admissible(QFormInvariants(0, (0, 0), square_class(F(2)), frozenset()))


def test_admissible_binary_special_case():
    # det -1 binary forms are hyperbolic; no finite ramification allowed
    assert not admissible(QFormInvariants(2, (1, 1), square_class(F(-1)), frozenset({2, 3})))
    assert admissible(QFormInvariants(2, (1, 1), square_class(F(-2)), frozenset({2, 3})))


def test_construct_examples():
    assert construct_with_invariants(
        QFormInvariants(3, (3, 0), square_class(F(1)), frozenset())
    ) == qspace(1, 1, 1)
    assert construct_with_invariants(
        QFormInvariants(2, (1, 1), square_class(F(-1)), frozenset())
    ) == qspace(1, -1)
    assert construct_with_invariants(
        QFormInvariants(2, (0, 2), square_class(F(1)), frozenset({2, INF}))
    ) == qspace(-1, -1)


def test_construct_rejects_inadmissible():
    with pytest.raises(DomainError):
        construct_with_invariants(QFormInvariants(3, (3, 0), square_class(F(-1)), frozenset()))


def test_construct_round_trip_small_grid():
    import itertools

    dets = [1, -1, 2, -2, 3, -3, 7, -7]
    hasse_opts = [
        frozenset(),
        frozenset({2, 3}),
        frozenset({2, 7}),
        frozenset({5, 7}),
        frozenset({2, INF}),
        frozenset({3, INF}),
        frozenset({7, INF}),
        frozenset({2, 3, 5, 7}),
    ]
    checked = 0
    for dim in (1, 2, 3, 4):
        for det_val, hasse, s in itertools.product(dets, hasse_opts, range(dim + 1)):
            inv = QFormInvariants(dim, (dim - s, s), square_class(F(det_val)), hasse)
            if not admissible(inv):
                continue
            space = construct_with_invariants(inv)
            assert invariants(space) == inv
            checked += 1
    assert checked > 100


def test_construct_hard_ternary_case():
    # toggling the Hasse set at a prime p = 1 mod 4 with trivial determinant
    inv = QFormInvariants(3, (3, 0), square_class(F(1)), frozenset({2, 5}))
    space = construct_with_invariants(inv)
    assert invariants(space) == inv


def test_construct_binary_block_beyond_the_pool():
    # the binary block left after the peel (signature (0, 2), det 10P,
    # Hasse {2, inf}) has no scalar over the pool {2, ..., 19, P}; the
    # auxiliary prime 23 gives x = -46
    inv = invariants(qspace(10**12 + 39, 10, -10, -10))
    space = construct_with_invariants(inv)
    assert invariants(space) == inv
    assert space.diagonal[2] == -46


def _reference_scalars(inv, signs):
    """Signed squarefree scalars over the pool {2, first eight primes, primes
    of det, finite Hasse places}: by pool size, then combination order."""
    pool = {2, 3, 5, 7, 11, 13, 17, 19}
    pool.update(_intfactor.factorize(inv.det.squarefree))
    pool.update(v for v in inv.hasse if v != INF)
    for size in range(len(pool) + 1):
        for combo in itertools.combinations(sorted(pool), size):
            for sign in signs:
                yield F(sign * math.prod(combo))


def reference_construct(inv) -> list:
    """The construction scanning scalars x with the test
    `invariants(QSpace((x, delta * x))) == inv` for the binary block; a unit
    is peeled above dimension 3."""
    r, s = inv.signature
    if inv.dim <= 1:
        return [inv.det.as_fraction()] * inv.dim
    signs = tuple(sign for sign, count in ((1, r), (-1, s)) if count)
    if inv.dim == 2:
        delta = inv.det.as_fraction()
        for x in _reference_scalars(inv, signs):
            if invariants(QSpace((x, delta * x))) == inv:
                return [x, delta * x]
        raise ConstructionError(f"no binary form for {inv}")
    if inv.dim == 3:
        for z in _reference_scalars(inv, signs):
            rest = complement_invariants(invariants(QSpace((z,))), inv)
            if admissible(rest):
                return [z] + reference_construct(rest)
        raise ConstructionError(f"no ternary split for {inv}")
    eps = F(signs[0])
    return [eps] + reference_construct(complement_invariants(invariants(QSpace((eps,))), inv))


# one prime above 10**12 per example: the reference then meets it only as
# P or P**2 and never has to split P * Q by Pollard rho
_LARGE_PRIMES = (10**12 + 39, 10**13 + 37)


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(_LARGE_PRIMES),
    st.lists(
        st.tuples(st.sampled_from((1, -1)), st.lists(st.integers(-1, 2), min_size=5, max_size=5)),
        min_size=1,
        max_size=5,
    ),
)
def test_construct_matches_reference_scan(large, entries):
    diag = tuple(
        sign * math.prod((F(p) ** e for p, e in zip((2, 3, 5, 7, large), exps)), start=F(1))
        for sign, exps in entries
    )
    inv = invariants(QSpace(diag))
    try:
        expected = tuple(reference_construct(inv))
    except ConstructionError:
        # the pool holds no scalar for some binary block: the construction
        # goes on to an auxiliary prime and must still round-trip
        assert invariants(construct_with_invariants(inv)) == inv
        return
    assert construct_with_invariants(inv).diagonal == expected


@st.composite
def admissible_invariants(draw):
    """Invariants of dimension 4..20, admissible by construction: det of
    sign (-1)**s over small primes and one large prime, a finite Hasse set
    over 2, 3, 5, 7 and det's primes, inf in it when s(s-1)/2 is odd, and 2
    toggled when the set is odd."""
    dim = draw(st.integers(4, 20))
    s = draw(st.integers(0, dim))
    primes = frozenset(draw(st.sets(st.sampled_from((2, 3, 5, 7, 11, _LARGE_PRIMES[0])))))
    hasse = set(draw(st.sets(st.sampled_from(sorted({2, 3, 5, 7} | primes)))))
    if s * (s - 1) // 2 % 2:
        hasse.add(INF)
    if len(hasse) % 2:
        hasse ^= {2}
    return QFormInvariants(dim, (dim - s, s), SquareClass((-1) ** s, primes), frozenset(hasse))


@settings(max_examples=150, deadline=None)
@given(admissible_invariants())
def test_direct_peel_matches_the_peel_search(inv):
    # above dimension 3 the search's first scalar, the unit +1 while r > 0
    # and then -1, always has an admissible complement
    assert admissible(inv)
    assert list(construct_with_invariants(inv).diagonal) == peel_search_diagonal(inv)


@st.composite
def pools_with_required(draw):
    """A sorted pool of distinct primes and a subset of it."""
    pool = sorted(draw(st.sets(st.sampled_from((2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)), max_size=7)))
    return pool, frozenset(draw(st.sets(st.sampled_from(pool)))) if pool else frozenset()


@settings(max_examples=200, deadline=None)
@given(pools_with_required(), st.sampled_from([(1,), (-1,), (1, -1)]))
def test_scan_with_required_primes_is_the_filtered_full_scan(pool_required, signs):
    # the same scalars in the same order as the full scan filtered to those
    # holding every required prime, in the pool phase and, over a prefix,
    # with the auxiliary primes as well
    pool, required = pool_required
    full = [c for c in _scalar_candidates(pool, signs) if required <= c.primes]
    assert list(_scalar_candidates(pool, signs, required)) == full
    prefix = len(full) * 3
    filtered = (c for c in _binary_scalars(pool, signs) if required <= c.primes)
    assert list(itertools.islice(_binary_scalars(pool, signs, required), prefix)) == list(
        itertools.islice(filtered, prefix)
    )


QUADRATIC = WeilCandidate(Poly([1, F(-1, 2), 1]), 2, 1)


def run_complement_traffic() -> list[dict]:
    """One seed-0 `extend` pass and 50 seed-0 `construct` passes, each op
    verified, then `pipeline.run` of [1, -1/2, 1] at p = 2 to extension
    degree 8, 10, ..., 18; the certificates of the `extend` runs and of the
    six runs to degree 8..18, in that order."""
    workloads = _load_workloads()
    pools = workloads.load_pools()
    certificates = []

    def run(ops, keep):
        for op in ops:
            result = op.primary()
            if keep:
                certificates.append(result.certificate)
            op.verify(result)

    run(workloads.Extend(0, pools).next_pass(), True)
    construct = workloads.Construct(0, pools)
    for _ in range(50):
        run(construct.next_pass(), False)
    for degree in range(8, 20, 2):
        certificates.append(pipeline.run(QUADRATIC, pipeline.PipelineConfig(max_extension_degree=degree)).certificate)
    return certificates


def test_complements_of_benchmark_traffic_pin(monkeypatch):
    # SHA-256 of (invariants, space) for every complement that cm_to_k3
    # constructs in the traffic of `run_complement_traffic` (192 calls), and
    # of its 42 certificates, pinned while the binary block scanned every
    # scalar of the pool
    calls = []
    original = cmfield.construct_with_invariants

    def record(inv):
        space = original(inv)
        calls.append([inv.to_json(), space.to_json()])
        return space

    monkeypatch.setattr(cmfield, "construct_with_invariants", record)
    certificates = run_complement_traffic()
    assert len(calls) == 192
    digest = hashlib.sha256(json.dumps(calls).encode()).hexdigest()
    assert digest == "54d645c65411450bfd273276ffbd584c8d63477f3fddfd52c6af9152d267def1"
    assert len(certificates) == 42
    digest = hashlib.sha256(json.dumps(certificates).encode()).hexdigest()
    assert digest == "900b7d6d5e531d22034ec440239a08c3026cd45773cdb1bf586a6d2f7914dec9"


def test_binary_scan_pulls_only_scalars_with_the_required_primes(monkeypatch):
    # the binary block's scan yields only scalars holding its finite Hasse
    # places outside 2 and det's primes: 355 pulls over the complement
    # traffic (8,731 when it scanned every scalar), and 7 for the run to
    # degree 14 (4,089)
    pulls = []
    original = qform._binary_scalars

    def counted(*args):
        for c in original(*args):
            pulls.append(c)
            yield c

    monkeypatch.setattr(qform, "_binary_scalars", counted)
    run_complement_traffic()
    assert len(pulls) == 355
    pulls.clear()
    pipeline.run(QUADRATIC, pipeline.PipelineConfig(max_extension_degree=14))
    assert len(pulls) == 7


# ---------------------------------------------------------------------------
# the K3 lattice


def test_k3_lattice_shape_and_determinant():
    gram = k3_lattice()
    assert len(gram.rows) == 22
    assert fraction_determinant(gram.rows) == -1
    assert gram.den == 1


def test_k3_block_structure():
    gram = k3_lattice()
    # two copies of the negated even unimodular rank-8 block, then 3 planes
    for offset in (16, 18, 20):
        assert gram.rows[offset][offset + 1] == 1
        assert gram.rows[offset][offset] == 0
    sub8 = [row[:8] for row in gram.rows[:8]]
    assert fraction_determinant(sub8) == 1  # (-1)**8 * det(E8)
    assert all(sub8[i][i] == -2 for i in range(8))


def test_k3_invariants_match_expected():
    inv = k3_invariants()
    assert inv.dim == 22
    assert inv.signature == (3, 19)
    assert str(inv.det) == "-1"
    assert inv.sorted_hasse() == [2, INF]


def test_k3_invariants_match_all_pairs_reference_and_golden():
    reference = reference_invariants(diagonalize(k3_lattice()).diagonal)
    assert k3_invariants() == reference
    golden = json.loads((GOLDEN / "lattice.json").read_text())
    assert golden["invariants"] == reference.to_json()


def test_u_blocks_diagonalize_to_det_minus_one():
    u = GramMatrix.from_rows([[0, 1], [1, 0]])
    assert str(invariants(diagonalize(u)).det) == "-1"
