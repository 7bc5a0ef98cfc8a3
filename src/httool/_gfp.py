"""Dense univariate polynomial arithmetic over the prime field F_p.

Polynomials are lists of ints reduced into [0, p), ascending degree, with no
trailing zeros (the zero polynomial is the empty list).  The primes in play
are small, so Berlekamp's algorithm with a deterministic splitting loop is
both simple and fast, and avoids randomized Cantor-Zassenhaus.  It is the one
factorization: one fixed vector proves f irreducible, and more split it.
Where only the number of factors matters, the dimension of Berlekamp's fixed
space gives it.  One Gauss-Jordan routine serves that space and `inverse`.
The product is the package's one integer convolution, `_convolve`, which
takes lists of any integers; products and remainders reduce mod p once, at
the end.
"""

from __future__ import annotations


def trim(f: list[int]) -> list[int]:
    while f and f[-1] == 0:
        f.pop()
    return f


def degree(f: list[int]) -> int:
    return len(f) - 1


def _convolve(f: list[int], g: list[int]) -> list[int]:
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] += a * b
    return trim(out)


def mul(f: list[int], g: list[int], p: int) -> list[int]:
    return trim([c % p for c in _convolve(f, g)])


def divmod_(f: list[int], g: list[int], p: int) -> tuple[list[int], list[int]]:
    if not g:
        raise ZeroDivisionError("division by the zero polynomial")
    dg = len(g) - 1
    if len(f) <= dg:
        return [], list(f)
    inv = pow(g[-1], -1, p)
    rem = list(f)
    quo = [0] * (len(f) - dg)
    # an entry is reduced mod p when read as a leading coefficient
    for shift in range(len(f) - 1 - dg, -1, -1):
        c = rem[shift + dg] * inv % p
        if c:
            quo[shift] = c
            for i in range(dg):
                rem[shift + i] -= c * g[i]
    return trim(quo), trim([a % p for a in rem[:dg]])


def rem(f: list[int], g: list[int], p: int) -> list[int]:
    return divmod_(f, g, p)[1]


def monic(f: list[int], p: int) -> list[int]:
    if not f:
        return []
    inv = pow(f[-1], -1, p)
    return [inv * a % p for a in f]


def gcd(f: list[int], g: list[int], p: int) -> list[int]:
    a, b = list(f), list(g)
    while b:
        a, b = b, rem(a, b, p)
    return monic(a, p)


def derivative(f: list[int], p: int) -> list[int]:
    return trim([i * c % p for i, c in enumerate(f)][1:])


def is_squarefree(f: list[int], p: int) -> bool:
    d = derivative(f, p)
    if not d:
        return degree(f) <= 0
    return degree(gcd(f, d, p)) == 0


def _row_reduce(rows: list[list[int]], p: int) -> list[int]:
    """Bring `rows` to reduced row echelon form over F_p in place and return
    the pivot columns.  Rows below the pivots found are zero left of the
    column searched, so row operations start at that column."""
    pivots: list[int] = []
    for col in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        pivot_row = next((i for i in range(r, len(rows)) if rows[i][col] % p), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = pow(rows[r][col], -1, p)
        pivot = [v * inv % p for v in rows[r][col:]]
        rows[r][col:] = pivot
        for i, row in enumerate(rows):
            if i != r and (factor := row[col] % p):
                row[col:] = [(a - factor * b) % p for a, b in zip(row[col:], pivot)]
        pivots.append(col)
    return pivots


def _nullspace_mod_p(matrix: list[list[int]], p: int) -> list[list[int]]:
    """Basis of the right nullspace of `matrix` over F_p, by free column."""
    rows = [row[:] for row in matrix]
    pivots = _row_reduce(rows, p)
    n = len(rows[0]) if rows else 0
    basis = []
    for free in (c for c in range(n) if c not in pivots):
        vec = [0] * n
        vec[free] = 1
        for row, col in zip(rows, pivots):
            vec[col] = -row[free] % p
        basis.append(vec)
    return basis


def inverse(matrix: list[list[int]], p: int) -> list[list[int]] | None:
    """The inverse of a square matrix over F_p, or None when it is singular:
    [A | I] row-reduces to [I | A**-1] exactly when A is invertible."""
    n = len(matrix)
    rows = [[a % p for a in row] + [int(i == j) for j in range(n)] for i, row in enumerate(matrix)]
    if _row_reduce(rows, p) != list(range(n)):
        return None
    return [row[n:] for row in rows]


def fixed_space(f: list[int], p: int) -> list[list[int]]:
    """A basis of {v : v**p = v} in F_p[x]/(f) for a monic f of degree n >= 1:
    the nullspace of Frobenius - I, as coefficient vectors of length n.

    Its dimension is the number of distinct monic irreducible factors of f,
    squarefree or not.  By the Chinese remainder theorem, F_p[x]/(f) is the
    product of the F_p[x]/(phi**m) over the factors phi**m of f, and
    v**p = v holds in the product iff it holds in each of them.  In
    F_p[x]/(phi**m), take J with p**J >= m.  Since (u + phi*w)**(p**J) =
    u**(p**J) + phi**(p**J) * w**(p**J) = u**(p**J), the power v**(p**J)
    depends only on v mod phi.  A fixed v equals v**(p**J), so it is
    determined by its residue mod phi, which is fixed by Frobenius in the
    field F_p[x]/(phi) and hence lies in F_p.  So the fixed points of that
    factor are the p constants, a space of dimension 1.

    Row i of the Frobenius matrix Q is x**(i*p) mod f: row i - 1 times
    x**p mod f, which takes one square and at most one shift per bit of p,
    so the work grows with log p.  The fixed space is the nullspace of
    Q^T - I.
    """
    n = degree(f)
    xp = [1]
    for bit in bin(p)[2:]:
        xp = rem([0] * int(bit) + mul(xp, xp, p), f, p)
    power = [1] + [0] * (n - 1)
    frob_rows = [power]
    for _ in range(n - 1):
        power = (rem(mul(power, xp, p), f, p) + [0] * n)[:n]
        frob_rows.append(power)
    mt = [[(frob_rows[j][i] - (1 if i == j else 0)) % p for j in range(n)] for i in range(n)]
    return _nullspace_mod_p(mt, p)


def single_factor_multiplicity(f: list[int], p: int) -> int:
    """m for a monic f = phi**m with phi irreducible over F_p.

    f' = m * phi**(m-1) * phi' and phi' != 0 (F_p is perfect), so f' = 0 iff
    p | m, and then f = h(x**p) = h**p with h = phi**(m/p).  Once p does not
    divide the exponent, gcd(f, f') = phi**(m-1), so deg phi is
    deg f - deg gcd(f, f')."""
    scale = 1
    while not (d := derivative(f, p)):
        f = f[::p]
        scale *= p
    return scale * degree(f) // (degree(f) - degree(gcd(f, d, p)))


def berlekamp(f: list[int], p: int) -> list[list[int]]:
    """Factor a monic squarefree f over F_p into monic irreducibles, sorted.

    A fixed vector v (v**p = v mod f) is a constant s in F_p mod each
    irreducible factor phi of f, as F_p[x]/(phi) is a field.  So gcd(h,
    v - s) is the product of the factors of h on which v is s.  A factor h
    is split at each such s in ascending order, and what is left once v is
    constant mod it, which one remainder shows, is kept whole."""
    basis = fixed_space(f, p)
    factors = [list(f)]
    for vec in basis:
        v = trim(vec)
        next_factors = []
        for h in factors:
            s = 0
            while degree(rem(v, h, p)) > 0:
                while degree(g := gcd(h, trim([(v[0] - s) % p, *v[1:]]), p)) < 1:
                    s += 1
                next_factors.append(g)
                h = divmod_(h, g, p)[0]
                s += 1
            next_factors.append(h)
        factors = next_factors
        if len(factors) == len(basis):
            break
    return sorted(factors, key=lambda g: (degree(g), g))
