"""Fraction-free (Bareiss) elimination of small dense symmetric integer
matrices."""

from __future__ import annotations

from .exactpoly import DomainError


def symmetric_pivots(m: list[list[int]]) -> list[int]:
    """The pivots D_1, ..., D_n of fraction-free symmetric elimination
    (Bareiss, Math. Comp. 22, 1968) of a symmetric integer matrix m, which
    it overwrites; DomainError if m is degenerate.

    Step k pivots on p = m[k][k] and updates the trailing block, the only
    part later steps read: m[i][j] = (p*m[i][j] - m[i][k]*m[k][j]) // prev,
    prev the previous pivot (1 at first).  By Sylvester's identity the new
    entry is a bordered leading minor, so the division is exact and D_k is
    the k-th leading minor.  A zero pivot is swapped with a later nonzero
    diagonal entry, or else row and column k gain a later row and column
    with m[k][j] != 0; bordered minors are linear in their border, so the
    block follows these congruences of determinant +-1 exactly."""
    n = len(m)
    pivots, prev = [], 1
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
                for j in range(k, n):
                    m[k][j] += m[other][j]
                for i in range(k, n):
                    m[i][k] += m[i][other]
        pivot = m[k][k]
        pivots.append(pivot)
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (pivot * m[i][j] - m[i][k] * m[k][j]) // prev
        prev = pivot
    return pivots
