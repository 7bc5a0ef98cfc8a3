"""Integer primality and factorization helpers.

Operands at desk scale are small (discriminants, coefficient supports), but
Pollard rho keeps square-class reduction robust when a certificate produces a
larger composite.  Rho runs Brent's cycle method.  What trial division
leaves is factored once and kept, and so is each part a split produces
(the last 4,096 in all).  One pass of perfbench's `extend` workload (seed
0, a fresh process) would otherwise make 216 rho splits on only 9 distinct
composites: 176 in `qform.pivot_invariants` and 40 in `qform.invariants`,
half of each in revalidation.  With the cache it makes 9.
"""

from __future__ import annotations

import functools
import math

_SMALL_PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
    71, 73, 79, 83, 89, 97,
)

# The first 13 prime bases decide primality for every n below PSI_13, the
# least strong pseudoprime to all of them (Sorenson-Webster 2017); the first
# 12 only below 3.18 * 10**23.  Beyond that range the test is a strong
# compositeness filter, so a prime given as input must lie below PSI_13.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PSI_13 = 3317044064679887385961981

# Process-wide tallies of costly steps, the polynomial layer's included;
# `pipeline.run` reports their growth over one run as telemetry counters.
COUNTERS = {"factor_with_unit_calls": 0, "hensel_lifts": 0, "sturm_chain_builds": 0, "pollard_rho_splits": 0}


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int) -> int:
    """Return a nontrivial factor of composite odd n (Brent's cycle method,
    BIT 20, 1980): one gcd per batch of 128 steps, with the differences
    multiplied mod n; a batch whose gcd is n is replayed step by step."""
    for c in range(1, 64):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            for k in range(0, r, 128):
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = math.gcd(q, n)
                if g != 1:
                    break
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(x - ys, n)
        if g != n:
            return g
    raise ArithmeticError(f"pollard rho failed on {n}")


@functools.lru_cache(maxsize=4096)
def _large_factors(n: int) -> tuple[tuple[int, int], ...]:
    """(prime, exponent) pairs of n > 1, free of `_SMALL_PRIMES`.  The root
    of a square and both parts of a split are factored, and kept, by calls
    of their own, so no composite part is split twice."""
    if is_prime(n):
        return ((n, 1),)
    root = math.isqrt(n)
    if root * root == n:
        return tuple((p, 2 * k) for p, k in _large_factors(root))
    d = _pollard_rho(n)
    COUNTERS["pollard_rho_splits"] += 1
    out = dict(_large_factors(d))
    for p, k in _large_factors(n // d):
        out[p] = out.get(p, 0) + k
    return tuple(out.items())


def _split_unit(n: int, p: int) -> tuple[int, int]:
    """n = p**v * u for a nonzero integer n, with p not dividing u."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v, n


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 as {prime: exponent}."""
    if n < 1:
        raise ValueError("factorize expects a positive integer")
    out: dict[int, int] = {}
    for p in _SMALL_PRIMES:
        if n == 1:
            return out
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    if n > 1:
        out.update(_large_factors(n))
    return out
