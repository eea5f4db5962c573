"""Bulk tables over discriminant ranges, built with dense numpy sweeps.

The per-discriminant functions in quadforms take one square-root step per
a <= sqrt(|D|/3) and one Python call per discriminant, which is fine
pointwise but hopeless for scans up to 10^6.  Here the whole family of
reduced forms below a bound is swept once.  A reduced form [a,b,c]
contributes to |D| = 4ac - b^2 = 4k + r with r = 0 for even b and r = 3 for
odd b, and k = ac - (b^2 + r)/4.  For fixed a every b of one class r is
periodic in k with period a.  So each (a, r) is one small block of counts,
indexed by (k // a, k % a) and added to the int32 array of class r viewed
with width a; the block's last row is then added to every row below it.
That is two dense adds per a for each class, not one numpy call per (a, b).

Array indices are |D| (so index 84 holds data for D = -84).  Entries at
indices with |D| % 4 not in {0, 3} are zero.

The arithmetic tables (Mobius, omega, square-freeness, smallest prime
factor) all read their primes from spf_table, the one numpy prime sieve;
single values are answered by arith.factorization instead, and the small
moduli of the numpy-free form enumeration by arith.smallest_prime_factors.

numpy is imported inside each function that uses it, not at module level.
Every command is a fresh process, and classgroup imports this module, so a
module-level import would make every command pay for numpy at start-up.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, isqrt

from .arith import divisors_from_factorization  # noqa: F401  (re-exported for scans)


# At one |D| = n each a <= sqrt(n/3) has at most 2a + 1 reduced forms (one per b),
# so a count is at most n/3 + 2 sqrt(n/3) + 1, below 2^31 for every n up to here.
_INT32_LIMIT = 6 * 10**9


@lru_cache(maxsize=4)
def reduced_form_counts(limit: int) -> np.ndarray:
    """counts[n] = number of reduced forms (primitive or not) with |D| = n <= limit.

    The sweep runs in int32 and raises ValueError for limit > 6*10^9, past which
    a count could overflow it.
    """
    import numpy as np

    if limit > _INT32_LIMIT:
        raise ValueError(f"limit = {limit} exceeds {_INT32_LIMIT}, where int32 counts could overflow")
    counts = np.zeros(limit + 1, dtype=np.int64)
    amax = isqrt(limit // 3)
    for r in (0, 3):
        size = len(counts[r::4])
        # amax slack: each a reshapes the first ceil(size / a) * a entries
        acc = np.zeros(size + amax, dtype=np.int32)
        for a in range(1, amax + 1):
            top, block = _period_block(a, r)
            view = acc[: -(-size // a) * a].reshape(-1, a)
            if top < len(view):
                stop = min(len(view), top + len(block))
                view[top:stop] += block[: stop - top]
                view[stop:] += block[-1]
        counts[r::4] = acc[:size]
    return counts


def _period_block(a: int, r: int):
    """(top, block): the reduced forms [a, b, c] with 4ac - b^2 = 4k + r, by k.

    With s = (b^2 + r) / 4, k = ac - s, so in a width-a array k sits at row
    k // a and column k % a, and each further c moves it one row down.
    block[i, j] counts the forms at row top + i, column j; its last row holds
    for every row below it.
    """
    import numpy as np

    b = np.arange(r // 3, a + 1, 2)  # b^2 = -r (mod 4)
    k = a * a - (b * b + r) // 4  # the forms [a, b, a]
    top = int(k[-1]) // a
    block = np.zeros((int(k[0]) // a - top + 2, a), dtype=np.int32)
    flat = block.reshape(-1)
    k -= top * a
    flat[k] = 1  # c = a: 0 <= b <= a, each once
    flat[k + a] += (0 < b) & (b < a)  # c > a: -b is reduced too when 0 < b < a
    np.cumsum(block, axis=0, dtype=np.int32, out=block)
    return top, block


@lru_cache(maxsize=8)
def _mobius_upto(limit: int) -> np.ndarray:
    import numpy as np

    mu = np.ones(limit + 1, dtype=np.int64)
    for p in primes_upto(limit).tolist():
        mu[p::p] *= -1
        mu[p * p:: p * p] = 0
    return mu


@lru_cache(maxsize=4)
def class_number_table(limit: int) -> np.ndarray:
    """h[n] = number of primitive classes of discriminant -n, for n <= limit.

    Counts of all forms relate to primitive counts by summation over square
    divisors, inverted here with the Mobius function: h(n) = sum over f of
    mu(f) * counts(n / f^2).
    """
    counts = reduced_form_counts(limit)
    h = counts.copy()
    fmax = isqrt(limit)
    mu = _mobius_upto(fmax) if fmax >= 2 else None
    for f in range(2, fmax + 1):
        m = int(mu[f])
        if m == 0:
            continue
        f2 = f * f
        n_inner = limit // f2
        h[f2:: f2][:n_inner] += m * counts[1: n_inner + 1]
    return h


@lru_cache(maxsize=4)
def squarefree_mask(limit: int) -> np.ndarray:
    import numpy as np

    mask = np.ones(limit + 1, dtype=bool)
    mask[0] = False
    for p in primes_upto(isqrt(limit)).tolist():
        mask[p * p:: p * p] = False
    return mask


@lru_cache(maxsize=4)
def fundamental_mask(limit: int) -> np.ndarray:
    """mask[n] true iff -n is a fundamental discriminant, n <= limit.

    That is n = 3 (mod 4) squarefree, or n = 4m with m = 1, 2 (mod 4)
    squarefree, i.e. n = 4, 8 (mod 16) read off m = 1, 2 (mod 4).
    """
    import numpy as np

    sf = squarefree_mask(limit)
    mask = np.zeros(limit + 1, dtype=bool)
    mask[3::4] = sf[3::4]
    for n0, m0 in ((4, 1), (8, 2)):
        out = mask[n0::16]
        out[:] = sf[m0::4][: len(out)]
    return mask


@lru_cache(maxsize=4)
def omega_table(limit: int) -> np.ndarray:
    """omega[n] = number of distinct prime divisors of n."""
    import numpy as np

    omega = np.zeros(limit + 1, dtype=np.int64)
    for p in primes_upto(limit).tolist():
        omega[p::p] += 1
    return omega


@lru_cache(maxsize=4)
def spf_table(limit: int) -> np.ndarray:
    """spf[n] = smallest prime factor of n (spf[0] = 0, spf[1] = 1).

    The package's one prime sieve: only primes p <= sqrt(limit) are sieved,
    each from p^2 on, and every n >= 2 left unmarked is prime.
    """
    import numpy as np

    spf = np.zeros(limit + 1, dtype=np.int64)
    for p in range(2, isqrt(limit) + 1):
        if not spf[p]:
            block = spf[p * p:: p]
            block[block == 0] = p
    n = np.arange(limit + 1)
    return np.where(spf == 0, n, spf)


def primes_upto(limit: int) -> np.ndarray:
    """The primes p <= limit, read off spf_table as the n >= 2 with spf[n] = n."""
    import numpy as np

    spf = spf_table(limit)
    return np.flatnonzero(spf[2:] == np.arange(2, limit + 1)) + 2


def factorize(n: int, spf: np.ndarray):
    """Prime factorization [(p, e), ...] of n using a precomputed spf table."""
    out = []
    while n > 1:
        p = int(spf[n])
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        out.append((p, e))
    return out


@lru_cache(maxsize=4)
def ambiguous_class_counts(limit: int) -> np.ndarray:
    """amb[n] = number of self-inverse classes of primitive forms, |D| = n.

    A reduced form represents a class of order dividing two exactly when
    b = 0, b = a, or a = c, so these are counted shape by shape.  For
    fundamental discriminants this equals 2^(g-1) with g the number of
    distinct primes dividing D.
    """
    import numpy as np

    amb = np.zeros(limit + 1, dtype=np.int64)
    # b = 0, a < c: |D| = 4ac
    amax = isqrt(limit) // 2 + 1
    for a in range(1, amax + 1):
        for c in range(a + 1, limit // (4 * a) + 1):
            if gcd(a, c) == 1:
                amb[4 * a * c] += 1
    # b = a, a <= c (includes [a,a,a]): |D| = 4ac - a^2 = a(4c - a)
    for a in range(1, isqrt(limit // 3) + 1):
        for c in range(a, (limit + a * a) // (4 * a) + 1):
            n = 4 * a * c - a * a
            if n <= limit and gcd(a, c) == 1:
                amb[n] += 1
    # a = c, 0 <= b < a ([a,a,a] already counted; [a,0,a] belongs here): |D| = 4a^2 - b^2
    for a in range(1, isqrt(limit // 3) + 2):
        for b in range(0, a):
            n = 4 * a * a - b * b
            if n <= limit and gcd(a, b) == 1:
                amb[n] += 1
    return amb
