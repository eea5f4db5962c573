"""Bulk tables over discriminant ranges, built with strided numpy updates.

The per-discriminant functions in quadforms cost O(|D|) each (enumeration
visits about |D|/6 pairs (a, b) with a <= sqrt(|D|/3)), which is fine
pointwise but hopeless for scans up to 10^6.  Here the whole family of
reduced forms below a bound is swept once: a reduced form [a,b,c] contributes
to |D| = 4ac - b^2, and for fixed (a, b) the discriminants form an arithmetic
progression in c, so each (a, b) pair is one strided slice-add.

Array indices are |D| (so index 84 holds data for D = -84).  Entries at
indices with |D| % 4 not in {0, 3} are zero.

The arithmetic tables (Mobius, omega, square-freeness, smallest prime
factor) all read their primes from spf_table, the one prime sieve; single
values are answered by arith.factorization instead.

numpy is imported inside each function that uses it, not at module level.
Every command is a fresh process, and classgroup imports this module, so a
module-level import would make every command pay for numpy at start-up.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, isqrt

from .arith import divisors_from_factorization  # noqa: F401  (re-exported for scans)


@lru_cache(maxsize=4)
def reduced_form_counts(limit: int) -> np.ndarray:
    """counts[n] = number of reduced forms (primitive or not) with |D| = n <= limit."""
    import numpy as np

    counts = np.zeros(limit + 1, dtype=np.int64)
    amax = isqrt(limit // 3)
    for a in range(1, amax + 1):
        step = 4 * a
        # strictly a < c, with -a < b <= a; b and -b both reduced when 0 < b < a
        for b in range(0, a + 1):
            mult = 2 if 0 < b < a else 1
            start = 4 * a * (a + 1) - b * b
            if start <= limit:
                counts[start: limit + 1: step] += mult
        # a = c boundary: 0 <= b <= a, each once
        for b in range(0, a + 1):
            n = 4 * a * a - b * b
            if n <= limit:
                counts[n] += 1
    return counts


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
    """mask[n] true iff -n is a fundamental discriminant, n <= limit."""
    import numpy as np

    sf = squarefree_mask(limit)
    n = np.arange(limit + 1)
    mask = np.zeros(limit + 1, dtype=bool)
    mask[n % 4 == 3] = sf[n % 4 == 3]
    idx4 = n[(n % 4 == 0) & (n >= 4)]
    quarters = idx4 // 4
    ok = sf[quarters] & np.isin(quarters % 4, (1, 2))
    mask[idx4] = ok
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
