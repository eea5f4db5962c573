"""Small integer helpers shared across modules, by trial division and Euclid.

Every prime, divisor and square-free question about a single value goes
through factorization(), the one trial-division loop in the package.  Bulk
scans read the smallest-prime-factor sieve in tables instead.  pentagonal()
gives the exponents of prod (1 - q^n) to qseries and rademacher alike.
"""

from itertools import count


def xgcd(a: int, b: int):
    """(g, s, t) with a*s + b*t = g = gcd(a, b) >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def factorization(n: int):
    """Prime factorization [(p, e), ...] of n >= 1, primes increasing (n = 1 gives [])."""
    if n < 1:
        raise ValueError("factorization needs a positive integer")
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


def divisors_from_factorization(fact):
    """Every divisor of prod p^e over fact = [(p, e), ...], in no particular order."""
    divs = [1]
    for p, e in fact:
        pk = 1
        new = []
        for _ in range(e):
            pk *= p
            new.extend(d * pk for d in divs)
        divs.extend(new)
    return divs


def is_prime(n: int) -> bool:
    return n >= 2 and factorization(n) == [(n, 1)]


def prime_divisors(n: int):
    """Distinct primes dividing n > 0, in increasing order."""
    return [p for p, _ in factorization(n)]


def divisors(n: int):
    """Positive divisors of n > 0, in increasing order."""
    return sorted(divisors_from_factorization(factorization(n)))


def is_squarefree(n: int) -> bool:
    """Whether no square above 1 divides n > 0."""
    return all(e == 1 for _, e in factorization(n))


def pentagonal():
    """(e_j, (-1)^j) for j = 1, -1, 2, -2, ...: e_j = j(3j - 1)/2 past e_0 = 0, increasing,
    without end; prod (1 - q^n) = 1 + sum (-1)^j q^(e_j) (pentagonal-number theorem)."""
    for j in count(1):
        sign = -1 if j % 2 else 1
        yield j * (3 * j - 1) // 2, sign
        yield j * (3 * j + 1) // 2, sign
