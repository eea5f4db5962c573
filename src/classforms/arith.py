"""Small integer helpers shared across modules, by trial division and Euclid.

Every prime, divisor and square-free question about a single value goes
through factorization(), the one trial-division loop in the package: it
takes out the factors of 2 by bit operations, then tries odd divisors only.
quadforms reads each odd part's least prime power from it, and rademacher
each modulus's primes.  Bulk scans read tables.spf_table, the package's one
prime sieve, instead.  sqrt_mod() lists the square roots of n modulo m
(Cohen, GTM 138, section 1.5): per prime power an Euler-criterion test,
Tonelli-Shanks and Hensel lifting for units, bit by bit at p = 2, the p-adic
valuation split where p | n, then the Chinese remainder theorem; rademacher
takes its level-6 Heegner points from it, and quadforms its reduced forms
from the prime-power parts.  pentagonal() gives the exponents of
prod (1 - q^n) to qseries and rademacher alike.
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
    k = (n & -n).bit_length() - 1
    if k:
        out.append((2, k))
        n >>= k
    d = 3
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 2
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


def sqrt_mod_prime_power(n: int, p: int, e: int):
    """The x in [0, p^e) with x^2 = n (mod p^e), increasing, for a prime p and e >= 1.

    Write n = p^v u with p not dividing u.  Then x = p^(v/2) y for even v,
    where y^2 = u (mod p^(e - v)) and y runs mod p^(e - v/2); odd v < e
    leaves no root, and n = 0 (mod p^e) has the multiples of p^ceil(e/2).
    """
    q = p**e
    n %= q
    if n == 0:
        return list(range(0, q, p ** ((e + 1) // 2)))
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    if v % 2:
        return []
    f = e - v
    pf = p**f
    units = _unit_roots(n, p, f, pf)
    if not v:
        return units
    half = p ** (v // 2)
    return sorted(half * (y + t * pf) for y in units for t in range(half))


def _unit_roots(u: int, p: int, f: int, pf: int):
    """Every y in [0, p^f) with y^2 = u (mod p^f), for u prime to p."""
    if p == 2:
        # one root mod 2; two mod 4 if u = 1 (mod 4); four mod 2^f, f >= 3, if u = 1 (mod 8)
        if f == 1:
            return [1]
        if u % (8 if f > 2 else 4) != 1:
            return []
        if f == 2:
            return [1, 3]
        y = 1
        for j in range(3, f):  # y^2 = u (mod 2^j), made to hold mod 2^(j+1)
            if (y * y - u) >> j & 1:
                y += 1 << (j - 1)
        return sorted({y, pf - y, (y + pf // 2) % pf, (pf // 2 - y) % pf})
    if pow(u, (p - 1) // 2, p) != 1:  # Euler's criterion: u is no square mod p
        return []
    r, pr = _tonelli_shanks(u % p, p), p
    while pr < pf:  # Hensel (Newton) lifting doubles the exponent each step
        pr = min(pr * pr, pf)
        r = (r - (r * r - u) * pow(2 * r, -1, pr)) % pr
    return sorted((r, pf - r))


def _tonelli_shanks(u: int, p: int) -> int:
    """A square root of the nonzero square u modulo an odd prime p."""
    if p % 4 == 3:
        return pow(u, (p + 1) // 4, p)
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) == 1:
        z += 1
    c, t, r = pow(z, q, p), pow(u, q, p), pow(u, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (s - i - 1), p)
        s, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return r


def crt_roots(xs, m: int, ys, k: int):
    """Every residue mod m*k that is some x in xs mod m and some y in ys mod k (gcd(m, k) = 1)."""
    inv = pow(m, -1, k)
    return [x + m * ((y - x) * inv % k) for x in xs for y in ys]


def sqrt_mod(n: int, m: int):
    """The x in [0, m) with x^2 = n (mod m), increasing, for m >= 1."""
    roots, mod = [0], 1
    for p, e in factorization(m):
        q = p**e
        roots = crt_roots(roots, mod, sqrt_mod_prime_power(n, p, e), q)
        mod *= q
    return sorted(roots)
