"""Small integer helpers shared across modules, by trial division and Euclid.

The numpy sieves in tables serve bulk scans; these serve single values.
"""


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


def unimodular_completion(x: int, y: int):
    """((x, u), (y, v)) with x*v - y*u = 1, for coprime x and y."""
    g, s, t = xgcd(x, y)
    if g != 1:
        raise ValueError(f"({x}, {y}) is not a coprime pair")
    # x*s + y*t = 1  ->  columns (x, y), (-t, s)
    return ((x, -t), (y, s))


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def prime_divisors(n: int):
    """Distinct primes dividing n > 0, in increasing order."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def divisors(n: int):
    """Positive divisors of n > 0, in increasing order."""
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]
