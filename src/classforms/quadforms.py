"""Positive definite binary quadratic forms.

A form [a, b, c] stands for a*x^2 + b*x*y + c*y^2 with integer coefficients.
This module covers reduction, enumeration of reduced representatives, class
numbers, and the two square-divisor class-number sums: the unweighted one
used for curve counts walks the square divisors, and the stabilizer-weighted
one (weights 1/2 and 1/3 at discriminants -4 and -3) is read off it.
Everything here is a pure function on values.
"""

from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt
from typing import NamedTuple

from .arith import (crt_roots, divisors_from_factorization, factorization, is_squarefree,
                    smallest_prime_factors, sqrt_mod_prime_power)


class Form(NamedTuple):
    a: int
    b: int
    c: int

    def __repr__(self):
        return f"[{self.a},{self.b},{self.c}]"

    def discriminant(self):
        return self.b * self.b - 4 * self.a * self.c

    def is_primitive(self):
        return gcd(gcd(self.a, self.b), self.c) == 1

    def is_positive_definite(self):
        return self.a > 0 and self.discriminant() < 0

    def __call__(self, x, y):
        return self.a * x * x + self.b * x * y + self.c * y * y


def as_form(f) -> Form:
    """Coerce a Form or any (a, b, c) triple to a Form."""
    if isinstance(f, Form):
        return f
    a, b, c = f
    return Form(int(a), int(b), int(c))


def discriminant(f) -> int:
    return as_form(f).discriminant()


def _require_positive_definite(f: Form):
    if not f.is_positive_definite():
        raise ValueError(f"form {f} is not positive definite")


def is_fundamental(D: int) -> bool:
    """Whether D is the discriminant of an imaginary quadratic field.

    True iff D < 0 and either D = 1 (mod 4) square-free, or D = 0 (mod 4)
    with D/4 square-free and congruent to 2 or 3 mod 4.
    """
    if D >= 0:
        raise ValueError("only negative discriminants are supported")
    m = -D
    if m % 4 == 3:
        return is_squarefree(m)
    if m % 4 == 0:
        m4 = m // 4
        return m4 % 4 in (1, 2) and is_squarefree(m4)
    return False


def is_reduced(f) -> bool:
    """Reduced means -a < b <= a < c, or 0 <= b <= a = c."""
    f = as_form(f)
    _require_positive_definite(f)
    a, b, c = f
    return (-a < b <= a < c) or (0 <= b <= a == c)


def reduce(f) -> Form:
    """The unique reduced form equivalent to f.

    Alternates a translation normalizing b into (-a, a] with the swap
    (a,b,c) -> (c,-b,a) whenever a > c; ends by fixing the b >= 0 boundary
    convention when a = c.  Discriminant is preserved and the map is
    idempotent.
    """
    f = as_form(f)
    _require_positive_definite(f)
    a, b, c = f
    while True:
        if not (-a < b <= a):
            r = (a - b) // (2 * a)
            b, c = b + 2 * r * a, a * r * r + b * r + c
        if a > c:
            a, b, c = c, -b, a
            continue
        break
    if a == c and b < 0:
        b = -b
    return Form(a, b, c)


def apply_sl2(f, m) -> Form:
    """Transform f by M = ((alpha, beta), (gamma, delta)) in SL2(Z).

    Returns the form g with g(x, y) = f(alpha*x + beta*y, gamma*x + delta*y).
    """
    f = as_form(f)
    (al, be), (ga, de) = m
    if al * de - be * ga != 1:
        raise ValueError("matrix is not unimodular")
    a, b, c = f
    a2 = a * al * al + b * al * ga + c * ga * ga
    b2 = 2 * a * al * be + b * (al * de + be * ga) + 2 * c * ga * de
    c2 = a * be * be + b * be * de + c * de * de
    return Form(a2, b2, c2)


def _check_disc(D: int):
    if D >= 0:
        raise ValueError("discriminant must be negative")
    if D % 4 not in (0, 1):
        raise ValueError("discriminant must be 0 or 1 mod 4")


def enumerate_reduced(D: int, primitive_only: bool = True):
    """All reduced forms of discriminant D < 0, sorted by (a, b, c).

    3a^2 <= |D| bounds a, and b^2 = D (mod 4a) holds for every form, so the
    b of each a are the square roots of D mod 4a below 2a, moved into
    (-a, a] (Cohen, GTM 138, section 5.3).  With a = 2^k m, m odd, they are
    the Chinese-remainder combinations of the roots of D mod 2^(k+2) below
    2^(k+1) and the roots of D mod m; the roots mod each odd m are built
    once, from those of m / p^e and p^e with p the smallest prime factor of
    m.  a rises and each a's b are sorted, and (a, b) fix c, so the list
    comes out sorted.  By default only primitive forms are listed (their
    count is the class number h(D)); with primitive_only=False imprimitive
    forms are included as well, which is the population the weighted
    class-number sum counts.
    """
    _check_disc(D)
    forms = []
    amax = isqrt(-D // 3)
    spf = smallest_prime_factors(amax)
    # two[k]: the roots of D mod 2^(k+2) below 2^(k+1), for every 2^k <= amax
    two = [[x for x in sqrt_mod_prime_power(D, 2, k + 2) if x < 2 << k]
           for k in range(amax.bit_length())]
    odd = [[0]] * (amax + 1)  # odd[m]: the roots of D mod m, set at a = m for odd m > 1
    for a in range(1, amax + 1):
        k = (a & -a).bit_length() - 1
        m = a >> k
        if not k and m > 1:
            p = q = spf[m]
            e = 1
            while m // q % p == 0:
                q *= p
                e += 1
            rest = m // q
            if rest == 1:
                odd[m] = sqrt_mod_prime_power(D, p, e)
            else:
                odd[m] = crt_roots(odd[rest], rest, odd[q], q) if odd[rest] and odd[q] else []
        roots = odd[m]
        if not roots:
            continue
        if not k:  # b mod 2a: the root mod a or that plus a, whichever has the parity of D
            roots = [x if (x - D) % 2 == 0 else x + a for x in roots]
        else:
            roots = crt_roots(two[k], 2 << k, roots, m) if m > 1 else two[k]
        bs = [x - 2 * a if x > a else x for x in roots]
        bs.sort()
        for b in bs:
            c = (b * b - D) // (4 * a)
            if c < a or (c == a and b < 0):
                continue
            if primitive_only and gcd(gcd(a, b), c) != 1:
                continue
            forms.append(Form(a, b, c))
    return forms


@lru_cache(maxsize=None)
def class_number(D: int) -> int:
    """h(D): the number of classes of primitive reduced forms."""
    return len(enumerate_reduced(D))


def stabilizer_weight(f) -> Fraction:
    """1/3 for the shape [a,a,a], 1/2 for [a,0,a], 1 otherwise.

    The denominators count the nontrivial stabilizer of the form; among
    reduced forms only those two shapes have one.
    """
    f = as_form(f)
    if not is_reduced(f):
        raise ValueError(f"{f} is not reduced")
    a, b, c = f
    if a == b == c:
        return Fraction(1, 3)
    if b == 0 and a == c:
        return Fraction(1, 2)
    return Fraction(1)


@lru_cache(maxsize=None)
def hurwitz(n: int) -> Fraction:
    """Stabilizer-weighted class-number sum H(n).

    H(0) = -1/12, H(n) = 0 for n > 0 and for n = 2, 3 (mod 4).  Otherwise
    H(n) = sum over d^2 | n of h(n/d^2) weighted by 1/3 when the inner
    discriminant is -3 and by 1/2 when it is -4.  Equivalently: the count of
    all (not necessarily primitive) reduced forms of discriminant n, with
    forms of shape [a,a,a] and [a,0,a] counted 1/3 and 1/2.  Only n = -3a^2
    and n = -4a^2 have such a form, one each, so H(n) is the Kronecker count
    less 2/3 or 1/2 there.  12*H(n) is always an integer.
    """
    if n >= 0:
        return Fraction(-1, 12) if n == 0 else Fraction(0)
    total = Fraction(kronecker_class_number(n))
    for k, excess in ((3, Fraction(2, 3)), (4, Fraction(1, 2))):
        if n % k == 0 and isqrt(-n // k) ** 2 == -n // k:
            total -= excess
    return total


@lru_cache(maxsize=None)
def kronecker_class_number(n: int) -> int:
    """Unweighted square-divisor sum: sum of h(n/d^2) over d^2 | n.

    Unlike hurwitz(), every class counts 1 (so the value at -3 and -4 is 1,
    not 1/3 or 1/2).  This is the count that matches censuses of elliptic
    curves per trace; the two sums differ exactly when n/d^2 hits -3 or -4.
    """
    if n >= 0 or n % 4 not in (0, 1):
        return 0
    root = [(p, e // 2) for p, e in factorization(-n) if e >= 2]
    quotients = (n // (d * d) for d in divisors_from_factorization(root))
    return sum(class_number(inner) for inner in quotients if inner % 4 in (0, 1))
