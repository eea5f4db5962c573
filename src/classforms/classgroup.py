"""Composition of binary quadratic forms and class-group structure.

Composition is gcd-based (Cohen, A Course in Computational Algebraic Number
Theory, Alg. 5.4.7): with s = (b+b')/2 and d = gcd(a, a', s), the composite
of [a,b,c] and [a',b',c'] has leading coefficient aa'/d^2 and a middle
coefficient read off the Bezout coefficients of that gcd.  It is total on
primitive forms of equal discriminant, so no representative search is
needed.  Element orders come from walking cyclic subgroups: f, f^2, ... is
composed out until it returns to the principal form, at most h(D) steps
(Buchmann and Schmidt, Math. Comp. 2005), and one walk of length n gives
every power f^i its order n/gcd(i, n).

Also here: elementary divisors read from the order counts in exact integers,
the 2-torsion count, the form-to-ideal map, and the class-number statistics
and growth-bound evaluations.
"""

from math import gcd, isqrt, log, pi, prod
from typing import NamedTuple

from . import tables
from .arith import factorization, is_prime, prime_divisors, xgcd
from .quadforms import (Form, _check_disc, as_form, class_number, enumerate_reduced,
                        is_fundamental, reduce)


def identity(D: int) -> Form:
    """The principal form: [1,0,-D/4] or [1,1,(1-D)/4] by residue of D."""
    _check_disc(D)
    if D % 4 == 0:
        return Form(1, 0, -D // 4)
    return Form(1, 1, (1 - D) // 4)


def inverse(f) -> Form:
    """Reduced representative of the inverse class, via [a,b,c] -> [a,-b,c]."""
    f = as_form(f)
    return reduce(Form(f.a, -f.b, f.c))


def compose(f, g) -> Form:
    """Reduced composite of two primitive forms of equal discriminant.

    With s = (b1+b2)/2, d = gcd(a2, a1) = y1*a2 + v*a1 and
    d1 = gcd(s, d) = x2*s + y*d, the composite is [v1*v2, b2 + 2*v2*r, c3]
    where v1 = a1/d1, v2 = a2/d1 and r = -(y1*y*(b2 - s) + x2*c2) mod v1.
    c3 follows from the discriminant; a remainder there means the inputs
    broke the preconditions and raises ArithmeticError.
    """
    f = as_form(f)
    g = as_form(g)
    D = f.discriminant()
    if D != g.discriminant():
        raise ValueError(f"discriminant mismatch: {D} vs {g.discriminant()}")
    _check_disc(D)
    if not (f.is_primitive() and g.is_primitive()):
        raise ValueError("composition requires primitive forms")
    a1, b1 = f.a, f.b
    a2, b2, c2 = g
    s = (b1 + b2) // 2
    d, y1, _ = xgcd(a2, a1)
    d1, x2, y = xgcd(s, d)
    v1, v2 = a1 // d1, a2 // d1
    r = -(y1 * y * (b2 - s) + x2 * c2) % v1
    a3 = v1 * v2
    b3 = b2 + 2 * v2 * r
    c3, rem = divmod(b3 * b3 - D, 4 * a3)
    if rem:
        raise ArithmeticError(f"composite of {f} and {g} has no integral c: "
                              f"{b3}^2 - {D} is not divisible by {4 * a3}")
    return reduce(Form(a3, b3, c3))


def power(f, k: int) -> Form:
    """k-th composition power of the class of f (k >= 0)."""
    f = as_form(f)
    result = identity(f.discriminant())
    base = reduce(f)
    while k > 0:
        if k & 1:
            result = compose(result, base)
        k >>= 1
        if k:
            base = compose(base, base)
    return result


def _walk(f, h: int):
    """[f, f^2, ..., f^n] with f^n the principal form, for a reduced f.

    Raises ArithmeticError if the principal form is not reached within h
    steps, which no class of a group of order h can do.
    """
    e = identity(f.discriminant())
    powers = [f]
    while powers[-1] != e:
        if len(powers) >= h:
            raise ArithmeticError(f"no power of {f} up to the class number {h} is principal")
        powers.append(compose(powers[-1], f))
    return powers


def element_order(f) -> int:
    """Least k >= 1 with the k-th power of f principal; divides h(D).

    The length of the walk f, f^2, ... to the principal form, bounded by
    h(D); raises ArithmeticError if the walk does not close within h(D).
    """
    f = reduce(as_form(f))
    return len(_walk(f, class_number(f.discriminant())))


class ClassGroupDescription(NamedTuple):
    D: int
    representatives: tuple
    elementary_divisors: tuple

    @property
    def order(self):
        out = 1
        for d in self.elementary_divisors:
            out *= d
        return out


def _structure_from_orders(orders):
    """Elementary divisors of a finite abelian group from its element orders.

    For each prime p | h, the ratio of the counts of elements killed by p^k
    and by p^(k-1) is p^(r_k), with r_k the number of cyclic p-factors of
    order at least p^k; so the i-th largest p-factor (from i = 0) has order
    p^#{k : r_k > i}.  The p-factors are aligned largest-first across primes
    and the divisors returned smallest-first.  Raises ArithmeticError when a
    ratio is not a power of p, the r_k increase, or the product is not h.
    """
    h = len(orders)
    columns = []
    for p in prime_divisors(h):
        ranks, killed, pk = [], 1, p
        while True:
            count = sum(1 for o in orders if pk % o == 0)
            ratio, rem = divmod(count, killed)
            r = next(e for e in range(ratio.bit_length() + 1) if p**e >= ratio)
            if rem or p**r != ratio or (ranks and r > ranks[-1]):
                raise ArithmeticError(f"kill counts are not a {p}-group filtration")
            if r == 0:
                break
            ranks.append(r)
            killed, pk = count, pk * p
        columns.append([p ** sum(1 for r in ranks if r > i) for i in range(max(ranks, default=0))])
    width = max((len(c) for c in columns), default=0)
    divisors = tuple(sorted(prod(c[i] for c in columns if i < len(c)) for i in range(width)))
    if prod(divisors) != h:
        raise ArithmeticError(f"elementary divisors {divisors} do not multiply to {h}")
    return divisors


def group_structure(D: int) -> ClassGroupDescription:
    """Representatives plus elementary divisors d1 | d2 | ... with product h(D).

    A walk f, f^2, ..., f^n = 1 starts at each representative no earlier
    walk has met and gives f^i the order n/gcd(i, n); the divisors are then
    read off the order statistics.
    """
    reps = enumerate_reduced(D)
    h = len(reps)
    order = {}
    for f in reps:
        if f not in order:
            powers = _walk(f, h)
            n = len(powers)
            for i, g in enumerate(powers, 1):
                order[g] = n // gcd(i, n)
    orders = [order[f] for f in reps]
    return ClassGroupDescription(D, tuple(reps), _structure_from_orders(orders))


def ambiguous_count(reps) -> int:
    """Number of forms in reps, all reduced, whose class is its own inverse.

    A reduced form is its own inverse exactly when b = 0, b = a, or a = c, so
    the count is read off the forms directly, with no composition; this
    matches counting fixed points of compose(f, f).
    """
    return sum(1 for f in reps if f.b == 0 or f.b == f.a or f.a == f.c)


def two_torsion_order(D: int) -> int:
    """Number of classes f with f*f principal (equals 2^(g-1), g = #primes | D).

    The ambiguous_count of the reduced representatives; fast enough for scans.
    """
    if not (D < 0 and is_fundamental(D)):
        raise ValueError("two-torsion count by genus theory needs a fundamental discriminant")
    return ambiguous_count(enumerate_reduced(D))


class IdealDescription(NamedTuple):
    """The ideal (a, (-b + sqrt(D))/2) attached to the form [a,b,c]."""

    generator_a: int
    minus_b: int
    D: int

    def __repr__(self):
        return f"({self.generator_a}, ({self.minus_b}+sqrt({self.D}))/2)"


def ideal_from_form(f) -> IdealDescription:
    f = as_form(f)
    D = f.discriminant()
    if not (D < 0 and is_fundamental(D)):
        raise ValueError("the ideal map is stated for fundamental discriminants")
    if not f.is_primitive():
        raise ValueError("the ideal map needs a primitive form")
    return IdealDescription(f.a, -f.b, D)


def ggz_lower_bound(D: int) -> float:
    """(1/7000) log|D| times the product of (1 - [2 sqrt p]/(p+1)) over p | D, p != |D|."""
    _check_disc(D)
    n = -D
    value = log(n) / 7000.0
    for p in prime_divisors(n):
        if p == n:
            continue
        value *= 1.0 - isqrt(4 * p) / (p + 1.0)
    return value


def _check_eps(eps: float):
    if not 0 < eps < 0.5:
        raise ValueError("eps must lie in (0, 1/2)")


def siegel_reference_curve(D: int, eps: float) -> float:
    """|D|^(1/2 - eps), the comparison curve for class-number growth plots."""
    _check_eps(eps)
    return float((-D) ** (0.5 - eps))


def h_scan(N: int, eps: float):
    """[(D, h(D), siegel_reference_curve(D, eps))] for fundamental -N <= D < 0, |D| rising.

    N and eps are both checked before the scan, so a bad eps is refused even
    when the range holds no fundamental discriminant.
    """
    if N < 0:
        raise ValueError(f"N = {N} is negative: the scan needs N >= 0")
    _check_eps(eps)
    h = tables.class_number_table(N)
    fund = tables.fundamental_mask(N)
    return [(-n, int(h[n]), siegel_reference_curve(-n, eps))
            for n in range(3, N + 1) if fund[n]]


def cohen_lenstra_prediction(p: int) -> float:
    """prod_{n>=1} (1 - p^-n), truncated once the tail is below 1e-12."""
    if p == 2:
        raise ValueError("p = 2 is governed by genus theory, not this heuristic")
    if p < 3 or not is_prime(p):
        raise ValueError("p must be an odd prime")
    return _truncated_euler_product(p)


def cl_statistics(p: int, N: int):
    """(count, proportion) of fundamental -N < D < 0 with p not dividing h(D)."""
    if p == 2 or not is_prime(p):
        raise ValueError("p must be an odd prime")
    if N <= 3:
        raise ValueError(f"N = {N} leaves no fundamental discriminant -N < D < 0: N must exceed 3")
    limit = N - 1
    h = tables.class_number_table(limit)
    fund = tables.fundamental_mask(limit)
    total = int(fund.sum())
    count = int((fund & (h % p != 0)).sum())
    return count, count / total


def cg_constant(g: int) -> float:
    """(6/pi^2) (1 - prod_{i>=1} (1 - g^-i))."""
    if g < 2:
        raise ValueError("g must be at least 2")
    return 6.0 / pi**2 * (1.0 - _truncated_euler_product(g))


def _truncated_euler_product(x: int) -> float:
    """prod_{i>=1} (1 - x^-i), ending with the first factor whose x^-i is below 1e-13."""
    value = 1.0
    i = 1
    while True:
        t = float(x) ** -i
        value *= 1.0 - t
        if t < 1e-13:
            return value
        i += 1


def ng_count(g: int, x: int) -> int:
    """Square-free D <= x whose class group C(-D) has an element of order g.

    C(-D) is read as the class group of Q(sqrt(-D)), i.e. of discriminant -D
    or -4D as forced by the residue of D mod 4.  An abelian group has an
    element of order g iff g divides its exponent, which needs g | h.  For
    each prime p with p || g, p | h already gives an element of order p
    (Cauchy), and elements of coprime orders multiply to one of the product
    order; so where the class-number table shows g | h, only the prime
    powers p^e || g with e >= 2 are left to test against the exponent.  These
    discriminants are fundamental, so by genus theory the 2-rank is
    omega(|disc|) - 1: the 2-part is larger than an elementary 2-group, and 4
    divides the exponent, iff 2^omega(|disc|) | h.  group_structure runs only
    when 8 | g or p^2 | g for an odd p.
    """
    if g < 2 or x < 1:
        raise ValueError("need g >= 2 and x >= 1")
    square_part = prod(p**e for p, e in factorization(g) if e >= 2)
    sf = tables.squarefree_mask(x)
    h = tables.class_number_table(4 * x)
    omega = tables.omega_table(4 * x) if square_part == 4 else None
    count = 0
    for d in range(1, x + 1):
        if not sf[d]:
            continue
        disc = -d if d % 4 == 3 else -4 * d
        if h[-disc] % g:
            continue
        if omega is not None:
            if h[-disc] % (1 << int(omega[-disc])):
                continue
        elif square_part > 1:
            desc = group_structure(disc)
            exponent = desc.elementary_divisors[-1] if desc.elementary_divisors else 1
            if exponent % square_part:
                continue
        count += 1
    return count
