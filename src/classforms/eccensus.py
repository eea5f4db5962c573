"""Census of elliptic curves over small prime fields.

Short Weierstrass curves y^2 = x^3 + Ax + B over F_q (q prime, q > 3) are
enumerated up to isomorphism by merging (A, B) orbits under
(A, B) -> (u^4 A, u^6 B); point counts come from an exhaustive x-scan
against one table of square roots mod q, which also lists the points for
the torsion counts.  The per-trace class counts are then compared with
the square-divisor class-number sums: the census matches the unweighted
(Kronecker) sum, while the stabilizer-weighted variant is reported alongside
for the discriminants -3 and -4 where the two differ.
"""

from fractions import Fraction
from functools import lru_cache
from math import isqrt
from typing import NamedTuple

from .arith import is_prime
from .quadforms import hurwitz, kronecker_class_number


class CurveClass(NamedTuple):
    q: int
    a: int
    b: int
    point_count: int
    orbit_size: int

    @property
    def trace(self) -> int:
        return self.q + 1 - self.point_count


def _check_field(q: int):
    if not is_prime(q):
        raise ValueError(f"{q} is not prime")
    if q <= 3:
        raise ValueError("short Weierstrass models need q > 3")
    if q > 200:
        raise ValueError(f"q = {q} exceeds the census bound q <= 200 (the census is O(q^2))")


@lru_cache(maxsize=32)
def enumerate_curves(q: int):
    """One CurveClass per F_q-isomorphism class, ordered by representative (A, B).

    Orbits are merged explicitly over u in F_q* rather than bucketed by
    j-invariant, because distinct twists share j and are exactly what must
    be kept apart.  Hasse's bound |t| <= 2 sqrt(q) is asserted for every
    class.
    """
    _check_field(q)
    roots = _square_roots(q)
    powers = [(pow(u, 4, q), pow(u, 6, q)) for u in range(1, q)]
    seen = [[False] * q for _ in range(q)]
    classes = []
    for a in range(q):
        for b in range(q):
            if seen[a][b]:
                continue
            if (4 * a * a * a + 27 * b * b) % q == 0:
                continue
            orbit = {(u4 * a % q, u6 * b % q) for u4, u6 in powers}
            for oa, ob in orbit:
                seen[oa][ob] = True
            count = 1 + sum(len(roots[(x * x * x + a * x + b) % q]) for x in range(q))
            t = q + 1 - count
            if t * t > 4 * q:
                raise ArithmeticError(f"Hasse bound violated at q={q}, (A,B)=({a},{b})")
            classes.append(CurveClass(q, a, b, count, len(orbit)))
    return classes


def _square_roots(q: int):
    """roots[r]: the y mod q with y^2 = r, in increasing order (empty for non-squares)."""
    roots = [[] for _ in range(q)]
    for y in range(q):
        roots[y * y % q].append(y)
    return roots


def isogeny_class_size(q: int, t: int) -> int:
    """N(t): number of isomorphism classes with trace t."""
    if t * t > 4 * q:
        raise ValueError(f"|t| = {abs(t)} exceeds the Hasse bound for q = {q}")
    return sum(1 for c in enumerate_curves(q) if c.trace == t)


class DeuringRow(NamedTuple):
    q: int
    t: int
    observed: int
    expected: int
    weighted_expected: Fraction

    @property
    def status(self) -> str:
        return "ok" if self.observed == self.expected else "MISMATCH"


def verify_deuring(q: int):
    """Rows comparing N(t) with the class-number sum H(t^2 - 4q).

    Covers every t with t^2 < 4q (q prime rules out q | t there) including
    the supersingular t = 0.  `expected` is the unweighted sum, which is the
    one the census equals; the weighted value is carried in each row since
    the two differ when t^2 - 4q is -3, -4 times a square.  Raises on any
    mismatch after assembling the full report.
    """
    _check_field(q)
    rows = []
    tmax = isqrt(4 * q - 1)
    for t in range(-tmax, tmax + 1):
        rows.append(
            DeuringRow(
                q,
                t,
                isogeny_class_size(q, t),
                kronecker_class_number(t * t - 4 * q),
                hurwitz(t * t - 4 * q),
            )
        )
    bad = [r for r in rows if r.status != "ok"]
    if bad:
        raise AssertionError(
            "census disagrees with the class-number count: "
            + "; ".join(f"(q={r.q}, t={r.t}): N={r.observed} vs H={r.expected}" for r in bad)
        )
    return rows


# --- group structure and torsion counts --------------------------------------


def _point_set(q: int, a: int, b: int):
    roots = _square_roots(q)
    pts = [None]  # identity
    for x in range(q):
        pts += [(x, y) for y in roots[(x * x * x + a * x + b) % q]]
    return pts


def _add(q, a, P, Q):
    if P is None:
        return Q
    if Q is None:
        return P
    x1, y1 = P
    x2, y2 = Q
    if x1 == x2 and (y1 + y2) % q == 0:
        return None
    if P == Q:
        lam = (3 * x1 * x1 + a) * pow(2 * y1, -1, q) % q
    else:
        lam = (y2 - y1) * pow(x2 - x1, -1, q) % q
    x3 = (lam * lam - x1 - x2) % q
    return (x3, (lam * (x1 - x3) - y1) % q)


def _scalar_mul(q, a, k, P):
    acc = None
    while k:
        if k & 1:
            acc = _add(q, a, acc, P)
        P = _add(q, a, P, P)
        k >>= 1
    return acc


def full_torsion_rank_is_two(cls: CurveClass, n: int) -> bool:
    """Whether E(F_q)[n] is (Z/n)^2: exactly n^2 points killed by n."""
    killed = 0
    for P in _point_set(cls.q, cls.a, cls.b):
        if _scalar_mul(cls.q, cls.a, n, P) is None:
            killed += 1
    return killed == n * n


def check_torsion_modulus(q: int, n: int):
    """The trace-independent preconditions of torsion_class_count.

    q must be a supported prime field, n odd and positive, and q = 1 (mod n).
    Violations raise ValueError naming the failing condition.
    """
    _check_field(q)
    if n % 2 != 1 or n < 1:
        raise ValueError("n must be odd and positive")
    if n > 1 and q % n != 1:
        raise ValueError(f"q = {q} is not 1 mod n = {n}")


def torsion_class_count(q: int, t: int, n: int) -> int:
    """Classes in the trace-t isogeny class with full rational n-torsion.

    Preconditions from the counting theorem: those of check_torsion_modulus,
    t^2 <= 4q, q does not divide t, and t = q + 1 (mod n^2).  Violations
    raise with the failing congruence named.
    """
    check_torsion_modulus(q, n)
    if t * t > 4 * q:
        raise ValueError(f"t^2 = {t*t} exceeds 4q = {4*q}")
    if t % q == 0 and t != 0:
        raise ValueError(f"q = {q} divides t = {t}")
    if n > 1 and (t - q - 1) % (n * n) != 0:
        raise ValueError(f"t = {t} is not q + 1 = {q + 1} mod n^2 = {n*n}")
    return sum(
        1
        for c in enumerate_curves(q)
        if c.trace == t and (n == 1 or full_torsion_rank_is_two(c, n))
    )


def expected_torsion_count(q: int, t: int, n: int):
    """The two class-number readings of H((t^2 - 4q)/n^2) for the torsion count.

    Returns (unweighted, weighted); the weighted one can be fractional at
    inner discriminants -3 and -4, in which case only the comparison is
    reported by callers, never asserted.
    """
    num = t * t - 4 * q
    if num % (n * n) != 0:
        raise ValueError(f"n^2 = {n*n} does not divide t^2 - 4q = {num}")
    inner = num // (n * n)
    return kronecker_class_number(inner), hurwitz(inner)
