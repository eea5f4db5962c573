"""Truncated Laurent series with exact coefficients.

A QSeries stores its valuation (lowest exponent), a coefficient list indexed
from the valuation, and an exclusive truncation order.  Arithmetic never
fabricates terms past the truncation: the order of a product or inverse is
the smallest order the inputs support.  Everything is exact -- coefficients
are Python ints, or Fractions where a scalar brings them in, never floats --
so the trace-formula integrality check below is a hard assertion rather
than a tolerance.

Products and inverses take integer coefficients only, and an inverse needs
a leading coefficient of +-1: every series built here (Delta, 1/Delta, E2,
E4, j, the partition series) is of that kind.  Scalar multiples and sums
are term by term and also accept Fractions.

Products and inverses share one kernel.  A product is a Kronecker
substitution: each operand's integer coefficients are packed into one big
decimal number, one slot of w digits per coefficient, the two numbers are
multiplied once by the C `decimal` module (libmpdec multiplies large numbers
by a number-theoretic transform), and the slots are read back with balanced
digits.  A pack is built once per operand (a squaring packs its operand
once) by a balanced tree of exact decimal adds.  A truncated product packs
each operand cut to the wanted length and reads back only the low slots.  An
inverse is Newton iteration on that product, doubling the number of correct
terms per step.
The Euler product takes its exponents from arith.pentagonal; hecke_trace and
tau_prime_display share _trace_formula and differ only in the window of t.
"""

import decimal
import sys
from fractions import Fraction
from functools import lru_cache
from math import isqrt

from .arith import divisors, pentagonal


class QSeries:
    __slots__ = ("valuation", "coeffs", "truncation_order")

    def __init__(self, valuation, coeffs, truncation_order):
        if truncation_order != valuation + len(coeffs):
            raise ValueError("coefficient list does not span valuation..truncation")
        self.valuation = valuation
        self.coeffs = list(coeffs)
        self.truncation_order = truncation_order

    @classmethod
    def from_dict(cls, data, truncation_order):
        if not data:
            return cls(truncation_order, [], truncation_order)
        v = min(data)
        coeffs = [data.get(i, 0) for i in range(v, truncation_order)]
        return cls(v, coeffs, truncation_order)

    def coefficient(self, n):
        """Coefficient of q^n; raises for exponents past the truncation."""
        if n >= self.truncation_order:
            raise IndexError(f"exponent {n} is beyond truncation {self.truncation_order}")
        if n < self.valuation:
            return 0
        return self.coeffs[n - self.valuation]

    def __eq__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        lo = min(self.valuation, other.valuation)
        hi = min(self.truncation_order, other.truncation_order)
        return all(self.coefficient(n) == other.coefficient(n) for n in range(lo, hi))

    def __repr__(self):
        head = ", ".join(
            f"q^{n}: {self.coefficient(n)}"
            for n in range(self.valuation, min(self.valuation + 4, self.truncation_order))
        )
        return f"QSeries({head}, ... O(q^{self.truncation_order}))"

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            if self.truncation_order <= 0:
                raise ValueError("cannot add a constant below the truncation order")
            other = QSeries.from_dict({0: other}, self.truncation_order)
        order = min(self.truncation_order, other.truncation_order)
        v = min(self.valuation, other.valuation)
        coeffs = [self.coefficient(n) + other.coefficient(n) for n in range(v, order)]
        return QSeries(v, coeffs, order).trimmed()

    __radd__ = __add__

    def __neg__(self):
        return QSeries(self.valuation, [-c for c in self.coeffs], self.truncation_order)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        """Product with a scalar or a series, cut at the order both support.

        A series product needs integer coefficients on both sides (TypeError
        otherwise) and is one Kronecker-substituted product; see the module
        docstring.  A scalar, int or Fraction, multiplies term by term.
        """
        if isinstance(other, (int, Fraction)):
            return QSeries(
                self.valuation, [c * other for c in self.coeffs], self.truncation_order
            )
        # relative precisions add up at the valuations
        order = min(
            self.truncation_order + other.valuation,
            other.truncation_order + self.valuation,
        )
        v = self.valuation + other.valuation
        return QSeries(v, _kronecker(_ints(self.coeffs), _ints(other.coeffs), order - v), order)

    __rmul__ = __mul__

    def inverse(self):
        """Multiplicative inverse of an integer series with leading coefficient +-1.

        Newton iteration g <- g - q^m (g h) mod q^2m, where f g = 1 + q^m h,
        on lead * f, whose leading coefficient is 1; since lead^2 = 1, 1/f is
        lead times its inverse.  A Fraction coefficient raises TypeError; any
        other leading coefficient raises ArithmeticError, as the inverse then
        has no integer coefficients.
        """
        if not self.coeffs or self.coeffs[0] == 0:
            raise ZeroDivisionError("series inversion needs a nonzero leading coefficient")
        lead = _ints(self.coeffs)[0]
        if lead not in (1, -1):
            raise ArithmeticError(f"leading coefficient {lead} has no inverse over the integers")
        n = len(self.coeffs)
        g = _newton_inverse([lead * c for c in self.coeffs], n)
        return QSeries(-self.valuation, [lead * c for c in g], n - self.valuation)

    def __pow__(self, k):
        """k-th power by repeated squaring, starting from the first power the
        bits of k need; s**0 is the unit series to the relative precision of s."""
        if k < 0:
            return self.inverse() ** (-k)
        if k == 0:
            n = self.truncation_order - self.valuation
            return QSeries(0, [1] + [0] * (n - 1), n)
        base = QSeries(self.valuation, _ints(self.coeffs), self.truncation_order)
        result = None
        while True:
            if k & 1:
                result = base if result is None else result * base
            k >>= 1
            if not k:
                return result
            base = base * base

    def shift(self, m):
        """Multiply by q^m."""
        return QSeries(self.valuation + m, self.coeffs, self.truncation_order + m)

    def trimmed(self):
        """Drop leading zero coefficients (normalizes the valuation)."""
        i = 0
        while i < len(self.coeffs) and self.coeffs[i] == 0:
            i += 1
        return QSeries(self.valuation + i, self.coeffs[i:], self.truncation_order)


# ---------------------------------------------------------------------------
# the exact kernel: Kronecker substitution over decimal, Newton inversion
# ---------------------------------------------------------------------------

# Unlimited precision, and rounding of any kind raises rather than losing
# digits.  Private, so the caller's decimal context is never changed and its
# precision and traps never apply here.
_EXACT = decimal.Context(
    prec=decimal.MAX_PREC,
    Emax=decimal.MAX_EMAX,
    Emin=decimal.MIN_EMIN,
    traps=[decimal.InvalidOperation, decimal.DivisionByZero, decimal.Overflow,
           decimal.Inexact, decimal.Rounded],
)


def _pack(coeffs, w: int):
    """sum coeffs[i] * 10^(w i) as an exact Decimal, by a balanced tree of adds.

    Each coefficient is converted once; then each level adds neighbours as
    lo + hi * 10^span, span = w, 2w, 4w, ..., up to one number.  Every add is
    exact, and at most two tree levels are alive at once.
    """
    add, scaleb = _EXACT.add, _EXACT.scaleb
    level = list(map(decimal.Decimal, coeffs))  # exact for ints, whatever the context
    span = w
    while len(level) > 1:
        odd = level[-1:] if len(level) % 2 else []
        level = [add(lo, scaleb(hi, span)) for lo, hi in zip(level[::2], level[1::2])] + odd
        span *= 2
    return level[0]


def _ints(coeffs):
    """coeffs, after checking that each is an int: the kernel is exact over Z."""
    if not all(isinstance(c, int) for c in coeffs):
        raise TypeError("series products and inverses need integer coefficients")
    return coeffs


def _strip(coeffs):
    k = len(coeffs)
    while k and not coeffs[k - 1]:
        k -= 1
    return coeffs[:k]


def _kronecker(a, b, n: int):
    """First n coefficients of a * b, for integer coefficient lists.

    Both operands are cut to n terms and multiplied once.  The slot width w
    satisfies 2 * (largest possible |coefficient|) < 10^w, so each slot of
    the product holds one coefficient in balanced digits; only the low n
    slots are read back.
    """
    square = a is b
    a = _strip(a[:n])
    b = a if square else _strip(b[:n])
    if not a or not b:
        return [0] * n
    bound = 2 * max(map(abs, a)) * max(map(abs, b)) * min(len(a), len(b))
    w = bound.bit_length() * 30103 // 100000 + 1  # 10^w > 2^bits > bound
    packed = _pack(a, w)
    product = _EXACT.multiply(packed, packed if square else _pack(b, w))
    del packed
    # shifting by zero at precision w n keeps the low n slots, with the sign
    low = _EXACT.copy()
    low.prec = w * n
    text = str(low.shift(product, 0))
    del product  # the digit string is the largest object left; free the rest first
    negative = text.startswith("-")  # coefficients of -product are the negated ones
    text = text.zfill(w * n + negative)  # zfill keeps the sign in front
    base = 10**w
    half = base // 2
    # int() reads a slot within the interpreter's cap on int-from-str digits (0:
    # none; Pythons before 3.10.7 have no cap), decimal, which has none, wider ones
    cap = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    read = int if not cap or w <= cap else (lambda digits: int(_EXACT.create_decimal(digits)))
    out = []
    carry = 0
    for end in range(len(text), len(text) - w * n, -w):
        d = read(text[end - w:end]) + carry
        carry = d >= half
        out.append(d - base if carry else d)
    return [-c for c in out] if negative else out


def _newton_inverse(f, n: int):
    """First n coefficients of 1/f for an integer list f with f[0] == 1."""
    g = [1]
    m = 1
    while m < n:
        m2 = min(2 * m, n)
        # f g = 1 + q^m h mod q^m2; only the new half g h is multiplied
        h = _kronecker(f, g, m2)[m:]
        g += [-c for c in _kronecker(g, h, m2 - m)]
        m = m2
    return g


def one(order):
    return QSeries(0, [1] + [0] * (order - 1), order)


@lru_cache(maxsize=None)
def euler_product(order: int) -> QSeries:
    """prod_{n>=1} (1 - q^n), expanded by the pentagonal-number theorem."""
    coeffs = [0] * order
    coeffs[0] = 1
    for e, sign in pentagonal():
        if e >= order:
            break
        coeffs[e] = sign
    return QSeries(0, coeffs, order)


def delta_series(order: int) -> QSeries:
    """q prod (1 - q^n)^24; the coefficient of q^n is tau(n)."""
    if order < 2:
        raise ValueError("order must be at least 2")
    return (euler_product(order - 1) ** 24).shift(1)


def inverse_delta_series(order: int) -> QSeries:
    """1/Delta = q^-1 + 24 + 324 q + ...; valuation -1."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    return delta_series(order + 2).inverse()


def _sigma_table(order: int, power: int):
    sig = [0] * order
    for d in range(1, order):
        dp = d**power
        for m in range(d, order, d):
            sig[m] += dp
    return sig


def eisenstein_E2(order: int) -> QSeries:
    """E2 = 1 - 24 sum sigma_1(n) q^n (quasimodular)."""
    if order < 1:
        raise ValueError("order must be at least 1")
    sig = _sigma_table(order, 1)
    return QSeries(0, [1] + [-24 * s for s in sig[1:]], order)


def eisenstein_E4(order: int) -> QSeries:
    """E4 = 1 + 240 sum sigma_3(n) q^n."""
    if order < 1:
        raise ValueError("order must be at least 1")
    sig = _sigma_table(order, 3)
    return QSeries(0, [1] + [240 * s for s in sig[1:]], order)


def j_series(order: int) -> QSeries:
    """Klein j = E4^3 / Delta = q^-1 + 744 + 196884 q + ..."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    e4 = eisenstein_E4(order + 2)
    return (e4**3) * inverse_delta_series(order)


def partition_numbers(nmax: int):
    """p(0..nmax), the coefficients of 1 / prod (1 - q^n)."""
    if nmax < 0:
        raise ValueError("nmax must be nonnegative")
    return euler_product(nmax + 1).inverse().coeffs


def pk_coefficient(k: int, t: int, n: int) -> int:
    """Coefficient of x^(k-2) in 1/(1 - t x + n x^2).

    Computed by the recurrence P_0 = 1, P_1 = t, P_i = t P_{i-1} - n P_{i-2}.
    """
    if k < 4 or k % 2 != 0:
        raise ValueError("weight must be an even integer >= 4")
    prev, cur = 1, t
    for _ in range(k - 3):
        prev, cur = cur, t * cur - n * prev
    return cur


def _trace_formula(k: int, n: int, window) -> Fraction:
    """-(1/2) sum_{t in window} P_k(t, n) H(t^2 - 4n) - (1/2) sum_{dd'=n} min(d, d')^(k-1),
    with H the stabilizer-weighted count from quadforms.hurwitz (H(0) = -1/12)."""
    from .quadforms import hurwitz

    elliptic = sum(pk_coefficient(k, t, n) * hurwitz(t * t - 4 * n) for t in window)
    boundary = sum(min(d, n // d) ** (k - 1) for d in divisors(n))
    return -Fraction(elliptic + boundary, 2)


def hecke_trace(k: int, n: int) -> int:
    """Trace of the n-th Hecke operator on weight-k cusp forms for SL2(Z).

    The Eichler-Selberg trace formula, _trace_formula over the two-sided
    window t^2 <= 4n.  The result must be an integer; a non-integer signals a
    broken H convention.
    """
    if k < 4 or k % 2 != 0:
        raise ValueError("weight must be an even integer >= 4")
    if n < 1:
        raise ValueError("index must be positive")
    tmax = isqrt(4 * n)
    total = _trace_formula(k, n, range(-tmax, tmax + 1))
    if total.denominator != 1:
        raise ArithmeticError(f"trace came out non-integral: {total}")
    return int(total)


def tau_prime_display(p: int) -> Fraction:
    """One-sided variant of the weight-12 trace at a prime:

    -(1/2) sum_{t=0}^{floor(sqrt p)} (t^10 - 9pt^8 + 28p^2t^6 - 35p^3t^4
    + 15p^4t^2 - p^5) H(t^2 - 4p) - (1/2) sum_{dd'=p} min(d,d')^11.

    The polynomial is P_12(t, p), so only the window differs from hecke_trace:
    the one-sided, sqrt(p)-bounded t-sum disagrees with the two-sided 2 sqrt(n)
    one; this function exists so the discrepancy can be reported.
    hecke_trace(12, p) is the value to trust.
    """
    return _trace_formula(12, p, range(isqrt(p) + 1))
