"""Kloosterman sums, Bessel kernels, and Rademacher-type expansions.

Every Rademacher sum here is the n-th coefficient of a weight-k Poincare
series of index m, summed by one kernel, _poincare_partials:
2 pi (n/|m|)^((k-1)/2) sum_{c<=C} K(m,n;c)/c B_{|k-1|}(4 pi sqrt(|m| n)/c),
with B = J for m > 0 and B = I for m < 0.  The entry points fix (k, m):

    1/Delta coefficients       (-12, -1)   I_13
    r_{d,n} (principal q^-d)   (0, -d)     I_1
    tau(n) beta                (12, 1)     J_11; beta - 1 is the n = 1 sum

The kernel walks c once for a list of (m, n) pairs of one weight, so cftx's
identity check and `rademacher tau` take one pass, and it runs in Python
integers at scale 2^-bits throughout, as Johansson computes these sums (LMS
J. Comput. Math. 2012).  Each modulus builds its units, their inverses and
one fixed-point cosine table, against which the Kloosterman sums are exact
integer residue bins; each c evaluates one fixed-point Bessel value per
distinct kind and |m| n (_bessel_fixed, the ascending series) and adds
the integer K B / c to each pair's accumulator.  pi and ln 2 come from
integer series, every exponential, cosine and sine from one routine, _exp,
through one of two range reductions (_cos_sin mod pi/2, _exp_ln2 by ln 2),
the prefactors from isqrt, and the partial sums come back as exact dyadic
Fractions, which float() rounds correctly.  Every sum converges absolutely
(the weight-12 terms are O(c^-11.5)) and is read off at params.cmax.

The second half of the module evaluates the weight -2 level-6 function G and
its weight-0 completion P on CM points, and sums P over the level-6 classes
of forms of discriminant 1 - 24n.  That trace is an integer multiple of the
partition number p(n), which is the acceptance check for all of it.  G and
P are eta quotients and their derivatives, so one kernel, _pentagonal_sums,
gives every CM value: T_i = sum (-1)^j e_j^i x^(e_j) over the generalized
pentagonal numbers e_j of arith.pentagonal at x = q^k, which has O(sqrt N)
terms up to x^N.  It runs in fixed point over Gaussian integers, stops each
sum at its own |q| once a stated tail bound is below the working precision,
and raises PrecisionError when an explicit order cuts it first.  G and P take
T_0, T_1 and T_2 at q, q^2, q^3, q^6; j (_j_at, for attractor's class
polynomials) takes T_0 at q and q^2.

Every CM value is computed in Python integers, on the same _pi, _ln2, _exp
and _round_shift as the sums.  A CM point is held exactly (CMPoint: Re tau
and (Im tau)^2 rational), and q = m 2^-n keeps its binary exponent apart
from a Gaussian-integer mantissa, so that G ~ 1/q and j ~ 1/f keep their
relative precision however small |q| is.  The arithmetic after the sums
runs on balls, Gaussian integers with an integer radius that bounds their
error, and each value comes back as an exact dyadic CMValue with that
bound; the ball format stays inside this module.

Kloosterman sums (_kloosterman_at), Bessel values (_bessel_fixed), G
(_g_and_dg) and j (_j_at) have no public wrappers: the tests hold these
kernels to their oracles.  No function here imports mpmath or numpy.
PrecisionError is defined on the package (classforms/__init__.py), so the
CLI catches it without running this module; it is imported here under the
same name.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import compress
from math import ceil, exp, expm1, factorial, floor, isqrt, log, log1p, log2, pi, sqrt
from operator import mul
from typing import NamedTuple

from . import PrecisionError
from .arith import pentagonal, prime_divisors, sqrt_mod

_LN2 = log(2.0)
_LOG2E = 1 / _LN2


# working-precision floor of the sums and of trace_singular_moduli
_MIN_DIGITS = 15


class _Truncation(NamedTuple):
    cmax: int = 30
    precision_digits: int = 30


class RademacherParams(_Truncation):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.cmax < 1:
            raise ValueError("cmax must be at least 1")
        if self.precision_digits < _MIN_DIGITS:
            raise ValueError(f"precision_digits must be at least {_MIN_DIGITS}")
        return self


# ---------------------------------------------------------------------------
# fixed-point constants and elementary functions: integers at scale 2^-bits
# ---------------------------------------------------------------------------


def _round_shift(v: int, shift: int) -> int:
    """v / 2^shift rounded to an integer (half up); a left shift when shift <= 0."""
    if shift <= 0:
        return v << -shift
    return (v + (1 << (shift - 1))) >> shift


def _arctan_inverse(q: int, bits: int, hyperbolic: bool) -> int:
    """atan(1/q), or atanh(1/q), times 2^bits for q >= 2, from the Taylor series.

    q^-(2j+1) 2^bits is floored by nested floor divisions, which are exact
    floors, and each term once more by its 1/(2j + 1): the sum is short by
    under one unit per term, and the tail after the first zero term is under
    1.2 units.
    """
    power = (1 << bits) // q
    q2 = q * q
    total, k, sign = 0, 1, 1
    while power:
        total += sign * (power // k)
        power //= q2
        k += 2
        if not hyperbolic:
            sign = -sign
    return total


@lru_cache(maxsize=None)
def _pi(bits: int) -> int:
    """pi * 2^bits within one unit: Machin's 16 atan(1/5) - 4 atan(1/239) at
    bits + g, off by under 20 (T + 2) < 2^(g - 2) units over its T < bits + g
    terms, then rounded."""
    g = (bits + 64).bit_length() + 7
    v = 16 * _arctan_inverse(5, bits + g, False) - 4 * _arctan_inverse(239, bits + g, False)
    return _round_shift(v, g)


@lru_cache(maxsize=None)
def _ln2(bits: int) -> int:
    """ln 2 * 2^bits within one unit: 2 atanh(1/3) at bits + g, off by under
    2 (T + 2) < 2^(g - 2) units over its T < bits + g terms, then rounded."""
    g = (bits + 64).bit_length() + 5
    return _round_shift(2 * _arctan_inverse(3, bits + g, True), g)


def _exp(t: int, bits: int, imaginary: bool):
    """e^t, or (cos t, sin t) when imaginary, for 0 <= t <= 1 at scale 2^bits,
    each within one unit: the Taylor series at t 2^-r < 2^-h, r >= 0 least and
    h = isqrt(bits) + 1, halved when imaginary (a complex squaring is three
    products, a real one one), squared r times, all at s = bits + r + 5 + g.
    Each term of the series is one floored product and division from the
    last, under two units of its own error carried forward times
    e^(t 2^-r) < 2 (h >= 1), so its T <= s + 1 terms and tail leave each part
    within 4 (T + 1) < 2^(g - 2) units and the value within 2^(g - 1.5), of a
    modulus e^(t 2^-r) >= 1, or 1 when imaginary.  Each squaring at most
    doubles the error relative to the value, then adds sqrt(2) units: under
    2^(r + g - 1.4) units relative at s, which for |e^t| <= e or |e^(it)| = 1
    is under 2^-4.9 units at bits before the rounding.
    """
    r = max(0, t.bit_length() - bits + (isqrt(bits) + 1 >> imaginary))
    g = (bits + r + 69).bit_length() + 9
    s = bits + r + 5 + g
    t <<= g + 5  # t 2^-r at scale 2^s
    term, n = 1 << s, 0
    sums = [term, 0, 0, 0]  # the terms with n = 0, 1, 2, 3 mod 4
    while term:
        n += 1
        term = (term * t >> s) // n
        sums[n & 3] += term
    c, si = (sums[0] - sums[2], sums[1] - sums[3]) if imaginary else (sum(sums), 0)
    for _ in range(r):
        c, si = (c * c - si * si) >> s, c * si >> (s - 1)
    c, si = _round_shift(c, s - bits), _round_shift(si, s - bits)
    return (c, si) if imaginary else c


def _cos_sin(a: int, pi_a: int, bits: int):
    """(cos a, sin a) at scale 2^bits for an angle a at that scale, with pi_a pi
    at that scale within one unit.

    a = k pi/2 + s, |s| <= pi/4, and pi_a >> 1 is within one unit, so with a
    within E units, s is within E + |k|, and cos s and sin s (_exp) within
    E + |k| + 1 units.
    """
    quarter = pi_a >> 1
    k, s = divmod(a + (quarter >> 1), quarter)
    s -= quarter >> 1
    cos_s, sin_s = _exp(abs(s), bits, True)
    if s < 0:
        sin_s = -sin_s
    return ((cos_s, sin_s), (-sin_s, cos_s), (-cos_s, -sin_s), (sin_s, -cos_s))[k & 3]


def _exp_ln2(y: int, ln2_a: int, bits: int):
    """(m, n) with e^y = m 2^(n - bits), for y at scale 2^bits, with ln2_a ln 2
    at that scale within one unit: y = n ln 2 + r, 0 <= r < ln 2, and
    m = e^r (_exp).  With y within E units, r is within E + |n|, and m, as
    e^r < 2, within 2 (E + |n|) + 1.
    """
    n, r = divmod(y, ln2_a)
    return _exp(r, bits, False), n


# ---------------------------------------------------------------------------
# Kloosterman sums
# ---------------------------------------------------------------------------


def _modulus(c: int, precision_digits: int):
    """What every Kloosterman sum mod c shares: (c, units, inverses, cos table, bits).

    The units d mod c (d = 0 alone when c = 1), sieved off the multiples of
    c's prime divisors (arith.prime_divisors), their inverses, and a fixed-point
    table of cos(2 pi k/c) * 2^bits, k <= c/2, built from one rounded cos(2 pi/c)
    by Chebyshev's recurrence (fixed-point exponential sums as in Johansson,
    LMS J. Comput. Math. 2012); cos(2 pi/c) is _cos_sin's at integer pi.
    A Poincare sum builds it once per c for all its (m, n); it is not cached
    across calls, which saved no time on the Rademacher sums and raised their
    peak memory.
    """
    coprime = bytearray(b"\x01") * c
    for p in prime_divisors(c):
        coprime[::p] = bytes(-(-c // p))
    units = list(compress(range(c), coprime))
    inverses = [pow(d, -1, c) for d in units]
    # cos k theta, theta = 2 pi/c, by the three-term recurrence
    # cos (k+1) theta = 2 cos theta cos k theta - cos (k-1) theta, one product
    # per entry.  cos theta is rounded to within one unit, and each step adds
    # under 3 units of its own (the floor, and 2 cos theta's rounding times
    # |cos k theta| <= 1); the error of step j reaches entry k times
    # sin((k - j) theta)/sin theta, at most k - j, so entry k is off by under
    # k + 3k^2/2 <= 2k^2 <= c^2/2 units.  phi(c) < c entries are summed, so the
    # total stays below c^3/2 units, which the 3 bit_length(c) guard bits hold
    # under 10^-precision_digits / 2.
    bits = ceil(precision_digits * log2(10.0)) + 3 * c.bit_length()
    cos_table = [1 << bits]
    if c > 1:
        # 2 pi/c <= pi at bits + 4 is off by under 3 units and in quadrant k <= 2,
        # so its cosine by under 6, and cos theta rounds to within 1/2 + 6/16 units
        pi_t = _pi(bits + 4)
        cos_theta = _round_shift(_cos_sin(2 * pi_t // c, pi_t, bits + 4)[0], 4)
        cos_table.append(cos_theta)
        two_cos = 2 * cos_theta
        for k in range(1, c // 2):
            cos_table.append((two_cos * cos_table[k] >> bits) - cos_table[k - 1])
    return c, units, inverses, cos_table, bits


def _kloosterman_at(m: int, n: int, modulus) -> int:
    """K(m, n; c) = sum over units d mod c of exp(2 pi i (m dbar + n d)/c), times
    2^bits: the integer total against the shared table of _modulus, which
    holds it within 10^-precision_digits of K.

    The sum is real because d and -d pair off, with residues m dbar + n d of
    opposite sign.  The residues are counted into bins mod c, the pairing is
    checked exactly as count[r] == count[c - r] (a mismatch raises
    ArithmeticError), and the dot product with the cos table folds the two
    halves r and c - r into one term.  K(m, n; 1) = 1: the unit group mod 1
    is the single residue 0.
    """
    c, units, inverses, cos_table, _ = modulus
    count = [0] * c
    for d, dbar in zip(units, inverses):
        count[(m * dbar + n * d) % c] += 1
    half = c // 2
    # bins 1..c/2 against bins c-1 down to c - c/2, the partner of each
    if count[1:half + 1] != count[:c - half - 1:-1]:
        r = next(r for r in range(1, half + 1) if count[r] != count[c - r])
        raise ArithmeticError(
            f"K({m},{n};{c}) is not real: residues {r} and {c - r} "
            f"occur {count[r]} and {count[c - r]} times"
        )
    total = count[0] * cos_table[0] + 2 * sum(map(mul, count[1:half + 1], cos_table[1:]))
    if c % 2 == 0:
        total -= count[half] * cos_table[half]  # r = c/2 is its own partner
    return total


# ---------------------------------------------------------------------------
# Bessel functions I_nu and J_nu in fixed point
# ---------------------------------------------------------------------------


def _log2_ceiling(kind: str, nu: int, x: float) -> int:
    """An integer e with |B_nu(x)| < 2^e, within two bits of |I| and of J's envelope.

    |J_nu| <= min(1, (x/2)^nu/nu!) (DLMF 10.14.1, 10.14.4).  I_nu is at most
    (x/2)^nu e^x/nu!, term by term against I_0 <= cosh, and at most
    I_0 <= (pi/2) e^x/sqrt(2 pi x), from cos t <= 1 - 2t^2/pi^2 in
    I_0(x) = (1/pi) int_0^pi e^(x cos t) dt.
    """
    head = nu * log2(x / 2) - log2(factorial(nu))
    if kind == "J":
        bound = min(0.0, head)
    else:
        bound = min(head, log2(pi / 2) - 0.5 * log2(2 * pi * x)) + x * _LOG2E
    return floor(bound + 0.01) + 1


def _bessel_fixed(kind: str, nu: int, num: int, den: int, bits: int) -> int:
    """I_nu(x) (kind "I") or J_nu(x) (kind "J") times 2^bits, rounded to within
    one unit, at x = num/den > 0 exactly; bits may be negative.

    With |B| 2^bits < 2^top (_log2_ceiling), top <= 0 returns 0; otherwise the
    value is _bessel_series's, whose docstring states its error bound.  Its
    x log2(e) guard bits and about 2 x terms make the cost grow like x^2:
    at 30 digits a value takes under 2 ms up to x = 1000, up to 0.6 s at
    x = 2e4 and 8-23 s at 1e5 (2-core Xeon VM, Python 3.11), so arguments past
    2e4 raise OverflowError.  An I sum reaches the cap only far past the double
    range (its coefficients grow like e^x), a J sum only at tau(n), n > 2.53e6.
    """
    if nu < 0:
        raise ValueError("order must be a nonnegative integer")
    if num <= 0 or den <= 0:
        raise ValueError("argument must be positive")
    x = num / den
    if x > 2e4:
        raise OverflowError("argument exceeds the configured evaluation range")
    if bits + _log2_ceiling(kind, nu, x) <= 0:
        return 0
    return _bessel_series(kind, nu, num, den, bits, x)


def _bessel_series(kind: str, nu: int, num: int, den: int, bits: int, x: float) -> int:
    """The ascending series sum_k (-1 for J)^k (x/2)^(2k + nu)/(k! (k + nu)!) at
    x = num/den, times 2^bits within one unit.

    Each term is one exact floor from the last, t_k = t_(k-1) num^2 /
    (4 den^2 k (k + nu)), at scale 2^-w.  A unit lost at step k reaches the sum
    times sum_(j>=k) t_j/t_k <= I_nu(x)/t_0 + 2 <= e^x + 2 (the terms rise
    to a peak, then fall by half or more per step), so K terms leave
    K (e^x + 3) units with the tail; w = bits + x log2(e) + g, 2^g >= 16 K,
    holds that under a quarter unit of 2^-bits.  These are the x log2(e)
    guard bits for J's cancellation.  The sum stops at the first zero term
    past the ratio 1/2.
    """
    g = (8 * ceil(x) + 2 * max(bits, 0) + 256).bit_length() + 4
    w = max(0, bits + ceil(x * _LOG2E) + g)
    a, b = num * num, 4 * den * den
    term = (num**nu << w) // ((2 * den) ** nu * factorial(nu))
    total, k, signed = term, 0, kind == "J"
    while True:
        k += 1
        step = b * k * (k + nu)
        term = term * a // step
        total += -term if signed and k & 1 else term
        if not term and 2 * a <= step:
            return _round_shift(total, w - bits)


# ---------------------------------------------------------------------------
# the Poincare-series kernel and its entry points
# ---------------------------------------------------------------------------


def _prefactor(k: int, m: int, n: int, prec: int):
    """(f, b) with f / 2^b = 2 pi (n/|m|)^((k-1)/2) to within 2^-(prec + 1) relative,
    as 2 pi sqrt((n/|m|)^(k-1)) from isqrt at prec + 3 significant bits."""
    num, den = n ** abs(k - 1), abs(m) ** abs(k - 1)
    if k < 1:
        num, den = den, num
    b = max(0, prec + 3 - (num.bit_length() - den.bit_length() - 1) // 2)
    return 2 * _pi(prec + 3) * isqrt((num << 2 * b) // den), b + prec + 3


def _poincare_partials(k: int, pairs, params: RademacherParams):
    """Partial sums C = 1..cmax of the n-th weight-k Poincare coefficient of index m,
    one list of exact dyadic Fractions per (m, n) in pairs.

    2 pi (n/|m|)^((k-1)/2) sum_{c<=C} K(m,n;c)/c B_{|k-1|}(4 pi sqrt(|m| n)/c),
    with B = J for m > 0 (the cusp form whose expansion starts at q^m) and
    B = I for m < 0 (the form with principal part q^m).  One pass over c:
    each modulus builds its units, inverses and cos table once for every
    pair, and one Bessel value per distinct kind and |m| n.

    Everything is an integer at scale 2^-bits.  With d = precision_digits and
    prec = d log2(10) + bit_length(cmax) + 4, each kind and |m| n has its
    argument X = 4 pi sqrt(|m| n) to prec + bit_length(X + nu) + 3 bits (x B'
    is at most (nu + x) times B's bound) and its scale 2^-s, s = prec - e,
    2^e bounding the c = 1 value B(X) (_log2_ceiling); every c's value
    B(X/c) is _bessel_fixed's at that scale, and each pair's accumulator
    adds the floor of K B / c at it.  Over c <= C that is within
    (1.5 + ln C) 10^-d 2^e of the exact sum, the Kloosterman tables'
    10^-d per c dominating, and the prefactor is good to 2^-(prec + 1).
    """
    nu = abs(k - 1)
    prec = ceil(params.precision_digits * log2(10.0)) + params.cmax.bit_length() + 4
    keys = [("J" if m > 0 else "I", abs(m) * n) for m, n in pairs]
    args = {}
    for kind, size in dict.fromkeys(keys):
        x = 4 * pi * sqrt(size)
        xbits = prec + (ceil(x) + nu).bit_length() + 3
        X = 4 * _pi(xbits) * isqrt(size << 2 * xbits) >> xbits
        args[kind, size] = X, xbits, prec - _log2_ceiling(kind, nu, x)
    factors = []  # each pair's prefactor and the scale 2^-b, b >= 0, of its partial sums
    for (m, n), key in zip(pairs, keys):
        f, b = _prefactor(k, m, n, prec)
        b += args[key][2]
        factors.append((f << max(0, -b), max(0, b)))
    accs = [0] * len(pairs)
    partials = [[] for _ in pairs]
    for c in range(1, params.cmax + 1):
        modulus = _modulus(c, params.precision_digits)
        divisor = c << modulus[-1]
        bessel = {key: _bessel_fixed(key[0], nu, X, c << xbits, s)
                  for key, (X, xbits, s) in args.items()}
        for i, (m, n) in enumerate(pairs):
            accs[i] += _kloosterman_at(m, n, modulus) * bessel[keys[i]] // divisor
            f, b = factors[i]
            partials[i].append(Fraction(f * accs[i], 1 << b))
    return partials


def _double(x) -> float:
    """x, an exact rational, as the nearest float; OverflowError past the double range."""
    try:
        return float(x)
    except OverflowError:
        from decimal import Decimal

        p, q = x.numerator, x.denominator
        shift = max(0, abs(p).bit_length() - q.bit_length() - 96)
        shown = Decimal(p >> shift) / q * Decimal(2) ** shift
        raise OverflowError(f"the coefficient {shown:.6g} exceeds the double range") from None


def rademacher_inv_delta_partials(n: int, params: RademacherParams):
    """Cumulative truncations of the 1/Delta coefficient sum, c = 1..cmax.

    Weight -12, index -1.  Returned as exact dyadic Fractions, good to the
    working precision, so convergence is observable beneath double-precision
    granularity.
    """
    if n < 1:
        raise ValueError("n must be positive")
    return _poincare_partials(-12, [(-1, n)], params)[0]


def rademacher_inv_delta(n: int, params: RademacherParams = RademacherParams()) -> float:
    """Truncated sum converging to the q^n coefficient of 1/Delta."""
    return _double(rademacher_inv_delta_partials(n, params)[-1])


def rademacher_tau_partials(n: int, params: RademacherParams):
    """Partial sums of the weight-12 coefficient sum, without the normalization
    beta: 2 pi n^(11/2) sum K(1,n;c)/c J_11(4 pi sqrt(n)/c), index 1."""
    if n < 2:
        raise ValueError("n must be at least 2")
    return [_double(x) for x in _poincare_partials(12, [(1, n)], params)[0]]


def calibrate_beta(params: RademacherParams = RademacherParams(cmax=200)) -> float:
    """The normalization beta = 2.8402873... of the weight-12 sum.

    The weight-12 Poincare series P_1 = sum p(n) q^n has p(n) = delta_{n,1}
    + 2 pi n^(11/2) sum K(1,n;c)/c J_11(4 pi sqrt(n)/c); the cusp forms of
    weight 12 are the multiples of Delta, so P_1 = p(1) Delta and tau(n) =
    p(n)/p(1).  beta is p(1) = 1 + 2 pi sum K(1,1;c)/c J_11(4 pi/c), from
    the same truncated sum as tau(n) and not fitted to any tau value; the 1
    is added exactly.
    """
    return _double(1 + _poincare_partials(12, [(1, 1)], params)[0][-1])


def rademacher_tau_with_beta(n: int, params: RademacherParams = RademacherParams(cmax=200)):
    """(tau(n), beta): the truncated weight-12 sum for tau(n), n >= 2, over beta,
    with both sums from one pass over c."""
    if n < 2:
        raise ValueError("n must be at least 2")
    beta_sums, tau_sums = _poincare_partials(12, [(1, 1), (1, n)], params)
    beta = _double(1 + beta_sums[-1])
    return _double(tau_sums[-1]) / beta, beta


def rademacher_tau(n: int, params: RademacherParams = RademacherParams(cmax=200)) -> float:
    """Truncated weight-12 Rademacher sum for tau(n), n >= 2, over beta."""
    return rademacher_tau_with_beta(n, params)[0]


def rd_partials(d: int, n: int, params: RademacherParams):
    """Partial sums of r_{d,n} = 2 pi sqrt(d/n) sum K(-d,n;c)/c I_1(4 pi sqrt(dn)/c),
    weight 0 and index -d."""
    if d < 1 or n < 1:
        raise ValueError("d and n must be positive")
    return [_double(x) for x in _poincare_partials(0, [(-d, n)], params)[0]]


def rd_coefficient(d: int, n: int, params: RademacherParams = RademacherParams(cmax=200)) -> float:
    """Coefficient r_{d,n} of the principal-part-q^(-d) Rademacher series."""
    return rd_partials(d, n, params)[-1]


# ---------------------------------------------------------------------------
# the weight -2 / weight 0 pair on level 6, and traces over CM points
# ---------------------------------------------------------------------------


def _prec_of_digits(digits: int) -> int:
    """The bits of `digits` decimal digits, (digits + 1) log2(10) rounded: the
    precision at which every truncation order of the CM values was chosen."""
    return round((digits + 1) * 3.3219280948873626)


class CMPoint(NamedTuple):
    """tau = x + i sqrt(y2) with x and y2 > 0 exact rationals: a CM root
    exactly, or a complex number's two doubles."""

    x: Fraction
    y2: Fraction

    def __complex__(self):
        return complex(self.x, sqrt(self.y2))


def _point(tau) -> CMPoint:
    """tau as a CMPoint; anything else is read as its complex value."""
    if isinstance(tau, CMPoint):
        return tau
    tau = complex(tau)
    if not tau.imag > 0:
        raise ValueError("tau must lie in the upper half-plane")
    return CMPoint(Fraction(tau.real), Fraction(tau.imag) ** 2)


def cm_root(f) -> CMPoint:
    """Upper-half-plane root of a tau^2 + b tau + c = 0, -b/2a + i sqrt(|D|)/2a, exactly."""
    a, b, _ = f
    return CMPoint(Fraction(-b, 2 * a), Fraction(-f.discriminant(), 4 * a * a))


class CMValue(NamedTuple):
    """An exact dyadic complex number real + i imag, within rad of the value
    it stands for; complex() rounds each part to the nearest double."""

    real: Fraction
    imag: Fraction
    rad: Fraction

    def __complex__(self):
        return complex(self.real, self.imag)


# A ball (re, im, rad) holds every value within rad units of (re + i im) 2^-bits,
# rad an integer.  Each operation returns a ball that holds the exact result of
# any values its operands hold, bounding |z| above by |re| + |im| and below by
# max(|re|, |im|); products and quotients floor each part, under sqrt(2) units.


def _add(a, b, c: int = 1):
    """a + c b for an integer c, exactly."""
    return a[0] + c * b[0], a[1] + c * b[1], a[2] + abs(c) * b[2]


def _shift(a, n: int):
    """a 2^-n, n >= 0, each part floored: the radius is rad 2^-n rounded up, plus 2."""
    return a[0] >> n, a[1] >> n, (a[2] >> n) + 3


def _mul(a, b, bits: int):
    """a b: the radius is |a| rb + |b| ra + ra rb rounded up, plus 2."""
    (ar, ai, ra), (br, bi, rb) = a, b
    rad = ((abs(ar) + abs(ai)) * rb + (abs(br) + abs(bi)) * ra + ra * rb >> bits) + 3
    return (ar * br - ai * bi) >> bits, (ar * bi + ai * br) >> bits, rad


def _div(a, b, bits: int):
    """a / b: the radius is (ra + |a/b| rb)/(|b| - rb) rounded up, plus 2;
    PrecisionError when the ball b may hold 0."""
    (ar, ai, ra), (br, bi, rb) = a, b
    low = max(abs(br), abs(bi)) - rb
    if low <= 0:
        raise PrecisionError(f"a CM value divides by a sum within its error of 0 at {bits} bits")
    norm = br * br + bi * bi
    cr = ((ar * br + ai * bi) << bits) // norm
    ci = ((ai * br - ar * bi) << bits) // norm
    return cr, ci, -(-((ra << bits) + (abs(cr) + abs(ci) + 2) * rb) // low) + 2


def _cm_value(a, e: int) -> CMValue:
    """The ball a at scale 2^e, as a CMValue."""
    if e >= 0:
        return CMValue(Fraction(a[0] << e), Fraction(a[1] << e), Fraction(a[2] << e))
    return CMValue(Fraction(a[0], 1 << -e), Fraction(a[1], 1 << -e), Fraction(a[2], 1 << -e))


def _near(constant, bits: int) -> int:
    """constant(top) rounded to scale 2^bits, top the next multiple of 256: within one
    unit when constant(top) is, and nearby precisions share one cached value."""
    top = -(-bits // 256) * 256
    return _round_shift(constant(top), top - bits)


class _Q(NamedTuple):
    m: tuple  # the mantissa, a ball at scale 2^-bits with 1 <= |m| < 2
    n: int  # q = m 2^-n
    t: tuple  # 2 pi Im tau, a real ball at scale 2^-bits


def _q_at(tau: CMPoint, bits: int) -> _Q:
    """q = exp(2 pi i tau) as m 2^-n, so that q keeps its relative precision
    however small it is, and t = 2 pi Im tau; m and t are within one unit.

    With y = Im tau, -t = -n ln 2 + r, 0 <= r < ln 2 (_exp_ln2), and
    m = e^r (cos theta + i sin theta), theta = 2 pi (Re tau mod 1) (_cos_sin), at
    w = bits + g, 2^g >= 512 (floor(y) + 1).  At w, y is floored from isqrt, pi and
    ln 2 are within one unit, t within 2y + 8 units, r within 11.1y + 10, e^r
    (below 2) within 22.2y + 21, theta within 3, and with its quadrant k <= 4,
    cos theta and sin theta within 8: each part of m is within 22.2y + 39 < 2^(g - 3)
    units, under 0.18 units of 2^-bits in modulus, and m is within one unit once
    rounded to bits; so is t.
    """
    x, y2 = tau
    g = (isqrt(y2.numerator // y2.denominator) + 1).bit_length() + 9
    w = bits + g
    pi_w = _near(_pi, w)
    t = 2 * pi_w * isqrt((y2.numerator << 2 * w) // y2.denominator) >> w
    e, n = _exp_ln2(-t, _near(_ln2, w), w)
    turn = x - floor(x)
    cos_t, sin_t = _cos_sin(2 * pi_w * turn.numerator // turn.denominator, pi_w, w)
    m = (_round_shift(e * cos_t, w + g), _round_shift(e * sin_t, w + g), 1)
    return _Q(m, -n, (_round_shift(t, g), 0, 1))


def _ln_tail_bound(m: int, ln_x: float) -> float:
    """ln of m^2 r^m (1 + r)/(1 - r)^3 >= sum_{e >= m} e^2 r^e, r = e^ln_x (which
    may underflow): at e = m + i, e^2 <= m^2 (1 + i)^2, summed to (1 + r)/(1 - r)^3."""
    return 2 * log(m) + m * ln_x + log1p(exp(ln_x)) - 3 * log(-expm1(ln_x))


def _pentagonal_last(ln_x: float, prec: int, limit: int | None = None):
    """Largest exponent the pentagonal sums keep at |x| = e^ln_x and prec bits, the
    one before the least e_j with tail bound below 2^-prec; None if e_j >= limit."""
    last = 0
    for e, _ in pentagonal():
        if _ln_tail_bound(e, ln_x) < -prec * _LN2:
            return last
        if limit is not None and e >= limit:
            return None
        last = e


def _pentagonal_sums(x, bits: int, last: int, weights: int):
    """[T_0, ..., T_{weights-1}] at x, Gaussian integers at scale 2^-bits, over the
    exponents up to last; x is a Gaussian integer at that scale with |x| < 1.

    T_i(x) = sum over j in Z of (-1)^j e_j^i x^(e_j), e_j = j(3j - 1)/2: T_0 is
    prod (1 - x^n) (pentagonal-number theorem), T_1 = x T_0' and T_2 = x T_1'.
    The sums are 1 + O(x), so they run in fixed point, where absolute error is
    relative error.  Each x^e is one floored product from the last, by x^(2j - 1)
    or x^j, themselves stepped by x^2 and x.  A floored product of values below 1
    in modulus adds sqrt(2) units to its factors' errors, so with x within one
    unit, x^e is off by < 3e units and T_i by < 3 last^4.
    """

    def mul(a, b):
        return ((a[0] * b[0] - a[1] * b[1]) >> bits, (a[0] * b[1] + a[1] * b[0]) >> bits)

    odd, power, t = x, x, (1 << bits, 0)  # x^(2j - 1) and x^j at j = 1, x^0
    x2 = mul(x, x)
    sums = [[1 << bits, 0]] + [[0, 0] for _ in range(weights - 1)]
    for i, (e, sign) in enumerate(pentagonal()):
        if e > last:
            break
        if i % 2 == 0:  # e_j - e_{-(j-1)} = 2j - 1
            t, odd = mul(t, odd), mul(odd, x2)
        else:  # e_{-j} - e_j = j
            t, power = mul(t, power), mul(power, x)
        w = sign
        for acc in sums:
            acc[0] += w * t[0]
            acc[1] += w * t[1]
            w *= e
    return sums


def _cm_sums(tau, prec: int, ks, weights: int, order: int | None = None):
    """(q, bits, sums): q at tau (_q_at) and, for each k in ks, the balls
    sums[k] = [T_0, ..., T_{weights-1}] at x = q^k, all at scale 2^-bits.

    As e^i <= e^2, the tail of a sum from exponent m on is below
    m^2 r^m (1 + r)/(1 - r)^3, r = |x| (_ln_tail_bound); each sum stops at the
    least e_j where that is below 2^-prec.  An explicit order caps the sums at
    k e < order, and PrecisionError reports the bound left at the cap if it
    stops a sum first.  With L the largest exponent kept, bits = prec +
    bit_length(3 L^4) + 2.  q = m 2^-n comes with m at bits + 4 and n >= 1, so
    q is within 2^-(bits + 5) and q^k within 6 2^-(bits + 5) < 0.19 units; x is
    the exact k-th power of m, shifted and rounded, within one unit.  So each
    T_i is within 2^-prec (the tail) plus 3 last^4 units (_pentagonal_sums),
    its radius.
    """
    tau = _point(tau)
    ln_q = -2 * pi * sqrt(tau.y2)
    lasts = []
    for k in ks:
        limit = None if order is None else -(-order // k)  # k e < order
        last = _pentagonal_last(k * ln_q, prec, limit)
        if last is None:
            tail = _ln_tail_bound(limit, k * ln_q) / log(10.0)
            raise PrecisionError(f"truncation order {order} leaves tail ~1e{tail:.0f} at "
                                 f"|q|={exp(ln_q):.4f}: the q^{k} sum is cut at exponent {limit}")
        lasts.append(last)
    bits = prec + (3 * max(lasts) ** 4).bit_length() + 2
    q = _q_at(tau, bits + 4)
    sums = {}
    for k, last in zip(ks, lasts):
        re, im = q.m[0], q.m[1]
        for _ in range(k - 1):
            re, im = re * q.m[0] - im * q.m[1], re * q.m[1] + im * q.m[0]
        shift = k * (bits + 4 + q.n) - bits
        x = (_round_shift(re, shift), _round_shift(im, shift))
        rad = (1 << (bits - prec)) + 3 * last**4
        sums[k] = [(*t, rad) for t in _pentagonal_sums(x, bits, last, weights)]
    return _Q(_shift(q.m, 4), q.n, _shift(q.t, 4)), bits, sums


def _g_and_dg(tau, order: int | None, prec: int):
    """G(tau) and DG = q dG/dq as (g, dg, q, bits): G = g 2^n and DG = dg 2^n for
    q = m 2^-n, with g and dg balls at scale 2^-bits whose radii bound their error.

    For k = 1, 2, 3, 6 the sums at x = q^k (_cm_sums, to 2^-prec) give
    E2(k tau) = 1 + 24 T_1/T_0 and D E2(k tau) = 24 k (T_2/T_0 - (T_1/T_0)^2).
    With the squared eta quotient W = q prod_k T_0(q^k)^2 = 2^-n m prod_k T_0(q^k)^2
    and N = E2(tau) - 2 E2(2 tau) - 3 E2(3 tau) + 6 E2(6 tau), G = N/(2W) and
    DG = DN/(2W) - G sum_k k E2(k tau)/12, as D log W is that sum.
    """
    q, bits, sums = _cm_sums(tau, prec, (1, 2, 3, 6), 3, order)
    one = (1 << bits, 0, 0)
    n = dn = dlog_w = (0, 0, 0)
    w = q.m
    for k, c in ((1, 1), (2, -2), (3, -3), (6, 6)):
        t0, t1, t2 = sums[k]
        ratio = _div(t1, t0, bits)
        e2 = _add(one, ratio, 24)
        n = _add(n, e2, c)
        dn = _add(dn, _add(_div(t2, t0, bits), _mul(ratio, ratio, bits), -1), c * 24 * k)
        dlog_w = _add(dlog_w, e2, k)
        w = _mul(w, _mul(t0, t0, bits), bits)
    w = _add(w, w)
    g = _div(n, w, bits)
    dg = _add(_div(dn, w, bits), _div(_mul(g, dlog_w, bits), (12 << bits, 0, 0), bits), -1)
    return g, dg, q, bits


def _j_at(tau, prec: int) -> CMValue:
    """Klein's j at tau, a CMValue whose rad bounds its error.

    j = (256 f + 1)^3 / f = 1/f + 768 + 196608 f + 16777216 f^2 with
    f = Delta(2 tau)/Delta(tau) = q r^24, r = S(q^2)/S(q) and S = prod (1 - q^n),
    the pentagonal sum T_0 to 2^-prec (_cm_sums).  With q = m 2^-n,
    f = F 2^-n for F = m r^24, and j = 2^n (1/F + 2^-n (768 + 196608 F 2^-n +
    16777216 F^2 2^-2n)), so j keeps its relative precision however small |q|
    is.  r^24 is ((r^3)^2)^2)^2, and every step is a ball (_mul, _div), whose
    radius holds the error of its operands and its floors.
    """
    q, bits, sums = _cm_sums(tau, prec, (1, 2), 1)
    r = _div(sums[2][0], sums[1][0], bits)
    r24 = _mul(_mul(r, r, bits), r, bits)
    for _ in range(3):
        r24 = _mul(r24, r24, bits)
    f = _mul(q.m, r24, bits)
    small = _add(_shift(_add((0, 0, 0), f, 196608), q.n),
                 _shift(_mul(f, f, bits), 2 * q.n), 16777216)
    small = _add(small, (768 << bits, 0, 0))
    j = _add(_div((1 << bits, 0, 0), f, bits), _shift(small, q.n))
    return _cm_value(j, q.n - bits)


def eval_P_complex(tau, order: int | None = None, precision_digits: int = 40) -> CMValue:
    """The weight-0 completion -DG(tau) - G(tau)/(2 pi Im tau), DG = q dG/dq, a
    CMValue whose rad bounds its error (_g_and_dg's balls); the sums run to
    2^-prec at the bits of precision_digits, and an explicit `order` caps them at
    q^order.  Real when the class of tau is its own inverse; elsewhere values
    come in conjugate pairs, and trace_singular_moduli asserts only their sum's
    realness."""
    g, dg, q, bits = _g_and_dg(tau, order, _prec_of_digits(precision_digits))
    return _cm_value(_add(_add((0, 0, 0), dg, -1), _div(g, q.t, bits), -1), q.n - bits)


def enumerate_QD(n: int):
    """Representatives of the level-6 classes of discriminant 1 - 24n, sorted by (a, b, c).

    Each SL2(Z) class, imprimitive ones included, holds exactly one Gamma0(6)
    class of forms [a, b, c] with 6 | a and b = 1 mod 12 (Gross-Kohnen-Zagier,
    Math. Ann. 1987, I.1).  Walking a = 6, 12, 18, ... and, for each, the b in
    [0, 2a) with b = 1 mod 12 among the square roots of D mod 4a
    (arith.sqrt_mod, increasing), the first form met in each class is kept, so
    every representative has the least a (then b) in its class; the walk stops
    once every reduced class is covered, which the bijection guarantees.
    The list therefore has h(1 - 24n) entries (imprimitive classes counted)
    and is pairwise inequivalent.
    """
    from .quadforms import Form, enumerate_reduced, reduce

    if n < 1:
        raise ValueError("n must be positive")
    D = 1 - 24 * n
    uncovered = set(enumerate_reduced(D, primitive_only=False))
    reps = []
    a = 0
    while uncovered:
        a += 6
        for b in sqrt_mod(D, 4 * a):
            if b >= 2 * a:
                break
            if b % 12 != 1:
                continue
            f = Form(a, b, (b * b - D) // (4 * a))
            cls = reduce(f)
            if cls in uncovered:
                uncovered.remove(cls)
                reps.append(f)
    return reps


class SingularTrace(NamedTuple):
    value: float  # the sum of the points' P as doubles, in list order
    working_sum: CMValue  # the same sum, exact, with the points' error bounds added up
    points: list  # the forms summed over, enumerate_QD(n)


def trace_singular_moduli(n: int, order: int | None = None,
                          precision_digits: int | None = None) -> SingularTrace:
    """Sum of P over the level-6 CM points of discriminant 1 - 24n, (24n - 1) p(n),
    in doubles and exactly, with the points it walked.

    The default digits cover the largest term of 2G's expansion at the lowest
    point (largest |q|): its coefficients grow like exp(4 pi sqrt(m/6)), so the
    terms peak at exp(2 pi^2 / (3 |ln q|)).  Each point's sums stop at their
    own tail bound; the default order is the least that lets the lowest
    point's finish, and an explicit one (>= 1) caps them all.  The summands
    are conjugate-paired across inverse classes, and the exact sum's realness
    is asserted to 1e-8.
    """
    if order is not None and order < 1:
        raise ValueError("order must be at least 1")
    if precision_digits is not None and precision_digits < _MIN_DIGITS:
        raise ValueError(f"precision_digits must be at least {_MIN_DIGITS}")
    forms = enumerate_QD(n)
    lowest = max(forms, key=lambda f: f.a)  # |q| = exp(-pi sqrt|D| / a) is largest there
    if precision_digits is None:
        peak = 2 * pi * lowest.a / (3 * sqrt(24 * n - 1))
        precision_digits = 30 + max(0, int(peak / log(10.0)) + 5)
    if order is None:
        ln_q = -2 * pi * sqrt(cm_root(lowest).y2)
        prec = _prec_of_digits(precision_digits)
        order = 1 + max(k * _pentagonal_last(k * ln_q, prec) for k in (1, 2, 3, 6))
    values = [eval_P_complex(cm_root(f), order, precision_digits) for f in forms]
    working_sum = CMValue(*(sum(parts) for parts in zip(*values)))
    if abs(working_sum.imag) > 1e-8 * max(1, abs(working_sum.real)):
        raise PrecisionError(f"trace has imaginary residual {float(working_sum.imag)}")
    return SingularTrace(sum(map(complex, values)).real, working_sum, forms)
