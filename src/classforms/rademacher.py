"""Kloosterman sums, Bessel kernels, and Rademacher-type expansions.

Every Rademacher sum here is the n-th coefficient of a weight-k Poincare
series of index m, summed by one kernel, _poincare_partials:
2 pi (n/|m|)^((k-1)/2) sum_{c<=C} K(m,n;c)/c B_{|k-1|}(4 pi sqrt(|m| n)/c),
with B = J for m > 0 and B = I for m < 0.  The entry points fix (k, m):

    1/Delta coefficients       (-12, -1)   I_13
    r_{d,n} (principal q^-d)   (0, -d)     I_1
    tau(n) beta                (12, 1)     J_11; beta - 1 is the n = 1 sum

The kernel walks c once for a list of (m, n) pairs of one weight, so cftx's
identity check and `rademacher tau` take one pass: each modulus builds its
units, their inverses and one fixed-point cosine table (stated error bound),
against which the Kloosterman sums are exact integer residue bins, and each
c evaluates one Bessel value per distinct kind and |m| n: J from mpmath's
besselj, I as (x/2)^nu / nu! 0F1(nu + 1; x^2/4).  Every sum converges
absolutely (the weight-12 terms are O(c^-11.5)) and is read off its last
partial sum at params.cmax.

The second half of the module evaluates the weight -2 level-6 function G and
its weight-0 completion P on CM points, and sums P over the level-6 classes
of forms of discriminant 1 - 24n.  That trace is an integer multiple of the
partition number p(n), which is the acceptance check for all of it.  G and
P are eta quotients and their derivatives, so one kernel, _pentagonal_sums,
gives every CM value: T_i = sum (-1)^j e_j^i x^(e_j) over the generalized
pentagonal numbers e_j at x = q^k, which has O(sqrt N) terms up to x^N.  It
runs in fixed point over Gaussian integers, stops each sum at its own |q|
once a stated tail bound is below the working precision, and raises
PrecisionError when an explicit order cuts it first.  G and P take T_0, T_1
and T_2 at q, q^2, q^3, q^6; attractor takes T_0 at q and q^2 for j.

mpmath is imported inside each function that uses it: every command is a
fresh process, so only the sums, CM-point values and class polynomials pay
for loading it.
"""

from itertools import count
from math import ceil, exp, expm1, factorial, gcd, isinf, log, log1p, log2, pi, sqrt
from operator import mul
from typing import NamedTuple

from .quadforms import Form, enumerate_reduced, reduce

_LN2 = log(2.0)


# working-precision floor of the sums and of trace_singular_moduli
_MIN_DIGITS = 15


class PrecisionError(ArithmeticError):
    """Requested tolerance cannot be met; carries the achieved residual."""


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


def kloosterman(m: int, n: int, c: int, precision_digits: int = 30) -> float:
    """K(m, n; c) = sum over units d mod c of exp(2 pi i (m dbar + n d)/c).

    The sum is real because d and -d pair off: the residue m dbar + n d of d
    and that of -d are negatives of each other.  The residues are counted
    into bins mod c, and the pairing is checked exactly, as count[r] ==
    count[c - r] for every r; a mismatch raises ArithmeticError.
    K(m, n; 1) = 1: the unit group mod 1 is the single degenerate residue
    with an empty exponent.
    """
    return float(_kloosterman_mpf(m, n, c, precision_digits))


def _kloosterman_mpf(m: int, n: int, c: int, precision_digits: int):
    """K(m, n; c) as an mpf at precision_digits, from integer residue bins."""
    import mpmath as mp

    if c < 1:
        raise ValueError("modulus must be positive")
    with mp.workdps(precision_digits):
        return _kloosterman_at(m, n, _modulus(c, precision_digits))


def _modulus(c: int, precision_digits: int):
    """What every Kloosterman sum mod c shares: (c, units, inverses, cos table, bits).

    The units d mod c (d = 0 alone when c = 1) and their inverses, and a
    fixed-point table of cos(2 pi k/c) * 2^bits, k <= c/2, built from one
    rounded root of unity by Gaussian-integer products (the exponential-sum
    technique of Johansson, LMS J. Comput. Math. 2012).  A Poincare sum
    builds it once per c for all its (m, n); it is not cached across calls,
    which saved no time on the Rademacher sums and raised their peak memory.
    """
    import mpmath as mp

    units = [d for d in range(c) if gcd(d, c) == 1]
    inverses = [pow(d, -1, c) for d in units]
    # Rounding omega costs under one unit of 2^-bits and each floored product
    # under two more, so the k-th power is off by under 3k <= 1.5c units;
    # phi(c) < c entries are summed, so the total stays below 1.5 c^2 units,
    # which the 2 * bit_length(c) + 1 guard bits hold under 10^-precision_digits.
    bits = ceil(precision_digits * log2(10.0)) + 2 * c.bit_length() + 1
    with mp.workprec(bits + 10):
        omega = mp.expjpi(mp.mpf(2) / c)
        w_re = int(mp.nint(mp.ldexp(omega.real, bits)))
        w_im = int(mp.nint(mp.ldexp(omega.imag, bits)))
    cos_table = [1 << bits]
    z_re, z_im = 1 << bits, 0
    for _ in range(c // 2):
        z_re, z_im = (z_re * w_re - z_im * w_im) >> bits, (z_re * w_im + z_im * w_re) >> bits
        cos_table.append(z_re)
    return c, units, inverses, cos_table, bits


def _kloosterman_at(m: int, n: int, modulus):
    """K(m, n; c) from the shared table of _modulus, an mpf at the working precision.

    The residues m dbar + n d are counted into bins mod c, the realness
    check count[r] == count[c - r] is exact, and the dot product with the
    cos table folds the two halves r and c - r into one term.
    """
    import mpmath as mp

    c, units, inverses, cos_table, bits = modulus
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
    return mp.ldexp(mp.mpf(total), -bits)


def bessel_I(order: int, x, precision_digits: int = 30) -> float:
    """Modified Bessel I_order(x), x > 0, at precision_digits."""
    import mpmath as mp

    with mp.workdps(precision_digits):
        return float(_bessel_mpf("I", order, x))


def bessel_J(order: int, x, precision_digits: int = 30) -> float:
    """Bessel J_order(x), x > 0, from mpmath at precision_digits."""
    import mpmath as mp

    with mp.workdps(precision_digits):
        return float(_bessel_mpf("J", order, x))


def _bessel_mpf(kind: str, nu: int, x):
    """I_nu(x) (kind "I") or J_nu(x) (kind "J") at the working precision.

    I_nu(x) = (x/2)^nu / nu! 0F1(; nu + 1; x^2/4), from mpmath's 0F1 without
    the hypercomb wrapper of mpmath's besseli, which costs four to six times as
    much for the same digits; J is mp.besselj, fast at integer order.
    """
    import mpmath as mp

    if nu < 0:
        raise ValueError("order must be a nonnegative integer")
    if x <= 0:
        raise ValueError("argument must be positive")
    if x > 1e5:
        raise OverflowError("argument exceeds the configured evaluation range")
    if kind == "J":
        return mp.besselj(nu, x)
    half = mp.mpf(x) / 2
    # x^2/4 exactly: 0F1 grows like exp(x), so rounding it would lose log2(x) bits
    return half**nu / factorial(nu) * mp.hyp0f1(nu + 1, mp.fmul(half, half, exact=True))


def _poincare_partials(k: int, pairs, params: RademacherParams):
    """Partial sums C = 1..cmax of the n-th weight-k Poincare coefficient of index m,
    one list per (m, n) in pairs.

    2 pi (n/|m|)^((k-1)/2) sum_{c<=C} K(m,n;c)/c B_{|k-1|}(4 pi sqrt(|m| n)/c),
    with B = J for m > 0 (the cusp form whose expansion starts at q^m) and
    B = I for m < 0 (the form with principal part q^m).  One pass over c:
    each modulus builds its units, inverses and cos table once for every
    pair, and one Bessel value per distinct kind and |m| n.  mpf values at
    params.precision_digits, at which each Bessel value is evaluated.
    """
    import mpmath as mp

    nu = abs(k - 1)
    with mp.workdps(params.precision_digits):
        keys = [("J" if m > 0 else "I", abs(m) * n) for m, n in pairs]
        args = {key: 4 * mp.pi * mp.sqrt(mp.mpf(key[1])) for key in keys}
        prefactors = [2 * mp.pi * (mp.mpf(n) / abs(m)) ** (mp.mpf(k - 1) / 2) for m, n in pairs]
        accs = [mp.mpf(0)] * len(pairs)
        partials = [[] for _ in pairs]
        for c in range(1, params.cmax + 1):
            modulus = _modulus(c, params.precision_digits)
            bessel = {key: _bessel_mpf(key[0], nu, arg / c) for key, arg in args.items()}
            for i, (m, n) in enumerate(pairs):
                accs[i] += _kloosterman_at(m, n, modulus) / c * bessel[keys[i]]
                partials[i].append(prefactors[i] * accs[i])
        return partials


def _double(x) -> float:
    """x as a float; OverflowError when it lies beyond the double range."""
    value = float(x)
    if isinf(value):
        import mpmath as mp

        raise OverflowError(f"the coefficient {mp.nstr(x, 6)} exceeds the double range")
    return value


def rademacher_inv_delta_partials(n: int, params: RademacherParams):
    """Cumulative truncations of the 1/Delta coefficient sum, c = 1..cmax.

    Weight -12, index -1.  Returned as mpf values at the working precision
    so convergence is observable beneath double-precision granularity.
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
    is added at the working precision.
    """
    import mpmath as mp

    with mp.workdps(params.precision_digits):
        return _double(1 + _poincare_partials(12, [(1, 1)], params)[0][-1])


def rademacher_tau_with_beta(n: int, params: RademacherParams = RademacherParams(cmax=200)):
    """(tau(n), beta): the truncated weight-12 sum for tau(n), n >= 2, over beta,
    with both sums from one pass over c."""
    import mpmath as mp

    if n < 2:
        raise ValueError("n must be at least 2")
    with mp.workdps(params.precision_digits):
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


def _pentagonal():
    """(e_j, (-1)^j) for j = 1, -1, 2, -2, ...: e_j = j(3j - 1)/2 past e_0 = 0, increasing."""
    for j in count(1):
        sign = -1 if j % 2 else 1
        yield j * (3 * j - 1) // 2, sign
        yield j * (3 * j + 1) // 2, sign


def _ln_tail_bound(m: int, ln_x: float) -> float:
    """ln of m^2 r^m (1 + r)/(1 - r)^3 >= sum_{e >= m} e^2 r^e, r = e^ln_x (which
    may underflow): at e = m + i, e^2 <= m^2 (1 + i)^2, summed to (1 + r)/(1 - r)^3."""
    return 2 * log(m) + m * ln_x + log1p(exp(ln_x)) - 3 * log(-expm1(ln_x))


def _pentagonal_last(ln_x: float, prec: int, limit: int | None = None):
    """Largest exponent the pentagonal sums keep at |x| = e^ln_x and prec bits, the
    one before the least e_j with tail bound below 2^-prec; None if e_j >= limit."""
    last = 0
    for e, _ in _pentagonal():
        if _ln_tail_bound(e, ln_x) < -prec * _LN2:
            return last
        if limit is not None and e >= limit:
            return None
        last = e


def _pentagonal_sums(q, ln_q: float, k: int, weights: int, order: int | None = None):
    """[T_0, ..., T_{weights-1}] at x = q^k, mpc values at the working precision.

    T_i(x) = sum over j in Z of (-1)^j e_j^i x^(e_j), e_j = j(3j - 1)/2: T_0 is
    prod (1 - x^n) (pentagonal-number theorem), T_1 = x T_0' and T_2 = x T_1'.
    q is an mpc and ln_q = ln|q| a float, from _q_at.  As e^i <= e^2, the
    tail from exponent m on is below m^2 r^m (1 + r)/(1 - r)^3, r = |x|
    (_ln_tail_bound); each sum stops at the least e_j where that is below
    2^-prec.  An explicit order caps the sums at k e < order, and
    PrecisionError reports the bound left at the cap if it stops a sum first.

    The sums are 1 + O(x), so they run in fixed point, where absolute error is
    relative error; q stays an mpmath float.  x is rounded once to Gaussian
    integers at scale 2^B, and each x^e is one floored product from the last,
    by x^(2j - 1) or x^j, themselves stepped by x^2 and x.  A floored product
    of values below 1 in modulus adds sqrt(2) units of 2^-B to its factors'
    errors, so x^e is off by < 3e units and T_i by < 3 last^4: B's guard bits.
    """
    import mpmath as mp

    ln_x = k * ln_q
    limit = None if order is None else -(-order // k)  # k e < order
    last = _pentagonal_last(ln_x, mp.mp.prec, limit)
    if last is None:
        tail = _ln_tail_bound(limit, ln_x) / log(10.0)
        raise PrecisionError(f"truncation order {order} leaves tail ~1e{tail:.0f} at "
                             f"|q|={exp(ln_q):.4f}: the q^{k} sum is cut at exponent {limit}")
    bits = mp.mp.prec + (3 * last**4).bit_length() + 2
    with mp.workprec(bits + 10):
        x = mp.mpc(q) ** k
        x = (int(mp.nint(mp.ldexp(x.real, bits))), int(mp.nint(mp.ldexp(x.imag, bits))))

    def mul(a, b):
        return ((a[0] * b[0] - a[1] * b[1]) >> bits, (a[0] * b[1] + a[1] * b[0]) >> bits)

    odd, power, t = x, x, (1 << bits, 0)  # x^(2j - 1) and x^j at j = 1, x^0
    x2 = mul(x, x)
    sums = [[1 << bits, 0]] + [[0, 0] for _ in range(weights - 1)]
    for i, (e, sign) in enumerate(_pentagonal()):
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
    return [mp.mpc(mp.ldexp(re, -bits), mp.ldexp(im, -bits)) for re, im in sums]


def _q_at(tau):
    """q = exp(2 pi i tau), an mpc at the working precision, and ln|q| = -2 pi Im tau
    as a float, which stays finite where |q| underflows one."""
    import mpmath as mp

    tau = mp.mpc(tau)
    if tau.imag <= 0:
        raise ValueError("tau must lie in the upper half-plane")
    return mp.expjpi(2 * tau), float(-2 * mp.pi * tau.imag)


def _g_and_dg(tau, order: int | None):
    """G(tau) and DG = q dG/dq at the working precision, mpc values.

    For k = 1, 2, 3, 6 the sums at x = q^k give E2(k tau) = 1 + 24 T_1/T_0 and
    D E2(k tau) = 24 k (T_2/T_0 - (T_1/T_0)^2).  With the squared eta quotient
    W = q prod_k T_0(q^k)^2 and N = E2(tau) - 2 E2(2 tau) - 3 E2(3 tau) + 6 E2(6 tau),
    G = N/(2W) and DG = DN/(2W) - G sum_k k E2(k tau)/12, as D log W is that sum.
    """
    q, ln_q = _q_at(tau)
    w, n, dn, dlog_w = q, 0, 0, 0
    for k, c in ((1, 1), (2, -2), (3, -3), (6, 6)):
        t0, t1, t2 = _pentagonal_sums(q, ln_q, k, 3, order)
        ratio = t1 / t0
        e2 = 1 + 24 * ratio
        n += c * e2
        dn += c * 24 * k * (t2 / t0 - ratio * ratio)
        dlog_w += k * e2
        w *= t0 * t0
    g = n / (2 * w)
    return g, dn / (2 * w) - g * dlog_w / 12


def eval_G(tau, order: int = 400, precision_digits: int = 40):
    """G at tau (upper half-plane) as a complex; `order` caps the sums at q^order."""
    import mpmath as mp

    with mp.workdps(precision_digits):
        return complex(_g_and_dg(tau, order)[0])


def eval_P(tau, order: int = 400, precision_digits: int = 40) -> float:
    """The weight-0 completion -DG(tau) - G(tau)/(2 pi Im tau), DG = q dG/dq, a float.

    Real when the class of tau is its own inverse; an imaginary part above 1e-8
    relative raises PrecisionError.  Values at a general CM point come in
    conjugate pairs (use eval_P_complex); only their sum over a discriminant is real.
    """
    val = complex(eval_P_complex(tau, order, precision_digits))
    if abs(val.imag) > 1e-8 * max(1.0, abs(val.real)):
        raise PrecisionError(f"P(tau) has imaginary residual {val.imag}")
    return val.real


def eval_P_complex(tau, order: int = 400, precision_digits: int = 40):
    """The weight-0 completion without the realness assertion, an mpc at precision_digits."""
    import mpmath as mp

    with mp.workdps(precision_digits):
        g, dg = _g_and_dg(tau, order)
        return -dg - g / (2 * mp.pi * mp.mpc(tau).imag)


def cm_root(f: Form, precision_digits: int):
    """Upper-half-plane root of a tau^2 + b tau + c = 0, an mpc at precision_digits."""
    import mpmath as mp

    a, b, _ = f
    with mp.workdps(precision_digits):
        return mp.mpc(-b, mp.sqrt(-f.discriminant())) / (2 * a)


def enumerate_QD(n: int):
    """Representatives of the level-6 classes of discriminant 1 - 24n, sorted by (a, b, c).

    Each SL2(Z) class, imprimitive ones included, holds exactly one Gamma0(6)
    class of forms [a, b, c] with 6 | a and b = 1 mod 12 (Gross-Kohnen-Zagier,
    Math. Ann. 1987, I.1).  Walking a = 6, 12, 18, ... and b = 1 mod 12 in
    [0, 2a), the first form met in each class is kept, so every
    representative has the least a (then b) in its class; the walk stops
    once every reduced class is covered, which the bijection guarantees.
    The list therefore has h(1 - 24n) entries (imprimitive classes counted)
    and is pairwise inequivalent.
    """
    if n < 1:
        raise ValueError("n must be positive")
    D = 1 - 24 * n
    uncovered = set(enumerate_reduced(D, primitive_only=False))
    reps = []
    a = 0
    while uncovered:
        a += 6
        for b in range(1, 2 * a, 12):
            if (b * b - D) % (4 * a):
                continue
            f = Form(a, b, (b * b - D) // (4 * a))
            cls = reduce(f)
            if cls in uncovered:
                uncovered.remove(cls)
                reps.append(f)
    return reps


class SingularTrace(NamedTuple):
    value: float  # the sum of the points' P as doubles, in list order
    working_sum: object  # the same sum at the working precision, an mpc
    points: list  # the forms summed over, enumerate_QD(n)


def trace_singular_moduli(n: int, order: int | None = None,
                          precision_digits: int | None = None) -> SingularTrace:
    """Sum of P over the level-6 CM points of discriminant 1 - 24n, (24n - 1) p(n),
    in doubles and at the working precision, with the points it walked.

    The default digits cover the largest term of 2G's expansion at the lowest
    point (largest |q|): its coefficients grow like exp(4 pi sqrt(m/6)), so the
    terms peak at exp(2 pi^2 / (3 |ln q|)).  Each point's sums stop at their
    own tail bound; the default order is the least that lets the lowest
    point's finish, and an explicit one (>= 1) caps them all.  The summands
    are conjugate-paired across inverse classes, and the sum's realness is
    asserted to 1e-8.
    """
    import mpmath as mp

    if order is not None and order < 1:
        raise ValueError("order must be at least 1")
    if precision_digits is not None and precision_digits < _MIN_DIGITS:
        raise ValueError(f"precision_digits must be at least {_MIN_DIGITS}")
    forms = enumerate_QD(n)
    lowest = max(forms, key=lambda f: f.a)  # |q| = exp(-pi sqrt|D| / a) is largest there
    if precision_digits is None:
        peak = 2 * pi * lowest.a / (3 * sqrt(24 * n - 1))
        precision_digits = 30 + max(0, int(peak / log(10.0)) + 5)
    with mp.workdps(precision_digits):
        if order is None:
            ln_q = _q_at(cm_root(lowest, precision_digits))[1]
            order = 1 + max(k * _pentagonal_last(k * ln_q, mp.mp.prec) for k in (1, 2, 3, 6))
        values = [eval_P_complex(cm_root(f, precision_digits), order, precision_digits)
                  for f in forms]
        working_sum = mp.fsum(values)
    total = sum(map(complex, values))
    if abs(total.imag) > 1e-8 * max(1.0, abs(total.real)):
        raise PrecisionError(f"trace has imaginary residual {total.imag}")
    return SingularTrace(total.real, working_sum, forms)
