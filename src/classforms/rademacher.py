"""Kloosterman sums, Bessel kernels, and Rademacher-type expansions.

Every Rademacher sum here is the n-th coefficient of a weight-k Poincare
series of index m, summed by one kernel, _poincare_partials:
2 pi (n/|m|)^((k-1)/2) sum_{c<=C} K(m,n;c)/c B_{|k-1|}(4 pi sqrt(|m| n)/c),
with B = J for m > 0 and B = I for m < 0.  The entry points fix (k, m):

    1/Delta coefficients       (-12, -1)   I_13
    r_{d,n} (principal q^-d)   (0, -d)     I_1
    tau(n) beta                (12, 1)     J_11; beta - 1 is the n = 1 sum

The kernel takes a list of (m, n) pairs of one weight and walks c once for
all of them, so cftx's identity check sums its k * 5 coefficients r_{d,n}
in one pass: each modulus builds its units, their inverses, the root of
unity and the cosine table once, and each c evaluates one Bessel value per
distinct kind and |m| n.  The sums are truncated at params.cmax and
evaluated with mpmath at a configurable working precision.  Each
Kloosterman sum is exact integer arithmetic up to one rounded root of unity
per modulus: the residues are counted into bins mod c and weighted by a
fixed-point cosine table whose bit count follows from a stated error bound.
J is mpmath's besselj; I is (x/2)^nu / nu! 0F1(nu + 1; x^2/4) from mpmath's
0F1, both at the same working precision.  Every sum here converges
absolutely, the weight-12 one too (its terms are O(c^-11.5)), so each is
read off its last partial sum.

The second half of the module evaluates the weight -2 level-6 function G and
its weight-0 completion P on CM points, and sums P over the level-6 classes
of forms of discriminant 1 - 24n.  That trace is an integer multiple of the
partition number p(n), which is the acceptance check for all of it.  Its
CM-point helpers (the root of a form, ln|q| there, the least truncation order
and the one tail-guarded q-expansion sum, a fixed-point Horner loop over
Gaussian integers) also evaluate j for the class polynomials in attractor.

mpmath is imported inside each function that uses it, not at module level.
Every command is a fresh process, and attractor and cli import this module,
so a module-level import would make every command pay for mpmath at
start-up; only the sums, CM-point values and class polynomials load it.
"""

from functools import lru_cache
from math import ceil, factorial, gcd, isinf, log, log2, pi, sqrt
from operator import mul
from typing import NamedTuple

from .quadforms import Form, enumerate_reduced, reduce
from . import qseries

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


@lru_cache(maxsize=8)
def _beta_cached(cmax: int, precision_digits: int) -> float:
    return calibrate_beta(RademacherParams(cmax, precision_digits))


def rademacher_tau(n: int, params: RademacherParams = RademacherParams(cmax=200)) -> float:
    """Truncated weight-12 Rademacher sum for tau(n), n >= 2, over beta."""
    beta = _beta_cached(params.cmax, params.precision_digits)
    return rademacher_tau_partials(n, params)[-1] / beta


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


@lru_cache(maxsize=4)
def _g2_coefficients(order: int):
    """Integer coefficients of 2*G from exponent -1 up to `order` (exclusive).

    G = (1/2) (E2(q) - 2 E2(q^2) - 3 E2(q^3) + 6 E2(q^6)) / (eta-quotient of
    squares at levels 1,2,3,6), and the eta quotient contributes exactly q^1
    times an integer series with unit leading coefficient, so 2G has integer
    coefficients starting at q^-1.
    """
    n = order + 1
    e2 = qseries.eisenstein_E2(n)
    num = (
        e2
        - 2 * e2.substitute_power(2, n)
        - 3 * e2.substitute_power(3, n)
        + 6 * e2.substitute_power(6, n)
    )
    den = qseries.euler_product(n)
    for m in (2, 3, 6):
        den = den * qseries.euler_product((n + m - 1) // m).substitute_power(m, n)
    den = den * den
    series = num * den.inverse()
    return [int(series.coefficient(k)) for k in range(0, order + 1)]  # exponent k-1


def eval_G(tau, order: int = 400, precision_digits: int = 40):
    """Value of G at tau (upper half-plane) from its q-expansion."""
    import mpmath as mp

    with mp.workdps(precision_digits):
        return complex(q_expansion_sum(_g2_coefficients(order), tau) / 2)


def eval_P(tau, order: int = 400, precision_digits: int = 40) -> float:
    """The weight-0 completion at tau: -(sum of m g_m q^m) - G(tau)/(2 pi Im tau).

    The weighted sum is a second q-expansion sum, over the coefficients
    m g_m.  Real when the class of tau is its own inverse; a residual
    imaginary part above 1e-8 relative raises PrecisionError.  Values at a
    general CM point come in conjugate pairs (use eval_P_complex), and only
    their sum over a full discriminant is real.
    """
    val = eval_P_complex(tau, order, precision_digits)
    re, im = val.real, val.imag
    if abs(im) > 1e-8 * max(1.0, abs(re)):
        raise PrecisionError(f"P(tau) has imaginary residual {im}")
    return re


def eval_P_complex(tau, order: int = 400, precision_digits: int = 40):
    """The weight-0 completion without the realness assertion."""
    import mpmath as mp

    g2 = _g2_coefficients(order)
    with mp.workdps(precision_digits):
        g_val = q_expansion_sum(g2, tau) / 2
        dg_val = q_expansion_sum([m * c for m, c in enumerate(g2, start=-1)], tau) / 2
        total = -dg_val - g_val / (2 * mp.pi * mp.mpc(tau).imag)
        return complex(total)


def q_expansion_sum(coeffs, tau, tail_log10: float = -9.0):
    """sum c_m q^m at q = exp(2 pi i tau), c_m = coeffs[m + 1], m >= -1.

    The one q-expansion sum at CM points: G and P sum the coefficients of
    2G (and, for P, m times them) with it, class polynomials those of j.
    Raises PrecisionError when the truncation tail is not below
    10^tail_log10; returns an mpc at the caller's working precision.

    Fixed-point Horner over Gaussian integers (Enge, Math. Comp. 2009):
    with B = working bits + bit_length(len(coeffs)) + 16, q is rounded once
    to the integer pair (Re q, Im q) * 2^B, and S <- c_m 2^B + ((S q) >> B)
    runs from the top coefficient down to m = 0; c_{-1}/q is added last.
    Each step floors both parts, an error under sqrt(2) units of 2^-B that
    later steps multiply by |q|, so the floors add up to less than
    sqrt(2) 2^-B / (1 - |q|).  Rounding q moves the sum by at most
    2^-B sum m |c_m| |q|^(m-1), which the working precision, sized by the
    caller for the largest term, has to cover.
    """
    import mpmath as mp

    if not _im_positive(tau):
        raise ValueError("tau must lie in the upper half-plane")
    bits = mp.mp.prec + len(coeffs).bit_length() + 16
    with mp.workprec(bits + 10):
        q = mp.expjpi(2 * mp.mpc(tau))
        q_re = int(mp.nint(mp.ldexp(q.real, bits)))
        q_im = int(mp.nint(mp.ldexp(q.imag, bits)))
    _check_tail(coeffs, abs(q), tail_log10)
    s_re = s_im = 0
    for c in reversed(coeffs[1:]):
        s_re, s_im = ((c << bits) + ((s_re * q_re - s_im * q_im) >> bits),
                      (s_re * q_im + s_im * q_re) >> bits)
    return mp.mpc(mp.ldexp(s_re, -bits), mp.ldexp(s_im, -bits)) + coeffs[0] / q


def _check_tail(coeffs, qabs, tail_log10: float):
    import mpmath as mp

    # log-scale estimate: the last kept term, with a factor `order` of slack;
    # ln|q| comes from mpmath, since |q| itself can underflow a float
    order = len(coeffs) - 1
    c = abs(coeffs[-1])
    log10_tail = (
        (c.bit_length() * _LN2 if c else -1e9) + (order - 1) * float(mp.log(qabs)) + log(order)
    ) / log(10.0)
    if log10_tail > tail_log10:
        raise PrecisionError(
            f"truncation order {order} leaves tail ~1e{log10_tail:.0f} at |q|={float(qabs):.4f}"
        )


def _im_positive(tau) -> bool:
    return complex(tau).imag > 0


def cm_root(f: Form, precision_digits: int):
    """Upper-half-plane root of a tau^2 + b tau + c = 0, an mpc at precision_digits."""
    import mpmath as mp

    a, b, _ = f
    with mp.workdps(precision_digits):
        return mp.mpc(-b, mp.sqrt(-f.discriminant())) / (2 * a)


def _ln_q(f: Form) -> float:
    """ln|q| = -pi sqrt|D| / a at the root of f; |q| itself can underflow a float."""
    return -pi * sqrt(-f.discriminant()) / f.a


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


def trace_singular_moduli(n: int, order: int | None = None,
                          precision_digits: int | None = None) -> float:
    """Sum of P over the level-6 CM points of discriminant 1 - 24n.

    Converges to (24n - 1) p(n) as order and precision grow.  The default
    order is the least one at which the level-6 growth model puts the tail
    at the lowest CM point (largest |q|) below 1e-14, and the default digits
    cover the largest term there.  Individual summands are complex (conjugate-paired across inverse
    classes); only the full sum is real, and that realness is asserted to
    1e-8.  PrecisionError carries the residual when the tolerance is missed.
    An explicit order must be at least 1 and an explicit precision at least
    15 digits, the floor RademacherParams applies.
    """
    if order is not None and order < 1:
        raise ValueError("order must be at least 1")
    if precision_digits is not None and precision_digits < _MIN_DIGITS:
        raise ValueError(f"precision_digits must be at least {_MIN_DIGITS}")
    forms = enumerate_QD(n)
    ln_q_max = max(_ln_q(f) for f in forms)
    if order is None:
        order = _auto_order(ln_q_max, -14.0, 6)
    g2 = _g2_coefficients(order)
    if precision_digits is None:
        # largest intermediate term sets the cancellation budget
        peak = max(
            (abs(c).bit_length() * _LN2 if c else 0.0) + m * ln_q_max
            for m, c in enumerate(g2, start=-1)
        )
        precision_digits = 30 + max(0, int(peak / log(10.0)) + 5)
    total = complex(0)
    for f in forms:
        total += eval_P_complex(cm_root(f, precision_digits), order, precision_digits)
    if abs(total.imag) > 1e-8 * max(1.0, abs(total.real)):
        raise PrecisionError(f"trace has imaginary residual {total.imag}")
    return total.real


# largest truncation order _auto_order returns
_MAX_ORDER = 40000


def _auto_order(ln_q: float, tail_log10: float, level: int) -> int:
    """Least N with 4 pi sqrt(N / level) + (N - 1) ln_q + ln N < tail_log10 ln 10.

    4 pi sqrt(N / level) is the growth of ln|c_N| for a form with a simple
    pole at the cusp on Gamma0(level): j at level 1, 2G at level 6.  With
    the power of |q| and the ln N slack of _check_tail, the left side is
    that check's estimate of the tail, so the order returned passes it.
    """
    bound = tail_log10 * log(10.0)
    for n in range(1, _MAX_ORDER + 1):
        if 4 * pi * sqrt(n / level) + (n - 1) * ln_q + log(n) < bound:
            return n
    raise PrecisionError(f"no workable truncation order for ln|q| = {ln_q}")
