"""Shared fixtures and independent oracles.

The oracles here deliberately avoid the code paths they check: class
counting by orbit closure under the raw generators, composition checked
through ideal-lattice multiplication and through represented values, element
orders by the full composition table, q-series products and inverses by the
schoolbook double loop and the term-by-term recurrence, partition numbers by
the pentagonal-number recurrence, level-6 representatives by a windowed
search over coprime pairs and level-6 equivalence by a bounded matrix
search, reduced forms by a scan over every b in (-a, a], the order-g count
of stats ng from each class group's whole structure, Kloosterman sums by
one mpmath exponential per unit, Bessel I and J by their ascending series,
P and j at CM points from their dense q-expansions by a fixed-point Horner
sum, and that sum term by term in mpc, point counts by a direct (x, y)
scan, reduced-form counts by one strided add per (a, b), fundamental
discriminants by residues of n and n / 4, CSV lines cell by cell.
"""

import random
from fractions import Fraction
from functools import lru_cache
from math import ceil, gcd, isqrt, log, pi, sqrt

import mpmath as mp
import pytest

from classforms import qseries
from classforms.quadforms import Form
from classforms.rademacher import PrecisionError


def xgcd(a, b):
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


def random_sl2(rng: random.Random, bound: int = 10):
    """A determinant-one integer matrix with entries of modest size."""
    while True:
        alpha = rng.randint(-bound, bound)
        gamma = rng.randint(-bound, bound)
        if gcd(alpha, gamma) != 1:
            continue
        g, s, t = xgcd(alpha, gamma)
        if g == -1:
            s, t = -s, -t
        # alpha*s + gamma*t = 1 -> matrix ((alpha, -t), (gamma, s))
        beta, delta = -t, s
        shift = rng.randint(-bound, bound)
        # shear keeps det = 1 and varies the completion
        return ((alpha, beta + shift * alpha), (gamma, delta + shift * gamma))


@pytest.fixture
def rng():
    return random.Random(20260808)


# --- orbit-closure class counting oracle -------------------------------------


def class_count_by_orbit_closure(D: int) -> int:
    """Number of classes of primitive forms of discriminant D, by partitioning
    a window of forms into components under the translation and swap moves."""
    amax = isqrt(-D) + 3
    bmax = 2 * amax
    forms = []
    index = {}
    for a in range(1, amax + 1):
        for b in range(-bmax, bmax + 1):
            if (b * b - D) % (4 * a) != 0:
                continue
            c = (b * b - D) // (4 * a)
            if gcd(gcd(a, b), c) != 1:
                continue
            index[(a, b, c)] = len(forms)
            forms.append((a, b, c))
    parent = list(range(len(forms)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i, j):
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj

    for (a, b, c), i in index.items():
        for b2 in (b + 2 * a, b - 2 * a):
            if abs(b2) <= bmax:
                c2 = (b2 * b2 - D) // (4 * a)
                union(i, index[(a, b2, c2)])
        if c <= amax:
            union(i, index[(c, -b, a)])
    return len({find(i) for i in range(len(forms))})


# --- ideal-lattice multiplication oracle --------------------------------------


def _lattice_from_form(f):
    a, b, _ = f
    return [(2 * a, 0), (-b, 1)]


def _hnf_basis(vectors):
    """Basis ((A, 0), (X2, Y2)) of the lattice spanned by (X, Y) pairs."""
    vecs = [v for v in vectors if v != (0, 0)]
    e2 = None
    zeros = []
    for v in vecs:
        if v[1] == 0:
            zeros.append(v[0])
        elif e2 is None:
            e2 = v
        else:
            g, s, t = xgcd(e2[1], v[1])
            new = (s * e2[0] + t * v[0], g)
            # the combination leftover has Y = 0
            zeros.append((e2[1] // g) * v[0] - (v[1] // g) * e2[0])
            e2 = new
    if e2 is None:
        raise ValueError("rank-deficient lattice")
    A = 0
    for z in zeros:
        A = gcd(A, z)
    if e2[1] < 0:
        e2 = (-e2[0], -e2[1])
    return abs(A), e2


def ideal_product_form(f, g) -> Form:
    """Reduced norm form of the product of the ideals attached to f and g.

    Multiplies the module generators, row-reduces to a two-element basis,
    and reads off the norm form scaled by the ideal norm.  Completely
    independent of the composition code path.
    """
    from classforms.quadforms import reduce as reduce_form

    D = Form(*f).discriminant()
    assert D == Form(*g).discriminant()
    prods = []
    for x1, y1 in _lattice_from_form(f):
        for x2, y2 in _lattice_from_form(g):
            X = (x1 * x2 + y1 * y2 * D) // 2
            Y = (x1 * y2 + y1 * x2) // 2
            prods.append((X, Y))
    A, (X2, Y2) = _hnf_basis(prods)
    # norm of the module, relative to the maximal order's covolume
    norm2 = A * Y2  # = 2 * N(module)
    assert A * A % (2 * norm2) == 0 and (X2 * X2 - D * Y2 * Y2) % (2 * norm2) == 0
    assert (A * X2) % norm2 == 0
    aa = A * A // (2 * norm2)
    # minus sign: the (a, (-b+sqrt D)/2) correspondence pairs the form with the
    # conjugate-oriented basis, otherwise every product lands in the inverse class
    bb = -(A * X2 // norm2)
    cc = (X2 * X2 - D * Y2 * Y2) // (2 * norm2)
    return reduce_form(Form(aa, bb, cc))


def represents(f, value: int) -> bool:
    """Exact check that f(x, y) = value has an integer solution.

    y is bounded by 4a*value/|D| for a positive definite form, and x then
    solves a quadratic with integer discriminant.
    """
    f = Form(*f)
    a, b, c = f
    D = f.discriminant()
    if value < 0:
        return False
    ymax = isqrt(4 * a * value // (-D)) + 1
    for y in range(-ymax, ymax + 1):
        disc = (b * y) ** 2 - 4 * a * (c * y * y - value)
        if disc < 0:
            continue
        s = isqrt(disc)
        if s * s != disc:
            continue
        if (-b * y + s) % (2 * a) == 0 or (-b * y - s) % (2 * a) == 0:
            return True
    return False


# --- composition-table oracle -------------------------------------------------


def table_orders(D: int):
    """Element orders of the class group, read off its full composition table.

    The h x h table of composites of reduced representatives is checked for
    closure, the identity law, inverses and commutativity; each order is then
    the length of the cycle of repeated lookups.  O(h^2) compositions, so
    this is for small groups only.
    """
    from classforms.classgroup import compose, identity
    from classforms.quadforms import enumerate_reduced

    reps = enumerate_reduced(D)
    index = {f: i for i, f in enumerate(reps)}
    table = []
    for f in reps:
        row = []
        for g in reps:
            fg = compose(f, g)
            assert fg in index, f"composition left the reduced system: {fg}"
            row.append(index[fg])
        table.append(row)
    h = len(reps)
    ei = index[identity(D)]
    for i in range(h):
        assert table[ei][i] == i, "identity law fails in the composition table"
        assert ei in table[i], "a class has no inverse in the composition table"
        assert all(table[i][j] == table[j][i] for j in range(i)), "table not commutative"
    orders = []
    for i in range(h):
        k, acc = 1, i
        while acc != ei:
            acc = table[acc][i]
            k += 1
            assert k <= h, "powers of a class never reach the identity"
        orders.append(k)
    return orders


# --- level-6 representative oracles ---------------------------------------------


def level_rep_by_window_search(f, search_limit: int = 48):
    """An equivalent form with 6 | a and b = 1 mod 12, minimizing a, then b.

    The route enumerate_QD used before its direct walk: every coprime pair
    (x, y) in growing windows (6, 12, 24, then search_limit) with 6 | f(x, y)
    is completed to a unimodular matrix, and b mod 12 is tested directly
    (completion choice and translation move b by multiples of 2a, and
    12 | 2a).  Minimal only within the window that first finds a candidate.
    """
    from classforms.quadforms import apply_sl2

    best = None
    for limit in (6, 12, 24, search_limit):
        for x in range(-limit, limit + 1):
            for y in range(-limit, limit + 1):
                if gcd(x, y) != 1:
                    continue
                a2 = f(x, y)
                if a2 % 6 != 0:
                    continue
                if best is not None and a2 >= best.a:
                    continue
                _, s, t = xgcd(x, y)
                if (x * s + y * t) == -1:
                    s, t = -s, -t
                g = apply_sl2(f, ((x, -t), (y, s)))
                if g.b % 12 != 1:
                    continue
                b2 = g.b % (2 * g.a)
                cand = Form(g.a, b2, (b2 * b2 - g.discriminant()) // (4 * g.a))
                if best is None or (cand.a, cand.b) < (best.a, best.b):
                    best = cand
        if best is not None:
            return best
    raise ArithmeticError(f"no level-6 representative found for {f} within {search_limit}")


def level_reps_by_b_walk(n: int):
    """enumerate_QD(n) by the walk it used before its square roots: for
    a = 6, 12, 18, ... every b = 1 mod 12 in [0, 2a) is tested for
    b^2 = D (mod 4a), and the first form met in each class is kept."""
    from classforms.quadforms import enumerate_reduced, reduce

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


def gamma0_equivalent(f, g, level: int = 6, bound: int = 50) -> bool:
    """Bounded search for a level-`level` matrix taking f to g.

    Certifies inequivalence only up to the entry bound; a desk-scale
    certificate on the enumerated representatives.
    """
    from classforms.quadforms import apply_sl2

    f = Form(*f)
    g = Form(*g)
    if f.discriminant() != g.discriminant():
        return False
    for ga in range(-bound, bound + 1):
        if ga % level != 0:
            continue
        for al in range(-bound, bound + 1):
            if ga == 0:
                if abs(al) != 1:
                    continue
                for be in range(-bound, bound + 1):
                    if apply_sl2(f, ((al, be), (0, al))) == g:
                        return True
                continue
            # al*de - be*ga = 1 with be integral
            for de in range(-bound, bound + 1):
                if (al * de - 1) % ga != 0:
                    continue
                be = (al * de - 1) // ga
                if abs(be) > bound:
                    continue
                if apply_sl2(f, ((al, be), (ga, de))) == g:
                    return True
    return False


# --- schoolbook q-series oracles -----------------------------------------------


def schoolbook_product(f, g):
    """f * g by the term-by-term double loop, cut where both inputs support.

    The product QSeries.__mul__ used before the Kronecker kernel, kept as
    the reference: same valuation, truncation, values and int/Fraction types.
    """
    from classforms.qseries import QSeries

    order = min(f.truncation_order + g.valuation, g.truncation_order + f.valuation)
    v = f.valuation + g.valuation
    n = order - v
    out = [0] * n
    for i, ci in enumerate(f.coeffs):
        if ci == 0 or i >= n:
            continue
        for j, cj in enumerate(g.coeffs[: n - i]):
            if cj:
                out[i + j] += ci * cj
    return QSeries(v, out, order)


def recurrence_inverse(f):
    """1/f by the O(N^2) recurrence out[k] = -(sum_j f_j out[k-j]) / f_0.

    The inverse QSeries.inverse used before Newton iteration, kept as the
    reference.
    """
    from fractions import Fraction

    from classforms.qseries import QSeries

    lead = f.coeffs[0]
    n = f.truncation_order - f.valuation
    if isinstance(lead, int) and abs(lead) == 1:
        inv0 = lead
    else:
        inv0 = Fraction(1, lead)
    out = [0] * n
    out[0] = inv0
    for k in range(1, n):
        acc = 0
        for j in range(1, k + 1):
            cj = f.coeffs[j] if j < len(f.coeffs) else 0
            if cj:
                acc += cj * out[k - j]
        out[k] = -inv0 * acc
    return QSeries(-f.valuation, out, n - f.valuation)


def partition_numbers_by_recurrence(nmax):
    """p(0..nmax) by Euler's pentagonal-number recurrence.

    The route qseries.partition_numbers used before it read the inverse of
    the Euler product, kept as the reference.
    """
    p = [1] + [0] * nmax
    for n in range(1, nmax + 1):
        total = 0
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            g2 = k * (3 * k + 1) // 2
            if g1 > n and g2 > n:
                break
            sign = -1 if k % 2 == 0 else 1
            if g1 <= n:
                total += sign * p[n - g1]
            if g2 <= n:
                total += sign * p[n - g2]
            k += 1
        p[n] = total
    return p


def assert_same_series(got, want):
    """Equal valuation, truncation and coefficient list, and the same
    int/Fraction type at every position."""
    assert (got.valuation, got.truncation_order) == (want.valuation, want.truncation_order)
    assert got.coeffs == want.coeffs
    assert [type(c) for c in got.coeffs] == [type(c) for c in want.coeffs]


# --- exponential-sum Kloosterman oracle ----------------------------------------


def kloosterman_by_exponentials(m, n, c, precision_digits):
    """K(m, n; c) as one mpmath exponential per unit d mod c, at precision_digits."""
    if c < 1:
        raise ValueError("modulus must be positive")
    if c == 1:
        return mp.mpf(1)
    with mp.workdps(precision_digits):
        total = mp.mpc(0)
        for d in range(1, c):
            if gcd(d, c) != 1:
                continue
            dbar = pow(d, -1, c)
            total += mp.expjpi(2 * ((m * dbar + n * d) % c) / mp.mpf(c))
        re, im = total.real, total.imag
        if abs(im) > 1e-10 * max(1.0, abs(re)):
            raise ArithmeticError(f"K({m},{n};{c}) has stray imaginary part {im}")
        return re


# --- ascending-series Bessel oracle ---------------------------------------------


def bessel_by_ascending_series(nu, x, precision_digits, signed):
    """I_nu(x), or J_nu(x) when signed, by the ascending series, x > 0.

    The route rademacher used before it called mpmath, kept as the
    reference.  Sums until a term is below 10^-(precision_digits + 5) of
    the total; an mpf at the raised working precision.
    """
    # the alternating series peaks near e^x / sqrt(2 pi x) before it cancels
    # to J(x), so it carries ceil(x / ln 10) more digits than I needs
    guard = ceil(float(x) / log(10.0)) if signed else 0
    with mp.workdps(precision_digits + 10 + guard):
        half = mp.mpf(x) / 2
        term = half**nu / mp.factorial(nu)
        total = term
        k = 1
        tol = mp.mpf(10) ** (-(precision_digits + 5))
        while True:
            ratio = half * half / (k * (k + nu))
            term = term * ratio
            total += -term if (signed and k % 2) else term
            # once the terms decay geometrically the tail is below the last term
            if ratio < mp.mpf("0.5") and abs(term) < tol * max(mp.mpf(1), abs(total)):
                return total
            k += 1


# --- exact CM points and values as mpmath numbers ----------------------------------


def dyadic_mpf(v, bits=0):
    """An integer at scale 2^-bits, or a dyadic Fraction, as the exact mpf."""
    if isinstance(v, Fraction):
        assert v.denominator & (v.denominator - 1) == 0, v
        v, bits = v.numerator, v.denominator.bit_length() - 1
    with mp.workprec(max(53, abs(v).bit_length())):
        return mp.ldexp(mp.mpf(v), -bits)


def value_mpc(v):
    """A rademacher.CMValue as the exact mpc."""
    re, im = dyadic_mpf(v.real), dyadic_mpf(v.imag)
    with mp.workprec(max(53, re.man.bit_length(), im.man.bit_length())):
        return mp.mpc(re, im)


def tau_mpc(tau):
    """tau at the working precision: a rademacher.CMPoint x + i sqrt(y2) from its
    exact parts, anything else through mp.mpc."""
    if hasattr(tau, "y2"):
        x, y2 = tau
        return mp.mpc(mp.mpf(x.numerator) / x.denominator,
                      mp.sqrt(mp.mpf(y2.numerator) / y2.denominator))
    return mp.mpc(tau)


# --- term-by-term q-expansion oracle ----------------------------------------------


def q_expansion_sums_by_mpc(coeffs, tau):
    """(sum c_m q^m, sum m c_m q^m) at q = exp(2 pi i tau), c_m = coeffs[m + 1].

    The two-accumulator loop rademacher used before its fixed-point Horner
    sum, kept as the reference: one mpc power of q and one mpc add per term,
    at the caller's working precision.
    """
    q = mp.expjpi(2 * tau_mpc(tau))
    qpow = 1 / q
    total = mp.mpc(0)
    dtotal = mp.mpc(0)
    for m, c in enumerate(coeffs, start=-1):
        if c:
            total += c * qpow
            dtotal += m * c * qpow
        qpow *= q
    return total, dtotal


# --- the dense q-expansion route at CM points ------------------------------------
#
# How rademacher and attractor evaluated P and j before the pentagonal sums:
# exact coefficients of 2G or j to a truncation order chosen from the level's
# coefficient growth, summed at q by a fixed-point Horner loop whose tail is
# estimated from the last coefficient kept.


def substitute_power(series, m, order):
    """The series in q^m (exponents scaled by m), truncated at `order`."""
    if series.truncation_order * m < order:
        raise ValueError("input series is too short for the requested order")
    data = {}
    for i, c in enumerate(series.coeffs):
        e = (series.valuation + i) * m
        if e < order and c:
            data[e] = c
    out = qseries.QSeries.from_dict(data, order)
    return out if out.coeffs else qseries.QSeries(0, [0] * order, order)


@lru_cache(maxsize=4)
def g2_coefficients(order: int):
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
        - 2 * substitute_power(e2, 2, n)
        - 3 * substitute_power(e2, 3, n)
        + 6 * substitute_power(e2, 6, n)
    )
    den = qseries.euler_product(n)
    for m in (2, 3, 6):
        den = den * substitute_power(qseries.euler_product((n + m - 1) // m), m, n)
    den = den * den
    series = num * den.inverse()
    return [int(series.coefficient(k)) for k in range(0, order + 1)]  # exponent k-1


def q_expansion_sum(coeffs, tau, tail_log10: float = -9.0):
    """sum c_m q^m at q = exp(2 pi i tau), c_m = coeffs[m + 1], m >= -1.

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
    if not complex(tau).imag > 0:
        raise ValueError("tau must lie in the upper half-plane")
    bits = mp.mp.prec + len(coeffs).bit_length() + 16
    with mp.workprec(bits + 10):
        q = mp.expjpi(2 * tau_mpc(tau))
        q_re = int(mp.nint(mp.ldexp(q.real, bits)))
        q_im = int(mp.nint(mp.ldexp(q.imag, bits)))
    _check_tail(coeffs, abs(q), tail_log10)
    s_re = s_im = 0
    for c in reversed(coeffs[1:]):
        s_re, s_im = ((c << bits) + ((s_re * q_re - s_im * q_im) >> bits),
                      (s_re * q_im + s_im * q_re) >> bits)
    return mp.mpc(mp.ldexp(s_re, -bits), mp.ldexp(s_im, -bits)) + coeffs[0] / q


def _check_tail(coeffs, qabs, tail_log10: float):
    # log-scale estimate: the last kept term, with a factor `order` of slack;
    # ln|q| comes from mpmath, since |q| itself can underflow a float
    order = len(coeffs) - 1
    c = abs(coeffs[-1])
    log10_tail = (
        (c.bit_length() * log(2.0) if c else -1e9) + (order - 1) * float(mp.log(qabs)) + log(order)
    ) / log(10.0)
    if log10_tail > tail_log10:
        raise PrecisionError(
            f"truncation order {order} leaves tail ~1e{log10_tail:.0f} at |q|={float(qabs):.4f}"
        )


# largest truncation order auto_order returns
MAX_ORDER = 40000


def auto_order(ln_q: float, tail_log10: float, level: int) -> int:
    """Least N with 4 pi sqrt(N / level) + (N - 1) ln_q + ln N < tail_log10 ln 10.

    4 pi sqrt(N / level) is the growth of ln|c_N| for a form with a simple
    pole at the cusp on Gamma0(level): j at level 1, 2G at level 6.  With
    the power of |q| and the ln N slack of _check_tail, the left side is
    that check's estimate of the tail, so the order returned passes it.
    """
    bound = tail_log10 * log(10.0)
    for n in range(1, MAX_ORDER + 1):
        if 4 * pi * sqrt(n / level) + (n - 1) * ln_q + log(n) < bound:
            return n
    raise PrecisionError(f"no workable truncation order for ln|q| = {ln_q}")


def P_by_horner(tau, g2, tail_log10=-9.0):
    """-DG(tau) - G(tau)/(2 pi Im tau) from the coefficients g2 of 2G (from
    g2_coefficients), an mpc at the caller's working precision."""
    g = q_expansion_sum(g2, tau, tail_log10) / 2
    dg = q_expansion_sum([m * c for m, c in enumerate(g2, start=-1)], tau, tail_log10) / 2
    return -dg - g / (2 * mp.pi * tau_mpc(tau).imag)


@lru_cache(maxsize=4)
def j_coefficients(order: int):
    """The coefficients of j from q^-1 up to q^(order - 1)."""
    jq = qseries.j_series(order)
    return [int(jq.coefficient(k)) for k in range(-1, order)]


# --- direct point-count oracle -------------------------------------------------


def naive_point_count(q: int, a: int, b: int) -> int:
    """Count points of y^2 = x^3 + ax + b over F_q by scanning all (x, y)."""
    count = 1  # point at infinity
    for x in range(q):
        rhs = (x * x * x + a * x + b) % q
        for y in range(q):
            if y * y % q == rhs:
                count += 1
    return count


# --- reduced forms by a scan over b ----------------------------------------------


def reduced_forms_by_b_scan(D: int, primitive_only: bool = True, a_values=None):
    """Reduced forms of discriminant D, sorted by (a, b, c): for each a with
    3a^2 <= |D| (or each a of a_values, increasing) try every b in (-a, a] of
    D's parity and keep the b with 4a | b^2 - D and c = (b^2 - D)/4a >= a."""
    forms = []
    for a in a_values if a_values is not None else range(1, isqrt(-D // 3) + 1):
        b0 = -a + 1
        if (b0 - D) % 2:
            b0 += 1
        for b in range(b0, a + 1, 2):
            c, rem = divmod(b * b - D, 4 * a)
            if rem or c < a or (c == a and b < 0):
                continue
            if primitive_only and gcd(gcd(a, b), c) != 1:
                continue
            forms.append(Form(a, b, c))
    return forms


# --- order-g counts from whole class-group structures ----------------------------


@lru_cache(maxsize=2)
def class_group_exponents(x: int):
    """The exponent of C(-d), of discriminant -d or -4d by d mod 4, for every
    square-free d <= x, each read off the whole group_structure once."""
    from classforms.classgroup import group_structure

    exponents = []
    for d in range(1, x + 1):
        if any(d % (p * p) == 0 for p in range(2, isqrt(d) + 1)):
            continue
        divisors = group_structure(-d if d % 4 == 3 else -4 * d).elementary_divisors
        exponents.append(divisors[-1] if divisors else 1)
    return exponents


def ng_count_by_structure(g: int, x: int) -> int:
    """Square-free d <= x whose class group has an element of order g, that is g | exponent."""
    return sum(1 for e in class_group_exponents(x) if e % g == 0)


# --- strided reduced-form counting oracle ---------------------------------------


def reduced_form_counts_strided(limit):
    """counts[n] = number of reduced forms with |D| = n <= limit: for fixed
    (a, b) the |D| = 4ac - b^2 over c > a form one arithmetic progression, added
    as one strided slice, and the a = c boundary is added form by form."""
    import numpy as np

    counts = np.zeros(limit + 1, dtype=np.int64)
    amax = isqrt(limit // 3)
    for a in range(1, amax + 1):
        step = 4 * a
        # strictly a < c, with -a < b <= a; b and -b both reduced when 0 < b < a
        for b in range(0, a + 1):
            mult = 2 if 0 < b < a else 1
            start = 4 * a * (a + 1) - b * b
            if start <= limit:
                counts[start: limit + 1: step] += mult
        # a = c boundary: 0 <= b <= a, each once
        for b in range(0, a + 1):
            n = 4 * a * a - b * b
            if n <= limit:
                counts[n] += 1
    return counts


def fundamental_mask_by_residues(limit, squarefree):
    """mask[n] iff -n is fundamental, from the residues of every n and n / 4 and
    a squarefree mask of length limit + 1."""
    import numpy as np

    n = np.arange(limit + 1)
    mask = np.zeros(limit + 1, dtype=bool)
    mask[n % 4 == 3] = squarefree[n % 4 == 3]
    idx4 = n[(n % 4 == 0) & (n >= 4)]
    quarters = idx4 // 4
    mask[idx4] = squarefree[quarters] & np.isin(quarters % 4, (1, 2))
    return mask


# --- cell-by-cell CSV oracle ------------------------------------------------------


def csv_line_by_cells(row):
    """One CSV line: each float (numpy's included) as %.12g, anything else by str."""
    return ",".join(f"{x:.12g}" if isinstance(x, float) else str(x) for x in row) + "\n"
