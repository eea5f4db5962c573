"""Extremal partition functions and polar-term counting for weak Jacobi forms.

Z_k is the unique modular-invariant series whose polar-plus-constant part
matches q^-k / prod_{n>=2} (1 - q^n); it is assembled exactly as a degree-k
polynomial in the j series by a triangular solve.  The identity expressing
Z_k through trace sums and the difference of principal-part Rademacher
series is evaluated numerically as a verification, never as the
construction.

P(m), the number of independent polar terms at index m, has a closed form
mixing class numbers, a square-divisor extremum and a sawtooth; its
independent oracle is the direct lattice-point count.  polar_counts is the
one scan over m: polar_count_sieve evaluates the closed form for every
m <= mmax in one numpy pass over the bulk class-number table (a divisor-sum
sieve, a square-divisor sieve and the sawtooth read from m mod 4), and
polar_counts holds it to exact equality with the direct count, so every
emitter (the J-versus-P table and the figure data behind the scatter,
histogram and CDF) reads cross-checked values.  polar_count_formula is the
same closed form for one m, kept as the sieve's oracle.  figure_data streams
the normalized excess (P - m^2/12 - 5m/8)/sqrt(m) for plotting.

numpy (for the sieve, the lattice count and the emitters) is imported
inside the functions that use it.  The identity check's Rademacher sums run
in Python integers (rademacher._poincare_partials), so `cft zk`, with or
without --cmax, starts without loading numpy or mpmath.
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil, floor, isqrt

from . import qseries, tables


def extremal_partition_function(k: int, order: int = 10) -> qseries.QSeries:
    """Z_k = q^-k prod_{n>=2} (1-q^n)^-1 + O(q), modular invariant.

    Built as sum_{i=0..k} c_i j^i with the c_i solved top-down so the
    coefficients of q^-k .. q^0 match the vacuum side exactly.  All c_i and
    all emitted coefficients are integers.
    """
    if k < 1:
        raise ValueError("k must be positive")
    if order < 0:
        raise ValueError("order must be nonnegative")
    # vacuum polar part: partitions into parts >= 2, p(n) - p(n-1)
    p = qseries.partition_numbers(k)
    target = [p[m] - (p[m - 1] if m else 0) for m in range(k + 1)]  # q^(m-k)
    j = qseries.j_series(order + k + 1)
    jpowers = [qseries.one(order + k + 1)]
    for _ in range(k):
        jpowers.append(jpowers[-1] * j)
    coeffs = [0] * (k + 1)
    remaining = list(target)
    acc = None
    for i in range(k, -1, -1):
        want = remaining[k - i]
        have = acc.coefficient(-i) if acc is not None else 0
        coeffs[i] = want - have
        term = jpowers[i] * coeffs[i]
        acc = term if acc is None else acc + term
    for m in range(k + 1):
        if acc.coefficient(m - k) != target[m]:
            raise ArithmeticError("triangular solve failed to match the vacuum part")
    return acc


def verify_zk_identity(k: int, cmax: int = 200, order: int = 6):
    """Residuals of the trace/Rademacher expression against the exact Z_k.

    The coefficient of q^n (n >= 1) on the expansion side is
    (r_{k,n} - r_{k-1,n}) + sum_{m=1}^{k-1} p(m) (r_{k-m,n} - r_{k-m-1,n})
    with r_{0,n} = 0, after substituting the exact integer trace values
    (24m - 1) p(m).  Every r_{d,n} is the last of its exact dyadic partial
    sums, rounded to the nearest float.  Returns a dict with per-coefficient
    relative residuals and their maximum over q^1..q^5.
    """
    from .rademacher import RademacherParams, _double, _poincare_partials

    if not 1 <= k <= 4:
        raise ValueError("identity verification is desk-scale: k between 1 and 4")
    if order < 2:
        raise ValueError("order must be at least 2: the identity is checked from q^1 on")
    params = RademacherParams(cmax=cmax)
    zk = extremal_partition_function(k, order)
    nmax = min(5, order - 1)
    # every r_{d,n} of the identity from one pass over c (rd_partials' sum, batched)
    pairs = [(d, n) for d in range(1, k + 1) for n in range(1, nmax + 1)]
    sums = _poincare_partials(0, [(-d, n) for d, n in pairs], params)
    r = {pair: _double(partials[-1]) for pair, partials in zip(pairs, sums)}
    p = qseries.partition_numbers(k)
    rows = []
    for n in range(1, nmax + 1):
        def rd(d):
            return r[(d, n)] if d >= 1 else 0.0
        approx = rd(k) - rd(k - 1)
        for m in range(1, k):
            approx += p[m] * (rd(k - m) - rd(k - m - 1))
        exact = zk.coefficient(n)
        rows.append(
            {
                "n": n,
                "exact": int(exact),
                "expansion": approx,
                "relative_residual": abs(approx - exact) / max(1.0, abs(exact)),
            }
        )
    return {
        "k": k,
        "cmax": cmax,
        "rows": rows,
        "max_relative_residual": max(row["relative_residual"] for row in rows),
    }


def jacobi_dim(m: int) -> int:
    """floor(m^2/12 + m/2 + 1): dimension of weight-0 index-m weak Jacobi forms."""
    if m < 1:
        raise ValueError("index must be positive")
    return (m * m + 6 * m + 12) // 12


def sawtooth(x) -> Fraction:
    """((x)) = x - (ceil(x) + floor(x))/2; odd, vanishes at integers."""
    x = Fraction(x)
    return x - Fraction(ceil(x) + floor(x), 2)


def polar_count_formula(m: int, h_table, spf) -> int:
    """The per-m closed form for the number of independent polar terms.

    The scans use polar_count_sieve; this one-m evaluation is kept as its
    test oracle and as a traced entry point.

    m^2/12 + 5m/8 + (1/4) sum_{d | 4m} h(d) - (1/2) floor(b/2)
    - (1/2) ((m/4)) + 1/24, where h(d) is the class number at discriminant
    -d with h(3) = 1/3 and h(4) = 1/2, d ranging over all divisors of 4m
    (non-discriminant d contribute 0), and b is the largest integer with
    b^2 | m.  h_table and spf are tables.class_number_table and
    tables.spf_table reaching at least 4m.  Evaluated in units of 1/24 so
    integrality is an exact check; a non-integer total raises with all
    sub-terms attached.
    """
    if m < 1:
        raise ValueError("index must be positive")
    six_h = 0  # 6 * sum of h(d)
    divs = tables.divisors_from_factorization(tables.factorize(4 * m, spf))
    for d in divs:
        if d == 3:
            six_h += 2
        elif d == 4:
            six_h += 3
        elif d % 4 in (0, 3):
            six_h += 6 * int(h_table[d])
    b = max(d for d in divs if m % (d * d) == 0)
    saw24 = 12 * sawtooth(Fraction(m, 4))  # in units of 1/24: one of 0, +-3
    total24 = 2 * m * m + 15 * m + six_h - 12 * (b // 2) - int(saw24) + 1
    if total24 % 24 != 0:
        raise ArithmeticError(
            f"polar count at m={m} is not an integer: "
            f"24P = {total24} with 6*sum h = {six_h}, b = {b}, 12((m/4)) = {int(saw24)}"
        )
    return total24 // 24


def polar_count_bruteforce(m: int) -> int:
    """#{(n, l) : n >= 0, 1 <= l <= m, 4mn - l^2 < 0} = sum_l ceil(l^2 / 4m).

    One int64 expression over l = 1..m, sharing nothing with the closed form.
    The largest intermediate, m^2 + 4m - 1, is exact in int64 for m < 3*10^9.
    """
    import numpy as np

    if m < 1:
        raise ValueError("index must be positive")
    l = np.arange(1, m + 1, dtype=np.int64)
    return int(((l * l + (4 * m - 1)) // (4 * m)).sum())


def normalized_excess(m: int, P: int) -> float:
    """(P - m^2/12 - 5m/8) / sqrt(m), the plotted statistic."""
    return (P - m * m / 12.0 - 5.0 * m / 8.0) / m**0.5


def polar_count_sieve(mmax: int) -> list:
    """[P(1), ..., P(mmax)] from the closed form of polar_count_formula, in one pass.

    With w(d) = 6h(d) (w(3) = 2, w(4) = 3, w = 0 off d = 0, 3 mod 4), d | 4m
    exactly when q | m for q = d/gcd(d, 4), so the weights fold into
    W(q) = w(q) + w(2q) + w(4q) for odd q and W(q) = w(4q) for even q, and
    the sum over d | 4m is the sum of W over q | m.  That is sieved with one
    strided add per q <= sqrt(mmax) and one per cofactor k of the larger q.
    b, the largest integer with b^2 | m, comes from b[f^2::f^2] = f for
    rising f, and 12((m/4)) is 0, -3, 0, 3 by m mod 4.  Every 24P is held to
    divisibility by 24; the first m that fails raises with its sub-terms.
    """
    import numpy as np

    if mmax < 1:
        raise ValueError("mmax must be positive")
    w = 6 * tables.class_number_table(4 * mmax)
    w[1:: 4] = w[2:: 4] = w[0] = 0
    w[3], w[4] = 2, 3
    W = np.zeros(mmax + 1, dtype=np.int64)
    W[1:] = w[4:: 4]  # w(4q)
    W[1:: 2] += w[1: mmax + 1: 2]  # odd q: w(q); w(2q) = 0 as 2q = 2 mod 4
    six_h = np.zeros(mmax + 1, dtype=np.int64)
    r = isqrt(mmax)
    for q in range(1, r + 1):
        six_h[q:: q] += W[q]
    for k in range(1, mmax // (r + 1) + 1):
        top = mmax // k  # the q > r with k * q <= mmax
        six_h[k * (r + 1): k * top + 1: k] += W[r + 1: top + 1]
    b = np.ones(mmax + 1, dtype=np.int64)
    for f in range(2, r + 1):
        b[f * f:: f * f] = f
    m = np.arange(mmax + 1, dtype=np.int64)
    saw24 = np.array([0, -3, 0, 3], dtype=np.int64)[m % 4]
    total24 = 2 * m * m + 15 * m + six_h - 12 * (b // 2) - saw24 + 1
    bad = np.flatnonzero(total24[1:] % 24) + 1
    if bad.size:
        i = int(bad[0])
        raise ArithmeticError(
            f"polar count at m={i} is not an integer: "
            f"24P = {int(total24[i])} with 6*sum h = {int(six_h[i])}, b = {int(b[i])}, "
            f"12((m/4)) = {int(saw24[i])}"
        )
    return (total24[1:] // 24).tolist()


_CROSSCHECK_UPTO = 2000
_CROSSCHECK_STRIDE = 997


def polar_counts(mmax: int) -> list:
    """[P(1), ..., P(mmax)] from the closed form, cross-checked: the one polar scan.

    The values come from polar_count_sieve, which has held every 24P to
    divisibility by 24.  Each is verified against the direct lattice count
    for every m up to _CROSSCHECK_UPTO and at every multiple of
    _CROSSCHECK_STRIDE beyond (the direct count is O(m), so a full sweep at
    10^5 would dominate the runtime); a disagreement raises ArithmeticError.
    """
    counts = polar_count_sieve(mmax)
    for m, P in enumerate(counts, 1):
        if m <= _CROSSCHECK_UPTO or m % _CROSSCHECK_STRIDE == 0:
            bf = polar_count_bruteforce(m)
            if P != bf:
                raise ArithmeticError(f"formula {P} != direct count {bf} at m = {m}")
    return counts


def figure_data(mmax: int) -> list:
    """normalized_excess(m, P(m)) for m = 1..mmax.

    P comes from polar_counts, the same cross-checked scan the table reads,
    so the scatter, histogram and CDF emitters are checked like the table.
    """
    return [normalized_excess(m, P) for m, P in enumerate(polar_counts(mmax), 1)]


def histogram(values: np.ndarray):
    """Freedman-Diaconis equal-width histogram: (bin_width, [(left, right, count)...])."""
    import numpy as np

    v = np.sort(np.asarray(values, dtype=float))
    n = len(v)
    iqr = float(v[(3 * n) // 4] - v[n // 4])
    width = 2.0 * iqr / n ** (1.0 / 3.0)
    if width <= 0:
        raise ValueError("degenerate sample for histogram binning")
    lo, hi = float(v[0]), float(v[-1])
    nbins = max(1, int(ceil((hi - lo) / width)))
    counts, edges = np.histogram(v, bins=nbins, range=(lo, lo + nbins * width))
    return width, [
        (float(edges[i]), float(edges[i + 1]), int(counts[i])) for i in range(nbins)
    ]


def empirical_cdf(values: np.ndarray):
    """Sorted (value, cumulative fraction) pairs."""
    import numpy as np

    v = np.sort(np.asarray(values, dtype=float))
    n = len(v)
    return [(float(x), (i + 1) / n) for i, x in enumerate(v)]


# indices where a matching elliptic genus is known to survive the finer
# linear-algebra criterion; counting alone flags only a subset of these,
# so reports carry the list for comparison without asserting equality
DOCUMENTED_EXTREMAL_CANDIDATES = (1, 2, 3, 4, 5, 7, 8, 11, 13)


def extremal_n2_report(mmax: int):
    """Rows (m, J, P, J - P) with a flag where J >= P.

    A flagged m means counting alone cannot rule the extremal elliptic genus
    out; the known finite candidate list rests on a finer linear-algebra
    criterion, so the flag set is reported next to it, never asserted equal.
    P comes from polar_counts, cross-checked against the direct count.
    Beyond m = 100 the deficit P - J is asserted positive (it grows
    linearly).
    """
    if mmax < 13:
        raise ValueError("report range must reach at least 13")
    rows = []
    for m, P in enumerate(polar_counts(mmax), 1):
        J = jacobi_dim(m)
        if m >= 100 and P <= J:
            raise ArithmeticError(f"deficit P - J unexpectedly nonpositive at m = {m}")
        rows.append({"m": m, "J": J, "P": P, "J_minus_P": J - P, "flagged": J >= P})
    return rows
