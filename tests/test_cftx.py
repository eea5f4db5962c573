from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from classforms import cftx, qseries as qs, tables


def test_z1_is_j_minus_744():
    z1 = cftx.extremal_partition_function(1, 8)
    j = qs.j_series(8)
    assert z1.coefficient(-1) == 1
    assert z1.coefficient(0) == 0
    assert z1.coefficient(1) == 196884
    for n in range(1, 8):
        assert z1.coefficient(n) == j.coefficient(n)


def test_zk_polar_parts_match_vacuum_series():
    # prod_{n>=2} 1/(1-q^n) counts partitions into parts >= 2
    for k in (1, 2, 3, 4):
        z = cftx.extremal_partition_function(k, 6)
        p = qs.partition_numbers(k)
        for m in range(0, k + 1):
            expected = p[m] - (p[m - 1] if m else 0)
            assert z.coefficient(m - k) == expected, (k, m)


def test_zk_integer_coefficients():
    for k in (1, 2, 3, 4):
        z = cftx.extremal_partition_function(k, 20)
        for n in range(z.valuation, z.truncation_order):
            c = z.coefficient(n)
            assert Fraction(c).denominator == 1, (k, n)


def test_verify_zk_identity_k1():
    report = cftx.verify_zk_identity(1, cmax=200, order=6)
    assert report["max_relative_residual"] < 1e-2
    q1 = next(r for r in report["rows"] if r["n"] == 1)
    assert q1["exact"] == 196884
    assert abs(q1["expansion"] - 196884) / 196884 < 1e-2


def test_verify_zk_identity_residual_decreases():
    residuals = [cftx.verify_zk_identity(2, cmax=c, order=6)["max_relative_residual"]
                 for c in (50, 100, 200)]
    assert residuals[2] <= residuals[1] <= residuals[0]


def test_verify_zk_identity_k3():
    report = cftx.verify_zk_identity(3, cmax=150, order=6)
    assert report["max_relative_residual"] < 1e-2
    with pytest.raises(ValueError):
        cftx.verify_zk_identity(5)


def test_verify_zk_identity_rows_are_the_per_pair_sums():
    # the one batched pass over c gives each r_{d,n} the float rd_partials gives
    from classforms.rademacher import RademacherParams, rd_partials

    params = RademacherParams(cmax=60)
    for k in range(1, 5):
        p = qs.partition_numbers(k)
        for row in cftx.verify_zk_identity(k, cmax=60)["rows"]:
            n = row["n"]

            def r(d):
                return rd_partials(d, n, params)[-1] if d >= 1 else 0.0

            approx = r(k) - r(k - 1)
            for m in range(1, k):
                approx += p[m] * (r(k - m) - r(k - m - 1))
            assert row["expansion"] == approx, (k, n)


def test_jacobi_dim_examples():
    assert cftx.jacobi_dim(1) == 1
    assert cftx.jacobi_dim(12) == 19
    assert cftx.jacobi_dim(13) == 21


def test_sawtooth_examples():
    assert cftx.sawtooth(Fraction(1, 4)) == Fraction(-1, 4)
    assert cftx.sawtooth(0) == 0
    assert cftx.sawtooth(Fraction(-1, 4)) == Fraction(1, 4)


@settings(max_examples=200, deadline=None)
@given(st.fractions(max_denominator=64, min_value=-8, max_value=8))
def test_sawtooth_is_odd_and_periodic(x):
    assert cftx.sawtooth(-x) == -cftx.sawtooth(x)
    assert cftx.sawtooth(x + 1) == cftx.sawtooth(x)
    if x.denominator == 1:
        assert cftx.sawtooth(x) == 0


def test_polar_count_m1_term_by_term():
    # 1/12 + 5/8 + (1/4) h-sum + 0 + 1/8 + 1/24 with h-sum contribution 1/2
    assert cftx.polar_counts(1) == [1]
    assert cftx.polar_count_bruteforce(1) == 1


def test_polar_count_examples():
    assert cftx.polar_count_bruteforce(2) == 2
    assert cftx.polar_count_bruteforce(4) == 4
    assert cftx.polar_counts(2) == [1, 2]
    assert cftx.polar_counts(1000)[999] == cftx.polar_count_bruteforce(1000)


def test_polar_count_bruteforce_is_the_lattice_count():
    # the int64 expression against the pairs (n, l) counted one by one
    for m in range(1, 61):
        pairs = sum(1 for l in range(1, m + 1) for n in range(l * l + 1)
                    if 4 * m * n - l * l < 0)
        assert cftx.polar_count_bruteforce(m) == pairs, m


def test_polar_formula_matches_bruteforce_range():
    counts = cftx.polar_counts(600)
    assert len(counts) == 600
    for m in range(1, 601):
        assert counts[m - 1] == cftx.polar_count_bruteforce(m), m


def _formula_values(mmax, ms):
    h, spf = tables.class_number_table(4 * mmax), tables.spf_table(4 * mmax)
    return [cftx.polar_count_formula(m, h, spf) for m in ms]


def test_polar_count_sieve_matches_per_m_formula():
    sieve = cftx.polar_count_sieve(5000)
    assert sieve == _formula_values(5000, range(1, 5001))
    assert all(type(P) is int for P in sieve)
    sieve = cftx.polar_count_sieve(10**5)
    ms = range(97, 10**5 + 1, 97)
    assert [sieve[m - 1] for m in ms] == _formula_values(10**5, ms)


def test_polar_count_sieve_smallest_ranges():
    # m = 1..4 reach the special weights h(3) = 1/3 and h(4) = 1/2 and every residue mod 4
    for mmax in (1, 2, 3, 4):
        assert cftx.polar_count_sieve(mmax) == [
            cftx.polar_count_bruteforce(m) for m in range(1, mmax + 1)]
    with pytest.raises(ValueError):
        cftx.polar_count_sieve(0)


def test_polar_count_sieve_asserts_integrality(monkeypatch):
    # h(7) one too high shifts 24P by 6 at every multiple of 7, first at m = 7
    real = tables.class_number_table

    def wrong_h7(limit):
        h = real(limit).copy()
        h[7] += 1
        return h

    monkeypatch.setattr(tables, "class_number_table", wrong_h7)
    with pytest.raises(ArithmeticError, match="m=7 is not an integer"):
        cftx.polar_count_sieve(50)


def test_extremal_n2_report():
    rows = cftx.extremal_n2_report(150)
    flagged = [r["m"] for r in rows if r["flagged"]]
    # pure counting flags a subset of the documented candidate list
    assert set(flagged) <= {1, 2, 3, 4, 5, 7, 8, 11, 13}
    assert 1 in flagged
    by_m = {r["m"]: r for r in rows}
    assert by_m[1]["J"] == by_m[1]["P"] == 1
    for m in range(100, 151):
        assert by_m[m]["P"] > by_m[m]["J"]


def test_figure_data_deterministic_and_consistent():
    a = cftx.figure_data(400)
    b = cftx.figure_data(400)
    assert np.array_equal(a, b)
    # spot values against the direct count
    for m in (1, 7, 100, 399):
        P = cftx.polar_count_bruteforce(m)
        assert a[m - 1] == pytest.approx((P - m * m / 12 - 5 * m / 8) / m**0.5)


def test_figure_data_crosscheck_trips_on_bad_value(monkeypatch):
    # wreck the formula on one index and watch the pipeline object
    real = cftx.polar_count_sieve

    def tampered(mmax):
        counts = real(mmax)
        counts[36] += 1  # P(37)
        return counts

    monkeypatch.setattr(cftx, "polar_count_sieve", tampered)
    with pytest.raises(ArithmeticError, match="at m = 37"):
        cftx.figure_data(100)


def test_histogram_and_cdf():
    values = cftx.figure_data(2000)
    width, bins = cftx.histogram(values)
    assert width > 0
    assert sum(b[2] for b in bins) == len(values)
    assert all(b[0] < b[1] for b in bins)
    cdf = cftx.empirical_cdf(values)
    assert cdf[-1][1] == pytest.approx(1.0)
    fracs = [f for _, f in cdf]
    assert fracs == sorted(fracs)
