import decimal
import hashlib
import sys
from fractions import Fraction
from math import gcd

import pytest
from conftest import (
    assert_same_series,
    g2_coefficients,
    partition_numbers_by_recurrence,
    recurrence_inverse,
    schoolbook_product,
    substitute_power,
)
from hypothesis import given, settings, strategies as st

from classforms import qseries as qs


@pytest.fixture(scope="module")
def delta50():
    return qs.delta_series(52)


def test_delta_examples(delta50):
    assert delta50.coefficient(1) == 1
    assert delta50.coefficient(2) == -24
    assert delta50.coefficient(6) == -6048
    assert delta50.coefficient(6) == delta50.coefficient(2) * delta50.coefficient(3)


def test_inverse_delta_examples():
    inv = qs.inverse_delta_series(8)
    assert inv.valuation == -1
    assert inv.coefficient(-1) == 1
    assert inv.coefficient(0) == 24
    assert inv.coefficient(1) == 324
    assert inv.coefficient(2) == 3200
    prod = qs.delta_series(10) * inv
    assert prod.coefficient(0) == 1
    assert all(prod.coefficient(k) == 0 for k in range(1, prod.truncation_order))


def test_eisenstein_examples():
    e2 = qs.eisenstein_E2(4)
    assert e2.coefficient(0) == 1
    assert e2.coefficient(1) == -24
    assert e2.coefficient(3) == -96
    e4 = qs.eisenstein_E4(4)
    assert e4.coefficient(1) == 240
    assert e4.coefficient(2) == 2160


def test_j_series_examples():
    j = qs.j_series(4)
    assert j.coefficient(-1) == 1
    assert j.coefficient(0) == 744
    assert j.coefficient(1) == 196884
    assert j.coefficient(2) == 21493760
    assert j.coefficient(3) == 864299970


def test_partition_numbers():
    p = qs.partition_numbers(10)
    assert p[1] == 1
    assert p[4] == 5
    assert p[10] == 42
    assert p == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]


def test_partition_numbers_match_recurrence():
    want = partition_numbers_by_recurrence(500)
    for n in range(501):
        got = qs.partition_numbers(n)
        assert got == want[: n + 1]
        assert all(type(c) is int for c in got)


def test_pk_coefficient_examples():
    assert qs.pk_coefficient(12, 0, 1) == -1
    assert qs.pk_coefficient(12, 2, 1) == 11
    assert qs.pk_coefficient(12, 1, 1) == -1
    # against the generating function directly
    t, n = 3, 5
    series = qs.QSeries(0, [1], 1)
    denom = qs.QSeries(0, [1, -t, n] + [0] * 9, 12)
    inv = denom.inverse()
    for k in (4, 6, 8, 12):
        assert qs.pk_coefficient(k, t, n) == inv.coefficient(k - 2)


def test_hecke_trace_weight_12_is_tau(delta50):
    assert qs.hecke_trace(12, 1) == 1
    for n in range(1, 51):
        assert qs.hecke_trace(12, n) == delta50.coefficient(n)


def test_hecke_trace_vanishing_weights():
    for k in (4, 6, 8, 10, 14):
        for n in range(1, 51):
            assert qs.hecke_trace(k, n) == 0


def test_hecke_trace_dimensions():
    for k in (16, 18, 20, 22, 26):
        assert qs.hecke_trace(k, 1) == 1


def test_hecke_multiplicativity(delta50):
    for m in range(2, 21):
        for n in range(2, 21):
            if m * n <= 50 and gcd(m, n) == 1:
                assert (delta50.coefficient(m * n)
                        == delta50.coefficient(m) * delta50.coefficient(n))


def test_pk_coefficient_weight_12_is_the_displayed_polynomial():
    # the polynomial of the one-sided tau(p) display, written out
    for n in range(1, 400):
        for t in range(-50, 51):
            display = (t**10 - 9 * n * t**8 + 28 * n**2 * t**6 - 35 * n**3 * t**4
                       + 15 * n**4 * t**2 - n**5)
            assert qs.pk_coefficient(12, t, n) == display, (t, n)


def test_tau_congruence_mod_691():
    d = qs.delta_series(102)
    for n in range(1, 101):
        sigma11 = sum(x**11 for x in range(1, n + 1) if n % x == 0)
        assert (d.coefficient(n) - sigma11) % 691 == 0


def test_tau_prime_display_disagrees_with_trace(delta50):
    # the one-sided display, evaluated verbatim, does not reproduce tau(p);
    # the two-sided trace does.  Freeze both sides of the comparison.
    display = {p: qs.tau_prime_display(p) for p in (2, 3, 5)}
    assert display[2] == Fraction(7, 2)
    assert display[3] == Fraction(69, 2)
    assert display[5] == Fraction(11397, 4)
    for p in (2, 3, 5):
        assert qs.hecke_trace(12, p) == delta50.coefficient(p)
        assert display[p] != delta50.coefficient(p)


def _eisenstein_E6(order):
    sig = [sum(d**5 for d in range(1, n + 1) if n % d == 0) for n in range(order)]
    return qs.QSeries(0, [1] + [-504 * s for s in sig[1:]], order)


def _cusp_dim(k):
    full = k // 12 + (0 if k % 12 == 2 else 1)
    return full - 1


def _cusp_form_basis(k, order):
    """Monomials E4^a E6^b Delta^c with 4a + 6b + 12c = k and c >= 1 (a
    spanning, dependent set), echelonized to basis[i] = q^(i+1) + higher."""
    e4 = qs.eisenstein_E4(order)
    e6 = _eisenstein_E6(order)
    delta = qs.delta_series(order)
    monomials = []
    for c in range(1, k // 12 + 1):
        for b in range((k - 12 * c) // 6 + 1):
            rest = k - 12 * c - 6 * b
            if rest % 4 == 0:
                monomials.append((e4 ** (rest // 4)) * (e6**b) * (delta**c))
    basis = []
    for v in range(1, _cusp_dim(k) + 1):
        pivot = next(m for m in monomials
                     if m.coefficient(v) != 0
                     and all(m.coefficient(u) == 0 for u in range(1, v)))
        pivot = pivot * Fraction(1, pivot.coefficient(v))
        monomials = [m - pivot * m.coefficient(v) for m in monomials]
        basis.append(pivot)
    return basis


def _hecke_action_coefficient(f, k, n, m):
    """Coefficient of q^m in T_n f, from sum_{d | gcd(m,n)} d^(k-1) a(mn/d^2)."""
    total = Fraction(0)
    for d in range(1, min(m, n) + 1):
        if m % d == 0 and n % d == 0:
            total += d ** (k - 1) * f.coefficient(m * n // (d * d))
    return total


def _trace_via_basis(k, n):
    """Trace of T_n on weight-k cusp forms computed from an explicit basis.

    No class numbers anywhere: the matrix of T_n in the echelon basis is read
    off q-expansions directly.  Oracle for the closed trace formula.
    """
    dim = _cusp_dim(k)
    order = dim * n + dim + 2
    basis = _cusp_form_basis(k, order)
    trace = Fraction(0)
    for i, f in enumerate(basis, start=1):
        image = [_hecke_action_coefficient(f, k, n, m) for m in range(1, dim + 1)]
        # expand the image in the echelon basis; diagonal entry is coord i
        coords = list(image)
        for j in range(dim):
            cj = coords[j]
            for m in range(j + 1, dim):
                coords[m] -= cj * basis[j].coefficient(m + 1)
        trace += coords[i - 1]
    return trace


@pytest.mark.parametrize("k", [12, 16, 18, 20, 22, 24, 26, 28])
def test_hecke_trace_against_basis_oracle(k):
    for n in range(1, 13):
        assert qs.hecke_trace(k, n) == _trace_via_basis(k, n), (k, n)


coefficients = st.integers(-50, 50)
series_strategy = st.builds(
    lambda val, coeffs: qs.QSeries(val, coeffs, val + len(coeffs)),
    st.integers(-3, 3),
    st.lists(coefficients, min_size=6, max_size=10),
)


@settings(max_examples=80, deadline=None)
@given(series_strategy, series_strategy, series_strategy)
def test_multiplication_associative(f, g, h):
    lhs = (f * g) * h
    rhs = f * (g * h)
    for n in range(max(lhs.valuation, rhs.valuation),
                   min(lhs.truncation_order, rhs.truncation_order)):
        assert lhs.coefficient(n) == rhs.coefficient(n)


@settings(max_examples=80, deadline=None)
@given(series_strategy, st.sampled_from([1, -1]))
def test_inverse_is_right_inverse(f, lead):
    f.coeffs[0] = lead  # only a +-1 lead has an inverse over the integers
    prod = f * f.inverse()
    assert prod.coefficient(0) == 1
    for n in range(1, prod.truncation_order):
        assert prod.coefficient(n) == 0


def test_truncation_is_respected():
    f = qs.QSeries(0, [1, 2, 3], 3)
    with pytest.raises(IndexError):
        f.coefficient(3)
    g = f * f
    assert g.truncation_order == 3
    with pytest.raises(ZeroDivisionError):
        qs.QSeries(0, [0, 1], 2).inverse()


def test_substitute_power():
    e2 = qs.eisenstein_E2(4)
    sub = substitute_power(e2, 2, 7)
    assert sub.coefficient(0) == 1
    assert sub.coefficient(2) == -24
    assert sub.coefficient(1) == 0
    assert sub.coefficient(6) == -96


# --- the Kronecker kernel against the schoolbook oracles ---------------------

_ints = st.integers(0, 600).flatmap(lambda bits: st.integers(-(2**bits), 2**bits))


@st.composite
def _series(draw, coefficients, unit_lead=False):
    """Valuation in [-3, 3]; up to 40 terms with runs of leading and trailing
    zeros, so operands of unequal length and zero runs that the kernel
    strips before packing are both drawn."""
    body = draw(st.lists(coefficients, max_size=40))
    coeffs = [0] * draw(st.integers(0, 3)) + body + [0] * draw(st.integers(0, 3))
    if unit_lead:
        coeffs = [draw(st.sampled_from([1, -1]))] + coeffs
    v = draw(st.integers(-3, 3))
    return qs.QSeries(v, coeffs, v + len(coeffs))


@settings(max_examples=300, deadline=None)
@given(_series(_ints), _series(_ints))
def test_product_matches_schoolbook_on_ints(f, g):
    got = f * g
    assert_same_series(got, schoolbook_product(f, g))
    assert all(type(c) is int for c in got.coeffs)


@pytest.mark.parametrize("n", [1, 2, 7, 8, 33])
def test_product_with_zero_series(n):
    zero = qs.QSeries(0, [0] * n, n)
    f = qs.QSeries(-1, [-7] + list(range(1, n)), n - 1)
    assert_same_series(zero * f, schoolbook_product(zero, f))
    assert_same_series(f * zero, schoolbook_product(f, zero))
    assert_same_series(zero * zero, schoolbook_product(zero, zero))


@settings(max_examples=200, deadline=None)
@given(_series(_ints, unit_lead=True))
def test_inverse_matches_recurrence_on_ints(f):
    assert_same_series(f.inverse(), recurrence_inverse(f))


def test_kernel_rejects_fractions_and_non_unit_leads():
    f = qs.QSeries(0, [1, 2, 3], 3)
    rational = qs.QSeries(0, [1, Fraction(1, 3), 3], 3)
    with pytest.raises(TypeError):
        f * rational
    with pytest.raises(TypeError):
        rational * f
    with pytest.raises(TypeError):
        rational.inverse()
    with pytest.raises(TypeError):
        qs.QSeries(0, [Fraction(1)], 1).inverse()
    with pytest.raises(ArithmeticError, match="no inverse over the integers"):
        qs.QSeries(0, [2, 1, 3], 3).inverse()


def test_modular_series_match_schoolbook(monkeypatch):
    fast = [qs.delta_series(2000), qs.j_series(1000)]
    fast_g2 = g2_coefficients.__wrapped__(800)
    kernel_product = qs.QSeries.__mul__
    monkeypatch.setattr(qs.QSeries, "__mul__", lambda f, g: (
        schoolbook_product(f, g) if isinstance(g, qs.QSeries) else kernel_product(f, g)))
    monkeypatch.setattr(qs.QSeries, "inverse", recurrence_inverse)
    slow = [qs.delta_series(2000), qs.j_series(1000)]
    for got, want in zip(fast, slow):
        assert_same_series(got, want)
    assert fast_g2 == g2_coefficients.__wrapped__(800)


def test_series_builders_stay_in_the_integer_kernel(monkeypatch):
    """The builders behind every series-using command reach the kernel, whose
    TypeError (Fraction coefficient) and ArithmeticError (leading coefficient
    not +-1) checks none of their products and inverses may trip."""
    from classforms.cftx import extremal_partition_function

    builders = {
        "Delta": lambda: qs.delta_series(2000).coeffs,
        "1/Delta": lambda: qs.inverse_delta_series(2000).coeffs,
        "j": lambda: qs.j_series(1000).coeffs,
        "2G": lambda: g2_coefficients.__wrapped__(800),
        "Z_4": lambda: extremal_partition_function(4, 20).coeffs,
        "p": lambda: qs.partition_numbers(500),
    }
    calls = []
    kernel = qs._kronecker
    monkeypatch.setattr(qs, "_kronecker", lambda a, b, n: calls.append(n) or kernel(a, b, n))
    for name, build in builders.items():
        calls.clear()
        coeffs = build()
        assert calls, name
        assert all(type(c) is int for c in coeffs), name


def test_power_starts_from_the_first_power_it_needs(monkeypatch):
    # s**3 = s * s^2 and s**24 = s^8 * s^16: 2 and 5 products, none of them
    # by the unit series; s**0 is still the unit series
    s = qs.QSeries(-1, [1, -3, 5, 0, 7, 2, -1, 4], 7)
    calls = []
    kernel = qs._kronecker
    monkeypatch.setattr(qs, "_kronecker", lambda a, b, n: calls.append(n) or kernel(a, b, n))
    for k, products in ((1, 0), (3, 2), (24, 5)):
        calls.clear()
        got = s**k
        assert len(calls) == products, k
        want = s
        for _ in range(k - 1):
            want = schoolbook_product(want, s)
        assert_same_series(got, want)
    assert_same_series(s**0, qs.QSeries(0, [1] + [0] * 7, 8))


def test_negative_power_is_the_power_of_the_inverse():
    # s**-k is (1/s)^k: the recurrence inverse, multiplied out term by term
    s = qs.QSeries(-1, [-1, -3, 5, 0, 7, 2, -1, 4], 7)
    inv = recurrence_inverse(s)
    want = inv
    for k in range(1, 5):
        assert_same_series(s**-k, want)
        want = schoolbook_product(want, inv)


def test_g2_coefficients_at_benchmark_order():
    # SHA-256 of the 3201 coefficients of 2G to order 3200, as decimal strings
    # joined by commas, recorded from the schoolbook product and recurrence
    # inverse before the Kronecker kernel replaced them.
    text = ",".join(str(c) for c in g2_coefficients(3200))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "673b5c0cfcd7b3ec837d5cead4792a648eb2ba3f5899b0f1f7db2f464ac33a3d"
    )


def test_kernel_leaves_the_decimal_context_alone():
    f = qs.QSeries(0, [1, -(2**200), 3, 0, 5, -7, 11, 0, 0, 13], 10)
    with decimal.localcontext() as ctx:
        ctx.prec = 3
        ctx.traps[decimal.Inexact] = True
        ctx.clear_flags()
        before = repr(ctx)
        got = [f * f, f.inverse()]
        assert repr(decimal.getcontext()) == before
    assert_same_series(got[0], schoolbook_product(f, f))
    assert_same_series(got[1], recurrence_inverse(f))


def test_slots_wider_than_the_int_str_cap_read_back_through_decimal():
    # a product slot wider than the interpreter's cap on int-from-str digits
    # (here 640, the least it allows) is read through decimal, which has none
    f = qs.QSeries(0, [10**400 + k for k in range(6)], 6)
    g = qs.QSeries(0, [-(10**300) * (k + 1) for k in range(6)], 6)
    cap = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        got = [f * g, f * f]
    finally:
        sys.set_int_max_str_digits(cap)
    assert_same_series(got[0], schoolbook_product(f, g))
    assert_same_series(got[1], schoolbook_product(f, f))
