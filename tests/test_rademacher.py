import itertools
import random
from fractions import Fraction
from math import atan2, ceil, floor, gcd, log, log2, pi, sqrt

import mpmath as mp
import pytest
from hypothesis import example, given, settings, strategies as st

from classforms import arith
from classforms import qseries as qs
from classforms import rademacher as rd
from classforms.quadforms import Form, class_number, enumerate_reduced, reduce as reduce_form
from classforms.rademacher import PrecisionError, RademacherParams

from conftest import (P_by_horner, auto_order, bessel_by_ascending_series, dyadic_mpf,
                      g2_coefficients, gamma0_equivalent, j_coefficients,
                      kloosterman_by_exponentials, level_rep_by_window_search,
                      level_reps_by_b_walk, q_expansion_sum, q_expansion_sums_by_mpc, tau_mpc,
                      value_mpc)


def _kloosterman(m, n, c, digits=30):
    modulus = rd._modulus(c, digits)
    return dyadic_mpf(rd._kloosterman_at(m, n, modulus), modulus[-1])


def _bessel_bits(kind, nu, x, digits):
    # the scale at which _bessel_fixed carries digits significant digits (of
    # J's envelope), with 8 guard bits as the sums carry; |B| 2^bits < 2^top
    top = ceil(digits * log2(10)) + 8
    return top - rd._log2_ceiling(kind, nu, x), top


def _bessel_mpf(kind, nu, x, digits=30):
    # the fixed-point kernel at x, a float or an mpf, as the exact mpf
    if isinstance(x, mp.mpf):
        man, exp = x.man_exp
        num, den = (man << exp, 1) if exp >= 0 else (man, 1 << -exp)
    else:
        num, den = float(x).as_integer_ratio()
    bits = _bessel_bits(kind, nu, num / den, digits)[0]
    return dyadic_mpf(rd._bessel_fixed(kind, nu, num, den, bits), bits)


def _bessel(kind, nu, x, digits=30):
    return float(_bessel_mpf(kind, nu, x, digits))


def _G(tau, order=None, digits=40):
    g, _, q, bits = rd._g_and_dg(tau, order, rd._prec_of_digits(digits))
    return complex(rd._cm_value(g, q.n - bits))


# --- Kloosterman sums ---------------------------------------------------------


def test_kloosterman_modulus_one_is_one():
    assert _kloosterman(17, -5, 1) == 1


def test_kloosterman_zero_arguments_gives_totient():
    def phi(c):
        return sum(1 for d in range(1, c + 1) if gcd(d, c) == 1)

    for c in (2, 3, 4, 6, 10, 12):
        assert _kloosterman(0, 0, c) == pytest.approx(phi(c), abs=1e-9)


def test_kloosterman_small_case():
    assert _kloosterman(-1, 1, 2) == pytest.approx(1.0, abs=1e-10)


def test_kloosterman_symmetry_and_bound():
    def phi(c):
        return sum(1 for d in range(1, c + 1) if gcd(d, c) == 1)

    for c in range(1, 51):
        for m, n in ((1, 2), (-1, 5), (3, 7)):
            kmn = _kloosterman(m, n, c)
            knm = _kloosterman(n, m, c)
            assert kmn == pytest.approx(knm, abs=1e-8)
            assert abs(kmn) <= phi(c) + 1e-8


def _phi(c):
    return sum(1 for d in range(1, c + 1) if gcd(d, c) == 1)


# zero arguments, negative m, and n sharing factors with many moduli
_KLOOSTERMAN_PAIRS = [(0, 0), (0, 7), (5, 0), (1, 1), (-1, 3), (-2, 12), (3, -10), (-7, 30)]


def test_kloosterman_matches_exponential_oracle():
    def check(m, n, c, digits):
        got = _kloosterman(m, n, c, digits)
        want = kloosterman_by_exponentials(m, n, c, digits)
        with mp.workdps(digits + 10):
            assert abs(got - want) <= _phi(c) * mp.mpf(10) ** (2 - digits), (m, n, c, digits)

    # every c <= 400 at 30 digits, with two of the pairs in turn per modulus
    for c in range(1, 401):
        for i in (c, c + 3):
            check(*_KLOOSTERMAN_PAIRS[i % len(_KLOOSTERMAN_PAIRS)], c, 30)
    # sampled c <= 1000 at 80 digits, the largest prime and a power of two among them
    moduli = sorted(random.Random(20261018).sample(range(2, 1001), 10) + [512, 997])
    for i, c in enumerate(moduli):
        check(*_KLOOSTERMAN_PAIRS[i % len(_KLOOSTERMAN_PAIRS)], c, 80)


def test_kloosterman_meets_its_error_bound():
    # the table's stated bound is 10^-digits absolute, plus the final rounding
    # to digits; the oracle at 10 more digits is far closer than that
    def check(m, n, c, digits):
        got = _kloosterman(m, n, c, digits)
        want = kloosterman_by_exponentials(m, n, c, digits + 10)
        with mp.workdps(digits + 10):
            assert abs(got - want) <= (1 + abs(want)) * mp.mpf(10) ** -digits, (m, n, c, digits)

    for c in range(1, 401):
        check(*_KLOOSTERMAN_PAIRS[(c + 5) % len(_KLOOSTERMAN_PAIRS)], c, 30)
    for i, c in enumerate((509, 768, 997)):
        check(*_KLOOSTERMAN_PAIRS[i], c, 80)


def test_kloosterman_twisted_multiplicativity():
    # K(m, n; c1 c2) = K(m c2bar^2, n; c1) K(m c1bar^2, n; c2) for coprime c1, c2
    for m, n in ((1, 1), (-1, 3), (2, 5), (-3, 4), (0, 6), (4, -9)):
        for c1 in range(2, 15):
            for c2 in range(c1 + 1, 200 // c1 + 1):
                if gcd(c1, c2) != 1:
                    continue
                whole = _kloosterman(m, n, c1 * c2)
                parts = (_kloosterman(m * pow(c2, -2, c1), n, c1)
                         * _kloosterman(m * pow(c1, -2, c2), n, c2))
                assert whole == pytest.approx(parts, abs=1e-9), (m, n, c1, c2)


# --- the fixed-point exponential and its two range reductions ------------------


def _units_off(got, want, bits):
    """|got - want 2^bits| for an integer got at scale 2^-bits and an mpf want."""
    return abs(mp.mpf(got) - mp.ldexp(want, bits))


def _quadrant(a, pi_a):
    """The k of _cos_sin's a = k pi/2 + s, |s| <= pi/4, with pi at a's scale."""
    quarter = pi_a >> 1
    return (a + (quarter >> 1)) // quarter


@st.composite
def _scaled_unit_interval(draw):
    bits = draw(st.integers(20, 20000))
    return bits, draw(st.integers(0, 1 << bits))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(point=_scaled_unit_interval(), imaginary=st.booleans())
@example(point=(20, 0), imaginary=False)
@example(point=(20, 1 << 20), imaginary=True)
@example(point=(20000, 0), imaginary=True)
@example(point=(20000, 1 << 20000), imaginary=False)
@example(point=(2000, 1 << 1000), imaginary=True)
def test_exp_within_one_unit(point, imaginary):
    # e^t and (cos t, sin t) at t in [0, 1], 20 to 20000 bits; t < 2^-h needs
    # no squaring
    bits, t = point
    got = rd._exp(t, bits, imaginary)
    with mp.workprec(bits + 64):
        x = dyadic_mpf(t, bits)
        pairs = zip(got, (mp.cos(x), mp.sin(x))) if imaginary else [(got, mp.exp(x))]
        for part, want in pairs:
            assert _units_off(part, want, bits) <= 1, (bits, t)


def _check_cos_sin(a, bits, extra, angle_error=0):
    # (cos a, sin a) within (E + |k|) 2^-extra + 1 units, one more when extra > 0
    pi_a = rd._pi(bits + extra)
    k = _quadrant(a, pi_a)
    bound = (angle_error + abs(k)) / 2**extra + 1 + (extra > 0)
    got = rd._cos_sin(a, pi_a, extra, bits)
    with mp.workprec(bits + extra + 64):
        x = dyadic_mpf(a, bits + extra)
        for part, want in zip(got, (mp.cos(x), mp.sin(x))):
            assert _units_off(part, want, bits) <= bound, (a, bits, extra)
    return k


@settings(max_examples=60, deadline=None, derandomize=True)
@given(bits=st.integers(20, 20000), extra=st.sampled_from((0, 4, 24)),
       k=st.integers(-8, 8), within=st.fractions(-0.5, 0.5))
def test_cos_sin_within_its_stated_bound(bits, extra, k, within):
    quarter = rd._pi(bits + extra) >> 1
    a = k * quarter + floor(within * quarter)
    _check_cos_sin(a, bits, extra)


def test_cos_sin_at_the_quadrant_boundaries():
    # either side of s = +-pi/4 in every quadrant, where k changes; at
    # 20000 bits only at +-pi/4 themselves
    for bits in (20, 200, 2000, 20000):
        for extra in (0, 4):
            quarter = rd._pi(bits + extra) >> 1
            for k in range(-4, 8) if bits < 20000 else (-1, 0):
                edge = (k + 1) * quarter - (quarter >> 1)  # the least a in quadrant k + 1
                assert {_check_cos_sin(a, bits, extra) for a in (edge - 1, edge)} == {k, k + 1}


def test_cos_sin_of_a_turn_over_c():
    # 2 pi/c as _modulus forms it, within 3 units, for c = 1..400; and
    # _modulus's rounded cos(2 pi/c) within the 1/2 + 6/16 units it states
    for bits in (20, 113, 2000, 20000):
        pi_t = rd._pi(bits)
        for c in range(1, 401):
            if bits < 20000 or c % 37 == 1:
                _check_cos_sin(2 * pi_t // c, bits, 0, angle_error=3)
    for digits in (15, 30):
        for c in range(2, 401):
            modulus = rd._modulus(c, digits)
            with mp.workprec(modulus[-1] + 64):
                want = mp.cos(2 * mp.pi / c)
                assert _units_off(modulus[3][1], want, modulus[-1]) <= 0.5 + 6 / 16, (c, digits)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(bits=st.integers(20, 20000), extra=st.sampled_from((0, 4, 24)),
       y=st.fractions(-50, 50))
@example(bits=20, extra=0, y=Fraction(0))
@example(bits=20000, extra=4, y=Fraction(-1))
def test_exp_ln2_within_its_stated_bound(bits, extra, y):
    # y = n ln 2 + r, and e^r within 2 |n| 2^-extra + 1 units, two more when extra > 0
    scaled = floor(y * 2 ** (bits + extra))
    m, n = rd._exp_ln2(scaled, rd._ln2(bits + extra), extra, bits)
    bound = 2 * abs(n) / 2**extra + 1 + 2 * (extra > 0)
    with mp.workprec(bits + extra + 64):
        want = mp.exp(dyadic_mpf(scaled, bits + extra) - n * mp.ln2)
        assert 1 - 2**-8 < want < 2 + 2**-8
        assert _units_off(m, want, bits) <= bound, (bits, extra, y)


# --- Bessel kernels -----------------------------------------------------------


def test_bessel_against_mpmath_oracle():
    # 50-digit library evaluation as the independent reference
    with mp.workdps(50):
        for nu, x in [(13, 0.5), (13, 7.3), (13, 62.8), (11, 1.0), (11, 30.0), (1, 0.1)]:
            assert _bessel("I", nu, x, 40) == pytest.approx(
                float(mp.besseli(nu, x)), rel=1e-12)
            assert _bessel("J", nu, x, 40) == pytest.approx(
                float(mp.besselj(nu, x)), rel=1e-12)
        # large arguments, where the alternating series cancels by ~x / ln 10 digits
        for nu, x in [(11, 100.0), (11, 200.0), (11, 1000.0)]:
            assert _bessel("J", nu, x, 40) == pytest.approx(
                float(mp.besselj(nu, x)), rel=1e-12)


def test_bessel_matches_ascending_series_oracle():
    # the (nu, x) cases above, then x = 4 pi sqrt(dn)/c as the sums reach it
    small = [(13, 0.5), (13, 7.3), (13, 62.8), (11, 1.0), (11, 30.0), (1, 0.1)]
    reached = [(nu, 4 * mp.pi * mp.sqrt(dn) / c)
               for nu, dns in ((1, (1, 4, 12, 15)), (11, (2, 3, 6, 100)), (13, (1, 5, 10)))
               for dn in dns for c in (1, 2, 3, 7, 40, 199, 400)]
    kernels = [("I", False), ("J", True)]
    cases = [(nu, x, kernel) for nu, x in small + reached for kernel in kernels]
    cases += [(11, x, kernels[1]) for x in (100.0, 200.0, 1000.0)]
    for digits in (30, 40):
        with mp.workdps(digits):
            for nu, x, (kind, signed) in cases:
                want = bessel_by_ascending_series(nu, x, digits, signed)
                got = _bessel_mpf(kind, nu, x, digits)
                assert abs(got - want) <= mp.mpf(10) ** (2 - digits) * max(1, abs(want)), (nu, x)
                assert float(got) == pytest.approx(float(want), rel=1e-15)


def test_bessel_I_matches_besseli_to_working_precision():
    # the fixed-point I at 30 digits against mpmath's besseli at 60, in both
    # regimes: I grows like e^x, so x is taken exactly (at x = 12345.6 a
    # rounded x^2/4 alone would cost 1e-28)
    for nu in (0, 1, 2, 13):
        for x in (0.1, 1.0, 22.0, 62.8, 795.3, 12345.6, 99999.0):
            got = _bessel_mpf("I", nu, x, 30)
            with mp.workdps(60):
                want = mp.besseli(nu, x)
                assert abs(got - want) <= mp.mpf(10) ** -30 * want, (nu, x)


def test_bessel_recurrences_at_large_arguments():
    # up to the 1e5 cap, where the ascending series would take hours
    digits = 30
    with mp.workdps(digits):
        tol = mp.mpf(10) ** (2 - digits)
        for x in (mp.mpf(20000), mp.mpf(99999)):
            j10, j11, j12 = (_bessel_mpf("J", nu, x, digits) for nu in (10, 11, 12))
            assert abs(j10 + j12 - 22 / x * j11) <= tol * (abs(j10) + abs(j12))
            # leading asymptotics: J_11^2 + J_12^2 ~ 2 / (pi x), I_0 ~ e^x (1 + 1/8x) / sqrt(2 pi x)
            assert abs((j11**2 + j12**2) * mp.pi * x / 2 - 1) < 1e-3
            i0, i1, i2 = (_bessel_mpf("I", nu, x, digits) for nu in (0, 1, 2))
            assert abs(i0 - i2 - 2 / x * i1) <= tol * (i0 + i2)
            assert abs(i0 * mp.sqrt(2 * mp.pi * x) / mp.exp(x) / (1 + 1 / (8 * x)) - 1) < 1e-9


def test_bessel_I_positive_and_increasing():
    values = [_bessel("I", 13, x) for x in (1.0, 2.0, 5.0, 10.0, 50.0, 100.0)]
    assert all(v > 0 for v in values)
    assert values == sorted(values)


def test_bessel_I1_small_argument_limit():
    for x in (1e-3, 1e-5):
        assert _bessel("I", 1, x) / x == pytest.approx(0.5, rel=1e-5)


def test_bessel_rejects_bad_arguments():
    with pytest.raises(ValueError):
        rd._bessel_fixed("I", 13, 0, 1, 100)
    with pytest.raises(ValueError):
        rd._bessel_fixed("J", 11, 1, -2, 100)
    with pytest.raises(ValueError):
        rd._bessel_fixed("I", -1, 1, 1, 100)
    with pytest.raises(OverflowError):
        rd._bessel_fixed("I", 1, 10**7, 1, 100)


def _regime_switch(kind, nu, top):
    # the x, 1e-9 apart, just below and just above which _bessel_fixed takes
    # Hankel's expansions instead of the ascending series
    lo, hi = 1.0, 1000.0
    assert rd._hankel_precision(kind, nu, lo, top) is None
    assert rd._hankel_precision(kind, nu, hi, top) is not None
    while hi - lo > 1e-9 * hi:
        mid = (lo + hi) / 2
        if rd._hankel_precision(kind, nu, mid, top) is None:
            lo = mid
        else:
            hi = mid
    return lo, hi


def test_bessel_either_side_of_the_regime_threshold(monkeypatch):
    # I_1, I_13 and J_11 just below and just above the switch from the
    # ascending series to Hankel's expansions, against mpmath at 20 more digits
    routes = []
    for name in ("_bessel_series", "_bessel_hankel"):
        kernel = getattr(rd, name)
        monkeypatch.setattr(rd, name, lambda *a, kernel=kernel, name=name:
                            routes.append(name) or kernel(*a))
    oracles = {"I": mp.besseli, "J": mp.besselj}
    for kind, nu in (("I", 1), ("I", 13), ("J", 11)):
        for digits in (30, 40):
            lo, hi = _regime_switch(kind, nu, _bessel_bits(kind, nu, 1.0, digits)[1])
            assert max(nu * nu / 2, 20.0) <= hi < 200, (kind, nu, digits, hi)
            for x, route in ((lo, "_bessel_series"), (hi, "_bessel_hankel")):
                routes.clear()
                got = _bessel_mpf(kind, nu, x, digits)
                assert routes == [route], (kind, nu, digits, x)
                with mp.workdps(digits + 20):
                    want = oracles[kind](nu, x)
                    scale = abs(want) if kind == "I" else 1
                    assert abs(got - want) <= mp.mpf(10) ** -digits * scale, (kind, nu, x)


# --- Rademacher sums ----------------------------------------------------------


def test_inv_delta_matches_series_inversion():
    inv = qs.inverse_delta_series(11)
    params = RademacherParams(cmax=30, precision_digits=30)
    for n in range(1, 11):
        value = rd.rademacher_inv_delta(n, params)
        exact = int(inv.coefficient(n))
        assert abs(value - exact) / abs(exact) < 1e-3, n


def test_inv_delta_error_decreases_with_cmax():
    inv = qs.inverse_delta_series(7)
    params = RademacherParams(cmax=40, precision_digits=40)
    for n in (1, 2, 5):
        partials = rd.rademacher_inv_delta_partials(n, params)
        exact = int(inv.coefficient(n))
        err10 = abs(partials[9] - exact)
        err40 = abs(partials[39] - exact)
        assert err40 <= err10


def test_tau_calibration_and_stability():
    params = RademacherParams(cmax=200, precision_digits=30)
    beta = rd.calibrate_beta(params)
    # the reference constant carries three printed decimals
    assert beta == pytest.approx(2.840, abs=5e-3)
    d = qs.delta_series(6)
    beta3 = rd.rademacher_tau_partials(3, params)[-1] / d.coefficient(3)
    assert abs(beta3 - beta) / beta < 0.01
    for n in (2, 3, 4):
        value = rd.rademacher_tau(n, params)
        exact = d.coefficient(n)
        assert abs(value - exact) / abs(exact) < 0.01, n


def test_beta_is_the_first_poincare_coefficient():
    # p(1) = 1 + 2 pi sum_{c <= 30} K(1,1;c)/c J_11(4 pi/c) from the oracles, at
    # 40 digits: beta, a float, must be the float nearest it (1e-20 relative
    # before rounding), where a value fitted to tau(2) = -24 is 2e-13 off
    digits = 40
    with mp.workdps(digits):
        total = mp.mpf(0)
        for c in range(1, 31):
            j11 = bessel_by_ascending_series(11, 4 * mp.pi / c, digits, signed=True)
            total += kloosterman_by_exponentials(1, 1, c, digits) / c * j11
        want = 1 + 2 * mp.pi * total
    assert rd.calibrate_beta(RademacherParams(cmax=30, precision_digits=30)) == float(want)


def _textbook_partials(m, n, nu, signed, prefactor, arg, cmax, digits):
    # prefactor * sum_{c <= C} K(m,n;c)/c B_nu(arg/c), C = 1..cmax, from the
    # oracles; B is J when signed, else I; mpf values at digits
    with mp.workdps(digits):
        partials, total = [], mp.mpf(0)
        for c in range(1, cmax + 1):
            bessel = bessel_by_ascending_series(nu, arg / c, digits, signed=signed)
            total += kloosterman_by_exponentials(m, n, c, digits) / c * bessel
            partials.append(prefactor * total)
        return partials


def test_each_entry_point_is_its_textbook_sum():
    # every partial sum C = 1..12 of the three public partials against the
    # textbook Kloosterman-Bessel sum, with each function's own prefactor and
    # argument written out, at 40 digits; r_{d,n} also pins the sign of the
    # first Kloosterman argument, K(-d,n;c), which differs from K(d,n;c)
    # only at c >= 2 (test_rd_head_term sees c = 1 alone)
    params = RademacherParams(cmax=12, precision_digits=30)
    digits = 40
    with mp.workdps(digits):
        pi_ = mp.pi
        for n in (1, 2):
            want = _textbook_partials(-1, n, 13, False, 2 * pi_ / mp.mpf(n) ** 6.5,
                                      4 * pi_ * mp.sqrt(n), 12, digits)
            got = rd.rademacher_inv_delta_partials(n, params)
            assert len(got) == 12
            for g, w in zip(got, want):
                assert abs(dyadic_mpf(g) - w) <= mp.mpf(10) ** -25 * abs(w), (n, g, w)
        for n in (2, 3):
            want = _textbook_partials(1, n, 11, True, 2 * pi_ * mp.mpf(n) ** 5.5,
                                      4 * pi_ * mp.sqrt(n), 12, digits)
            got = rd.rademacher_tau_partials(n, params)
            assert got == [pytest.approx(float(w), rel=1e-14) for w in want], n
        for d, n in ((1, 1), (2, 3)):
            args = (1, False, 2 * pi_ * mp.sqrt(mp.mpf(d) / n), 4 * pi_ * mp.sqrt(d * n), 12, digits)
            want = _textbook_partials(-d, n, *args)
            got = rd.rd_partials(d, n, params)
            assert got == [pytest.approx(float(w), rel=1e-14) for w in want], (d, n)
            flipped = _textbook_partials(d, n, *args)
            assert got != [pytest.approx(float(w), rel=1e-12) for w in flipped], (d, n)


def test_tau_at_large_index():
    # J_11 arguments reach 4 pi sqrt(100) ~ 126, far past the unguarded series' range
    value = rd.rademacher_tau(100, RademacherParams(cmax=200))
    exact = qs.delta_series(101).coefficient(100)
    assert abs(value - exact) / abs(exact) < 1e-9


def test_rd_head_term():
    params = RademacherParams(cmax=1, precision_digits=30)
    for d, n in ((1, 1), (2, 3), (3, 2)):
        head = rd.rd_coefficient(d, n, params)
        expected = 2 * pi * sqrt(d / n) * _bessel("I", 1, 4 * pi * sqrt(d * n))
        assert head == pytest.approx(expected, rel=1e-9)
        # the head term is symmetric in (d, n) up to the sqrt(d/n) prefactor
        other = rd.rd_coefficient(n, d, params)
        assert head * n == pytest.approx(other * d, rel=1e-9)


def _principal_part_functions(dmax, nmax):
    # J_d = q^-d + O(q) for d <= dmax, exact through q^nmax: the polynomial in
    # J_1 = j - 744 whose polar part is q^-d and whose constant term is 0
    j1 = qs.j_series(nmax + dmax + 1) - 744
    funcs = {}
    for d in range(1, dmax + 1):
        f = j1**d
        for e in range(1, d):
            f = f - funcs[e] * f.coefficient(-e)
        funcs[d] = f - f.coefficient(0)
        assert [funcs[d].coefficient(e) for e in range(-d, 1)] == [1] + [0] * d
    return funcs


def test_rd_coefficient_is_the_coefficient_of_its_modular_function():
    # r_{d,n} is the q^n coefficient of J_d; at cmax 400 the worst of
    # d <= 3, n <= 5 is (1, 1), 3.8e-9 relative
    funcs = _principal_part_functions(3, 5)
    assert funcs[1].coefficient(1) == 196884 and funcs[2].coefficient(1) == 42987520
    params = RademacherParams(cmax=400)
    for d in (1, 2, 3):
        for n in range(1, 6):
            exact = int(funcs[d].coefficient(n))
            assert abs(rd.rd_coefficient(d, n, params) - exact) < 1e-8 * exact, (d, n)


def test_batched_pairs_equal_single_pair_sums():
    # one pass over c for several (m, n) gives each pair the same exact
    # partials as a pass of its own, for the J kind and for the I kind with
    # pairs that share |m| n (and so one Bessel value per c)
    params = RademacherParams(cmax=30, precision_digits=30)
    for k, pairs in ((12, [(1, 1), (1, 2), (1, 3), (2, 3)]),
                     (0, [(-1, 4), (-2, 2), (-4, 1), (-3, 5)])):
        batched = rd._poincare_partials(k, pairs, params)
        assert batched == [rd._poincare_partials(k, [pair], params)[0] for pair in pairs], k


def test_corrupted_shared_inverse_fails_the_batch(monkeypatch):
    # the units and inverses mod c are built once for every pair; a wrong
    # inverse breaks the d, -d pairing of each pair's residues
    table = rd._modulus

    def corrupted(c, digits):
        c_, units, inverses, cos_table, bits = table(c, digits)
        if c == 7:
            inverses = [inverses[0], inverses[2]] + inverses[2:]
        return c_, units, inverses, cos_table, bits

    monkeypatch.setattr(rd, "_modulus", corrupted)
    with pytest.raises(ArithmeticError, match=r"K\(-1,1;7\) is not real"):
        rd._poincare_partials(0, [(-1, 1), (-2, 3)], RademacherParams(cmax=10))


def test_kloosterman_bins_fold_exactly():
    # the folded dot product against the unfolded one, for every c <= 60:
    # count[0] cos 0 + 2 sum_{0 < r < c/2} count[r] cos(2 pi r/c) (+ the c/2 bin)
    for c in range(1, 61):
        modulus = rd._modulus(c, 30)
        _, units, inverses, cos_table, _ = modulus
        for m, n in ((1, 1), (-3, 4), (0, 0), (5, -2)):
            count = [0] * c
            for d, dbar in zip(units, inverses):
                count[(m * dbar + n * d) % c] += 1
            total = sum(k * cos_table[min(r, c - r)] for r, k in enumerate(count))
            assert rd._kloosterman_at(m, n, modulus) == total


def test_coefficient_past_the_double_range_raises_overflow():
    params = RademacherParams(cmax=2)
    with pytest.raises(OverflowError, match="exceeds the double range"):
        rd.rd_coefficient(1, 4000, params)
    with pytest.raises(OverflowError, match="exceeds the double range"):
        rd.rademacher_inv_delta(3800, params)


# --- the level-6 pair and its CM points ----------------------------------------


def test_g_expansion_leading_terms():
    g2 = g2_coefficients(10)
    assert g2[0] == 2  # q^-1 coefficient of 2G
    assert g2[1] == -20  # constant term of 2G
    assert g2[2] == -58


def test_eta_consistency_at_i():
    # |eta(i)|^24 from the euler product against |Delta(i)| from its q-series
    order = 80
    with mp.workdps(40):
        q = mp.exp(-2 * mp.pi)  # q at tau = i
        euler = qs.euler_product(order)
        eta = q ** (mp.mpf(1) / 24) * sum(
            int(euler.coefficient(k)) * q**k for k in range(order))
        delta = qs.delta_series(order)
        delta_val = sum(int(delta.coefficient(k)) * q**k for k in range(1, order))
        assert abs(abs(eta) ** 24 - abs(delta_val)) < 1e-25


def test_G_periodicity():
    tau = complex(0.31, 0.9)
    a = _G(tau, order=200, digits=30)
    b = _G(complex(tau.real + 1, tau.imag), order=200, digits=30)
    assert abs(a - b) < 1e-12 * max(1.0, abs(a))


def test_eval_G_rejects_lower_half_plane():
    with pytest.raises(ValueError):
        _G(complex(0.3, -1.0))


def test_eval_G_raises_when_order_too_small():
    with pytest.raises(PrecisionError):
        _G(complex(0.0, 0.05), order=40, digits=30)


def test_eval_G_tail_guard_uses_its_tolerance():
    # at |q| = 0.47 the sums run to the working precision, so the least
    # order that passes grows with the digits; one order less is refused,
    # and any larger order sums the same terms
    least = {}
    for digits in (20, 40):
        with mp.workdps(digits):
            ln_q = -2 * pi * 0.12
            least[digits] = 1 + max(k * rd._pentagonal_last(k * ln_q, mp.mp.prec)
                                    for k in (1, 2, 3, 6))
        with pytest.raises(PrecisionError, match=f"truncation order {least[digits] - 1} "):
            _G(0.12j, order=least[digits] - 1, digits=digits)
        with pytest.raises(PrecisionError):
            rd.eval_P_complex(0.12j, order=least[digits] - 1, precision_digits=digits)
        reference = _G(0.12j, order=None, digits=digits)
        assert _G(0.12j, order=least[digits], digits=digits) == reference
        assert _G(0.12j, order=10**6, digits=digits) == reference
    assert 50 < least[20] < least[40]
    with pytest.raises(PrecisionError):
        _G(0.12j, order=50, digits=40)
    # and the value it passes is the dense oracle's, which needs order ~400
    with mp.workdps(40):
        want = P_by_horner(0.12j, g2_coefficients(400), -35)
    got = value_mpc(rd.eval_P_complex(0.12j, order=least[40], precision_digits=40))
    assert abs(got - want) < 1e-30 * abs(want)


def test_pentagonal_sums_stop_at_their_stated_bound():
    # the kept exponents are the least whose tail bound is below 2^-prec,
    # the true weighted tail is below that bound, and the sums match the
    # products and derivatives they stand for, within their radii, at |q|
    # from 1e-300 to 0.95
    for qabs in (1e-300, 0.004, 0.08, 0.47, 0.86, 0.95):
        tau = complex(atan2(0.8, 0.6) / (2 * pi), -log(qabs) / (2 * pi))
        for digits in (15, 60, 300):
            with mp.workdps(digits):
                prec = mp.mp.prec
                ln_x = log(qabs)
                last = rd._pentagonal_last(ln_x, prec)
                exps = [0] + [e for e, _ in itertools.takewhile(
                    lambda t: t[0] <= 2 * last + 10, arith.pentagonal())]
                kept = [e for e in exps if e <= last]
                left = exps[len(kept)]
                assert rd._ln_tail_bound(left, ln_x) < -prec * log(2.0)
                assert last == 0 or rd._ln_tail_bound(last, ln_x) >= -prec * log(2.0)
            with mp.workdps(digits + 20):
                r = mp.mpf(qabs)
                tail = mp.nsum(lambda m: m * m * r**m, [left, mp.inf])
                assert tail < mp.mpf(2) ** -prec
                x = mp.expjpi(2 * mp.mpc(tau))
                product = mp.qp(x)  # prod (1 - x^n)
                log_derivative = mp.diff(lambda y: mp.log(mp.qp(y)), x) * x
            _, bits, sums = rd._cm_sums(tau, prec, (1,), 3)
            t0, t1, t2 = (rd._cm_value(t, -bits) for t in sums[1])
            assert t0.rad <= 1.25 * 2.0 ** -prec
            with mp.workdps(digits + 20):
                assert abs(value_mpc(t0) - product) <= dyadic_mpf(t0.rad), (qabs, digits)
            with mp.workdps(digits):
                t0, t1 = value_mpc(t0), value_mpc(t1)
                tolerance = 8 * mp.mpf(2) ** -prec
                assert abs(t0 - product) < tolerance * max(1, abs(product)), (qabs, digits)
                if qabs < 0.9:
                    assert abs(t1 / t0 - log_derivative) < mp.mpf(10) ** (5 - digits) * max(
                        1, abs(log_derivative)), (qabs, digits)


def test_pentagonal_sums_where_abs_q_underflows_a_float():
    # at a = 1 and D = -57003, |q| = exp(-pi sqrt(57003)) ~ 2e-326; the sums
    # keep their constant term only, and q keeps its value as m 2^-n
    tau = rd.cm_root(Form(1, 1, 14251))
    prec = rd._prec_of_digits(30)
    ln_q = -2 * pi * sqrt(tau.y2)
    assert ln_q == pytest.approx(-750.06, abs=0.01)
    assert rd._pentagonal_last(ln_q, prec) == 0
    q, bits, sums = rd._cm_sums(tau, prec, (1,), 3)
    assert [complex(rd._cm_value(t, -bits)) for t in sums[1]] == [1, 0, 0]
    m = complex(*q.m[:2]) / 2**bits
    assert log(abs(m)) - q.n * log(2) == pytest.approx(ln_q, rel=1e-12)
    with mp.workdps(40):
        want = mp.expjpi(2 * tau_mpc(tau))
        got = mp.mpc(dyadic_mpf(q.m[0], bits + q.n), dyadic_mpf(q.m[1], bits + q.n))
        assert abs(got - want) <= q.m[2] * mp.mpf(2) ** -(bits + q.n)


# --- the fixed-point CM kernel against the dense routes -------------------------

# the least order of the dense 2G expansion for a 10^-60 tail at every level-6
# point of n <= 60 (the worst, [1080, 1441, 481] at n = 60, has |q| = 0.90)
_G2_ORDER = 4500


def _dense_slack(coeffs, ln_q, wide):
    # the term-by-term loop's error: term m carries m roundings of 10^-wide
    return mp.mpf(10) ** -wide * sum(
        mp.exp(log(abs(m)) + abs(c).bit_length() * log(2.0) + m * ln_q)
        for m, c in enumerate(coeffs, start=-1) if c and m)


@st.composite
def _cm_points(draw):
    """(tau, form): a point of the fundamental domain as a complex number, or
    a level-6 point of n <= 60 with its form."""
    if draw(st.booleans()):
        x = draw(st.floats(-0.5, 0.5))
        return complex(x, draw(st.floats(sqrt(1 - x * x), 4.0))), None
    f = draw(st.sampled_from(rd.enumerate_QD(draw(st.integers(1, 60)))))
    return rd.cm_root(f), f


@settings(max_examples=40, deadline=None, derandomize=True)
@given(point=_cm_points(), digits=st.sampled_from((20, 40)))
@example(point=(rd.cm_root(Form(1, 1, 14251)), Form(1, 1, 14251)), digits=30)  # |q| ~ 2e-326
def test_cm_kernel_within_its_stated_bounds(point, digits):
    # q, T_0..T_2 at q, q^2, q^3, q^6, G, P and j against the dense routes run
    # 20 digits higher: each within its docstring's bound (the term-by-term
    # loop's own rounding aside), and each bound no looser than the
    # tolerance the values were held to before they carried one
    tau, form = point
    prec, wide = rd._prec_of_digits(digits), digits + 20
    ln_q = -2 * pi * complex(tau).imag
    q = rd._q_at(rd._point(tau), prec)
    with mp.workdps(wide):
        t = tau_mpc(tau)
        one_unit = mp.mpf(2) ** -prec
        got = mp.mpc(dyadic_mpf(q.m[0], prec + q.n), dyadic_mpf(q.m[1], prec + q.n))
        assert q.m[2] == 1 and abs(got - mp.expjpi(2 * t)) <= one_unit * mp.mpf(2) ** -q.n
        assert abs(dyadic_mpf(q.t[0], prec) - 2 * mp.pi * t.imag) <= one_unit

    _, bits, sums = rd._cm_sums(tau, prec, (1, 2, 3, 6), 3)
    for k in (1, 2, 3, 6):
        n = max(2, ceil((wide + 15) * log(10.0) / (-k * ln_q)))
        euler = [0] + qs.euler_product(n).coeffs
        t0, t1, t2 = (rd._cm_value(s, -bits) for s in sums[k])
        assert t0.rad <= 1.25 * 2.0 ** -prec
        with mp.workdps(wide):
            want0, want1 = q_expansion_sums_by_mpc(euler, k * tau_mpc(tau))
            want2 = q_expansion_sums_by_mpc([m * c for m, c in enumerate(euler, -1)],
                                            k * tau_mpc(tau))[1]
            slack = mp.mpf(10) ** (-digits - 10)
            for got, want in ((t0, want0), (t1, want1), (t2, want2)):
                assert abs(value_mpc(got) - want) <= dyadic_mpf(got.rad) + slack, (k, tau)

    g, _, qg, gbits = rd._g_and_dg(tau, None, prec)
    G = rd._cm_value(g, qg.n - gbits)
    P = rd.eval_P_complex(tau, None, digits)
    order = auto_order(ln_q, -wide, 6)
    assert order <= _G2_ORDER
    g2 = g2_coefficients(_G2_ORDER)[:order + 1]
    with mp.workdps(wide):
        sums2g = q_expansion_sums_by_mpc(g2, tau)
        dense = P_by_horner(tau, g2, -wide)
        slack = _dense_slack(g2, ln_q, wide)
        for got, want in ((G, sums2g[0] / 2), (P, dense)):
            assert abs(value_mpc(got) - want) <= dyadic_mpf(got.rad) + slack, tau
            assert dyadic_mpf(got.rad) <= mp.mpf(10) ** (10 - digits) * max(1, abs(want)), tau

    # j is SL2(Z)-invariant: at a level-6 point the oracle sums at the
    # reduced form's root, where |q| < 0.005
    j = rd._j_at(tau, prec)
    reduced = tau if form is None else rd.cm_root(reduce_form(form))
    ln_r = -2 * pi * complex(reduced).imag
    coeffs = j_coefficients(auto_order(ln_r, -wide, 1))
    with mp.workdps(wide):
        want = q_expansion_sum(coeffs, reduced, -wide)
        slack = _dense_slack(coeffs, ln_r, wide) + mp.mpf(10) ** -wide * abs(want)
        assert abs(value_mpc(j) - want) <= dyadic_mpf(j.rad) + slack, tau
        assert dyadic_mpf(j.rad) <= mp.mpf(10) ** (5 - digits) * max(1, abs(want)), tau


def test_horner_sum_matches_mpc_oracle_at_trace_points():
    # the dense oracle route checked against itself: at every CM point of
    # n = 8, 11, 30 with the order the level-6 growth model gives for a
    # 1e-14 tail at the lowest point, the Horner sums of 2G and of m times
    # its coefficients match the term-by-term loop run 20 digits higher,
    # because at the working digits its running power of q loses up to 10
    # digits at |q| = 0.86
    for n, least_order in ((8, 515), (11, 667), (30, 1550)):
        points = rd.enumerate_QD(n)
        ln_q = max(-pi * sqrt(24 * n - 1) / f.a for f in points)
        assert auto_order(ln_q, -14.0, 6) == least_order
        g2 = g2_coefficients(least_order)
        weighted = [m * c for m, c in enumerate(g2, start=-1)]
        digits = 30 + max(0, int(max(
            (abs(c).bit_length() * log(2.0) if c else 0.0) + m * ln_q
            for m, c in enumerate(g2, start=-1)) / log(10.0)) + 5)
        for f in points:
            tau = rd.cm_root(f)
            with mp.workdps(digits + 20):
                wants = q_expansion_sums_by_mpc(g2, tau)
            with mp.workdps(digits):
                gots = (q_expansion_sum(g2, tau), q_expansion_sum(weighted, tau))
            with mp.workdps(digits + 20):
                for got, want in zip(gots, wants):
                    assert abs(got - want) <= mp.mpf(10) ** (5 - digits) * abs(want), (n, tau)


def test_P_matches_the_dense_oracle_at_every_point(monkeypatch):
    # every CM point of every n <= 60, at the digits the trace picks: the
    # dense route runs at each point's own growth-model order for a tail
    # below 10^-(digits - 5), and the two agree to 10^(10 - digits) relative
    calls = []
    inner = rd.eval_P_complex

    def record(tau, order, precision_digits):
        value = inner(tau, order, precision_digits)
        calls.append((tau, precision_digits, value))
        return value

    monkeypatch.setattr(rd, "eval_P_complex", record)
    for n in range(1, 61):
        rd.trace_singular_moduli(n)
    assert len(calls) == sum(len(rd.enumerate_QD(n)) for n in range(1, 61))
    orders = [auto_order(-2 * pi * complex(tau).imag, 5 - digits, 6) for tau, digits, _ in calls]
    g2 = g2_coefficients(max(orders))
    for (tau, digits, got), order in zip(calls, orders):
        with mp.workdps(digits):
            want = P_by_horner(tau, g2[:order + 1], 5 - digits)
            assert abs(value_mpc(got) - want) <= mp.mpf(10) ** (10 - digits) * max(1, abs(want)), tau


def _criterion(n, ln_q, tail_log10, level):
    return 4 * pi * sqrt(n / level) + (n - 1) * ln_q + log(n) < tail_log10 * log(10.0)


def test_auto_order_is_least_and_passes_the_tail_check():
    # the oracle route's order is the least meeting its growth model, and
    # that model plus ln N slack must also satisfy the tail check on the true
    # coefficients: j at level 1, 2G at level 6, from tiny |q| up to the worst
    # n = 30 point
    grid = (0.002, 0.005, 0.02, 0.08, 0.2, 0.4, 0.6, 0.75, 0.86)
    tails = (-14, -60, -200, -310)
    orders = {(qabs, tail, level): auto_order(log(qabs), tail, level)
              for qabs in grid for tail in tails for level in (1, 6)}
    j_order, g2_order = (max(n for key, n in orders.items() if key[2] == level) for level in (1, 6))
    coeffs = {1: j_coefficients(j_order), 6: g2_coefficients(g2_order)}
    for (qabs, tail, level), n in orders.items():
        assert _criterion(n, log(qabs), tail, level), (qabs, tail, level, n)
        assert not _criterion(n - 1, log(qabs), tail, level), (qabs, tail, level, n)
        tau = mp.mpc(0, -log(qabs) / (2 * pi))
        q_expansion_sum(coeffs[level][:n + 1], tau, tail)


def test_auto_order_where_abs_q_underflows_a_float():
    # at a = 1 and D = -57003, |q| = exp(-pi sqrt(57003)) ~ 2e-326 is below
    # the least double; the oracle's order comes from ln|q| and is still the least
    ln_q = -pi * sqrt(57003)
    assert ln_q == pytest.approx(-750.06, abs=0.01)
    for level in (1, 6):
        assert auto_order(ln_q, -14.0, level) == 2
        assert _criterion(2, ln_q, -14.0, level) and not _criterion(1, ln_q, -14.0, level)


def test_enumerate_QD_n1_exact():
    points = rd.enumerate_QD(1)
    assert [tuple(f) for f in points] == [(6, 1, 1), (12, 13, 4), (18, 25, 9)]


def test_enumerate_QD_matches_window_search_oracle():
    # the windowed coprime-pair search finds the same least (a, b) per class
    for n in range(1, 61):
        D = 1 - 24 * n
        oracle = sorted(level_rep_by_window_search(f)
                        for f in enumerate_reduced(D, primitive_only=False))
        assert rd.enumerate_QD(n) == oracle, n


def test_enumerate_QD_matches_the_walk_over_b():
    # the square roots of D mod 4a visit the (a, b) the walk over every
    # b = 1 mod 12 visits, in the same order, so the lists are equal
    for n in [*range(1, 301), 1000, 2000]:
        assert rd.enumerate_QD(n) == level_reps_by_b_walk(n), n


def test_QD_forms_satisfy_congruences_and_root_equation():
    for n in (1, 2, 3, 4, 5):
        for f in rd.enumerate_QD(n):
            a, b, c = f
            assert a > 0 and a % 6 == 0 and b % 12 == 1
            assert b * b - 4 * a * c == 1 - 24 * n
            tau = complex(rd.cm_root(f))
            residual = abs(a * tau * tau + b * tau + c)
            assert residual < 1e-12 * a
            # exact height above the real axis
            assert tau.imag == pytest.approx(sqrt(24 * n - 1) / (2 * a), rel=1e-12)


def test_QD_count_matches_all_classes():
    # one representative per SL2(Z) class, imprimitive classes included
    for n in range(1, 121):
        D = 1 - 24 * n
        assert len(rd.enumerate_QD(n)) == len(enumerate_reduced(D, primitive_only=False)), n


def test_QD_representatives_pairwise_inequivalent():
    # distinct SL2 classes certify it; the bounded matrix search is the
    # desk-scale certificate run at n = 1 with the documented entry bound
    points = rd.enumerate_QD(1)
    reductions = {reduce_form(f) for f in points}
    assert len(reductions) == len(points)
    for i, f in enumerate(points):
        for g in points[i + 1:]:
            assert not gamma0_equivalent(f, g, bound=50)
    for n in (2, 3):
        pts = rd.enumerate_QD(n)
        assert len({reduce_form(f) for f in pts}) == len(pts)


def test_QD_scales_to_larger_index():
    points = rd.enumerate_QD(15)
    assert len(points) == class_number(1 - 24 * 15)
    for f in points:
        a, b, _ = f
        assert a % 6 == 0 and b % 12 == 1


def test_gamma0_equivalence_detects_translates():
    f = rd.enumerate_QD(1)[0]
    from classforms.quadforms import apply_sl2

    g = apply_sl2(f, ((1, 2), (0, 1)))
    assert gamma0_equivalent(f, g, bound=10)
    h = apply_sl2(f, ((1, 0), (6, 1)))
    assert gamma0_equivalent(f, h, bound=10)


def test_eval_P_real_at_ambiguous_point_complex_elsewhere():
    points = rd.enumerate_QD(1)
    # [6,1,1] is its own inverse class: P is real there
    value = complex(rd.eval_P_complex(rd.cm_root(points[0]), order=400, precision_digits=40))
    assert abs(value.imag) <= 1e-8 * max(1.0, abs(value.real))
    assert value.real == pytest.approx(13.965486281512451, rel=1e-9)
    # the other two points pair into conjugates and are individually complex
    v1 = rd.eval_P_complex(rd.cm_root(points[1]), order=400, precision_digits=40)
    v2 = rd.eval_P_complex(rd.cm_root(points[2]), order=400, precision_digits=40)
    assert abs(v1.imag) > 1.0
    assert complex(v1) == pytest.approx(complex(v2).conjugate(), rel=1e-9)


def test_cm_evaluators_default_to_their_own_tail_bound():
    # the lowest point of n = 30 has |q| = 0.856: a cap at q^400 cuts its sums
    # short, while the default lets each stop at its tail bound
    lowest = max(rd.enumerate_QD(30), key=lambda f: f.a)
    assert lowest == Form(540, 721, 241)
    tau = rd.cm_root(lowest)
    with pytest.raises(PrecisionError):
        rd.eval_P_complex(tau, order=400)
    assert rd.eval_P_complex(tau) == rd.eval_P_complex(tau, order=10**6)
    assert _G(tau) == _G(tau, order=10**6)


def test_trace_singular_moduli_small_n():
    p = qs.partition_numbers(5)
    for n in (1, 2, 3, 4, 5):
        target = (24 * n - 1) * p[n]
        assert abs(rd.trace_singular_moduli(n).value - target) < 1e-4


def test_trace_singular_moduli_scales_up():
    # thirteen classes, lowest point at a = 78
    assert abs(rd.trace_singular_moduli(8).value - 191 * 22) < 1e-4


def test_trace_converges_with_resolution():
    # residual shrinks as order and precision grow
    coarse = abs(rd.trace_singular_moduli(1, order=120, precision_digits=30).value - 23)
    fine = abs(rd.trace_singular_moduli(1, order=500, precision_digits=60).value - 23)
    assert fine <= coarse
    assert fine < 1e-8


def test_params_validation():
    with pytest.raises(ValueError):
        RademacherParams(cmax=0)
    with pytest.raises(ValueError):
        RademacherParams(cmax=10, precision_digits=5)
