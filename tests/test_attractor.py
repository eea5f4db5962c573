import hashlib
import math
import random
from fractions import Fraction
from math import pi, sqrt

import mpmath as mp
import pytest

from classforms import attractor as at
from classforms import cli
from classforms import quadforms as qf
from classforms import rademacher as rd
from classforms.attractor import Matrix2x2
from classforms.quadforms import Form

from conftest import (auto_order, j_coefficients, q_expansion_sum, q_expansion_sums_by_mpc,
                      value_mpc)


def test_discriminant_of_charges_examples():
    assert at.discriminant_of_charges((1, 0, 5)) == -20
    assert at.discriminant_of_charges((5, 2, 5)) == -84
    assert at.discriminant_of_charges((1, 0, 1)) == -4


def test_entropy_examples():
    assert at.entropy(-4) == pytest.approx(2 * pi)
    assert at.entropy(-20) == pytest.approx(pi * sqrt(20))
    assert at.entropy(-84) == pytest.approx(pi * sqrt(84))
    with pytest.raises(ValueError):
        at.entropy(4)


def test_form_from_charges_examples():
    assert at.form_from_charges((2, 1, 3)) == Form(2, -2, 3)
    assert qf.reduce(at.form_from_charges((2, 1, 3))) == Form(2, 2, 3)
    assert at.form_from_charges((2, 1, 11)) == Form(2, -2, 11)
    assert at.form_from_charges((1, 0, 21)) == Form(1, 0, 21)
    with pytest.raises(ValueError):
        at.form_from_charges((1, 3, 1))


def test_classify_black_holes_examples():
    assert [tuple(c) for c in at.classify_black_holes(-20)] == [(1, 0, 5), (2, -1, 3)]
    assert [tuple(c) for c in at.classify_black_holes(-84)] == [
        (1, 0, 21), (2, -1, 11), (3, 0, 7), (5, -2, 5)]
    assert [tuple(c) for c in at.classify_black_holes(-4)] == [(1, 0, 1)]
    with pytest.raises(ValueError):
        at.classify_black_holes(-23)


def test_classify_matches_printed_examples_up_to_pq_sign():
    for D in (-20, -84):
        printed = {(c.p2, abs(c.pq), c.q2) for c in at.example_invariants(D)}
        computed = {(c.p2, abs(c.pq), c.q2) for c in at.classify_black_holes(D)}
        assert printed == computed


def test_classify_round_trip():
    for D in (-20, -84, -4, -40, -400):
        for ci in at.classify_black_holes(D):
            assert at.discriminant_of_charges(ci) == D
            f = qf.reduce(at.form_from_charges(ci))
            assert f in qf.enumerate_reduced(D)


def test_printed_vector_invariants_exact():
    p1, q1 = at.EXAMPLE_VECTORS[-20][0]
    p2, q2 = at.EXAMPLE_VECTORS[-20][1]
    assert at.inner(p1, p1) == 1
    assert at.inner(p1, q1) == 0
    assert at.inner(q1, q1) == 5
    assert at.inner(p2, p2) == 2
    assert at.inner(p2, q2) == 1
    assert at.inner(q2, q2) == 3
    expected = [(1, 0, 21), (3, 0, 7), (2, 1, 11), (5, 2, 5)]
    for (p, q), (pp, pq, qq) in zip(at.EXAMPLE_VECTORS[-84], expected):
        assert at.inner(p, p) == pp
        assert at.inner(p, q) == pq
        assert at.inner(q, q) == qq
    # exactness: the results are Fractions with denominator 1
    assert isinstance(at.inner(p1, q1), Fraction)


def test_metric_is_symmetric_involution():
    L = at.metric_L()
    assert all(L[i][j] == L[j][i] for i in range(12) for j in range(12))
    sq = [[sum(L[i][k] * L[k][j] for k in range(12)) for j in range(12)]
          for i in range(12)]
    assert sq == [[1 if i == j else 0 for j in range(12)] for i in range(12)]


def test_example_sl2_element():
    m = at.example_sl2_element()
    assert m.det() == pytest.approx(1.0, abs=1e-12)
    sq = m @ m
    assert sq.a == pytest.approx(-1, abs=1e-12)
    assert sq.d == pytest.approx(-1, abs=1e-12)
    assert abs(sq.b) < 1e-12 and abs(sq.c) < 1e-12
    out = at.sl2_transform_invariants((1, 0, 5), m)
    assert out[0] == pytest.approx(2, abs=1e-9)
    assert out[1] == pytest.approx(1, abs=1e-9)
    assert out[2] == pytest.approx(3, abs=1e-9)


def test_sl2_identity_fixes_invariants():
    m = Matrix2x2(1.0, 0.0, 0.0, 1.0)
    assert at.sl2_transform_invariants((3, 1, 7), m) == (3, 1, 7)
    with pytest.raises(ValueError):
        at.sl2_transform_invariants((1, 0, 5), Matrix2x2(2.0, 0.0, 0.0, 1.0))


def test_sl2_preserves_discriminant_randomly():
    # unimodular matrices built from shear products, so det = 1 to rounding
    rng = random.Random(7)
    ci = (2, 1, 11)
    d0 = at.discriminant_of_charges(ci)
    for _ in range(10**4):
        m = Matrix2x2(1.0, rng.uniform(-3, 3), 0.0, 1.0)
        m = m @ Matrix2x2(1.0, 0.0, rng.uniform(-3, 3), 1.0)
        m = m @ Matrix2x2(1.0, rng.uniform(-3, 3), 0.0, 1.0)
        p2, pq, q2 = at.sl2_transform_invariants(ci, m, det_tol=1e-9)
        d1 = 4 * (pq * pq - p2 * q2)
        assert abs(d1 - d0) < 1e-9 * abs(d0)


def test_canonical_sl2_element():
    m = at.canonical_sl2_element(3, -84)
    out = at.sl2_transform_invariants((1, 0, 21), m)
    assert out[0] == pytest.approx(3, abs=1e-12)
    assert out[1] == pytest.approx(0, abs=1e-12)
    assert out[2] == pytest.approx(7, abs=1e-12)
    m1 = at.canonical_sl2_element(1, -4)
    assert at.sl2_transform_invariants((1, 0, 1), m1) == pytest.approx((1, 0, 1))


def test_canonical_sl2_squares_to_minus_identity():
    for D in range(-400, 0):
        if D % 4 != 0:
            continue
        for a in range(1, 21):
            if D % (4 * a) != 0:
                continue
            m = at.canonical_sl2_element(a, D)
            sq = m @ m
            assert abs(sq.a + 1) < 1e-12 and abs(sq.d + 1) < 1e-12
            assert abs(sq.b) < 1e-12 and abs(sq.c) < 1e-12


def test_omega_residuals_identity_case():
    p1, q1 = at.EXAMPLE_VECTORS[-20][0]
    eye = [[1 if i == j else 0 for j in range(12)] for i in range(12)]
    res = at.omega_constraint_residuals(
        eye, Matrix2x2(1.0, 0.0, 0.0, 1.0), p1, q1, p1, q1)
    assert all(v < 1e-12 for v in res.values())


def test_attractor_tau_examples():
    assert at.attractor_tau((1, 0, 1)) == pytest.approx(1j)
    assert at.attractor_tau((1, 0, 5)) == pytest.approx(sqrt(5) * 1j)
    assert at.attractor_tau((2, 2, 3)) == pytest.approx((-1 + 1j * sqrt(5)) / 2)


def test_hilbert_class_polynomial_small():
    assert at.hilbert_class_polynomial(-4) == [-1728, 1]
    assert at.hilbert_class_polynomial(-3) == [0, 1]
    assert at.hilbert_class_polynomial(-163) == [262537412640768000, 1]
    quad = at.hilbert_class_polynomial(-20)
    assert len(quad) == 3 and quad[-1] == 1
    assert quad == [-681472000, -1264000, 1]


def _icbrt(n: int) -> int:
    """floor of the real cube root of n >= 0."""
    r = 1 << -(-n.bit_length() // 3)
    while True:
        s = (2 * r + n // (r * r)) // 3
        if s >= r:
            break
        r = s
    while r**3 > n:
        r -= 1
    return r


# SHA-256 of the lines "D c_0 ... c_h" over every fundamental |D| < 800,
# recorded from the term-by-term mpc sums before the fixed-point Horner sum
_HILBERT_BELOW_800_SHA256 = "fc9333241f6186b78323a2130c94904c7a658380de7cf96bbe47b3c60b11cd3d"


def test_hilbert_degree_matches_class_number():
    # every fundamental |D| < 800 (245 of them, up to h = 32 and a constant
    # term of 230 digits at D = -791); D = -143 and -479 failed under the old
    # fixed digit budget
    lines = []
    for D in range(-799, -2):
        if D % 4 in (0, 1) and qf.is_fundamental(D):
            coeffs = at.hilbert_class_polynomial(D)
            assert len(coeffs) - 1 == qf.class_number(D), D
            if D % 3:
                # j = gamma_2^3 with gamma_2 in Q(j) when 3 does not divide D,
                # so H_D(0) = +-N(j) is a cube: one wrong digit breaks it
                c0 = abs(coeffs[0])
                assert _icbrt(c0) ** 3 == c0, D
            lines.append(f"{D} " + " ".join(map(str, coeffs)))
    assert len(lines) == 245
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == _HILBERT_BELOW_800_SHA256


def _dense_route(D):
    """The digits hilbert_class_polynomial works at, the dense oracle's order
    for a tail below 10^-digits at the largest |q|, and the roots' taus."""
    forms = qf.enumerate_reduced(D)
    digits = 15 + math.ceil(sum(pi * sqrt(-D) / (f.a * math.log(10)) for f in forms)
                            + len(forms) * math.log10(2)) + at._EXTRA_DIGITS
    order = auto_order(-pi * sqrt(-D) / forms[-1].a, -digits, 1)
    return digits, order, [rd.cm_root(f) for f in forms]


def test_horner_sum_matches_mpc_oracle_at_hilbert_roots():
    # the dense oracle route checked against itself: every root of D = -479
    # and -1055 at the order and digits it used for the class polynomial,
    # against the term-by-term loop 20 digits higher
    for D in (-479, -1055):
        digits, order, taus = _dense_route(D)
        coeffs = j_coefficients(order)
        for tau in taus:
            with mp.workdps(digits):
                got = q_expansion_sum(coeffs, tau, -digits)
            with mp.workdps(digits + 20):
                want, _ = q_expansion_sums_by_mpc(coeffs, tau)
                assert abs(got - want) <= mp.mpf(10) ** (5 - digits) * abs(want), (D, tau)


def test_j_matches_the_dense_oracle_at_every_root():
    # the eta quotient against the dense q-expansion of j at every root of
    # -479, -1055 and -20011, at the class polynomial's digits, to within
    # 10^(5 - digits) relative
    for D in (-479, -1055, -20011):
        digits, order, taus = _dense_route(D)
        coeffs = j_coefficients(order)
        with mp.workdps(digits):
            for tau in taus:
                got = value_mpc(rd._j_at(tau, mp.mp.prec))
                want = q_expansion_sum(coeffs, tau, -digits)
                assert abs(got - want) <= mp.mpf(10) ** (5 - digits) * abs(want), (D, tau)


def test_hilbert_linear_for_class_number_one():
    for D in (-3, -4, -7, -8, -11, -19, -43, -67, -163):
        coeffs = at.hilbert_class_polynomial(D)
        assert len(coeffs) == 2
        assert coeffs[1] == 1


def test_hilbert_rejects_non_fundamental():
    with pytest.raises(ValueError):
        at.hilbert_class_polynomial(-12)


def test_hilbert_refuses_a_rounding_residual_with_exit_3(monkeypatch, capsys):
    # at 159 digits, 40 below the budget, every root still passes its own
    # tail check, but the expanded coefficients round no closer than 0.37 to
    # integers: the command reports the residual and prints no polynomial
    monkeypatch.setattr(at, "_EXTRA_DIGITS", -30)
    assert cli.main(["bh", "hilbert", "-479"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("precision exhausted: class polynomial rounding residual ")
    assert captured.err.endswith(" at 159 digits\n")


def test_hilbert_checks_each_root_tail(monkeypatch):
    # a root summed too short is refused, not rounded: with the pentagonal
    # sums capped at q^20 the largest |q| of -479 cannot reach its bound
    from classforms.rademacher import PrecisionError

    inner = rd._cm_sums
    monkeypatch.setattr(rd, "_cm_sums",
                        lambda tau, prec, ks, weights, order=None: inner(tau, prec, ks, weights, 20))
    with pytest.raises(PrecisionError, match="truncation order 20 "):
        at.hilbert_class_polynomial(-479)
