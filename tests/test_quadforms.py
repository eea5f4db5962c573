import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from classforms import quadforms as qf
from classforms.quadforms import Form

from conftest import class_count_by_orbit_closure, random_sl2, reduced_forms_by_b_scan


def test_discriminant_examples():
    assert qf.discriminant((1, 0, 1)) == -4
    assert qf.discriminant((1, 1, 6)) == -23
    assert qf.discriminant((5, 4, 5)) == -84


def test_is_fundamental_examples():
    assert qf.is_fundamental(-20)
    assert not qf.is_fundamental(-12)
    assert qf.is_fundamental(-3)
    assert qf.is_fundamental(-4)
    assert not qf.is_fundamental(-16)
    with pytest.raises(ValueError):
        qf.is_fundamental(5)


def test_is_reduced_examples():
    assert qf.is_reduced((1, 0, 5))
    assert not qf.is_reduced((2, -2, 3))
    assert qf.is_reduced((5, 4, 5))
    with pytest.raises(ValueError):
        qf.is_reduced((1, 0, -1))


def test_reduce_examples():
    assert qf.reduce((2, -2, 3)) == Form(2, 2, 3)
    assert qf.reduce((1, 0, 1)) == Form(1, 0, 1)
    assert qf.reduce((5, -4, 5)) == Form(5, 4, 5)


posdef_forms = st.tuples(
    st.integers(1, 10**4), st.integers(-(10**4), 10**4), st.integers(1, 10**4)
).filter(lambda f: f[1] * f[1] - 4 * f[0] * f[2] < 0)


@settings(max_examples=300, deadline=None)
@given(posdef_forms)
def test_reduce_preserves_discriminant_and_is_idempotent(f):
    r = qf.reduce(f)
    assert r.discriminant() == qf.discriminant(f)
    assert qf.is_reduced(r)
    assert qf.reduce(r) == r


def test_enumerate_reduced_examples():
    assert [tuple(f) for f in qf.enumerate_reduced(-4)] == [(1, 0, 1)]
    assert [tuple(f) for f in qf.enumerate_reduced(-84)] == [
        (1, 0, 21), (2, 2, 11), (3, 0, 7), (5, 4, 5)]
    assert [tuple(f) for f in qf.enumerate_reduced(-23)] == [
        (1, 1, 6), (2, -1, 3), (2, 1, 3)]
    with pytest.raises(ValueError):
        qf.enumerate_reduced(-2)
    # listed by (a, b, c) with no sort: increasing a, then b, and (a, b) fix c
    for D in range(-3, -3000, -1):
        if D % 4 in (0, 1):
            for primitive_only in (True, False):
                forms = [tuple(f) for f in qf.enumerate_reduced(D, primitive_only)]
                assert forms == sorted(forms), D


def test_enumeration_equals_the_b_scan_oracle():
    # every form, primitive or not, and the primitive ones among them, for
    # every discriminant down to -20000
    for D in range(-3, -20000, -1):
        if D % 4 in (0, 1):
            every = reduced_forms_by_b_scan(D, primitive_only=False)
            assert qf.enumerate_reduced(D, primitive_only=False) == every, D
            assert qf.enumerate_reduced(D) == [f for f in every if f.is_primitive()], D


@pytest.mark.parametrize("D", [
    -3234846615,  # 3*5*7*11*13*17*19*23*29: eight factors of 2 in the group
    -(2**31),  # the roots mod 2^(k+2) at every k, imprimitive forms at every power of 2
])
def test_enumeration_past_1e9_equals_the_b_scan_at_sampled_a(D, rng):
    amax = math.isqrt(-D // 3)
    picked = (set(range(1, 200)) | {2**k for k in range(amax.bit_length())}
              | {5 * 3**k for k in range(9)} | set(rng.sample(range(200, amax + 1), 40)) | {amax})
    sample = sorted(a for a in picked if a <= amax)
    for primitive_only in (True, False):
        forms = qf.enumerate_reduced(D, primitive_only)
        assert forms == sorted(set(forms))
        assert all(f.discriminant() == D and qf.is_reduced(f) for f in forms)
        listed = set(sample)
        got = [f for f in forms if f.a in listed]
        assert got == reduced_forms_by_b_scan(D, primitive_only, sample), primitive_only


def test_enumerate_reduced_one_per_class(rng):
    for D in (-23, -84, -47, -163, -55):
        for f in qf.enumerate_reduced(D):
            for _ in range(8):
                g = qf.apply_sl2(f, random_sl2(rng))
                assert qf.reduce(g) == f


def test_reduced_forms_satisfy_termination_bound():
    for D in range(-400, 0):
        if D % 4 in (0, 1):
            for f in qf.enumerate_reduced(D):
                assert 3 * f.a * f.a <= -D


def test_class_number_examples():
    assert qf.class_number(-4) == 1
    assert qf.class_number(-84) == 4
    assert qf.class_number(-163) == 1


def test_class_number_against_orbit_closure_partition():
    for D in range(-500, 0):
        if D % 4 in (0, 1):
            assert class_count_by_orbit_closure(D) == qf.class_number(D), D


def test_stabilizer_weight_examples():
    assert qf.stabilizer_weight((1, 1, 1)) == Fraction(1, 3)
    assert qf.stabilizer_weight((1, 0, 1)) == Fraction(1, 2)
    assert qf.stabilizer_weight((1, 0, 2)) == 1
    assert qf.stabilizer_weight((2, 0, 2)) == Fraction(1, 2)


def test_hurwitz_examples():
    assert qf.hurwitz(0) == Fraction(-1, 12)
    assert qf.hurwitz(-3) == Fraction(1, 3)
    assert qf.hurwitz(-4) == Fraction(1, 2)
    assert qf.hurwitz(-20) == 2
    assert qf.hurwitz(5) == 0
    assert qf.hurwitz(-7) == 1
    assert qf.hurwitz(-2) == 0
    assert qf.hurwitz(-27) == Fraction(4, 3)


def test_hurwitz_denominator_divides_twelve():
    for n in range(-400, 1):
        h = qf.hurwitz(n)
        assert (12 * h).denominator == 1
        assert h.denominator in (1, 2, 3, 4, 6, 12)


def test_hurwitz_equals_weighted_direct_count():
    # independent route: count every reduced form, weighting the two stabilizer shapes
    for n in range(-300, 0):
        if n % 4 not in (0, 1):
            assert qf.hurwitz(n) == 0
            continue
        total = Fraction(0)
        for f in qf.enumerate_reduced(n, primitive_only=False):
            total += qf.stabilizer_weight(f)
        assert qf.hurwitz(n) == total, n


def test_kronecker_class_number():
    assert qf.kronecker_class_number(-3) == 1
    assert qf.kronecker_class_number(-4) == 1
    assert qf.kronecker_class_number(-12) == 2
    assert qf.kronecker_class_number(-20) == 2
    assert qf.kronecker_class_number(-2) == 0
    # agrees with the weighted sum away from the -3/-4 towers
    for n in (-20, -24, -40, -47, -84, -163):
        assert qf.kronecker_class_number(n) == qf.hurwitz(n)


def test_apply_sl2_needs_unimodular():
    with pytest.raises(ValueError):
        qf.apply_sl2((1, 0, 1), ((1, 1), (1, 1)))


def test_kronecker_class_number_equals_unweighted_direct_count():
    # independent route: every reduced form counts 1, primitive or not
    for n in range(-400, 0):
        if n % 4 not in (0, 1):
            assert qf.kronecker_class_number(n) == 0
            continue
        direct = len(qf.enumerate_reduced(n, primitive_only=False))
        assert qf.kronecker_class_number(n) == direct, n
