import numpy as np
import pytest
from conftest import fundamental_mask_by_residues, reduced_form_counts_strided

from classforms import arith
from classforms import classgroup as cg
from classforms import quadforms as qf
from classforms import tables


def test_class_number_table_matches_pointwise():
    h = tables.class_number_table(600)
    for n in range(1, 601):
        expected = qf.class_number(-n) if n % 4 in (0, 3) else 0
        assert int(h[n]) == expected, n


def test_reduced_form_counts_match_full_enumeration():
    counts = tables.reduced_form_counts(400)
    for n in range(1, 401):
        if n % 4 in (0, 3):
            expected = len(qf.enumerate_reduced(-n, primitive_only=False))
        else:
            expected = 0
        assert int(counts[n]) == expected, n


def test_reduced_form_counts_match_strided_sweep_at_every_small_limit():
    # a count at n does not depend on the limit, so one oracle sweep serves every
    # prefix; each limit ends the period-a blocks at a different row and column
    want = reduced_form_counts_strided(2500)
    for limit in range(0, 2501):
        got = tables.reduced_form_counts.__wrapped__(limit)
        assert got.dtype == np.int64 and len(got) == limit + 1, limit
        assert np.array_equal(got, want[: limit + 1]), limit


@pytest.mark.parametrize("limit", [10**5, 10**5 + 1, 10**5 + 2, 10**5 + 3, 120000, 1003999])
def test_reduced_form_counts_match_strided_sweep_at_large_limits(limit):
    got = tables.reduced_form_counts.__wrapped__(limit)
    assert got.dtype == np.int64
    assert np.array_equal(got, reduced_form_counts_strided(limit))


def test_reduced_form_counts_refuse_limits_past_int32():
    # the limit is checked before any array is allocated
    with pytest.raises(ValueError, match="int32"):
        tables.reduced_form_counts.__wrapped__(6 * 10**9 + 1)


def test_fundamental_mask_matches_pointwise():
    mask = tables.fundamental_mask(5000)
    assert len(mask) == 5001 and not mask[:3].any()
    for n in range(3, 5001):
        if n % 4 in (0, 3):
            assert bool(mask[n]) == qf.is_fundamental(-n), n
        else:
            assert not mask[n]


@pytest.mark.parametrize("limit", list(range(0, 40)) + [10**6])
def test_fundamental_mask_matches_residue_route(limit):
    got = tables.fundamental_mask.__wrapped__(limit)
    assert np.array_equal(got, fundamental_mask_by_residues(limit, tables.squarefree_mask(limit)))


def test_squarefree_and_omega():
    sf = tables.squarefree_mask(200)
    assert bool(sf[1]) and bool(sf[6]) and not bool(sf[12]) and not bool(sf[49])
    om = tables.omega_table(200)
    assert int(om[1]) == 0 and int(om[12]) == 2 and int(om[30]) == 3 and int(om[128]) == 1


def test_spf_and_divisors():
    spf = tables.spf_table(500)
    assert tables.factorize(360, spf) == [(2, 3), (3, 2), (5, 1)]
    divs = sorted(tables.divisors_from_factorization([(2, 2), (3, 1)]))
    assert divs == [1, 2, 3, 4, 6, 12]


def test_ambiguous_counts_match_two_torsion():
    amb = tables.ambiguous_class_counts(2000)
    for n in range(3, 2001):
        if n % 4 in (0, 3) and qf.is_fundamental(-n):
            assert int(amb[n]) == cg.two_torsion_order(-n), n


def test_ambiguous_counts_match_self_inverse_reduced_forms_nonfundamental():
    amb = tables.ambiguous_class_counts(800)
    for n in range(3, 801):
        if n % 4 not in (0, 3):
            continue
        direct = sum(
            1 for f in qf.enumerate_reduced(-n)
            if f.b == 0 or f.b == f.a or f.a == f.c
        )
        assert int(amb[n]) == direct, n


def _check_arithmetic_tables(limit):
    spf = tables.spf_table(limit)
    omega = tables.omega_table(limit)
    mu = tables._mobius_upto(limit)
    sf = tables.squarefree_mask(limit)
    assert len(spf) == len(omega) == len(mu) == len(sf) == limit + 1
    assert int(spf[0]) == 0 and int(omega[0]) == 0 and not sf[0]
    for n in range(1, limit + 1):
        fact = arith.factorization(n)
        squarefree = all(e == 1 for _, e in fact)
        assert int(spf[n]) == (fact[0][0] if fact else 1), n
        assert int(omega[n]) == len(fact), n
        assert int(mu[n]) == ((-1) ** len(fact) if squarefree else 0), n
        assert bool(sf[n]) == squarefree, n
    primes = [n for n in range(2, limit + 1) if arith.is_prime(n)]
    assert tables.primes_upto(limit).tolist() == primes


def test_arithmetic_tables_match_factorization_full_range():
    _check_arithmetic_tables(5000)


@pytest.mark.parametrize("limit", [0, 1, 2, 3, 4, 48, 49, 120, 121, 168, 169])
def test_arithmetic_tables_at_small_and_prime_square_limits(limit):
    # at p^2 the sieve bound sqrt(limit) is exactly p
    _check_arithmetic_tables(limit)
