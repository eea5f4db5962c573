import itertools
from math import prod

import pytest

from classforms import arith


def test_factorization_multiplies_back_to_n():
    for n in range(1, 2001):
        fact = arith.factorization(n)
        assert prod(p**e for p, e in fact) == n, n
        primes = [p for p, _ in fact]
        assert primes == sorted(set(primes)), n
        assert all(e >= 1 for _, e in fact), n
    with pytest.raises(ValueError):
        arith.factorization(0)


def test_helpers_match_brute_force():
    for n in range(1, 2001):
        divs = [d for d in range(1, n + 1) if n % d == 0]
        assert arith.divisors(n) == divs, n
        assert arith.is_prime(n) == (divs == [1, n]), n
        assert arith.prime_divisors(n) == [d for d in divs if arith.is_prime(d)], n
        assert arith.is_squarefree(n) == all(n % (d * d) for d in divs[1:]), n
        assert sorted(arith.divisors_from_factorization(arith.factorization(n))) == divs, n
    assert not any(arith.is_prime(n) for n in (-7, -1, 0, 1))


def test_pentagonal_lists_the_generalized_pentagonal_numbers_in_order():
    got = list(itertools.islice(arith.pentagonal(), 400))
    js = sorted((j for j in range(-200, 201) if j), key=lambda j: j * (3 * j - 1))
    assert got == [(j * (3 * j - 1) // 2, (-1) ** (j % 2)) for j in js]
    exponents = [e for e, _ in got]
    assert exponents == sorted(set(exponents)) and exponents[0] == 1
