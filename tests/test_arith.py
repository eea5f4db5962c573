import itertools
from math import prod

import pytest
from hypothesis import example, given, settings, strategies as st

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
    spf = arith.smallest_prime_factors(2000)
    assert spf[:2] == [0, 1]
    assert all(spf[n] == arith.factorization(n)[0][0] for n in range(2, 2001))
    assert not any(arith.is_prime(n) for n in (-7, -1, 0, 1))


def test_pentagonal_lists_the_generalized_pentagonal_numbers_in_order():
    got = list(itertools.islice(arith.pentagonal(), 400))
    js = sorted((j for j in range(-200, 201) if j), key=lambda j: j * (3 * j - 1))
    assert got == [(j * (3 * j - 1) // 2, (-1) ** (j % 2)) for j in js]
    exponents = [e for e, _ in got]
    assert exponents == sorted(set(exponents)) and exponents[0] == 1


moduli = st.one_of(st.integers(1, 2000), st.sampled_from([2**k for k in range(11)]))


@settings(max_examples=600, deadline=None)
@given(moduli, st.integers(-(10**6), 10**6), st.integers(0, 4))
@example(1024, 0, 0)
@example(2000, -3, 0)
@example(1681, -1, 0)  # 41^2: Hensel lifting from Tonelli-Shanks at p = 1 (mod 8)
@example(1536, -7, 3)  # 2^9 * 3 with n = -7 * 27
@example(1800, -1, 4)  # n = -16: an even valuation at 2 below the exponent
def test_sqrt_mod_is_the_brute_force_solution_set(m, n, share):
    # share > 0 multiplies n by a power of m's smallest prime, so the
    # modulus and n share a prime
    if share and m > 1:
        n *= arith.factorization(m)[0][0] ** share
    assert arith.sqrt_mod(n, m) == [x for x in range(m) if (x * x - n) % m == 0]
