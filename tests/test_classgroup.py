import itertools
import math

import pytest
from hypothesis import example, given, settings, strategies as st

from classforms import classgroup as cg
from classforms import cli
from classforms import quadforms as qf
from classforms import tables
from classforms.quadforms import Form

from conftest import (ideal_product_form, ng_count_by_structure, random_sl2, represents,
                      table_orders)


def valid_discs(bound):
    return [D for D in range(-bound, 0) if D % 4 in (0, 1)]


def fundamental_discs(bound):
    return [D for D in valid_discs(bound) if qf.is_fundamental(D)]


def test_identity_examples():
    assert cg.identity(-20) == Form(1, 0, 5)
    assert cg.identity(-23) == Form(1, 1, 6)
    assert cg.identity(-4) == Form(1, 0, 1)


def test_inverse_examples():
    assert cg.inverse((2, 2, 11)) == Form(2, 2, 11)
    assert cg.inverse((2, 1, 3)) == Form(2, -1, 3)
    assert cg.inverse((1, 0, 5)) == Form(1, 0, 5)


def test_compose_examples():
    assert cg.compose((2, 2, 3), (2, 2, 3)) == Form(1, 0, 5)
    assert cg.compose((1, 0, 21), (5, 4, 5)) == Form(5, 4, 5)
    assert cg.compose((2, 1, 3), (2, 1, 3)) == Form(2, -1, 3)


def test_compose_errors():
    with pytest.raises(ValueError):
        cg.compose((1, 0, 1), (1, 0, 5))
    with pytest.raises(ValueError):
        cg.compose((2, 2, 4), (2, 2, 4))  # imprimitive, disc -28


def test_compose_well_defined_on_classes(rng):
    for D in (-23, -84, -47, -56):
        forms = qf.enumerate_reduced(D)
        for f in forms:
            for g in forms:
                base = cg.compose(f, g)
                for _ in range(3):
                    f2 = qf.apply_sl2(f, random_sl2(rng))
                    g2 = qf.apply_sl2(g, random_sl2(rng))
                    assert cg.compose(f2, g2) == base


def test_compose_agrees_with_ideal_product_oracle():
    for D in (-20, -23, -84, -47, -71, -103, -15, -24):
        forms = qf.enumerate_reduced(D)
        for f in forms:
            for g in forms:
                assert ideal_product_form(f, g) == cg.compose(f, g)


def test_compose_agrees_with_ideal_oracle_exhaustive_range():
    # every full multiplication table for every fundamental |D| <= 300
    for D in fundamental_discs(300):
        forms = qf.enumerate_reduced(D)
        for f in forms:
            for g in forms:
                assert ideal_product_form(f, g) == cg.compose(f, g), (D, f, g)


def test_composite_represents_products_of_values(rng):
    # the defining property of composition: values multiply
    for D in (-23, -84, -47):
        forms = qf.enumerate_reduced(D)
        for f in forms:
            for g in forms:
                h = cg.compose(f, g)
                for _ in range(3):
                    x1, y1 = rng.randint(-3, 3), rng.randint(-3, 3)
                    x2, y2 = rng.randint(-3, 3), rng.randint(-3, 3)
                    value = Form(*f)(x1, y1) * Form(*g)(x2, y2)
                    if value == 0:
                        continue
                    assert represents(h, value), (D, f, g, value)


def test_group_laws_up_to_2000(rng):
    for D in valid_discs(2000):
        e = cg.identity(D)
        forms = qf.enumerate_reduced(D)
        for f in forms:
            assert cg.compose(f, cg.inverse(f)) == qf.reduce(e)
            assert cg.compose(qf.reduce(e), f) == f
        if len(forms) > 1 and D % 97 in (0, 1):  # spot-check the heavier laws
            for _ in range(4):
                f, g, h = (forms[rng.randrange(len(forms))] for _ in range(3))
                assert cg.compose(f, g) == cg.compose(g, f)
                assert cg.compose(cg.compose(f, g), h) == cg.compose(f, cg.compose(g, h))


def test_element_order_examples():
    assert cg.element_order((1, 0, 21)) == 1
    assert cg.element_order((2, 2, 11)) == 2
    assert cg.element_order((2, 1, 3)) == 3
    # C(-3299) is Z/3 x Z/9, so orders 3 and 9 both occur below h = 27
    assert cg.element_order((3, 1, 275)) == 9
    assert cg.element_order((11, -1, 75)) == 3


def test_lagrange_up_to_5000():
    for D in fundamental_discs(5000):
        h = qf.class_number(D)
        for f in qf.enumerate_reduced(D):
            assert h % cg.element_order(f) == 0


def test_group_structure_examples():
    assert cg.group_structure(-84).elementary_divisors == (2, 2)
    assert cg.group_structure(-4).elementary_divisors == ()
    assert cg.group_structure(-23).elementary_divisors == (3,)
    assert cg.group_structure(-47).elementary_divisors == (5,)
    # the classical first discriminant of 3-rank two
    assert cg.group_structure(-3299).elementary_divisors == (3, 9)


def test_structure_matches_table_oracle():
    # every fundamental |D| <= 3000, the 3-rank-two D = -3299, and every
    # discriminant with |D| <= 500, fundamental or not
    discs = set(fundamental_discs(3000)) | {-3299} | set(valid_discs(500))
    for D in sorted(discs):
        orders = table_orders(D)
        reps = qf.enumerate_reduced(D)
        assert [cg.element_order(f) for f in reps] == orders, D
        divs = cg.group_structure(D).elementary_divisors
        h = len(reps)
        assert math.prod(divs) == h and all(d > 1 for d in divs), D
        assert all(d2 % d1 == 0 for d1, d2 in zip(divs, divs[1:])), D
        # the m-torsion counts prod gcd(m, d_i) over m | h pin the group down
        for m in range(1, h + 1):
            if h % m == 0:
                killed = sum(1 for o in orders if m % o == 0)
                assert killed == math.prod(math.gcd(m, d) for d in divs), (D, m)


def test_structure_product_and_divisibility_sample():
    for D in fundamental_discs(400):
        desc = cg.group_structure(D)
        assert math.prod(desc.elementary_divisors) == qf.class_number(D)
        for d1, d2 in zip(desc.elementary_divisors, desc.elementary_divisors[1:]):
            assert d2 % d1 == 0


def test_structure_beyond_table_cutoff():
    # smallest fundamental discriminant with h > 512, above the groups the
    # table oracle covers; the structure must still satisfy the independent
    # anchors
    h_table = tables.class_number_table(2 * 10**6)
    fund = tables.fundamental_mask(2 * 10**6)
    n = next(i for i in range(3, 2 * 10**6)
             if fund[i] and int(h_table[i]) > 512)
    D = -int(n)
    h = int(h_table[n])
    desc = cg.group_structure(D)
    assert math.prod(desc.elementary_divisors) == h
    for d1, d2 in zip(desc.elementary_divisors, desc.elementary_divisors[1:]):
        assert d2 % d1 == 0
    # genus theory pins the 2-rank: g - 1 even divisors
    g = len({p for p, _ in _factor(n)})
    assert sum(1 for d in desc.elementary_divisors if d % 2 == 0) == g - 1


def test_group_structure_composition_budget(monkeypatch):
    # one walk per cyclic subgroup not yet met keeps the whole structure
    # within 2h compositions
    calls = [0]
    compose = cg.compose

    def counted(f, g):
        calls[0] += 1
        return compose(f, g)

    monkeypatch.setattr(cg, "compose", counted)
    for D, h in ((-960447, 480), (-909011, 528), (-6466460, 1184)):
        calls[0] = 0
        desc = cg.group_structure(D)
        assert len(desc.representatives) == desc.order == h, D
        assert calls[0] <= 2 * h, (D, calls[0])


def test_structure_past_1e9():
    # D = -3*5*7*11*13*17*19*23*29 is fundamental with nine prime factors, so
    # genus theory gives 2-rank eight
    D = -3234846615
    desc = cg.group_structure(D)
    assert math.prod(desc.elementary_divisors) == len(desc.representatives) == qf.class_number(D)
    assert all(d2 % d1 == 0 for d1, d2 in zip(desc.elementary_divisors, desc.elementary_divisors[1:]))
    assert sum(1 for d in desc.elementary_divisors if d % 2 == 0) == 8
    assert cg.ambiguous_count(desc.representatives) == 2**8


@st.composite
def divisor_chains(draw, limit=3000, max_rank=8):
    """d1 | d2 | ... | dr with every d > 1 and product at most limit."""
    rank = draw(st.integers(0, max_rank))
    chain = []
    for i in range(rank):
        room = limit // math.prod(chain)
        d = chain[-1] if chain else 1
        low = 1 if chain else 2
        high = low
        while (d * (high + 1)) ** (rank - i) <= room:
            high += 1
        chain.append(d * draw(st.integers(low, high)))
    return tuple(chain)


def _orders_of_product(chain):
    """Orders of all elements of Z/d1 x ... x Z/dr, by enumeration."""
    return [math.lcm(*(d // math.gcd(x, d) for x, d in zip(xs, chain)))
            for xs in itertools.product(*(range(d) for d in chain))]


@settings(max_examples=150, deadline=None)
@given(divisor_chains())
@example((2,) * 8)
@example((2, 2, 2, 2, 74))
@example((3, 9))
@example(())
def test_structure_from_orders_reads_back_the_chain(chain):
    assert cg._structure_from_orders(_orders_of_product(chain)) == chain


@pytest.mark.parametrize("orders", [
    [1, 2, 2, 2, 4],  # h = 5, but no element of order 5
    [1, 2, 3, 6, 6, 6],  # two elements killed by 3: not a power of 3
    [1, 2, 4, 4, 4, 4, 4, 4],  # 2-ranks 1 then 2: ranks never increase
])
def test_structure_from_orders_rejects_impossible_counts(orders):
    with pytest.raises(ArithmeticError):
        cg._structure_from_orders(orders)


def test_walk_stops_at_the_class_number(monkeypatch, capsys):
    # a composition that never leaves f must trip the h-step bound, not loop
    monkeypatch.setattr(cg, "compose", lambda f, g: f)
    with pytest.raises(ArithmeticError):
        cg.element_order((2, 1, 3))
    with pytest.raises(ArithmeticError):
        cg.group_structure(-23)
    assert cli.main(["classgroup", "-23"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "identity failure" in captured.err


def test_two_torsion_examples():
    assert cg.two_torsion_order(-84) == 4
    assert cg.two_torsion_order(-4) == 1
    assert cg.two_torsion_order(-20) == 2
    with pytest.raises(ValueError):
        cg.two_torsion_order(-12)


def test_two_torsion_matches_composition_definition():
    for D in fundamental_discs(600):
        e = qf.reduce(cg.identity(D))
        by_compose = sum(1 for f in qf.enumerate_reduced(D) if cg.compose(f, f) == e)
        assert cg.two_torsion_order(D) == by_compose


def test_two_torsion_genus_formula_small():
    for D in fundamental_discs(3000):
        g = len({p for p, _ in _factor(-D)})
        assert cg.two_torsion_order(D) == 2 ** (g - 1), D


def _factor(n):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


def test_ideal_from_form_examples():
    ideal = cg.ideal_from_form((1, 0, 1))
    assert (ideal.generator_a, ideal.minus_b, ideal.D) == (1, 0, -4)
    ideal = cg.ideal_from_form((2, 1, 3))
    assert (ideal.generator_a, ideal.minus_b, ideal.D) == (2, -1, -23)
    ideal = cg.ideal_from_form((2, 2, 11))
    assert (ideal.generator_a, ideal.minus_b, ideal.D) == (2, -2, -84)
    with pytest.raises(ValueError):
        cg.ideal_from_form((1, 0, 3))  # disc -12 not fundamental


def test_ideal_map_respects_composition():
    # the ideal product of the mapped forms lands in the class of the composite
    for D in (-23, -47, -84, -71):
        forms = qf.enumerate_reduced(D)
        for f in forms:
            for g in forms:
                assert ideal_product_form(f, g) == cg.compose(f, g)


def test_ggz_examples():
    assert cg.ggz_lower_bound(-163) == pytest.approx(math.log(163) / 7000, rel=1e-12)
    expected = math.log(4) / 7000 * (1 - 2 / 3)
    assert cg.ggz_lower_bound(-4) == pytest.approx(expected, rel=1e-12)


def test_ggz_bound_below_h_small():
    for D in fundamental_discs(2000):
        assert qf.class_number(D) > cg.ggz_lower_bound(D)


def test_siegel_reference_curve():
    assert cg.siegel_reference_curve(-10000, 0.1) == pytest.approx(10000**0.4)
    assert cg.siegel_reference_curve(-100, 0.25) == pytest.approx(100**0.25)
    with pytest.raises(ValueError):
        cg.siegel_reference_curve(-4, 0.5)


def test_cohen_lenstra_prediction_values():
    assert cg.cohen_lenstra_prediction(3) == pytest.approx(0.560126, abs=1e-6)
    assert cg.cohen_lenstra_prediction(5) == pytest.approx(0.760333, abs=1e-6)
    assert cg.cohen_lenstra_prediction(7) == pytest.approx(0.836796, abs=1e-6)
    with pytest.raises(ValueError):
        cg.cohen_lenstra_prediction(2)
    with pytest.raises(ValueError):
        cg.cohen_lenstra_prediction(9)


def test_cl_statistics_small_range_exact():
    count, proportion = cg.cl_statistics(3, 100)
    fund = fundamental_discs(99)
    expected = sum(1 for D in fund if qf.class_number(D) % 3 != 0)
    assert count == expected
    assert proportion == pytest.approx(expected / len(fund))


def test_cl_statistics_p5_informational():
    count, proportion = cg.cl_statistics(5, 10**4)
    assert 0 < count
    assert 0.0 < proportion < 1.0
    # no tight assertion by design; the heuristic limit is approached slowly
    assert proportion > cg.cohen_lenstra_prediction(5) - 0.2


def test_cg_constant():
    assert cg.cg_constant(2) == pytest.approx(0.4323, abs=2e-4)
    prod = 1.0
    for i in range(1, 60):
        prod *= 1 - 3.0**-i
    assert cg.cg_constant(3) == pytest.approx(6 / math.pi**2 * (1 - prod), rel=1e-9)


def test_ng_count():
    # genus theory route: C(-D) has an element of order 2 iff disc has >= 2 prime factors
    sf = tables.squarefree_mask(100)
    expected = 0
    for d in range(1, 101):
        if not sf[d]:
            continue
        disc = -d if d % 4 == 3 else -4 * d
        g = len({p for p, _ in _factor(-disc)})
        if g >= 2:
            expected += 1
    assert cg.ng_count(2, 100) == expected
    assert cg.ng_count(3, 23) >= 1  # C(-23) is cyclic of order 3


def test_ng_count_matches_the_whole_structure_count():
    for g in range(2, 31):
        assert cg.ng_count(g, 1000) == ng_count_by_structure(g, 1000), g
    for g in (3, 4, 9):
        assert cg.ng_count(g, 5000) == ng_count_by_structure(g, 5000), g


def test_ng_count_computes_structures_only_for_square_factors(monkeypatch):
    # Cauchy answers square-free g from the class-number table alone, and
    # genus theory answers 4 || g from the 2-rank; 8 | g and odd p^2 | g need
    # the exponent's p-part, so a structure exactly where g | h
    discs = []
    group_structure = cg.group_structure

    def counted(D):
        discs.append(D)
        return group_structure(D)

    monkeypatch.setattr(cg, "group_structure", counted)
    for g in (2, 3, 6, 30, 4, 12, 20):
        assert cg.ng_count(g, 1000) == ng_count_by_structure(g, 1000), g
    assert discs == []
    sf = tables.squarefree_mask(1000)
    fundamental = [-d if d % 4 == 3 else -4 * d for d in range(1, 1001) if sf[d]]
    for g in (8, 9, 36):
        assert cg.ng_count(g, 1000) == ng_count_by_structure(g, 1000), g
        assert discs == [D for D in fundamental if qf.class_number(D) % g == 0], g
        discs.clear()
