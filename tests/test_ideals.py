import pytest

from fiberlab.blowup import IdealContext
from fiberlab.ideals import Ideal
from fiberlab.polyring import RingError

from conftest import colon, divide_exact, intersect, power_gens


def test_sum_product_power(R3):
    x, y, z = (R3.variable(i) for i in range(3))
    assert Ideal(R3, (x,)) * Ideal(R3, (y,)) == Ideal(R3, (x * y,))
    sq = Ideal(R3, tuple(power_gens(Ideal(R3, (x, y)), 2)))
    assert sq == Ideal(R3, (x * x, x * y, y * y))
    assert len(sq.minimal_generators()) == 3
    assert len(IdealContext(Ideal(R3, (x, y))).power_rows(2)) == 3
    assert power_gens(Ideal(R3, (x,)), 0) == [R3.one()]
    assert IdealContext(Ideal(R3, (x,))).power_rows(0).tolist() == [[1]]


def test_sevengen_square_product_count(sevengen):
    from math import comb
    raw = sevengen * sevengen
    assert all(g.homogeneous_degree() == 12 for g in raw.generators)
    # 28 formal unordered products before minimalization; as monomials
    # some coincide
    formal = [(i, j) for i in range(7) for j in range(i, 7)]
    assert len(formal) == comb(7 + 1, 2) == 28
    distinct = {a * b for a in sevengen.generators for b in sevengen.generators}
    assert len(distinct) == 21


def test_intersection_examples(R3):
    x, y, z = (R3.variable(i) for i in range(3))
    assert intersect(Ideal(R3, (x,)), Ideal(R3, (y,))) == Ideal(R3, (x * y,))
    a = Ideal(R3, (x, y * z))
    assert intersect(a, a) == a


def test_intersection_fat_lines(R3):
    """(x,y)^3 cap (x,z)^3 via elimination matches the monomial oracle."""
    x, y, z = (R3.variable(i) for i in range(3))
    xy, xz = Ideal(R3, (x, y)), Ideal(R3, (x, z))
    A, B = xy * xy * xy, xz * xz * xz
    I = intersect(A, B)
    mingens = I.minimal_generators()
    assert len(mingens) == 4
    # oracle: pairwise lcms of the monomial generators, minimalized
    exps = R3.exponents
    lcms = {tuple(map(max, exps(next(iter(f.terms))), exps(next(iter(g.terms)))))
            for f in A.generators for g in B.generators}
    oracle = Ideal(R3, tuple(R3.monomial(m) for m in lcms))
    assert I == oracle


def test_colon_examples(R3):
    x, y, z = (R3.variable(i) for i in range(3))
    a = Ideal(R3, (x * y,))
    assert colon(a, x) == Ideal(R3, (y,))
    b = Ideal(R3, (x * x, y))
    assert colon(b, R3.one()) == b
    with pytest.raises(ZeroDivisionError):
        colon(b, R3.zero())


def test_colon_properties_random(R3, rng):
    from conftest import random_poly
    x, y, z = (R3.variable(i) for i in range(3))
    for _ in range(10):
        a = Ideal(R3, (random_poly(R3, 2, rng), random_poly(R3, 3, rng)))
        if a.is_zero():
            continue
        f = random_poly(R3, 1, rng, terms=2)
        if f.is_zero():
            continue
        q = colon(a, f)
        # (a : f) * f inside a, and a inside (a : f)
        for g in q.generators:
            assert a.contains(g * f)
        for g in a.generators:
            assert q.contains(g)


def test_colon_intersect_duality(R3):
    # f * (a : f) = a cap (f) when f is a nonzerodivisor mod a
    x, y, z = (R3.variable(i) for i in range(3))
    a = Ideal(R3, (x * x, x * y))
    f = z
    lhs = Ideal(R3, tuple(f * g for g in colon(a, f).generators))
    rhs = intersect(a, Ideal(R3, (f,)))
    assert lhs == rhs


def test_dimension_height_examples(R3, sixgen):
    x, y, z = (R3.variable(i) for i in range(3))
    principal = Ideal(R3, (x,))
    assert principal.krull_dimension() == 2
    assert principal.height() == 1
    assert sixgen.height() == 2
    unit = Ideal(R3, (R3.one(),))
    assert unit.krull_dimension() == -1
    assert unit.height() == 3


def test_power_dimension_invariant(monomial4):
    d = monomial4.krull_dimension()
    ctx = IdealContext(monomial4)
    for n in (2, 3):
        gens = power_gens(monomial4, n)
        assert len(ctx.power_rows(n)) == len(gens)
        assert Ideal(monomial4.ring, tuple(gens)).krull_dimension() == d


def test_catenary_height_formula(R3, sixgen, sevengen, monomial4, binomial4):
    for ideal in (sixgen, sevengen, monomial4, binomial4):
        assert ideal.height() + ideal.krull_dimension() == 3


def test_divide_exact(R3):
    x, y, z = (R3.variable(i) for i in range(3))
    f = x * y - z * z
    g = (x + y) * f
    assert divide_exact(g, f) == x + y
    with pytest.raises(ArithmeticError):
        divide_exact(x * x, y)


def test_ring_mismatch(R3, R3q):
    with pytest.raises(RingError):
        Ideal(R3, (R3.variable(0),)) + Ideal(R3q, (R3q.variable(0),))


def test_equality_is_ideal_equality(R3):
    x, y, z = (R3.variable(i) for i in range(3))
    assert Ideal(R3, (x, y)) == Ideal(R3, (x + y, y))
    assert Ideal(R3, (x,)) != Ideal(R3, (x * x,))
