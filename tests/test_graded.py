import random
from math import comb

import pytest

from fiberlab.fields import GF, QQ
from fiberlab.graded import (degree_basis, graded_piece, linear_rank,
                             minimal_generators, minors_ideal, piece_span_of_polys,
                             poly_to_vector, spanning_rows)
from fiberlab.ideals import Ideal
from fiberlab.polyring import Ring
from fiberlab.resolutions import presentation_matrix


def test_piece_dims_basic(R3):
    x, y, z = (R3.variable(i) for i in range(3))
    assert graded_piece(Ideal(R3, (x, y)), 1).dim == 2
    assert graded_piece(Ideal(R3, (x, y)), 2).dim == 5


def test_sixgen_piece_is_mu(sixgen):
    assert graded_piece(sixgen, 6).dim == 6


def test_square_piece_against_enumeration(sixgen):
    """dim [I^2]_12 for the monomial ideal, against direct enumeration of
    the degree-12 monomials lying in I^2."""
    sq = sixgen.power(2)
    dim = graded_piece(sq, 12).dim
    gens = [next(iter(g.terms)) for g in sixgen.generators]
    products = {tuple(a + b for a, b in zip(u, v)) for u in gens for v in gens}
    seen = set()
    for m in sixgen.ring.monomials_of_degree(12):
        if any(all(a <= b for a, b in zip(p, m)) for p in products):
            seen.add(m)
    assert dim == len(seen)


@pytest.mark.parametrize("field", [GF(32003), QQ], ids=["F32003", "QQ"])
@pytest.mark.parametrize("weights", [(1, 1, 1, 1), (1, 2, 1, 3)])
def test_spanning_rows_match_term_multiples(field, weights):
    """The packed rows equal the coordinates of mul_term's products over
    exponent tuples, row for row, for generators below, at and above the
    target degree; so does poly_to_vector at the target degree."""
    from conftest import random_poly
    ring = Ring(field, ["x", "y", "z", "w"], weights=weights)
    rng = random.Random(f"spanning-rows:{field.characteristic}:{weights}")
    target = 5
    gens = [random_poly(ring, d, rng, terms=5) for d in (2, 3, 5, 6, 1)]
    gens = [g for g in gens if not g.is_zero()]
    monos = ring.monomials_of_degree(target)
    column = {m: i for i, m in enumerate(monos)}

    def vector(p):
        vec = [0] * len(monos)
        for m, c in p.terms.items():
            vec[column[m]] = c
        return vec
    want = [vector(g.mul_term(m, field.one))
            for g in gens if g.homogeneous_degree() <= target
            for m in ring.monomials_of_degree(target - g.homogeneous_degree())]
    got = list(spanning_rows(gens, target, ring))
    assert len(got) == len(want) > 0
    assert all(list(a) == b for a, b in zip(got, want))
    index = degree_basis(ring, target)[1]
    assert all(list(poly_to_vector(g, index, len(monos))) == vector(g)
               for g in gens if g.homogeneous_degree() == target)


def test_minimal_generators_drops_redundant(R3):
    x, y, z = (R3.variable(i) for i in range(3))
    out = minimal_generators(Ideal(R3, (x, x * x, y)))
    assert out == [x, y]


def test_minimal_generators_of_intersection(R3):
    x, y, z = (R3.variable(i) for i in range(3))
    A = Ideal(R3, (x, y)).power(3, minimalize=False)
    B = Ideal(R3, (x, z)).power(3, minimalize=False)
    assert len(A.intersect(B).minimal_generators()) == 4


def test_reduction_product_generator_count(monomial4):
    """mu(J I) for a minimal reduction J: l mu - C(l,2) with l = 3."""
    from fiberlab.blowup import minimal_reduction
    red = minimal_reduction(monomial4, seed="graded-test")
    J = Ideal(monomial4.ring, tuple(red.reduction_generators))
    JI = J * monomial4
    mu = len(JI.minimal_generators())
    assert mu == 3 * 4 - comb(3, 2)


def test_piece_monotone_and_subadditive(R3, rng):
    from conftest import random_poly
    for _ in range(10):
        f = random_poly(R3, 2, rng)
        g = random_poly(R3, 3, rng)
        if f.is_zero() or g.is_zero():
            continue
        a = Ideal(R3, (f,))
        b = Ideal(R3, (f, g))
        for e in (3, 4):
            da, db = graded_piece(a, e).dim, graded_piece(b, e).dim
            assert da <= db
            dg = graded_piece(Ideal(R3, (g,)), e).dim
            assert db <= da + dg


def test_presentation_columns_are_syzygies(sixgen):
    pres = presentation_matrix(sixgen)
    gens = sixgen.minimal_generators()
    ring = sixgen.ring
    for k in range(pres.ncols):
        acc = ring.zero()
        for i, g in enumerate(gens):
            acc = acc + pres.matrix[i][k] * g
        assert acc.is_zero()
        # minimality: no constant entries
        for i in range(pres.nrows):
            entry = pres.matrix[i][k]
            assert entry.is_zero() or entry.degree() >= 1


def test_minimal_generator_count_matches_betti(sixgen, binomial4):
    from fiberlab.resolutions import minimal_resolution
    for ideal in (sixgen, binomial4):
        res = minimal_resolution(ideal)
        assert res.table.total(1) == len(ideal.minimal_generators())


def test_koszul_presentation_linear_rank(R3):
    x, y, z = (R3.variable(i) for i in range(3))
    ci = Ideal(R3, (x, y))
    pres = presentation_matrix(ci)
    assert pres.ncols == 1
    assert linear_rank(pres, R3.field) == 1


def test_linear_rank_binomial4(binomial4):
    pres = presentation_matrix(binomial4)
    assert sorted(pres.column_degrees) == [3, 3, 3, 4]
    assert linear_rank(pres, binomial4.ring.field) == 3


def test_minors_ideal(R3):
    x, y, z = (R3.variable(i) for i in range(3))
    ci = Ideal(R3, (x, y))
    pres = presentation_matrix(ci)
    m1 = minors_ideal(pres, 1, ci)
    assert m1 == Ideal(R3, (x, y))      # Koszul column entries
    assert minors_ideal(pres, 0, ci).is_unit()
    assert minors_ideal(pres, 2, ci).is_zero()
