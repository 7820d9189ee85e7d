import random
from math import comb

import pytest

from fiberlab.blowup import IdealContext
from fiberlab.fields import GF, QQ
from fiberlab.graded import (graded_piece, linear_rank, minimal_generators,
                             minors_ideal, product_rows, spanning_rows,
                             syzygies_degreewise)
from fiberlab.ideals import Ideal
from fiberlab.polyring import Polynomial, Ring

from conftest import intersect, mul_term, total_betti


def test_piece_dims_basic(R3):
    x, y, z = (R3.variable(i) for i in range(3))
    assert graded_piece(Ideal(R3, (x, y)), 1).rank == 2
    assert graded_piece(Ideal(R3, (x, y)), 2).rank == 5


def test_sixgen_piece_is_mu(sixgen):
    assert graded_piece(sixgen, 6).rank == 6


def test_square_piece_against_enumeration(sixgen):
    """dim [I^2]_12 for the monomial ideal, against direct enumeration of
    the degree-12 monomials lying in I^2."""
    sq = sixgen * sixgen
    dim = graded_piece(sq, 12).rank
    ring = sixgen.ring
    gens = [ring.exponents(next(iter(g.terms))) for g in sixgen.generators]
    products = {tuple(a + b for a, b in zip(u, v)) for u in gens for v in gens}
    seen = set()
    for m in map(ring.exponents, ring.monomials_of_degree(12)):
        if any(all(a <= b for a, b in zip(p, m)) for p in products):
            seen.add(m)
    assert dim == len(seen)


def term_multiples(elements, target, ring, shifts):
    """Oracle rows over exponent tuples: per element s and monomial m of
    the complementary degree, the coordinates of mul_term(m) of each
    component, block after block."""
    rows = []
    for s in elements:
        (ds,) = {d + p.homogeneous_degree() for d, p in zip(shifts, s) if not p.is_zero()}
        for m in ring.monomials_of_degree(target - ds):
            row = []
            for d, p in zip(shifts, s):
                prod = mul_term(p, m, ring.field.one)
                row += [prod.terms.get(mono, 0)
                        for mono in ring.monomials_of_degree(target - d)]
            rows.append(row)
    return rows


@pytest.mark.parametrize("field", [GF(32003), QQ], ids=["F32003", "QQ"])
@pytest.mark.parametrize("weights", [(1, 1, 1, 1), (1, 2, 1, 3)])
def test_spanning_rows_match_term_multiples(field, weights):
    """The packed rows equal the coordinates of mul_term's products over
    exponent tuples, row for row, for generators below, at and above the
    target degree; at the target degree each generator's one row (the
    unit multiplier) is its own coordinate vector."""
    from conftest import random_poly
    ring = Ring(field, ["x", "y", "z", "w"], weights=weights)
    rng = random.Random(f"spanning-rows:{field.characteristic}:{weights}")
    target = 5
    gens = [random_poly(ring, d, rng, terms=5) for d in (2, 3, 5, 6, 1)]
    gens = [g for g in gens if not g.is_zero()]
    want = term_multiples([(g,) for g in gens if g.homogeneous_degree() <= target],
                          target, ring, (0,))
    got = list(spanning_rows(gens, target, ring))
    assert len(got) == len(want) > 0
    assert all(list(a) == b for a, b in zip(got, want))
    at_target = [(g,) for g in gens if g.homogeneous_degree() == target]
    assert [list(v) for v in spanning_rows([g for g, in at_target], target, ring)] \
        == term_multiples(at_target, target, ring, (0,))


@pytest.mark.parametrize("field", [GF(32003), GF(67108859), QQ],
                         ids=["F32003", "F67108859", "QQ"])
@pytest.mark.parametrize("weights", [(1, 1, 1, 1), (1, 2, 1, 3)])
def test_product_rows_match_polynomial_products(field, weights):
    """The rows of f*b that ``product_rows`` builds from the rows b of
    polynomials g equal the rows of the polynomial products f*g
    (``spanning_rows``), row for row, form after form.  The forms have
    up to eight terms, and one form and one g have every monomial of
    their degree with coefficient -2, so that at p = 67108859 the sums at
    a column pass 2**53 unless reduced, by odd amounts that float64
    cannot hold."""
    from conftest import random_poly
    ring = Ring(field, ["x", "y", "z", "w"], weights=weights)
    rng = random.Random(f"product-rows:{field.characteristic}:{weights}")
    gens = [g for g in (random_poly(ring, 3, rng, terms=6) for _ in range(5))
            if not g.is_zero()]
    forms = [f for f in (random_poly(ring, 2, rng, terms=8) for _ in range(3))
             if not f.is_zero()]
    gens.append(Polynomial(ring, dict.fromkeys(ring.monomials_of_degree(3), field.raw(-2))))
    forms.append(Polynomial(ring, dict.fromkeys(ring.monomials_of_degree(2), field.raw(-2))))
    got = product_rows(forms, list(spanning_rows(gens, 3, ring)), 3, ring)
    want = spanning_rows([f * g for f in forms for g in gens], 5, ring)
    assert got.tolist() == [list(v) for v in want]
    for bad in ([], [forms[0], gens[0]], [ring.zero()]):
        with pytest.raises(ValueError, match="one degree"):
            product_rows(bad, [], 3, ring)


@pytest.mark.parametrize("field", [GF(32003), QQ], ids=["F32003", "QQ"])
def test_spanning_rows_module_blocks(field):
    """Rank 3 with generator degrees (0, 1, 3): each row is the blocks of
    mul_term's products, offset by the widths of the blocks before it,
    for elements below, at and above the target degree and with a zero
    component."""
    from conftest import random_poly
    ring = Ring(field, ["x", "y", "z"])
    rng = random.Random(f"module-rows:{field.characteristic}")
    shifts = (0, 1, 3)
    target = 5
    elements = [tuple(random_poly(ring, e - d, rng) if e >= d else ring.zero()
                      for d in shifts) for e in (3, 4, 5, 6)]
    elements.append((random_poly(ring, 4, rng), ring.zero(), random_poly(ring, 1, rng)))
    want = term_multiples([s for s in elements if s[0].degree() <= target], target,
                          ring, shifts)
    got = list(spanning_rows(elements, target, ring, shifts))
    assert len(got) == len(want) > 0
    assert len(got[0]) == sum(ring.dim_of_degree(target - d) for d in shifts)
    assert all(list(a) == b for a, b in zip(got, want))


@pytest.mark.parametrize("field", [GF(32003), QQ], ids=["F32003", "QQ"])
def test_syzygies_degreewise_explicit(field):
    """Columns (x,0), (y,0), (0,x), (0,y) over codomain degrees (0, 1):
    the Koszul syzygy of each pair, in degrees 2 and 3, scaled as the
    canonical kernel basis is, with 1 at its free coordinate (the
    x-multiple of the second column of the pair)."""
    ring = Ring(field, ["x", "y"])
    x, y = ring.variable(0), ring.variable(1)
    zero = ring.zero()
    columns = [[x, zero], [y, zero], [zero, x], [zero, y]]
    syz, degs = syzygies_degreewise(columns, [0, 1], ring, 4)
    assert degs == [2, 3]
    assert syz == [[-y, x, zero, zero], [zero, zero, -y, x]]


def test_minimal_generators_drops_redundant(R3):
    x, y, z = (R3.variable(i) for i in range(3))
    out = minimal_generators(Ideal(R3, (x, x * x, y)))
    assert out == [x, y]


def test_minimal_generators_of_intersection(R3):
    x, y, z = (R3.variable(i) for i in range(3))
    xy, xz = Ideal(R3, (x, y)), Ideal(R3, (x, z))
    A, B = xy * xy * xy, xz * xz * xz
    assert len(intersect(A, B).minimal_generators()) == 4


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
            da, db = graded_piece(a, e).rank, graded_piece(b, e).rank
            assert da <= db
            dg = graded_piece(Ideal(R3, (g,)), e).rank
            assert db <= da + dg


def test_presentation_columns_are_syzygies(sixgen):
    pres = IdealContext(sixgen).presentation
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
        assert total_betti(res.table, 1) == len(ideal.minimal_generators())


def test_koszul_presentation_linear_rank(R3):
    x, y, z = (R3.variable(i) for i in range(3))
    ci = Ideal(R3, (x, y))
    pres = IdealContext(ci).presentation
    assert pres.ncols == 1
    assert linear_rank(pres) == 1


def test_linear_rank_binomial4(binomial4):
    pres = IdealContext(binomial4).presentation
    assert sorted(pres.column_degrees) == [3, 3, 3, 4]
    assert linear_rank(pres) == 3


def test_minors_ideal(R3):
    x, y, z = (R3.variable(i) for i in range(3))
    ci = Ideal(R3, (x, y))
    pres = IdealContext(ci).presentation
    m1 = minors_ideal(pres, 1, ci)
    assert m1 == Ideal(R3, (x, y))      # Koszul column entries
    assert minors_ideal(pres, 0, ci).is_unit()
    assert minors_ideal(pres, 2, ci).is_zero()
