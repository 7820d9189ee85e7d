import random

import numpy as np
import pytest

from fiberlab.depth import (bounded_ideal_grade, graded_depth, regular_cut,
                            series_of_basis, socle_witness, standard_monomials)
from fiberlab.fields import GF, QQ
from fiberlab.groebner import buchberger, normal_form
from fiberlab.ideals import Ideal
from fiberlab.linalg import nullspace
from fiberlab.polyring import GREVLEX, Polynomial, Ring

from conftest import leading_exponents


def test_polynomial_ring_is_cm(R3):
    x, y, z = (R3.variable(i) for i in range(3))
    rep = graded_depth(Ideal(R3, (x * y,)), seed="t")
    assert rep.exact and rep.value == 2 and rep.dimension == 2
    assert rep.is_cohen_macaulay


def test_classic_depth_one_example():
    """(x1,x2) cap (x3,x4): dimension 2, depth 1."""
    ring = Ring(GF(32003), ["x1", "x2", "x3", "x4"])
    x1, x2, x3, x4 = (ring.variable(i) for i in range(4))
    a = Ideal(ring, (x1, x2)).intersect(Ideal(ring, (x3, x4)))
    rep = graded_depth(a, seed="t")
    assert rep.exact
    assert rep.dimension == 2
    assert rep.value == 1
    assert rep.witness is not None
    # the witness genuinely sits in the socle of the quotient by the cuts
    from fiberlab.groebner import extend_basis
    gb = extend_basis(a.groebner(), tuple(rep.regular_forms))
    w = rep.witness
    assert not normal_form(w, gb).is_zero()
    for i in range(4):
        assert normal_form(w * ring.variable(i), gb).is_zero()


def test_artinian_depth_zero(R3):
    x, y, z = (R3.variable(i) for i in range(3))
    rep = graded_depth(Ideal(R3, (x, y, z * z)), seed="t")
    assert rep.exact and rep.value == 0 and rep.dimension == 0
    assert rep.is_cohen_macaulay     # zero-dimensional rings are CM


def test_regular_cut_matches_brute_kernel(R3):
    """Numerator certificate vs direct kernel of multiplication in low
    degrees for a regular and a non-regular form."""
    x, y, z = (R3.variable(i) for i in range(3))
    a = Ideal(R3, (x * y,))
    gb = a.groebner()
    hs = series_of_basis(gb)
    ok_z, _, _ = regular_cut(gb, hs, z)
    assert ok_z
    ok_x, _, _ = regular_cut(gb, hs, x)
    assert not ok_x     # x kills y
    # brute force: x * y = 0 in the quotient
    std1 = standard_monomials(gb, 1)
    assert (0, 1, 0) in map(R3.exponents, std1)


def test_socle_witness_none_for_positive_depth(R3):
    x, y, z = (R3.variable(i) for i in range(3))
    gb = Ideal(R3, (x * x,)).groebner()
    assert socle_witness(gb, 6) is None


def test_depth_over_rationals():
    ring = Ring(QQ, ["x1", "x2", "x3", "x4"])
    x1, x2, x3, x4 = (ring.variable(i) for i in range(4))
    a = Ideal(ring, (x1, x2)).intersect(Ideal(ring, (x3, x4)))
    rep = graded_depth(a, seed="t")
    assert rep.exact and rep.value == 1


def test_bounded_grade_full_variable_range(monomial4):
    from fiberlab.blowup import rees_and_gr
    pres = rees_and_gr(monomial4)
    gb = pres.gr_ideal.groebner()
    # gr is CM here, so the irrelevant ideal has grade = ht I = 2
    out = bounded_ideal_grade(gb, range(pres.split, pres.big_ring.nvars),
                              seed="grade-test")
    assert out["value"] == 2


def test_depth_skips_to_dimension_cap(R3):
    x, y, z = (R3.variable(i) for i in range(3))
    rep = graded_depth(Ideal(R3, (x,)), seed="t")
    assert rep.value == rep.dimension == 2   # stops at the CM cap exactly


def test_weighted_grading_rejected():
    """The descent, the multiplicity and the CM test need the standard
    grading; a weighted ring is refused with ValueError, also under -O."""
    from fiberlab.blowup import is_cm_graded
    ring = Ring(GF(32003), ["x", "y", "w"], weights=(1, 1, 2))
    x, y, w = (ring.variable(i) for i in range(3))
    ideal = Ideal(ring, (x * y, w - x * x))
    with pytest.raises(ValueError, match="standard grading"):
        graded_depth(ideal, seed="t")
    with pytest.raises(ValueError, match="standard grading"):
        ideal.hilbert_series().multiplicity
    with pytest.raises(ValueError, match="standard grading"):
        is_cm_graded((ring, ideal))


def test_relative_socle_witness_certifies_grade_zero():
    """In k[x,y,a,b]/(xa, xb) the class of x kills a and b, so (a, b) has
    grade 0; y is regular, so there is no witness for all variables."""
    ring = Ring(GF(32003), ["x", "y", "a", "b"])
    x, y, a, b = (ring.variable(i) for i in range(4))
    gb = Ideal(ring, (x * a, x * b)).groebner()
    h = socle_witness(gb, 4, var_range=[2, 3])
    assert h is not None and h.homogeneous_degree() == 1
    assert not normal_form(h, gb).is_zero()
    assert normal_form(h * a, gb).is_zero() and normal_form(h * b, gb).is_zero()
    assert socle_witness(gb, 4) is None


def test_relative_socle_witness_none_for_positive_grade():
    """In k[x,y,a,b]/(xa) the variable b is regular: (a, b) has positive
    grade, so no bound finds a witness."""
    ring = Ring(GF(32003), ["x", "y", "a", "b"])
    x, a = ring.variable(0), ring.variable(2)
    gb = Ideal(ring, (x * a,)).groebner()
    assert socle_witness(gb, 6, var_range=[2, 3]) is None


def test_bounded_grade_is_exact_on_sevengen_gr(sevengen):
    """Example 2.2: grade gr+ = 1, ended by a certified witness."""
    from fiberlab.blowup import rees_and_gr
    pres = rees_and_gr(sevengen)
    gb = pres.gr_ideal.groebner()
    wvars = range(pres.split, pres.big_ring.nvars)
    out = bounded_ideal_grade(gb, wvars, seed="grade:ex-2.2-sevengen")
    assert out["value"] == 1 and out["exact"]
    from fiberlab.groebner import extend_basis
    cut = extend_basis(gb, tuple(out["regular_forms"]))
    h = out["witness"]
    assert not normal_form(h, cut).is_zero()
    for i in wvars:
        assert normal_form(h * pres.big_ring.variable(i), cut).is_zero()


@pytest.mark.parametrize("field", [GF(32003), QQ], ids=["F32003", "QQ"])
def test_standard_monomials_match_brute_force(field):
    """Grown layer by layer, against every monomial of each degree
    tested against every leading monomial, in the same order."""
    ring = Ring(field, ["a", "b", "c", "d"])
    rng = random.Random("standard-monomials")
    for _ in range(4):
        gens = []
        for _ in range(rng.randrange(2, 5)):
            monos = ring.monomials_of_degree(rng.randrange(2, 4))
            terms = {monos[rng.randrange(len(monos))]:
                     field.random_raw(rng, nonzero=True) for _ in range(3)}
            gens.append(Polynomial(ring, terms))
        gb = Ideal(ring, tuple(gens)).groebner()
        leads = leading_exponents(gb)
        for e in range(8):
            brute = [m for m in ring.monomials_of_degree(e)
                     if not any(all(a <= b for a, b in zip(lm, ring.exponents(m)))
                                for lm in leads)]
            assert standard_monomials(gb, e) == brute
    unit = Ideal(ring, (ring.one(),)).groebner()
    assert standard_monomials(unit, 0) == []
