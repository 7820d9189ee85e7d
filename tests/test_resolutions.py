import pytest

from fiberlab.blowup import fiber_presentation
from fiberlab.fields import GF
from fiberlab.ideals import Ideal
from fiberlab.polyring import Ring
from fiberlab.resolutions import (IncompleteResolutionError, depth_via_resolution,
                                  minimal_resolution)


def test_koszul_complex(R3):
    x, y, z = (R3.variable(i) for i in range(3))
    res = minimal_resolution(Ideal(R3, (x, y, z)))
    t = res.table
    assert t.complete
    assert [t.total(i) for i in range(4)] == [1, 3, 3, 1]
    assert t.projective_dimension == 3
    assert t.betti(2, 2) == 3
    assert t.regularity() == 0
    assert depth_via_resolution(Ideal(R3, (x, y, z))) == 0


def test_polynomial_ring_itself(R3):
    res = minimal_resolution(Ideal(R3, ()))
    assert res.table.complete
    assert res.table.projective_dimension == 0
    assert res.table.regularity() == 0


def test_hypersurface_depth(R3):
    x, y, z = (R3.variable(i) for i in range(3))
    assert depth_via_resolution(Ideal(R3, (x,))) == 2


def test_sixgen_hilbert_burch(sixgen):
    res = minimal_resolution(sixgen)
    t = res.table
    assert t.complete and t.projective_dimension == 2
    assert t.total(1) == 6 and t.total(2) == 5
    assert sorted(res.presentation.column_degrees) == [7, 7, 7, 7, 8]
    # column degrees d + m_i with sum m_i = d
    ms = [c - 6 for c in res.presentation.column_degrees]
    assert sum(ms) == 6


def test_euler_certificate_holds(sixgen, sevengen, monomial4, binomial4):
    for ideal in (sixgen, sevengen, monomial4, binomial4):
        res = minimal_resolution(ideal)
        assert res.table.complete
        assert res.table.euler_ok()


def test_fiber_resolution_depths(sixgen, sevengen):
    fp6 = fiber_presentation(sixgen)
    res6 = minimal_resolution(fp6.relations)
    assert res6.table.complete
    assert 6 - res6.table.projective_dimension == 2      # depth F = 2
    fp7 = fiber_presentation(sevengen)
    res7 = minimal_resolution(fp7.relations)
    assert res7.table.complete
    assert 7 - res7.table.projective_dimension == 2
    assert res7.table.regularity() == 2


def test_depth_le_dim(sixgen, monomial4):
    for ideal in (sixgen, monomial4):
        depth = depth_via_resolution(ideal)
        assert depth <= ideal.krull_dimension()


def test_incomplete_cutoff_is_flagged(sixgen):
    res = minimal_resolution(sixgen, cutoff=5)   # generators live in degree 6
    assert not res.table.complete
    with pytest.raises(IncompleteResolutionError):
        depth_via_resolution(sixgen, cutoff=5)


def test_resolution_agrees_with_descent(sixgen, monomial4, binomial4):
    """Auslander-Buchsbaum depth equals the certified descent depth."""
    from fiberlab.depth import graded_depth
    for ideal in (sixgen, monomial4, binomial4):
        a = depth_via_resolution(ideal)
        b = graded_depth(ideal, seed="xcheck")
        assert b.exact and a == b.value
    fp = fiber_presentation(sixgen)
    a = 6 - minimal_resolution(fp.relations).table.projective_dimension
    b = graded_depth(fp.relations, seed="xcheck")
    assert b.exact and a == b.value
