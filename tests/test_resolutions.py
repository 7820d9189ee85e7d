from dataclasses import replace

import pytest

from fiberlab import resolutions
from fiberlab.blowup import fiber_presentation
from fiberlab.corpus import CORPUS, CORPUS_BY_ID, load_entry_ideal
from fiberlab.depth import annihilator_series
from fiberlab.fields import GF
from fiberlab.graded import minimal_generators
from fiberlab.hilbert import HilbertSeries
from fiberlab.ideals import Ideal
from fiberlab.polyring import Ring
from fiberlab.resolutions import (DEFAULT_CEILING, IncompleteResolutionError,
                                  certified_regularity, minimal_resolution)

from conftest import recheck_regularity, total_betti


def depth_via_resolution(ideal, ceiling=DEFAULT_CEILING) -> int:
    """depth of R/ideal over the polynomial ambient (Auslander-Buchsbaum)."""
    res = minimal_resolution(ideal, ceiling)
    if not res.table.complete:
        raise IncompleteResolutionError(
            f"resolution incomplete at cutoff {res.table.ceiling}; depth unknown")
    return ideal.ring.nvars - res.table.projective_dimension


def test_koszul_complex(R3):
    x, y, z = (R3.variable(i) for i in range(3))
    res = minimal_resolution(Ideal(R3, (x, y, z)))
    t = res.table
    assert t.complete
    assert [total_betti(t, i) for i in range(4)] == [1, 3, 3, 1]
    assert t.projective_dimension == 3
    assert t.entries.get((2, 2), 0) == 3
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
    assert total_betti(t, 1) == 6 and total_betti(t, 2) == 5
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
    res6 = minimal_resolution(fp6)
    assert res6.table.complete
    assert 6 - res6.table.projective_dimension == 2      # depth F = 2
    fp7 = fiber_presentation(sevengen)
    res7 = minimal_resolution(fp7)
    assert res7.table.complete
    assert 7 - res7.table.projective_dimension == 2
    assert res7.table.regularity() == 2


def test_depth_le_dim(sixgen, monomial4):
    for ideal in (sixgen, monomial4):
        depth = depth_via_resolution(ideal)
        assert depth <= ideal.krull_dimension()


def test_incomplete_cutoff_is_flagged(sixgen):
    res = minimal_resolution(sixgen, ceiling=5)   # generators live in degree 6
    assert not res.table.complete
    with pytest.raises(IncompleteResolutionError):
        depth_via_resolution(sixgen, ceiling=5)


def test_resolution_agrees_with_descent(sixgen, monomial4, binomial4):
    """Auslander-Buchsbaum depth equals the certified descent depth."""
    from fiberlab.depth import graded_depth
    for ideal in (sixgen, monomial4, binomial4):
        a = depth_via_resolution(ideal)
        b = graded_depth(ideal, seed="xcheck")
        assert b.exact and a == b.value
    fp = fiber_presentation(sixgen)
    a = 6 - minimal_resolution(fp).table.projective_dimension
    b = graded_depth(fp, seed="xcheck")
    assert b.exact and a == b.value


# Betti tables (i, j, beta_ij) of R/I for the corpus ideals and of k[w]/Q
# for the fibers of the full-plan entries, as the reports give them.
PINNED = {
    "ex-1-intersection": [(0, 0, 1), (1, 3, 1), (1, 4, 1), (1, 5, 1), (1, 6, 1),
                          (2, 5, 1), (2, 6, 1), (2, 7, 1)],
    "ex-1-matrix6x5": [(0, 0, 1), (1, 6, 6), (2, 7, 4), (2, 8, 1)],
    "ex-2.1-sixgen": [(0, 0, 1), (1, 6, 6), (2, 7, 4), (2, 8, 1)],
    "ex-2.2-sevengen": [(0, 0, 1), (1, 6, 7), (2, 7, 6)],
    "ex-3-monomial4": [(0, 0, 1), (1, 2, 4), (2, 3, 4), (3, 4, 1)],
    "ex-3-binomial4": [(0, 0, 1), (1, 2, 4), (2, 3, 3), (2, 4, 1), (3, 5, 1)],
    "ex-3-matrix5x4": [(0, 0, 1), (1, 6, 5), (2, 7, 2), (2, 8, 2)],
}
PINNED_FIBERS = {
    "ex-2.1-sixgen": [(0, 0, 1), (1, 2, 3), (1, 3, 2), (2, 4, 9), (3, 5, 6),
                      (4, 6, 1)],
    "ex-2.2-sevengen": [(0, 0, 1), (1, 2, 7), (1, 3, 1), (2, 3, 8), (2, 4, 7),
                        (3, 5, 14), (4, 6, 7), (5, 7, 1)],
    "ex-3-monomial4": [(0, 0, 1), (1, 2, 1)],
    "ex-3-binomial4": [(0, 0, 1), (1, 3, 1)],
    "ex-3-matrix5x4": [(0, 0, 1), (1, 3, 3), (2, 4, 1), (2, 5, 1)],
}


@pytest.fixture(scope="module")
def corpus_ideals():
    """(label, ideal) for every corpus ideal and every full-plan fiber."""
    out = []
    for e in CORPUS:
        ideal = load_entry_ideal(e)
        out.append((e.id, ideal))
        if e.plan == "full":
            out.append((f"{e.id}:fiber", fiber_presentation(ideal)))
    return out


def test_pinned_betti_tables(corpus_ideals):
    pinned = {**PINNED, **{f"{k}:fiber": v for k, v in PINNED_FIBERS.items()}}
    assert sorted(pinned) == sorted(label for label, _ in corpus_ideals)
    for label, ideal in corpus_ideals:
        table = minimal_resolution(ideal).table
        assert table.complete, label
        assert table.rows() == pinned[label], label


def test_certificate_rechecked_independently(corpus_ideals, R3):
    """Every complete table carries (m, forms) that pass the criterion on
    dense echelons of the graded pieces, and m = reg(J) = reg(R/J) + 1;
    its regular forms meet Auslander-Buchsbaum with equality here:
    pd = n - r."""
    x, y, z = (R3.variable(i) for i in range(3))
    cases = corpus_ideals + [("koszul", Ideal(R3, (x, y, z))), ("zero", Ideal(R3, ()))]
    for label, ideal in cases:
        table = minimal_resolution(ideal).table
        cert = table.certificate
        assert table.complete and cert is not None, label
        assert recheck_regularity(minimal_generators(ideal), ideal.ring, cert), label
        assert cert.m == table.regularity() + 1, label
        assert table.projective_dimension == ideal.ring.nvars - cert.regular, label


def test_recheck_refuses_a_wrong_certificate(sixgen):
    cert = minimal_resolution(sixgen).table.certificate
    assert recheck_regularity(sixgen.generators, sixgen.ring, cert)
    short = replace(cert, m=cert.m - 1)
    assert not recheck_regularity(sixgen.generators, sixgen.ring, short)


def test_below_regularity_is_refused(corpus_ideals):
    """The criterion is an iff: at m = reg(J) - 1 no forms pass, whatever
    the seed, so a ceiling there certifies nothing."""
    tried = 0
    for label, ideal in corpus_ideals:
        gens = minimal_generators(ideal)
        reg = minimal_resolution(ideal).table.regularity() + 1
        if reg - 1 < max(g.homogeneous_degree() for g in gens):
            continue        # the criterion needs generators in degrees <= m
        tried += 1
        for seed in ("a", "b", "c", "d"):
            assert certified_regularity(ideal, reg - 1, seed) is None, label
            assert certified_regularity(ideal, reg, seed).m == reg, label
    assert tried >= 4


def test_weighted_ring_is_refused():
    """Bayer-Stillman needs linear forms of a standard graded ring."""
    ring = Ring(GF(32003), ["x", "w"], weights=(1, 2))
    with pytest.raises(ValueError, match="standard grading"):
        minimal_resolution(Ideal(ring, (ring.variable(1),)))


def test_rationals_agree_on_sixgen_fiber():
    entry = CORPUS_BY_ID["ex-2.1-sixgen"]
    tables = [minimal_resolution(fiber_presentation(
        load_entry_ideal(entry, field_char=p))).table for p in (32003, 0)]
    assert all(t.complete for t in tables)
    assert tables[0].rows() == tables[1].rows() == PINNED_FIBERS[entry.id]
    assert tables[1].certificate.m == tables[0].certificate.m == 3


def test_euler_mismatch_raises(sixgen, monkeypatch):
    """The alternating Betti sums are a cross-check of a certified table:
    a numerator they do not reproduce is an internal error.  The plant
    reaches the ideal's own series, which the table compares its sums
    with, and not the series of the certificate's cuts."""
    ideal = Ideal(sixgen.ring, sixgen.generators)
    true = ideal.hilbert_series()
    num = true.numerator_dict()
    num[7] = num.get(7, 0) + 1
    planted = HilbertSeries.from_numerator(num, true.num_ring_vars, true.weights)
    monkeypatch.setattr(ideal, "hilbert_series", lambda: planted)
    with pytest.raises(AssertionError, match="Hilbert numerator"):
        minimal_resolution(ideal)


def test_pd_above_the_regular_forms_raises(sixgen, monkeypatch):
    """r forms that are a regular sequence on S/J bound pd(S/J) by n - r:
    a certificate that claims one regular form more than it has is an
    internal error, not a shorter table."""
    certify = resolutions.certified_regularity

    def planted(*args):
        cert = certify(*args)
        return replace(cert, regular=cert.regular + 1)

    monkeypatch.setattr(resolutions, "certified_regularity", planted)
    with pytest.raises(AssertionError, match="regular sequence"):
        minimal_resolution(Ideal(sixgen.ring, sixgen.generators))


@pytest.mark.parametrize("ceiling", [5, 6])
def test_uncertified_call_builds_no_syzygies(sixgen, monkeypatch, ceiling):
    """sixgen is 7-regular: a ceiling below its generator degree stops
    before any cut, one at 6 after them, and neither computes a syzygy."""
    def refused(*args):
        raise AssertionError("syzygies of an uncertified table")

    monkeypatch.setattr(resolutions, "syzygies_degreewise", refused)
    res = minimal_resolution(Ideal(sixgen.ring, sixgen.generators), ceiling)
    assert not res.table.complete and res.table.certificate is None
    assert res.presentation is None
    assert res.table.rows() == [(0, 0, 1), (1, 6, 6)]


def test_a_missed_draw_is_drawn_again(monkeypatch):
    """J = x(y, z, w) over GF(3) has the associated primes (x) and
    (y, z, w), both of positive dimension.  Seed "a" first draws a form in
    (y, z, w), whose kernel has positive dimension; the next draw is
    kept, and the forms certify m = reg J = 2.  Without redraws the same
    seed certifies nothing."""
    ring = Ring(GF(3), ["x", "y", "z", "w"])
    x, y, z, w = (ring.variable(i) for i in range(4))
    ideal = Ideal(ring, (x * y, x * z, x * w))
    cut, seen = resolutions.regular_cut, []

    def recorded(gb, hs, theta, memo=None):
        out = cut(gb, hs, theta, memo)
        seen.append((theta, hs, out))
        return out

    monkeypatch.setattr(resolutions, "regular_cut", recorded)
    cert = certified_regularity(ideal, DEFAULT_CEILING, "a")
    theta, hs, (ok, _, cut_hs) = seen[0]
    assert not ok and annihilator_series(hs, cut_hs).dimension > 0
    assert theta not in cert.forms and cert.forms[0] == seen[1][0]
    assert len(seen) == len(cert.forms) + 1
    assert cert.m == 2 == minimal_resolution(ideal).table.regularity() + 1
    assert recheck_regularity(ideal.generators, ring, cert)
    monkeypatch.setattr(resolutions, "REGULARITY_REDRAWS", 0)
    assert certified_regularity(ideal, DEFAULT_CEILING, "a") is None
