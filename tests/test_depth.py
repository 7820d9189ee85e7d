import random
from dataclasses import replace

import pytest

from fiberlab import depth as depth_mod
from fiberlab.blowup import IdealContext, rees_and_gr
from fiberlab.corpus import CORPUS, CORPUS_BY_ID, load_entry_ideal
from fiberlab.depth import (annihilator_series, bounded_ideal_grade, graded_depth,
                            regular_cut, series_of_basis, socle_witness)
from fiberlab.fields import GF, QQ
from fiberlab.groebner import (_MonomialForms, _nf_terms, buchberger, extend_basis,
                               normal_form)
from fiberlab.ideals import Ideal
from fiberlab.hilbert import HilbertSeries
from fiberlab.polyring import EXPONENT_LIMIT, GREVLEX, Polynomial, Ring, RingError, repack

from conftest import (colon, counting_cuts, intersect, leading_exponents, random_poly,
                      x_first_copy)


def standard_monomials(gb, degree):
    """The packed standard monomials of one degree, descending."""
    for e, layer in enumerate(depth_mod._standard_layers(gb)):
        if e == degree:
            return layer
    return []


def test_polynomial_ring_is_cm(R3):
    x, y, z = (R3.variable(i) for i in range(3))
    rep = graded_depth(Ideal(R3, (x * y,)), seed="t")
    assert rep.exact and rep.value == 2 and rep.dimension == 2


def test_classic_depth_one_example():
    """(x1,x2) cap (x3,x4): dimension 2, depth 1."""
    ring = Ring(GF(32003), ["x1", "x2", "x3", "x4"])
    x1, x2, x3, x4 = (ring.variable(i) for i in range(4))
    a = intersect(Ideal(ring, (x1, x2)), Ideal(ring, (x3, x4)))
    rep = graded_depth(a, seed="t")
    assert rep.exact
    assert rep.dimension == 2
    assert rep.value == 1
    assert rep.witness is not None
    # the witness genuinely sits in the socle of the quotient by the cuts
    gb = extend_basis(a.groebner(), tuple(rep.regular_forms))
    w = rep.witness
    assert not normal_form(w, gb).is_zero()
    for i in range(4):
        assert normal_form(w * ring.variable(i), gb).is_zero()


def test_artinian_depth_zero(R3):
    x, y, z = (R3.variable(i) for i in range(3))
    rep = graded_depth(Ideal(R3, (x, y, z * z)), seed="t")
    assert rep.exact and rep.value == rep.dimension == 0   # Artinian: CM


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
    a = intersect(Ideal(ring, (x1, x2)), Ideal(ring, (x3, x4)))
    rep = graded_depth(a, seed="t")
    assert rep.exact and rep.value == 1


def test_bounded_grade_full_variable_range(monomial4):
    pres = rees_and_gr(monomial4)
    gb = pres.gr_ideal.groebner()
    # gr is CM here, so the irrelevant ideal has grade = ht I = 2
    out = bounded_ideal_grade(gb, pres.wvars, seed="grade-test")
    assert out.value == 2


def test_depth_skips_to_dimension_cap(R3):
    x, y, z = (R3.variable(i) for i in range(3))
    rep = graded_depth(Ideal(R3, (x,)), seed="t")
    assert rep.value == rep.dimension == 2   # stops at the CM cap exactly


def test_weighted_grading_rejected():
    """The descent and the multiplicity need the standard grading; a
    weighted ring is refused with ValueError, also under -O."""
    ring = Ring(GF(32003), ["x", "y", "w"], weights=(1, 1, 2))
    x, y, w = (ring.variable(i) for i in range(3))
    ideal = Ideal(ring, (x * y, w - x * x))
    with pytest.raises(ValueError, match="standard grading"):
        graded_depth(ideal, seed="t")
    with pytest.raises(ValueError, match="standard grading"):
        ideal.hilbert_series().multiplicity


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
    """Example 2.2: grade gr+ = 1, ended by a certified witness, on the
    gr that the report cuts (gr+ = the first 7 variables)."""
    pres = rees_and_gr(sevengen)
    gr = pres.gr_ideal
    ring, gb, wvars = gr.ring, gr.groebner(), pres.wvars
    assert wvars == range(7) and all(ring.names[i].startswith("w") for i in wvars)
    out = bounded_ideal_grade(gb, wvars, seed="grade:ex-2.2-sevengen")
    assert out.value == 1 and out.exact
    cut = extend_basis(gb, tuple(out.regular_forms))
    h = out.witness
    assert not normal_form(h, cut).is_zero()
    for i in wvars:
        assert normal_form(h * ring.variable(i), cut).is_zero()


def test_depth_is_exact_on_sevengen_w_first_gr(sevengen):
    """Example 2.2: depth gr = 2 in k[w.., x..], with the report's seed:
    two certified regular forms, then a witness in the socle of gr modulo
    both, rechecked by normal forms."""
    gr = rees_and_gr(sevengen).gr_ideal
    ring = gr.ring
    rep = graded_depth(gr, seed="depthgr:ex-2.2-sevengen")
    assert rep.exact and rep.value == 2 and rep.dimension == 3
    cut = extend_basis(gr.groebner(), tuple(rep.regular_forms))
    assert not normal_form(rep.witness, cut).is_zero()
    for i in range(ring.nvars):
        assert normal_form(rep.witness * ring.variable(i), cut).is_zero()


def test_depth_and_grade_do_not_depend_on_variable_order(monomial4, binomial4,
                                                          sixgen):
    """The descents and the grade search give the same exact values on the
    w-first presentations and on their x-first copies."""
    for ideal in (monomial4, binomial4, sixgen):
        pres = rees_and_gr(ideal)
        ring, xrees, xgr = x_first_copy(pres, ideal)
        for xfirst, wfirst in ((xrees, pres.rees_ideal), (xgr, pres.gr_ideal)):
            a = graded_depth(xfirst, seed="order")
            b = graded_depth(wfirst, seed="order")
            assert a.exact and b.exact and a.value == b.value
        n = ideal.ring.nvars
        a = bounded_ideal_grade(xgr.groebner(), range(n, ring.nvars), seed="order")
        b = bounded_ideal_grade(pres.gr_ideal.groebner(), pres.wvars, seed="order")
        assert a.exact and b.exact and a.value == b.value


def test_planted_auslander_buchsbaum_mismatch_is_an_internal_error(monomial4):
    """The depth block holds the fiber's depth by Auslander-Buchsbaum, on
    its certified resolution, to the depth of the fiber's descent, which
    the CM verdict reads: a planted descent one shallower raises
    ``AssertionError``, and the real one agrees."""
    from fiberlab import corpus
    ctx = IdealContext(monomial4, "ex-3-monomial4")
    real = ctx.fiber_depth
    ctx.fiber_depth = replace(real, value=real.value - 1)
    with pytest.raises(AssertionError, match="Auslander-Buchsbaum"):
        corpus._depth_block(ctx, {"invariants": {}, "skipped": {}})
    ctx.fiber_depth = real
    report = {"invariants": {}, "skipped": {}}
    corpus._depth_block(ctx, report)
    assert report["invariants"]["depth_fiber"] == real.value == 3


# the entries whose gr+ has exact grade 1 below its codimension 2, so
# that gr is not CM and its descent stops at dim gr - 1 (D23)
NOT_CM_GR = ("ex-2.1-sixgen", "ex-2.2-sevengen", "ex-3-matrix5x4")


@pytest.mark.parametrize("entry_id", NOT_CM_GR)
def test_bounded_gr_descent_drops_only_the_failing_parameter_cut(entry_id, monkeypatch):
    """gr's descent with the report's seed and ``bound`` = dim gr - 1
    gives the unbounded descent's value, ``exact`` and regular forms,
    with no witness: it makes the same cuts but the last, D6's dense
    parameter cut, which fails, and no socle search.  A bound of dim gr
    changes nothing."""
    gr = rees_and_gr(load_entry_ideal(CORPUS_BY_ID[entry_id])).gr_ideal
    assert gr.ring.field == GF(32003)
    seed, dim = f"depthgr:{entry_id}", gr.krull_dimension()
    calls = counting_cuts(monkeypatch)
    searches = []
    search = depth_mod.socle_witness
    monkeypatch.setattr(depth_mod, "socle_witness",
                        lambda *args, **kw: searches.append(args) or search(*args, **kw))
    made = []
    for bound in (None, dim - 1, dim):
        calls.clear()
        searches.clear()
        made.append((graded_depth(gr, seed=seed, bound=bound), list(calls), len(searches)))
    (free, free_cuts, free_searches), (bounded, cuts, bounded_searches), full = made
    assert (free.value, free.exact, free.dimension) == (dim - 1, True, dim)
    assert (bounded.value, bounded.exact, bounded.witness) == (dim - 1, True, None)
    assert bounded.regular_forms == free.regular_forms
    assert cuts == free_cuts[:-1] and len(free_cuts[-1].terms) == gr.ring.nvars
    assert (free_searches, bounded_searches) == (1, 0)
    assert full == made[0]


@pytest.mark.parametrize("entry_id", [e.id for e in CORPUS if e.plan == "full"])
def test_gr_depth_is_bounded_where_the_grade_shows_gr_not_cm(entry_id, monkeypatch):
    """``IdealContext.gr_depth`` passes ``bound`` = dim gr - 1 exactly on
    the entries whose exact grade of gr+ is below its codimension, and
    no bound on binomial4 (grade 2 = codim 2) and monomial4 (gr CM)."""
    from fiberlab import blowup
    bounds = []
    real = blowup.graded_depth
    monkeypatch.setattr(blowup, "graded_depth",
                        lambda ideal, *, seed, bound=None: bounds.append((seed, bound))
                        or real(ideal, seed=seed, bound=bound))
    ctx = IdealContext(load_entry_ideal(CORPUS_BY_ID[entry_id]), entry_id)
    rep = ctx.gr_depth
    assert rep.exact and bounds[-1][0] == f"depthgr:{entry_id}"
    grade = ctx.gr_plus_grade
    assert (grade.value, ctx.gr_plus_codim) == ((1, 2) if entry_id in NOT_CM_GR else (2, 2))
    assert bounds[-1][1] == (rep.dimension - 1 if entry_id in NOT_CM_GR else None)


def test_planted_grade_on_monomial4_is_caught_by_huckaba_marley(monkeypatch, capsys):
    """A planted exact grade of 1 on monomial4, whose gr is CM (grade 2
    = codim 2), lets gr's descent stop at depth 2 of dimension 3.  The
    Rees descent reads 4, not 2 + 1, so the Huckaba-Marley check raises
    and ``fiberlab reproduce`` exits 5."""
    from fiberlab import blowup, cli, corpus
    real = blowup.bounded_ideal_grade
    monkeypatch.setattr(blowup, "bounded_ideal_grade", lambda gb, var_range, *, seed:
                        replace(real(gb, var_range, seed=seed), value=1))
    ctx = IdealContext(load_entry_ideal(CORPUS_BY_ID["ex-3-monomial4"]), "ex-3-monomial4")
    assert (ctx.gr_depth.value, ctx.gr_depth.dimension, ctx.rees_depth.value) == (2, 3, 4)
    monkeypatch.setattr(corpus, "_REPORT_CACHE", {})
    assert cli.main(["reproduce", "ex-3-monomial4"]) == cli.EXIT_INTERNAL == 5
    err = capsys.readouterr().err
    assert err.startswith("internal error: AssertionError") and "Huckaba-Marley" in err


def test_planted_rees_depth_on_sevengen_is_caught_by_huckaba_marley(sevengen):
    """On sevengen gr is not CM, of depth 2: a Rees descent planted one
    deeper than 2 + 1 raises, and the real one passes."""
    from fiberlab import corpus
    ctx = IdealContext(sevengen, "ex-2.2-sevengen")
    real = ctx.rees_depth
    ctx.rees_depth = replace(real, value=real.value + 1)
    with pytest.raises(AssertionError, match="Huckaba-Marley"):
        corpus._depth_block(ctx, {"invariants": {}, "skipped": {}})
    ctx.rees_depth = real
    report = {"invariants": {}, "skipped": {}}
    corpus._depth_block(ctx, report)
    assert (report["invariants"]["depth_gr"], report["invariants"]["depth_rees"]) == (2, 3)


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


def _sub_numerators(a, b):
    """The numerator of a minus that of b, over the same denominator."""
    out = a.numerator_dict()
    for d, c in b.numerator:
        out[d] = out.get(d, 0) - c
    return {d: c for d, c in out.items() if c}


@pytest.mark.parametrize("field", [GF(32003), QQ], ids=["F32003", "QQ"])
def test_annihilator_series_matches_colon(field):
    """H of 0 :_A theta, read off H_A and H_{A/theta A}, against
    H_A - H_{S/(J : theta)} with the colon from Groebner elimination."""
    ring = Ring(field, ["x", "y", "z", "w"])
    x, y, z, w = (ring.variable(i) for i in range(4))
    rng = random.Random("annihilator-series")
    cases = [(Ideal(ring, (x * y, x * z, y * z)), x)]   # K = (y, z): dimension 1
    for _ in range(5):
        theta = ring.linear_form([field.random_raw(rng) for _ in range(4)])
        # x times the maximal ideal: K = (x), of finite length
        cases.append((Ideal(ring, (x * x, x * y, x * z, x * w)), theta))
        f, g, h = (random_poly(ring, d, rng) for d in (1, 2, 2))
        cases.append((Ideal(ring, (theta * f, g, h)), theta))
        cases.append((Ideal(ring, (g, h)), theta))
    dims = set()
    for ideal, theta in cases:
        hs = ideal.hilbert_series()
        cut_hs = (ideal + Ideal(ring, (theta,))).hilbert_series()
        kernel = annihilator_series(hs, cut_hs)
        oracle = colon(ideal, theta).hilbert_series()
        assert kernel.numerator_dict() == _sub_numerators(hs, oracle)
        dims.add(kernel.dimension)
    assert {-1, 0, 1} <= dims


def _search_within_failed_cut(gb, theta, bound, var_range=None):
    """(witness, K): socle_witness within K = 0 :_A theta, theta a failed
    cut, returns the witness of the unrestricted search."""
    hs = series_of_basis(gb)
    ok, _, cut_hs = regular_cut(gb, hs, theta)
    assert not ok
    kernel = annihilator_series(hs, cut_hs)
    witness = socle_witness(gb, bound, var_range)
    assert socle_witness(gb, bound, var_range, within=kernel) == witness
    return witness, kernel


@pytest.mark.parametrize("field", [GF(32003), QQ], ids=["F32003", "QQ"])
def test_socle_search_within_annihilator_finds_the_same_witness(field):
    """Absolute and relative searches, confined to the degrees where 0 :_A
    theta is nonzero, find the unrestricted witness, on seeded Artinian
    complete intersections and on ideals (q1, q2) + a * m^2 of depth 0 and
    dimension 2; at least one degree below each witness is skipped."""
    ring = Ring(field, ["a", "b", "c", "d"])
    rng = random.Random("socle-within")
    a = ring.variable(0)
    for _ in range(2):
        quadrics = tuple(random_poly(ring, 2, rng, terms=8) for _ in range(4))
        embedded = quadrics[:2] + tuple(a * Polynomial(ring, {m: field.one})
                                        for m in ring.monomials_of_degree(2))
        for gens in (quadrics, embedded):
            gb = Ideal(ring, gens).groebner()
            dense = ring.linear_form([field.random_raw(rng, nonzero=True) for _ in range(4)])
            in_cd = ring.linear_form([0, 0] + [field.random_raw(rng, nonzero=True)
                                               for _ in range(2)])
            for theta, var_range in ((dense, None), (in_cd, [2, 3])):
                witness, kernel = _search_within_failed_cut(gb, theta, 6, var_range)
                assert witness is not None
                top = witness.homogeneous_degree()
                assert 0 in kernel.coefficients(top)[:top]


@pytest.mark.parametrize("field", [GF(32003), QQ], ids=["F32003", "QQ"])
def test_socle_search_within_zero_series_finds_nothing(field):
    """A ``within`` that is 0 in every degree through the bound leaves no
    degree to search: None, although the unrestricted search finds the
    witness of k[x,y]/(x^2, xy) in degree 1."""
    ring = Ring(field, ["x", "y"])
    x, y = ring.variable(0), ring.variable(1)
    gb = Ideal(ring, (x * x, x * y)).groebner()
    assert socle_witness(gb, 3) is not None
    for zero_through_bound in ({}, {4: 1}, {4: 1, 5: -1}):
        within = HilbertSeries.from_numerator(zero_through_bound, 2)
        assert socle_witness(gb, 3, within=within) is None
    assert socle_witness(gb, 3, var_range=[1],
                         within=HilbertSeries.from_numerator({4: 1}, 2)) is None


def _sevengen_gr(field):
    """(presentation, its ring k[w.., x..], gr ideal) of Example 2.2."""
    from conftest import mono_ideal
    ring = Ring(field, ["x", "y", "z"])
    sevengen = mono_ideal(ring, (0, 0, 6), (0, 1, 5), (1, 1, 4), (1, 2, 3),
                          (1, 3, 2), (2, 3, 1), (3, 3, 0))
    pres = rees_and_gr(sevengen)
    return pres, pres.gr_ideal.ring, pres.gr_ideal


def test_report_socle_searches_on_sevengen_gr_find_the_unrestricted_witness(monkeypatch):
    """Example 2.2, on the report's gr with the report's seeds: the
    depth descent's search within its failed parameter cut's K and the
    grade search within its failed linear cut's K each return the witness
    of the unrestricted search."""
    pres, big, gr = _sevengen_gr(GF(32003))
    searched = []
    search = depth_mod.socle_witness

    def both(gb, bound, var_range=None, within=None):
        witness = search(gb, bound, var_range, within=within)
        if within is not None:
            assert witness == search(gb, bound, var_range)
            searched.append(witness)
        return witness

    monkeypatch.setattr(depth_mod, "socle_witness", both)
    rep = graded_depth(gr, seed="depthgr:ex-2.2-sevengen")
    out = bounded_ideal_grade(gr.groebner(), pres.wvars, seed="grade:ex-2.2-sevengen")
    assert rep.value == 2 and out.value == 1 and rep.exact and out.exact
    assert searched == [rep.witness, out.witness]


def test_socle_search_within_annihilator_on_sevengen_gr_over_qq():
    """Over QQ, on the w-first gr of Example 2.2 cut by the regular forms
    w5 + x and w2 + w7 (sparse, so that the bases stay small): the
    absolute search within 0 :_A z and the search relative to the w
    variables within 0 :_A w1 find the unrestricted witnesses, with
    degrees below them skipped."""
    pres, big, gr = _sevengen_gr(QQ)
    v = big.variable
    gb, hs = gr.groebner(), series_of_basis(gr.groebner())
    for theta in (v(4) + v(7), v(1) + v(6)):
        ok, gb, hs = regular_cut(gb, hs, theta)
        assert ok
    for theta, var_range in ((v(9), None), (v(0), pres.wvars)):
        witness, kernel = _search_within_failed_cut(gb, theta, depth_mod._socle_bound(gb),
                                                    var_range)
        assert witness is not None
        top = witness.homogeneous_degree()
        assert 0 in kernel.coefficients(top)[:top]


def _annihilated_witness(gb, theta):
    """An h = g / x_i, for g in gb and a variable x_i dividing every term
    of g, with h not in J and theta * h in J, read with the public normal
    form; None when there is none."""
    ring = gb.ring
    for g in gb.elements:
        exps = [ring.exponents(m) for m in g.terms]
        for i in range(ring.nvars):
            if all(e[i] for e in exps):
                h = ring.from_terms({e[:i] + (e[i] - 1,) + e[i + 1:]: c
                                     for e, c in zip(exps, g.terms.values())})
                if (not normal_form(h, gb).is_zero()
                        and normal_form(theta * h, gb).is_zero()):
                    return h
    return None


def test_skipped_candidates_are_zero_divisors_where_skipped(monkeypatch):
    """Example 2.2's w-first Rees and gr descents, with the report's seeds:
    each candidate the descent skips without a cut, because its cut failed
    at an earlier stage or because it kills an annihilated element of the
    stage's basis, is cut at the stage where it was skipped, and is not
    regular there either.  The repeated skips are the 20 single variables
    whose cut failed at the stage before; the 72 witnessed skips each come
    with an h = g / x_i, found again here with the public normal form, with
    h not in J and theta * h in J."""
    pres, big, gr = _sevengen_gr(GF(32003))
    rees = pres.rees_ideal
    cut, schedule = depth_mod.regular_cut, depth_mod._candidate_forms
    stage, cuts, repeated, witnessed = [None], [], [], []

    class Recorded(depth_mod._AnnihilatedElements):
        """The check, noting each stage of the candidate loop and the forms
        it catches."""

        def __init__(self, gb):
            super().__init__(gb)
            stage[0] = gb

        def kills(self, theta):
            out = super().kills(theta)
            if out:
                witnessed.append((theta, stage[0]))
            return out

    def tracked(gb, hs, theta, memo=None):
        cuts.append(theta)
        return cut(gb, hs, theta, memo)

    def candidates(ring, rng):
        for theta in schedule(ring, rng):
            made, caught, at = len(cuts), len(witnessed), stage[0]
            yield theta
            if len(cuts) == made and len(witnessed) == caught:
                repeated.append((theta, at))

    monkeypatch.setattr(depth_mod, "regular_cut", tracked)
    monkeypatch.setattr(depth_mod, "_candidate_forms", candidates)
    monkeypatch.setattr(depth_mod, "_AnnihilatedElements", Recorded)
    reps = [graded_depth(rees, seed="cm:ex-2.2-sevengen:rees:depth"),
            graded_depth(gr, seed="depthgr:ex-2.2-sevengen")]
    assert [(r.value, r.exact) for r in reps] == [(3, True), (2, True)]
    assert len(repeated) == 20
    assert all(len(theta.terms) == 1 for theta, _ in repeated)
    assert len(witnessed) == 72
    for theta, gb in witnessed:
        assert _annihilated_witness(gb, theta) is not None
    for theta, gb in repeated + witnessed:
        assert cut(gb, series_of_basis(gb), theta)[0] is False


def _full_plan_descents():
    """(entry id, field override) of the five full-plan entries over
    GF(32003), and of binomial4 and monomial4 over QQ."""
    for e in CORPUS:
        if e.plan == "full":
            yield pytest.param(e.id, None, id=e.id)
    for entry_id in ("ex-3-binomial4", "ex-3-monomial4"):
        yield pytest.param(entry_id, 0, id=f"{entry_id}-QQ")


@pytest.mark.parametrize("entry_id,field_char", list(_full_plan_descents()))
def test_annihilated_element_check_leaves_every_report_unchanged(entry_id, field_char,
                                                                 monkeypatch):
    """The Rees and gr descents and the grade search of gr+ of a corpus
    entry, with the report's seeds, give the same ``DepthReport`` with the
    annihilated-element check on and off (D19): the value, ``exact``, the
    regular forms, the witness and the socle bound.  With the check on
    they make fewer cuts."""
    ideal = load_entry_ideal(CORPUS_BY_ID[entry_id], field_char)
    assert ideal.ring.field == (QQ if field_char == 0 else GF(32003))
    pres = rees_and_gr(ideal)
    calls = counting_cuts(monkeypatch)
    kills = depth_mod._AnnihilatedElements.kills
    made = []
    for check in (kills, lambda self, theta: False):
        monkeypatch.setattr(depth_mod._AnnihilatedElements, "kills", check)
        calls.clear()
        made.append([(graded_depth(pres.rees_ideal, seed=f"cm:{entry_id}:rees:depth"),
                      graded_depth(pres.gr_ideal, seed=f"depthgr:{entry_id}"),
                      bounded_ideal_grade(pres.gr_ideal.groebner(), pres.wvars,
                                          seed=f"grade:{entry_id}")), len(calls)])
    (on, on_cuts), (off, off_cuts) = made
    assert on == off and all(rep.exact for rep in on)
    assert on_cuts < off_cuts


def test_grade_fallback_passes_over_an_annihilating_form(monkeypatch):
    """k[x,y,a,b]/(xa), the grade of (a, b), with the search's first
    linear draw replaced by 2a, a zero-divisor: its cut fails, and (a, b)
    has grade 1, so no relative witness ends the stage, and the fallback
    loop tries the variables.  a kills the annihilated element xa / a = x,
    so with the check on that loop passes over it without a cut, and
    with the check off it cuts a and sees it fail.  Either way the search
    cuts b, and ends with the witness x: the same report."""
    ring = Ring(GF(32003), ["x", "y", "a", "b"])
    x, a, b = ring.variable(0), ring.variable(2), ring.variable(3)
    gb = Ideal(ring, (x * a,)).groebner()
    linear_form, drawn = Ring.linear_form, []

    def first_is_2a(self, coeffs):
        drawn.append(linear_form(self, coeffs))
        return a.scale(2) if len(drawn) == 1 else drawn[-1]

    monkeypatch.setattr(Ring, "linear_form", first_is_2a)
    calls = counting_cuts(monkeypatch)
    kills = depth_mod._AnnihilatedElements.kills
    made = []
    for check in (kills, lambda self, theta: False):
        monkeypatch.setattr(depth_mod._AnnihilatedElements, "kills", check)
        drawn.clear()
        calls.clear()
        made.append((bounded_ideal_grade(gb, [2, 3], seed="t"), list(calls)))
    (on, on_calls), (off, off_calls) = made
    assert on == off
    assert (on.value, on.exact, on.regular_forms, on.witness) == (1, True, [b], x)
    assert on_calls[:2] == [a.scale(2), b] and len(on_calls) == 3
    assert off_calls == [a.scale(2), a, *on_calls[1:]]


def _xz_yz():
    """J = (xz, yz) = (z) cap (x, y) in k[x, y, z, w]: dimension 3, depth 2."""
    ring = Ring(GF(32003), ["x", "y", "z", "w"])
    x, y, z, w = (ring.variable(i) for i in range(4))
    return ring, (x, y, z, w), Ideal(ring, (x * z, y * z)).groebner()


def test_form_killing_an_annihilated_element_is_skipped_without_a_cut(monkeypatch):
    """J = (xz, yz): xz / x = z is not in J, and x and y kill it, so the
    sparse form x + 5y is a zero-divisor.  The check catches it; the
    descent, shown it first, skips it without a cut; cutting it confirms
    that it is not regular.  The regular forms w and x + w are not caught."""
    ring, (x, y, z, w), gb = _xz_yz()
    theta = x + y.scale(5)
    ann = depth_mod._AnnihilatedElements(gb)
    assert ann.kills(theta)
    assert not ann.kills(w) and not ann.kills(x + w)
    assert _annihilated_witness(gb, theta) == z
    assert regular_cut(gb, series_of_basis(gb), theta)[0] is False
    schedule = depth_mod._candidate_forms
    monkeypatch.setattr(depth_mod, "_candidate_forms",
                        lambda ring, rng: iter([theta, *schedule(ring, rng)]))
    calls = counting_cuts(monkeypatch)
    rep = graded_depth(gb, seed="t")
    assert (rep.value, rep.dimension, rep.exact) == (2, 3, True)
    assert calls and theta not in calls


def test_annihilated_element_in_the_ideal_raises():
    """A planted element h = xz, which lies in J = (xz, yz), is killed by
    w, so it would certify w, a regular form: the recheck nf(h) != 0
    raises before the check answers."""
    ring, (x, y, z, w), gb = _xz_yz()
    ann = depth_mod._AnnihilatedElements(gb)
    assert not ann.kills(w)
    ann.elements.append((repack((x * z).terms, ring.packing, gb._reducers.packing), {}))
    with pytest.raises(AssertionError, match="lies in the ideal"):
        ann.kills(w)


@pytest.mark.parametrize("field", [GF(32003), QQ], ids=["F32003", "QQ"])
def test_dimension_one_complete_intersection_takes_one_cut(field, monkeypatch):
    """A dimension-one complete intersection is CM: its one stage is
    decided by one parameter cut."""
    ring = Ring(field, ["a", "b", "c", "d"])
    rng = random.Random("ci-dim-1")
    ideal = Ideal(ring, tuple(random_poly(ring, d, rng) for d in (2, 2, 3)))
    assert ideal.krull_dimension() == 1
    calls = counting_cuts(monkeypatch)
    rep = graded_depth(ideal, seed="t")
    assert rep.exact and rep.value == rep.dimension == 1
    assert len(calls) == 1 and rep.regular_forms == calls
    assert len(calls[0].terms) == ring.nvars        # the dense parameter


@pytest.mark.parametrize("field", [GF(32003), QQ], ids=["F32003", "QQ"])
def test_embedded_point_socle_in_annihilator_top_degree(field, monkeypatch):
    """k[x,y]/(x^2, xy): the parameter cut kills x, so 0 :_A theta = (x)
    has top degree 1, and the witness sits there."""
    ring = Ring(field, ["x", "y"])
    x, y = ring.variable(0), ring.variable(1)
    gb = Ideal(ring, (x * x, x * y)).groebner()
    calls = counting_cuts(monkeypatch)
    rep = graded_depth(gb, seed="t")
    assert rep.exact and rep.value == 0 and rep.dimension == 1
    assert len(calls) == 1 and rep.socle_bound_used == 1
    assert rep.witness.homogeneous_degree() == 1
    assert normal_form(rep.witness * x, gb).is_zero()
    assert normal_form(rep.witness * y, gb).is_zero()
    assert not normal_form(rep.witness, gb).is_zero()


def test_non_parameter_probe_falls_back(monkeypatch):
    """On the three coordinate lines, theta = x lies in the associated
    prime (x, y): 0 :_A x = (y, z) has dimension 1, so the stage goes on
    to the candidate schedule, which finds a regular form."""
    ring = Ring(GF(32003), ["x", "y", "z"])
    x, y, z = (ring.variable(i) for i in range(3))
    draws = []
    dense = depth_mod._dense_form

    def first_x(ring, rng):
        draws.append(None)
        return x if len(draws) == 1 else dense(ring, rng)

    monkeypatch.setattr(depth_mod, "_dense_form", first_x)
    calls = counting_cuts(monkeypatch)
    rep = graded_depth(Ideal(ring, (x * y, x * z, y * z)), seed="t")
    assert rep.exact and rep.value == rep.dimension == 1
    assert calls[0] == x and len(calls) > 1
    assert rep.regular_forms == calls[-1:]


@pytest.mark.parametrize("field", [GF(32003), QQ], ids=["F32003", "QQ"])
def test_monomial_forms_match_nf_terms(field):
    """Each monomial reduced once equals a fresh reduction, on every
    monomial through degree 6, for seeded bases; one instance serves all
    degrees here, and clearing it changes nothing."""
    ring = Ring(field, ["a", "b", "c", "d"])
    rng = random.Random("monomial-forms")
    p = field.characteristic
    for _ in range(3):
        gens = tuple(random_poly(ring, rng.randrange(2, 4), rng) for _ in range(3))
        red = Ideal(ring, gens).groebner()._reducers
        forms = _MonomialForms(red, field)
        for e in range(7):
            for m in ring.monomials_of_degree(e):
                assert forms(m) == _nf_terms({m: field.one}, red, p)
            forms.clear()
            assert not forms.forms


def test_monomial_forms_overflow_raises():
    """x*y*z^(LIMIT-1) rewrites to z^(LIMIT+1) by x*y - z^2: RingError."""
    ring = Ring(GF(32003), ["x", "y", "z"])
    x, y, z = (ring.variable(i) for i in range(3))
    red = buchberger([x * y - z * z], GREVLEX)._reducers
    forms = _MonomialForms(red, ring.field)
    with pytest.raises(RingError):
        forms(ring.packing.pack((1, 1, EXPONENT_LIMIT - 1)))
