from dataclasses import replace
from itertools import combinations_with_replacement
from math import comb, prod

import pytest

from fiberlab import blowup as blowup_mod
from fiberlab import cli
from fiberlab.blowup import (IdealContext, equigenerated_data,
                             fiber_presentation, fiber_truncated,
                             minimal_reduction, rees_and_gr,
                             spread_via_jacobian)
from fiberlab.corpus import (CORPUS, CORPUS_BY_ID, compute_entry, load_entry_ideal,
                             read_entry_text)
from fiberlab.depth import graded_depth
from fiberlab.fields import GF, QQ
from fiberlab.graded import piece_span_of_polys, product_rows, spanning_rows
from fiberlab.groebner import eliminate
from fiberlab.hilbert import _poly_add, _poly_mul
from fiberlab.ideals import Ideal
from fiberlab.linalg import rank_of_rows
from fiberlab.polyring import Ring
from fiberlab.predicates import generic_forms
from fiberlab.resolutions import BoundExceededError

from conftest import colength_cm, power_gens, relation_piece_dim, x_first_copy


def test_complete_intersection_fiber(R3):
    x, y, z = (R3.variable(i) for i in range(3))
    fp = fiber_presentation(Ideal(R3, (x, y)))
    assert fp.is_zero()
    assert fp.krull_dimension() == 2
    assert IdealContext(Ideal(R3, (x, y))).fp.multiplicity() == 1


def test_monomial4_quadric(monomial4):
    fp = fiber_presentation(monomial4)
    rels = fp.generators
    assert len(rels) == 1 and rels[0].homogeneous_degree() == 2
    assert fp.krull_dimension() == 3
    assert fp.multiplicity() == 2      # quadric hypersurface


def test_binomial4_cubic(binomial4):
    fp = fiber_presentation(binomial4)
    rels = fp.minimal_generators()
    assert len(rels) == 1 and rels[0].homogeneous_degree() == 3
    assert fp.multiplicity() == 3


def test_non_equigenerated_rejected(R3):
    x, y, z = (R3.variable(i) for i in range(3))
    with pytest.raises(ValueError):
        equigenerated_data(Ideal(R3, (x, y * y)))


def test_rees_koszul(R3):
    x, y, z = (R3.variable(i) for i in range(3))
    pres = rees_and_gr(Ideal(R3, (x, y)))
    assert len(pres.rees_ideal.generators) == 1
    g = pres.rees_ideal.generators[0]
    ring = pres.rees_ideal.ring
    assert ring.names == ("w1", "w2", "x", "y", "z") and pres.wvars == range(2)
    w1, w2, xb, yb = (ring.variable(i) for i in range(4))
    assert g in (yb * w1 - xb * w2, xb * w2 - yb * w1)


def test_rees_and_gr_dimensions(monomial4, sevengen):
    for ideal in (monomial4, sevengen):
        pres = rees_and_gr(ideal)
        assert pres.rees_ideal.krull_dimension() == 4     # dim R + 1
        assert pres.gr_ideal.krull_dimension() == 3       # dim R


@pytest.fixture(scope="module")
def rees_contexts():
    """Contexts of the five full-plan entries over GF(32003) and of
    monomial4 and binomial4 over QQ, their Rees presentations built."""
    entries = [e for e in CORPUS if e.plan == "full"]
    assert len(entries) == 5
    ctxs = [IdealContext(load_entry_ideal(e)) for e in entries]
    ctxs += [IdealContext(load_entry_ideal(CORPUS_BY_ID[name], 0))
             for name in ("ex-3-monomial4", "ex-3-binomial4")]
    for ctx in ctxs:
        assert ctx.pres is not None
    return ctxs


def test_rees_hilbert_function_is_the_powers_of_i(rees_contexts):
    """HF_{S[w]/J}(t) = sum over a + b = t of dim_k [I^b]_{a+bd}, the
    bigraded pieces of R(I), through t = 6: past the total degree
    ``REES_CHECK_DEGREE`` that ``rees_and_gr`` checks."""
    for ctx in rees_contexts:
        ring = ctx.ring
        hf = ctx.pres.rees_ideal.hilbert_series().coefficients(6)
        pieces = [sum(ctx.rank([ring.monomial(ring.exponents(u))
                                for u in ring.monomials_of_degree(a)], t - a)
                      for a in range(t + 1)) for t in range(7)]
        assert hf == pieces


def test_gr_numerator_from_the_rees_numerator(rees_contexts):
    """N_gr = (1 - T^{d-1})·N_R + T^{d-1}·(1 - T)^m, both numerators over
    (1 - T)^{m+n}, against gr's own series: R(I)_{(a,b)} = [I^b]_{a+bd}
    and (I·R(I))_{(a,b)} = R(I)_{(a-d,b+1)}."""
    for ctx in rees_contexts:
        pres, d, m = ctx.pres, ctx.degree, len(ctx.mingens)
        rees = pres.rees_ideal.hilbert_series().numerator_dict()
        gr = pres.gr_ideal.hilbert_series().numerator_dict()
        tail = {d - 1 + k: (-1) ** k * comb(m, k) for k in range(m + 1)}
        assert gr == _poly_add(_poly_mul({0: 1, d - 1: -1}, rees), tail)


def _drop_a_linear_syzygy(monkeypatch):
    """Make the t-elimination of ``rees_and_gr`` lose one relation of
    bidegree (1, 1): x-degree one and w-degree one in k[t, x.., w..]."""
    real = blowup_mod.eliminate

    def planted(gens, count):
        kept = real(gens, count)
        if count != 1:      # the x-elimination of the fiber
            return kept
        ring = kept[0].ring
        n = ring.nvars - len(gens)      # t, then the x-variables, then one w per generator

        def bidegree(g):
            return {(sum(e[1:n]), sum(e[n:])) for e in map(ring.exponents, g.terms)}

        linear = [g for g in kept if bidegree(g) == {(1, 1)}]
        assert linear
        return [g for g in kept if g is not linear[0]]

    monkeypatch.setattr(blowup_mod, "eliminate", planted)


@pytest.mark.parametrize("field", [GF(32003), QQ], ids=["F32003", "QQ"])
def test_rees_check_refuses_a_dropped_linear_syzygy(R3, binomial4, sevengen, field,
                                                     monkeypatch):
    """A J without one of its linear syzygies still vanishes under
    w -> f t and still has dimension dim R + 1, and its gr still has
    dimension dim R; its Hilbert function in total degree 2 exceeds the
    pieces of the powers of I, and the check refuses it."""
    _drop_a_linear_syzygy(monkeypatch)
    ring = Ring(field, R3.names)
    for ideal in (binomial4, sevengen):
        copy = Ideal(ring, tuple(R3.embed(g, ring) for g in ideal.generators))
        with pytest.raises(AssertionError, match="total degree 2"):
            rees_and_gr(copy)


def test_dropped_linear_syzygy_exits_five(tmp_path, monkeypatch, capsys):
    """Under ``fiberlab invariants`` the refused J is an internal error."""
    entry = CORPUS_BY_ID["ex-3-binomial4"]
    p = tmp_path / entry.filename
    p.write_text(read_entry_text(entry))
    _drop_a_linear_syzygy(monkeypatch)
    assert cli.main(["invariants", str(p)]) == cli.EXIT_INTERNAL == 5
    assert capsys.readouterr().err.startswith("internal error: AssertionError")


def test_w_first_copies_keep_hilbert_series(monomial4, binomial4, sixgen, sevengen):
    """The w-first presentations that every cut uses present the same
    algebras as their x-first copies: J and gr have the Hilbert series
    of the copies, whose bases are built in the other order, and the
    x-free elements of the x-first copy's elimination basis give Q."""
    for ideal in (monomial4, binomial4, sixgen, sevengen):
        ctx = IdealContext(ideal)
        pres, fp = ctx.pres, ctx.fp
        big = pres.rees_ideal.ring
        assert [big.names[i] for i in pres.wvars] == list(fp.ring.names)
        assert big.names == fp.ring.names + ideal.ring.names
        ring, rees, gr = x_first_copy(pres, ideal)
        for copy, orig in ((rees, pres.rees_ideal), (gr, pres.gr_ideal)):
            assert [ring.embed(g, big) for g in copy.generators] == \
                list(orig.generators)
            assert copy.hilbert_series().numerator_dict() == \
                orig.hilbert_series().numerator_dict()
        wanted = Ideal(fp.ring, tuple(ring.restrict(g, fp.ring) for g in eliminate(
            rees.generators, ideal.ring.nvars)))
        assert wanted == fp


def test_fiber_relations_inside_rees(monomial4, binomial4, sixgen):
    """Q is read off J, so this rechecks the restriction to k[w]."""
    for ideal in (monomial4, binomial4, sixgen):
        ctx = IdealContext(ideal)
        fp, pres = ctx.fp, ctx.pres
        gb = pres.rees_ideal.groebner()
        for q in fp.generators:
            assert gb.contains(fp.ring.embed(q, pres.rees_ideal.ring))


def direct_fiber_relations(ideal, fiber_ring):
    """Q by its own elimination: x eliminated from (w_i - f_i) in
    k[x.., w..], each w_i weighted by d, restricted to ``fiber_ring``."""
    ring = ideal.ring
    gens, d = equigenerated_data(ideal)
    big = Ring(ring.field, ring.names + fiber_ring.names,
               ring.weights + (d,) * len(gens))
    work = [big.variable(ring.nvars + i) - ring.embed(f, big)
            for i, f in enumerate(gens)]
    return tuple(big.restrict(g, fiber_ring) for g in eliminate(work, ring.nvars))


def test_fiber_relations_match_direct_elimination(R3, R3q, monomial4):
    """Q = J ∩ k[w] is the reduced basis the fiber's own elimination
    gives, element for element."""
    x, y, z = (R3.variable(i) for i in range(3))
    ideals = [Ideal(R3, (x, y)),
              Ideal(R3q, tuple(R3.embed(g, R3q) for g in monomial4.generators))]
    ideals += [load_entry_ideal(e) for e in CORPUS if e.plan == "full"]
    assert len(ideals) == 7
    for ideal in ideals:
        fp = fiber_presentation(ideal)
        assert fp.generators == direct_fiber_relations(ideal, fp.ring)


def test_relation_dims_formula(monomial4, binomial4, sixgen, sevengen):
    """dim_k [Q]_n by elimination vs the binomial-minus-piece formula."""
    for ideal in (monomial4, binomial4, sixgen, sevengen):
        fp = fiber_presentation(ideal)
        gens, d = equigenerated_data(ideal)
        m = len(gens)
        powers = [[ideal.ring.one()], list(gens)]
        for n in range(1, 5):
            while len(powers) <= n:
                prev = Ideal(ideal.ring,
                             tuple(a * b for a in powers[-1] for b in gens))
                powers.append(prev.minimal_generators())
            formula = comb(m + n - 1, n) - piece_span_of_polys(
                powers[n], n * d, ideal.ring).rank
            assert relation_piece_dim(fp, n) == formula


def test_power_gens_count_is_piece_dimension(R3, R3q, binomial4):
    """mu(I^n) = dim_k [I^n]_{nd} for equigenerated I, the identity every
    read of that dimension relies on: the rank of all raw products
    f_{i1}...f_{in} of the generators, which span [I^n]_{nd}, against the
    number of rows of I^n that ``power_rows`` keeps and the number of
    minimal generators of the polynomial products (``conftest.power_gens``),
    whose span holds every kept row; on the six equigenerated corpus
    ideals and binomial4 over QQ."""
    ctxs = [IdealContext(load_entry_ideal(e)) for e in CORPUS]
    ctxs = [ctx for ctx in ctxs if ctx.degree is not None]
    assert len(ctxs) == 6
    ctxs.append(IdealContext(Ideal(R3q, tuple(R3.embed(g, R3q)
                                              for g in binomial4.generators))))
    for ctx in ctxs:
        ring = ctx.ring
        for n in range(1, 4):
            raw = [prod(c, start=ring.one())
                   for c in combinations_with_replacement(ctx.ideal.generators, n)]
            rows, gens = ctx.power_rows(n), power_gens(ctx.ideal, n)
            assert len(rows) == len(gens) == piece_span_of_polys(
                raw, n * ctx.degree, ring).rank
            assert not piece_span_of_polys(gens, n * ctx.degree, ring).reduce(rows).any()


def test_power_rows_are_standard_monomials_of_the_fiber(R3, R3q, binomial4):
    """``power_rows`` multiplies g_i by the rows of I^{n-1} kept from the
    blocks of g_0..g_i only.  Labelled by monomials in the generators, the
    rows it keeps are closed under division, as the standard monomials of
    the fiber relations are, and they are the polynomial products of their
    labels, chosen greedily in the order of the scan; their number, per
    block and in all, is the rank of the products, and in all the rank of
    every raw product f_{i1}...f_{in}, so they span [I^n]_{nd}.  For
    n <= 4 on the six equigenerated corpus ideals and binomial4 over QQ."""
    ctxs = [IdealContext(load_entry_ideal(e)) for e in CORPUS]
    ctxs = [ctx for ctx in ctxs if ctx.degree is not None]
    assert len(ctxs) == 6
    ctxs.append(IdealContext(Ideal(R3q, tuple(R3.embed(g, R3q)
                                              for g in binomial4.generators))))
    for ctx in ctxs:
        ring, gens, d = ctx.ring, ctx.mingens, ctx.degree
        labels, ends, products = [()], [1] * len(gens), {(): ring.one()}
        for n in range(1, 5):
            candidates = [(*label, i) for i, end in enumerate(ends) for label in labels[:end]]
            for label in candidates:
                products[label] = products[label[:-1]] * gens[label[-1]]
            piece = piece_span_of_polys([], n * d, ring)
            rows = list(spanning_rows([products[c] for c in candidates], n * d, ring))
            kept = [c for c, grew in zip(candidates, piece.extend(rows)) if grew]
            got = ctx.power_rows(n)
            assert got.tolist() == [row.tolist() for row, c in zip(rows, candidates)
                                    if c in kept]
            low = set(labels)
            assert all(tuple(sorted(c[:k] + c[k + 1:])) in low
                       for c in kept for k in range(n))
            labels = kept
            ends = [sum(max(c) <= i for c in kept) for i in range(len(gens))]
            assert ctx._powers[n].ends == ends
            raw = [prod(c, start=ring.one())
                   for c in combinations_with_replacement(gens, n)]
            assert len(got) == piece_span_of_polys(raw, n * d, ring).rank


@pytest.mark.parametrize("field", [GF(32003), GF(67108859), QQ],
                         ids=["F32003", "F67108859", "QQ"])
def test_projected_rank_is_the_full_rank(R3, binomial4, sixgen, field, monkeypatch):
    """``IdealContext.rank`` of (forms)·I^r, for forms in I_d with I^{r+1}
    built, makes the products at the pivot columns of I^{r+1} only, and
    their rank is the rank of the full products.  A form outside I_d
    (x^d), or a power I^{r+1} not yet built, takes the full-width
    route.  Over QQ, where the Fraction products are the cost, only
    binomial4."""
    routes = []

    def spy(forms, rows, degree, ring, columns=None):
        routes.append(columns is not None)
        return product_rows(forms, rows, degree, ring, columns)

    monkeypatch.setattr(blowup_mod, "product_rows", spy)
    ring = Ring(field, R3.names)
    for ideal in (binomial4, sixgen) if field.characteristic else (binomial4,):
        ctx = IdealContext(Ideal(ring, tuple(R3.embed(g, ring) for g in ideal.generators)))
        d, x = ctx.degree, ring.variable(0)
        ctx.power_rows(3)
        forms = generic_forms(ctx, 3, "projected").forms
        for case, r, projected in ((forms, 0, True), (forms[:2], 1, True), (forms, 2, True),
                                   ([forms[0], x ** d], 1, False), (forms, 3, False)):
            routes.clear()
            got = ctx.rank(case, r)
            assert routes[-1] is projected
            full = product_rows(case, ctx.power_rows(r), r * d, ring)
            assert got == rank_of_rows(full, ring.field, full.shape[1])


def test_spread_bounds(monomial4, sixgen, sevengen):
    for ideal in (monomial4, sixgen, sevengen):
        spread = fiber_presentation(ideal).krull_dimension()
        assert ideal.height() <= spread <= 3


def test_is_cm_examples(R3, monomial4, binomial4):
    """The CM verdicts are depth = dimension on the certified descents,
    with the colength criterion (``conftest.colength_cm``) beside them:
    S itself, the CM fiber and Rees algebra of monomial4, and the Rees
    algebra of binomial4, of depth 3 in dimension 4."""
    depth = graded_depth(Ideal(R3, ()), seed="cm:S")
    assert depth.exact and depth.value == depth.dimension == 3
    assert colength_cm(Ideal(R3, ()), "cm:S")
    ctx = IdealContext(monomial4, "m4")
    assert ctx.fiber_cm and ctx.rees_cm
    assert ctx.fiber_depth.seed == "cm:m4:fiber:depth"
    assert ctx.rees_depth.seed == "cm:m4:rees:depth"
    assert colength_cm(ctx.fp, "cm:m4") and colength_cm(ctx.pres.rees_ideal, "cm:m4")
    ctxb = IdealContext(binomial4, "b4")
    assert ctxb.fiber_cm and not ctxb.rees_cm
    rees = ctxb.rees_depth
    assert rees.exact and rees.witness is not None and rees.value == 3 < rees.dimension == 4
    assert not colength_cm(ctxb.pres.rees_ideal, "cm:b4")


@pytest.mark.parametrize("entry_id", [e.id for e in CORPUS if e.plan == "full"])
def test_colength_oracle_agrees_with_the_descent(entry_id):
    """On the five full-plan entries over GF(32003) the colength criterion
    gives the fiber and Rees verdicts that the reports read off the depth
    descents."""
    objects = compute_entry(entry_id)["_objects"]
    assert colength_cm(objects["fp"], f"oracle:{entry_id}:fiber") == objects["fiber_cm"]
    assert colength_cm(objects["rees"].rees_ideal, f"oracle:{entry_id}:rees") \
        == objects["rees_cm"]


def test_rees_descent_of_monomial4_over_gf3_is_inexact():
    """A known gap of the descent's candidate schedule over GF(3) (ROADMAP
    20): R(I) of monomial4 is CM of depth 4, and the colength criterion,
    on the draws of the old colength test's first trial, reads CM, but
    the Rees descent certifies only 3 regular forms and then finds no
    regular candidate and no socle witness, so the CM test raises the
    bound error and the report exits 3 (``test_cli``)."""
    ctx = IdealContext(load_entry_ideal(CORPUS_BY_ID["ex-3-monomial4"], 3),
                       "ex-3-monomial4")
    rees = ctx.pres.rees_ideal
    assert colength_cm(rees, "cm:ex-3-monomial4:rees:0")
    rep = graded_depth(rees, seed="cm:ex-3-monomial4:rees:depth")
    assert (rep.value, rep.dimension, rep.exact, rep.witness) == (3, 4, False, None)
    with pytest.raises(BoundExceededError, match="cm:ex-3-monomial4:rees:depth"):
        ctx.rees_cm


def test_exhausted_draws_raise_the_bound_error(monomial4, monkeypatch):
    """The seeded draws are bounded searches: 16 draws of dependent
    coefficient rows raise ``BoundExceededError``, not a self-check
    failure."""
    monkeypatch.setattr(blowup_mod, "rank_of_rows", lambda *args: 0)
    with pytest.raises(BoundExceededError, match="16 draws"):
        blowup_mod.random_forms_in_degree(monomial4, 2, "s")


def test_minimal_reductions(R3, monomial4, binomial4):
    x, y, z = (R3.variable(i) for i in range(3))
    ci = minimal_reduction(Ideal(R3, (x, y)), seed="t")
    assert ci.reduction_number == 0 and ci.verified
    r1 = minimal_reduction(monomial4, seed="t")
    assert r1.reduction_number == 1 and r1.spread == 3
    r2 = minimal_reduction(binomial4, seed="t")
    assert r2.reduction_number == 2


def test_reduction_number_invariance_cm_fiber(binomial4):
    """CM fiber: the reduction number is seed-independent."""
    values = {minimal_reduction(binomial4, seed=f"s{k}").reduction_number
              for k in range(3)}
    assert values == {2}


def test_truncated_fiber_agrees_with_full(binomial4, sixgen, sevengen):
    """Relation dimensions read off [I^n]_{nd} are the same with and
    without the eliminations, and equal the eliminated presentation's."""
    for ideal in (binomial4, sixgen, sevengen):
        full = IdealContext(ideal)
        dims = fiber_truncated(full, 4)
        assert dims == fiber_truncated(IdealContext(ideal, bounded=True), 4)
        assert dims == {n: relation_piece_dim(full.fp, n) for n in range(1, 5)}


def test_relation_dim_cross_check_raises(binomial4):
    """A presentation that disagrees with the pieces is a failed
    self-check, raised also under ``python -O``."""
    ctx = IdealContext(binomial4)
    ctx.fp = Ideal(ctx.fp.ring, ())
    assert ctx.relation_dim(2) == 0
    with pytest.raises(AssertionError, match="fiber piece mismatch at n=3"):
        ctx.relation_dim(3)


def test_jacobian_spread(monomial4, sevengen):
    lower, exact = spread_via_jacobian(monomial4)
    assert lower == 3 and exact          # spread 3 meets dim R
    lower7, exact7 = spread_via_jacobian(sevengen)
    assert lower7 == 3 and exact7


def test_gr_plus_codim(monomial4, sixgen):
    """gr/gr+ = R/I, so gr+ has codimension ht I; a gr of the wrong
    dimension (J alone) is a failed self-check."""
    for ideal in (monomial4, sixgen):
        pres = rees_and_gr(ideal)
        assert pres.gr_plus_codimension() == ideal.height()
        with pytest.raises(AssertionError, match="gr quotient has unexpected dimension"):
            replace(pres, gr_ideal=pres.rees_ideal).gr_plus_codimension()


def test_rees_gr_regularity_equality(monomial4, binomial4):
    """reg(gr) = reg(Rees) where both resolutions complete; the
    resolution depths also re-confirm the descent engine on a third,
    independent route."""
    from fiberlab.resolutions import minimal_resolution
    for ideal in (monomial4, binomial4):
        pres = rees_and_gr(ideal)
        rres = minimal_resolution(pres.rees_ideal, ceiling=14)
        gres = minimal_resolution(pres.gr_ideal, ceiling=14)
        assert rres.table.complete and gres.table.complete
        assert rres.table.regularity() == gres.table.regularity()
        n = pres.rees_ideal.ring.nvars
        assert n - rres.table.projective_dimension == \
            graded_depth(pres.rees_ideal, seed="ooishi").value
        assert n - gres.table.projective_dimension == \
            graded_depth(pres.gr_ideal, seed="ooishi").value
