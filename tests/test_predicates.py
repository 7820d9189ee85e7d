import dataclasses
import random
from itertools import combinations
from math import comb

import pytest

from fiberlab import blowup as blowup_mod
from fiberlab.blowup import IdealContext, fiber_presentation, minimal_reduction
from fiberlab.depth import regular_cut
from fiberlab.fields import GF, QQ
from fiberlab.ideals import Ideal
from fiberlab.graded import graded_piece, minors_ideal, piece_span_of_polys
from fiberlab.groebner import normal_form_shape
from fiberlab.hilbert import series_of_basis
from fiberlab.parse import maximal_minors
from fiberlab.polyring import Ring
from fiberlab.predicates import (FormSequence, analytically_adjusted,
                                 analytically_tight, check_gs, fiber_indeg,
                                 generic_forms, generically_ci, is_perfect,
                                 map_degree_via_formula,
                                 multiplicity_formula_checks,
                                 regular_in_gr, tight_profile, valabrega_valla,
                                 valla_dimension)
from fiberlab.resolutions import BoundExceededError

from conftest import (colon, counting_cuts, crosscheck_bundles, intersect, joint_rank,
                      power_gens, products, regular_sequence_on_fiber, theorem_crosschecks)


def user_forms(forms) -> FormSequence:
    """Forms given by hand, without generator coordinates."""
    return FormSequence(list(forms), "user")


# ---------------------------------------------------------------------------
# G_s

def localization_gs_oracle(ideal, s):
    """Direct localization at monomial primes (monomial ideals only):
    mu(I_P) <= ht P for every monomial prime P containing I of height
    <= s-1.  Monomial ideals have monomial associated primes, so
    checking all coordinate primes that contain I is exhaustive."""
    ring = ideal.ring
    gens = [ring.exponents(next(iter(g.terms))) for g in ideal.generators]
    n = ring.nvars
    for size in range(1, min(s - 1, n) + 1):
        for subset in combinations(range(n), size):
            inside = set(subset)
            # localize: variables outside the prime become units
            local = []
            for g in gens:
                local.append(tuple(e if i in inside else 0 for i, e in enumerate(g)))
            if not all(any(e for e in g) for g in local):
                continue          # ideal not inside this prime
            # minimal monomial generators of the localization
            local = sorted(set(local), key=sum)
            minimal = []
            for g in local:
                if not any(all(a <= b for a, b in zip(h, g)) for h in minimal):
                    minimal.append(g)
            if len(minimal) > size:
                return False
    return True


def test_gs_complete_intersection(R3):
    x, y, z = (R3.variable(i) for i in range(3))
    ci = Ideal(R3, (x, y))
    for s in (2, 3, 4):
        assert check_gs(ci, s).is_true
        assert localization_gs_oracle(ci, s)


def test_gs_matches_localization_oracle(monomial4, sixgen, sevengen):
    for ideal in (monomial4, sixgen, sevengen):
        for s in (2, 3):
            assert check_gs(ideal, s).is_true == localization_gs_oracle(ideal, s)


def test_gs_matrix_example_frozen():
    from fiberlab.corpus import CORPUS_BY_ID, load_entry_ideal
    ideal = load_entry_ideal(CORPUS_BY_ID["ex-1-matrix6x5"])
    assert check_gs(ideal, 3).is_true
    assert not check_gs(ideal, 4).is_true


def test_gs_final_matrix_fails_g3():
    from fiberlab.corpus import CORPUS_BY_ID, load_entry_ideal
    ideal = load_entry_ideal(CORPUS_BY_ID["ex-3-matrix5x4"])
    assert not check_gs(ideal, 3).is_true


# ---------------------------------------------------------------------------
# Valla dimension

def test_valla_intersection_example(R3):
    x, y, z = (R3.variable(i) for i in range(3))
    xy, xz = Ideal(R3, (x, y)), Ideal(R3, (x, z))
    I = intersect(xy * xy * xy, xz * xz * xz)
    rep = valla_dimension(I)
    assert rep.certificate["dim_symmetric_algebra"] == 5
    assert rep.certificate["valla_bound"] == 4
    assert not rep.is_true


def test_valla_complete_intersection(R3):
    x, y, z = (R3.variable(i) for i in range(3))
    rep = valla_dimension(Ideal(R3, (x, y)))
    assert rep.is_true
    assert rep.certificate["dim_symmetric_algebra"] == 4 == max(4, 2)


def test_valla_rejects_grade_zero(R3):
    with pytest.raises(ValueError):
        valla_dimension(Ideal(R3, ()))


# ---------------------------------------------------------------------------
# indeg

def test_indeg_examples(monomial4, binomial4, R3):
    assert fiber_indeg(monomial4).certificate["indeg"] == 2
    assert fiber_indeg(binomial4).certificate["indeg"] == 3
    x, y, z = (R3.variable(i) for i in range(3))
    rep = fiber_indeg(Ideal(R3, (x, y)), up_to=4)
    assert rep.verdict == "unknown"
    assert rep.certificate["indeg"] == ">= 5"


# ---------------------------------------------------------------------------
# tight / adjusted

def test_tight_sevengen_threeseeds(sevengen):
    for seed in (1, 2, 3):
        fs = generic_forms(sevengen, 3, f"t:{seed}")
        assert analytically_tight(sevengen, fs, 1).is_true
        prof = tight_profile(sevengen, fs, 4)
        assert prof.is_true
        assert all(prof.certificate["per_power"].values())


def test_tight_complete_intersection_all_n(R3):
    x, y, z = (R3.variable(i) for i in range(3))
    ci = Ideal(R3, (x, y))
    fs = user_forms([x, y])
    for n in (1, 2, 3):
        assert analytically_tight(ci, fs, n).is_true


def colon_oracle_caps(ideal, prefix, last, n):
    """(colon cap, plain cap) in degree 2n, with the colon ideal taken from
    Groebner elimination (``conftest.colon``), sharing no code with the
    kernel route of ``analytically_tight``."""
    ring = ideal.ring
    prefix_ideal = Ideal(ring, tuple(prefix))
    power = Ideal(ring, tuple(power_gens(ideal, n)))
    ipiece = graded_piece(power, 2 * n)
    caps = []
    for sub in (colon(prefix_ideal, last), prefix_ideal):
        piece = graded_piece(sub, 2 * n)
        caps.append(piece.rank + ipiece.rank - joint_rank(piece, ipiece))
    return tuple(caps)


@pytest.mark.parametrize("field", [QQ, GF(32003)], ids=["QQ", "F32003"])
def test_tight_rational_forms_against_colon_oracle(field):
    """With a non-integral coefficient: f1 = x(x + y/3) and f2 = z(x + y/3)
    share the factor x + y/3, so (f1) : f2 = (x) and tightness fails.
    Both capped dimensions match the Groebner colon oracle, over QQ and
    over F_32003.  Over QQ, rounded to floats, the multiples of f2 would
    lose the common factor, and the colon cap would shrink to the plain
    one."""
    ring = Ring(field, ["x", "y", "z"])
    x, y, z = (ring.variable(i) for i in range(3))
    ideal = Ideal(ring, (x * x, x * y, y * y, x * z, y * z))
    third = field.inv(field.raw(3))
    f1 = x * x + (x * y).scale(third)
    f2 = x * z + (y * z).scale(third)
    for n, want in ((1, (3, 1)), (2, (9, 6)), (3, (18, 14))):
        rep = analytically_tight(ideal, user_forms([f1, f2]), n)
        assert (rep.certificate["colon_cap_dim"], rep.certificate["plain_cap_dim"]) \
            == colon_oracle_caps(ideal, [f1], f2, n) == want
        assert rep.verdict == "false"


def test_tight_holds_against_colon_oracle():
    """f1 = x(x + 5y) and f2 = y^2 in I = (x, y)^2 share no factor, so
    (f1) : f2 = (f1) and tightness holds; the caps match the Groebner
    colon oracle over F_32003."""
    ring = Ring(GF(32003), ["x", "y", "z"])
    x, y, z = (ring.variable(i) for i in range(3))
    ideal = Ideal(ring, (x * x, x * y, y * y))
    f1, f2 = x * x + (x * y).scale(5), y * y
    for n in (1, 2):
        rep = analytically_tight(ideal, user_forms([f1, f2]), n)
        caps = (rep.certificate["colon_cap_dim"], rep.certificate["plain_cap_dim"])
        assert caps == colon_oracle_caps(ideal, [f1], f2, n)
        assert caps[0] == caps[1] > 0
        assert rep.is_true


def test_adjusted_single_form(monomial4):
    f = monomial4.generators[0]
    rep = analytically_adjusted(monomial4, user_forms([f]))
    assert rep.is_true
    assert rep.certificate["mu_JI"] == 4      # mu(fI) = mu(I)


def test_adjusted_monomial4_triple_with_oracle(monomial4):
    """Generic triples ARE adjusted here: mu(JI) = dim[JI]_4 = 9 = 3*4-3,
    brute-forced against the monomial piece."""
    fs = generic_forms(monomial4, 3, "adj:1")
    rep = analytically_adjusted(monomial4, fs)
    assert rep.is_true
    # brute oracle: dim of the span of the 12 products in degree 4
    prods = [a * b for a in fs.forms for b in monomial4.generators]
    assert piece_span_of_polys(prods, 4, monomial4.ring).rank == 9
    # consistent with the theory: the fiber is a CM hypersurface and the
    # triple generates a minimal reduction, which forces adjustment
    assert IdealContext(monomial4).fiber_cm


def test_adjusted_rejects_dependent(monomial4):
    f = monomial4.generators[0]
    with pytest.raises(ValueError):
        analytically_adjusted(monomial4, user_forms([f, f.scale(2)]))


def test_adjusted_rejects_wrong_degree(monomial4):
    f = monomial4.generators[0]
    x = monomial4.ring.variable(0)
    for bad in (x, f * x):
        with pytest.raises(ValueError, match="generating degree"):
            analytically_adjusted(monomial4, user_forms([f, bad]))


def test_mu_ji_upper_bound_random(sevengen, sixgen):
    for ideal in (sevengen, sixgen):
        mu = len(ideal.minimal_generators())
        for l in (2, 3):
            for seed in (1, 2):
                fs = generic_forms(ideal, l, f"bound:{seed}")
                rep = analytically_adjusted(ideal, fs)
                assert rep.certificate["mu_JI"] <= l * mu - comb(l, 2)


def test_no_quadratics_implies_adjusted(binomial4):
    assert fiber_indeg(binomial4).certificate["indeg"] == 3
    for l in (2, 3):
        for seed in (1, 2, 3):
            fs = generic_forms(binomial4, l, f"nq:{seed}")
            assert analytically_adjusted(binomial4, fs).is_true


# ---------------------------------------------------------------------------
# Valabrega-Valla

def full_ideal_equality(ideal, prefix, n):
    """(prefix) cap I^n = (prefix) I^{n-1} as ideals, by Groebner
    elimination and polynomial products (``conftest``), independently of
    the per-power rank comparison of ``valabrega_valla``."""
    ring = ideal.ring
    cap = intersect(Ideal(ring, tuple(prefix)), Ideal(ring, tuple(power_gens(ideal, n))))
    return cap == Ideal(ring, tuple(products(ideal, prefix, n - 1)))


def test_vv_complete_intersection(R3):
    x, y, z = (R3.variable(i) for i in range(3))
    ci = Ideal(R3, (x, y))
    fs = generic_forms(ci, 2, "vv:ci")
    rep = valabrega_valla(ci, fs, n_max=3)
    assert rep.is_true
    assert all(rep.certificate["per_power"].values())
    assert all(full_ideal_equality(ci, fs.forms, n) for n in (1, 2))


def test_vv_sixgen_fails_at_two(sixgen):
    ctx = IdealContext(sixgen)
    for seed in (1, 2, 3):
        fs = generic_forms(ctx, 2, f"vv:{seed}")
        rep = valabrega_valla(ctx, fs, n_max=3)
        assert not rep.is_true
        assert rep.certificate["first_failure"] == 2
        assert rep.certificate["per_power"]["1"] is True
        if seed == 1:
            assert [full_ideal_equality(sixgen, fs.forms, n) for n in (1, 2)] == \
                [True, False]


def test_vv_sevengen_pair_fails(sevengen):
    """Tight sequences exist but the fiber is not CM, so the prefix pair
    cannot be regular on gr; the pieces fail at the second power."""
    fs = generic_forms(sevengen, 2, "vv:1")
    rep = valabrega_valla(sevengen, fs, n_max=3)
    assert not rep.is_true
    assert rep.certificate["first_failure"] == 2


def _full_plan_entries():
    from fiberlab.corpus import CORPUS
    return [e.id for e in CORPUS if e.plan == "full"]


# VV cuts the bound leaves out over a report's three seeds: every seed of
# these entries has its first image regular and the second not, on a gr+
# of grade 1 (g = 2); on monomial4 and binomial4 the images are regular
BOUND_SKIPS = {"ex-2.1-sixgen": 3, "ex-2.2-sevengen": 3, "ex-3-matrix5x4": 3,
               "ex-3-monomial4": 0, "ex-3-binomial4": 0}


@pytest.mark.parametrize("entry_id", _full_plan_entries())
def test_vv_stops_at_the_grade_of_gr_plus(entry_id, monkeypatch):
    """With the report's exact grade of gr+ held on the context, the gr
    route of Valabrega-Valla cuts only that many images: each seed's
    ``PredicateReport`` is the same as with the grade taken away, and one
    cut fewer is made for each seed whose first ``grade`` images are
    regular, short of g.  Each cut left out is made here, and fails: a
    regular sequence in gr+ is never longer than its grade (D20)."""
    from fiberlab.corpus import CORPUS_BY_ID, DEFAULT_SEEDS, load_entry_ideal
    ctx = IdealContext(load_entry_ideal(CORPUS_BY_ID[entry_id]), entry_id)
    assert ctx.ideal.ring.field == GF(32003)
    grade = ctx.gr_plus_grade
    assert grade.exact
    k, g = grade.value, ctx.ideal.height()
    pres = ctx.pres
    calls = counting_cuts(monkeypatch)
    skipped = 0
    for seed in DEFAULT_SEEDS:
        fs = generic_forms(ctx, ctx.spread, f"{entry_id}:forms:{seed}")
        prefix = FormSequence(fs.forms[:g], fs.provenance, fs.coefficients[:g])
        made = []
        for held in (True, False):
            if not held:
                del vars(ctx)["gr_plus_grade"]
            calls.clear()
            made.append((valabrega_valla(ctx, prefix, 2), len(calls)))
        vars(ctx)["gr_plus_grade"] = grade
        (bounded, bounded_cuts), (free, free_cuts) = made
        assert bounded == free
        if free_cuts == bounded_cuts:
            continue
        assert (bounded_cuts, free_cuts) == (k, k + 1) and k < g
        assert bounded.certificate["gr_regular_failed_at"] == k + 1
        images = [pres.w_form(row) for row in prefix.coefficients]
        gb = pres.gr_ideal.groebner()
        hs = series_of_basis(gb)
        for theta in images[:k]:
            ok, gb, hs = regular_cut(gb, hs, theta)
            assert ok
        assert regular_cut(gb, hs, images[k])[0] is False
        skipped += 1
    assert skipped == BOUND_SKIPS[entry_id]


def test_vv_without_an_exact_grade_cuts_every_image(sixgen, monkeypatch):
    """Without an exact grade of gr+ on the context, VV cuts the images
    until one fails, as it did before the bound: with the grade marked
    not exact, and on a context that holds no grade, where it starts no
    grade search (as for ``fiberlab check vv``).  On sixgen the first
    image is regular and the second is not, on a gr+ of grade 1."""
    ctx = IdealContext(sixgen)
    fs = generic_forms(ctx, 2, "vv:1")
    grade = ctx.gr_plus_grade
    assert (grade.value, grade.exact) == (1, True)
    calls = counting_cuts(monkeypatch)
    bounded = valabrega_valla(ctx, fs, 2)
    assert len(calls) == 1
    vars(ctx)["gr_plus_grade"] = dataclasses.replace(grade, exact=False)
    calls.clear()
    assert valabrega_valla(ctx, fs, 2) == bounded
    assert len(calls) == 2
    monkeypatch.setattr(blowup_mod, "bounded_ideal_grade", None)     # never called
    fresh = IdealContext(sixgen)
    calls.clear()
    assert valabrega_valla(fresh, fs, 2) == bounded
    assert len(calls) == 2
    assert "gr_plus_grade" not in vars(fresh)


def test_vv_prefix_must_be_regular_sequence(sixgen):
    bad = FormSequence([sixgen.generators[0], sixgen.generators[1]], "user",
                       None)
    gens = sixgen.minimal_generators()
    rows = [[1 if i == k else 0 for i in range(len(gens))] for k in (0, 1)]
    bad = FormSequence([gens[0], gens[1]], "user", rows)
    # z^6, yz^5 share the component z: height 1 < 2, a bound (exit 3)
    with pytest.raises(BoundExceededError, match="height drop: 1 < 2"):
        valabrega_valla(sixgen, bad, n_max=2)


def test_regular_in_gr_delegates(monomial4):
    fs = generic_forms(monomial4, 2, "rg:1")
    rep = regular_in_gr(monomial4, fs, n_max=3)
    assert rep.predicate_name == "reg-in-gr"
    assert rep.is_true          # gr is CM here


def test_vv_implies_regular_on_fiber(monomial4):
    fs = generic_forms(monomial4, 2, "rsf:1")
    rep = valabrega_valla(monomial4, fs, n_max=3)
    assert rep.is_true
    fp = fiber_presentation(monomial4)
    assert regular_sequence_on_fiber(fp, fs.coefficients)


# ---------------------------------------------------------------------------
# the caps in S/P: quotient ranks against the piece route

def _cap_ideals(field):
    ring = Ring(field, ["x", "y", "z"])
    x, y, z = (ring.variable(i) for i in range(3))
    six = tuple(ring.monomial(e) for e in ((0, 0, 6), (0, 1, 5), (0, 2, 4),
                                           (1, 2, 3), (2, 2, 2), (3, 3, 0)))
    return (Ideal(ring, (x * x - y * y, x * y, x * z, y * z)),
            Ideal(ring, (x ** 3, y ** 3, x * y * z, x * x * z - y * y * z + z ** 3)),
            Ideal(ring, six))


def piece_route_caps(ideal, prefix, last, n):
    """(colon cap, plain cap) of tightness in power n by the D4 formulas on
    echelons of [P]_e and [I^n]_{nd} and their joint rank."""
    d = IdealContext(ideal).degree
    power = power_gens(ideal, n)
    ipiece = piece_span_of_polys(power, n * d, ideal.ring)
    e = n * d + last.homogeneous_degree()
    multiples = piece_span_of_polys([last * g for g in power], e, ideal.ring)
    high = piece_span_of_polys(prefix, e, ideal.ring)
    low = piece_span_of_polys(prefix, n * d, ideal.ring)
    return (ipiece.rank + high.rank - joint_rank(high, multiples),
            low.rank + ipiece.rank - joint_rank(low, ipiece))


@pytest.mark.parametrize("field,count,n_max", [(GF(32003), 3, 3), (QQ, 2, 2)],
                         ids=["F32003", "QQ"])
def test_caps_match_piece_route(field, count, n_max):
    """Tightness caps, the Valabrega-Valla per-power verdicts and the
    quotient ranks themselves equal the piece route on seeded forms: the
    rank of V in S_E/[P]_E is dim([P]_E + V) - dim [P]_E.  Over QQ the
    sextics and the third power are left out: the piece route's echelons
    of [P]_E take minutes there."""
    for ideal in _cap_ideals(field)[:count]:
        ctx = IdealContext(ideal)
        d, g = ctx.degree, ideal.height()
        for seed in (1, 2):
            fs = generic_forms(ctx, ctx.spread, f"caps:{seed}")
            prefix, last = fs.forms[:-1], fs.forms[-1]
            for n in range(1, n_max + 1):
                cert = analytically_tight(ctx, fs, n).certificate
                assert (cert["colon_cap_dim"], cert["plain_cap_dim"]) == \
                    piece_route_caps(ideal, prefix, last, n)
            vv = valabrega_valla(ctx, FormSequence(fs.forms[:g], fs.provenance,
                                                   fs.coefficients[:g]), n_max)
            ring = ideal.ring
            mixed = [fs.forms[0], fs.forms[0] * ring.variable(0)]
            for n in range(1, n_max + 1):
                ppiece = piece_span_of_polys(fs.forms[:g], n * d, ring)
                ipiece = piece_span_of_polys(power_gens(ideal, n), n * d, ring)
                rank = joint_rank(ppiece, ipiece) - ppiece.rank
                assert ctx.rank([ring.one()], n, fs.forms[:g]) == rank
                lhs = ipiece.rank - rank
                rhs = piece_span_of_polys(products(ideal, fs.forms[:g], n - 1),
                                          n * d, ring).rank
                assert ctx.rank(fs.forms[:g], n - 1) == rhs
                assert vv.certificate["per_power"][str(n)] == (lhs == rhs)
                for modulo in ((), fs.forms[:g]):
                    assert ctx.rank((), n, modulo) == 0
                    with pytest.raises(ValueError, match="degree"):
                        ctx.rank(mixed, n, modulo)


# (colon cap, plain cap) of tightness in powers 1..5 for binomial4's
# seed-3 forms over GF(5): tight in powers 1, 4 and 5, not in 2 and 3
BINOMIAL4_GF5_SEED3_CAPS = [(2, 2), (9, 8), (19, 18), (31, 31), (46, 46)]


def test_tightness_caps_of_binomial4_seed3_over_gf5():
    """Over GF(5) the report's seed-3 forms on binomial4 read tight in
    power 1, not tight in powers 2 and 3, and tight again in 4 and 5,
    which ``tight_profile``'s monotonicity check refuses.  The caps are
    pinned, and the piece route gives the same ones for n = 1..3: the
    ranks are right, and whether the propagation needs general forms is
    an open question (ROADMAP item 23)."""
    from fiberlab.corpus import CORPUS_BY_ID, load_entry_ideal
    ctx = IdealContext(load_entry_ideal(CORPUS_BY_ID["ex-3-binomial4"], 5))
    assert ctx.ideal.ring.field == GF(5)
    fs = generic_forms(ctx, ctx.spread, "ex-3-binomial4:forms:3")
    caps = []
    for n in range(1, 6):
        cert = analytically_tight(ctx, fs, n).certificate
        caps.append((cert["colon_cap_dim"], cert["plain_cap_dim"]))
    assert caps == BINOMIAL4_GF5_SEED3_CAPS
    for n in range(1, 4):
        assert piece_route_caps(ctx.ideal, fs.forms[:-1], fs.forms[-1], n) == caps[n - 1]


def test_caps_of_empty_prefix(binomial4):
    """One form: P = 0, so both tightness caps are 0 and tightness holds;
    an empty Valabrega-Valla prefix holds in every power."""
    f = binomial4.generators[0]
    for n in (1, 2):
        rep = analytically_tight(binomial4, user_forms([f]), n)
        assert rep.certificate["colon_cap_dim"] == rep.certificate["plain_cap_dim"] == 0
        assert rep.is_true
    rep = valabrega_valla(binomial4, FormSequence([], "user", []), 2)
    assert rep.is_true and all(rep.certificate["per_power"].values())


def test_forget_clears_quotient_memos(binomial4):
    """Every memo of the context but the Fitting ideals, each dict-valued
    private attribute (the ranks, the product rows, the normal-form plans,
    the forward normal-form matrices and the certificates of forms in I_d
    among them) and the power rows, is filled by tightness,
    Valabrega-Valla and a reduction search and emptied by ``forget()``: a
    memo added later cannot escape it.  The per-stage
    ``forget(keep_powers=n)`` empties all of them but the plans and the
    powers through I^n, and the powers and plans read afterwards are the
    ones kept.  The Fitting ideals belong to the ideal, not to a stage,
    and stay.  The Rees presentation is built and its memos dropped
    first, so that both fills start from the same state."""
    ctx = IdealContext(binomial4)

    def fill(seed):
        fs = generic_forms(ctx, 3, f"forget:{seed}")
        tight_profile(ctx, fs, 2)
        valabrega_valla(ctx, FormSequence(fs.forms[:2], fs.provenance, fs.coefficients[:2]), 2)
        minimal_reduction(ctx, seed="forget:red")
        assert ctx.forms_ideal(fs.forms[:2]) is ctx.forms_ideal(fs.forms[:2])

    def memos():
        return {name: value for name, value in vars(ctx).items()
                if name == "_powers" or (name.startswith("_") and isinstance(value, dict)
                                         and name != "_fitting")}

    fitting = ctx.fitting_ideal(2)
    assert ctx.pres is not None     # its one-time check builds I^1..I^4
    ctx.forget()
    fill(1)
    assert {"_powers", "_ranks", "_rows", "_plans", "_forward", "_inside"} <= memos().keys()
    assert all(memos().values())
    assert len(ctx._powers) > 3
    powers, plans = list(ctx._powers), dict(ctx._plans)
    ctx.forget(keep_powers=2)
    assert ctx._powers == powers[:3]
    assert not any(v for name, v in memos().items() if name not in ("_powers", "_plans"))
    assert ctx._plans == plans
    fill(2)
    assert all(a is b for a, b in zip(ctx._powers, powers[:3]))
    assert len(ctx._powers) >= len(powers)
    assert all(ctx._plans[key] is plan for key, plan in plans.items())
    assert all(memos().values())
    ctx.forget()
    assert not any(memos().values())
    assert ctx.fitting_ideal(2) is fitting


def test_rank_keeps_one_plan_per_shape(binomial4):
    """Prefix ideals of two seeds with the same leading monomials and tail
    supports but other coefficients share one normal-form plan, and each
    gets its own normal forms: the ranks match the piece route.  Another
    degree, or a prefix of another support, builds its own plan."""
    ctx = IdealContext(binomial4)
    ring, d = ctx.ring, ctx.degree
    one = [ring.one()]
    prefixes = [generic_forms(ctx, 2, f"plans:{seed}").forms for seed in (1, 2)]
    bases = [ctx.forms_ideal(forms).groebner() for forms in prefixes]
    assert bases[0].elements != bases[1].elements
    assert normal_form_shape(bases[0], d) == normal_form_shape(bases[1], d)
    ipiece = piece_span_of_polys(power_gens(binomial4, 1), d, ring)
    for forms in prefixes:
        ppiece = piece_span_of_polys(forms, d, ring)
        assert ctx.rank(one, 1, forms) == joint_rank(ppiece, ipiece) - ppiece.rank
    assert len(ctx._plans) == 1
    ctx.rank(one, 2, prefixes[0])
    assert len(ctx._plans) == 2
    ctx.rank(one, 1, prefixes[0][:1])
    assert len(ctx._plans) == 3


# ---------------------------------------------------------------------------
# generically CI / perfect / formulas

def test_gen_ci(R3, binomial4, monomial4):
    x, y, z = (R3.variable(i) for i in range(3))
    assert generically_ci(binomial4).is_true
    assert generically_ci(Ideal(R3, (x, y))).is_true
    from fiberlab.corpus import CORPUS_BY_ID, load_entry_ideal
    matrix54 = load_entry_ideal(CORPUS_BY_ID["ex-3-matrix5x4"])
    assert not generically_ci(matrix54).is_true
    # restricted to height 2
    assert generically_ci(Ideal(R3, (x,))).verdict == "unknown"


def test_fitting_ideals_are_built_once(binomial4, monkeypatch):
    """G_s and the generic-CI criterion read the same Fitting ideals off
    one context: each ideal of minors, and its sum with I, is built once
    however often they are read, and the verdicts match those of fresh
    contexts."""
    built = []

    def spy(pres, size, ideal):
        built.append(size)
        return minors_ideal(pres, size, ideal)

    monkeypatch.setattr(blowup_mod, "minors_ideal", spy)
    ctx = IdealContext(binomial4)
    reports = [check_gs(ctx, 3), check_gs(ctx, 4), generically_ci(ctx), generically_ci(ctx)]
    r = ctx.presentation.nrows
    assert sorted(built) == [r - 3, r - 2, r - 1]
    assert ctx.fitting_ideal(r - 2)[1] is ctx.fitting_ideal(r - 2)[1]
    fresh = [check_gs(binomial4, 3), check_gs(binomial4, 4), generically_ci(binomial4)]
    assert [rep.to_json() for rep in reports] == [rep.to_json() for rep in fresh + fresh[-1:]]


def test_perfect(monomial4, sixgen, R3):
    assert not is_perfect(monomial4).is_true
    rep = is_perfect(sixgen)
    assert rep.is_true
    assert rep.certificate["hilbert_burch"]["m"] == [1, 1, 1, 1, 2]
    x, y, z = (R3.variable(i) for i in range(3))
    assert is_perfect(Ideal(R3, (x, y))).is_true


def test_multiplicity_formula_d1(R3):
    x, y, z = (R3.variable(i) for i in range(3))
    ci = Ideal(R3, (x, y))
    rep = multiplicity_formula_checks(ci)
    assert rep.is_true
    assert rep.certificate["e_RI"] == 1 == (1 + 1) // 2


def test_multiplicity_formula_suite(sixgen, sevengen):
    for ideal in (sixgen, sevengen):
        rep = multiplicity_formula_checks(ideal)
        assert rep.is_true
        assert rep.certificate["e_RI"] == rep.certificate["closed_form"]


@pytest.fixture(scope="module")
def gen4x3():
    """Generic 4x3 linear presentation: all degreeRees-style hypotheses
    verify (frozen seed, checked when frozen)."""
    ring = Ring(GF(32003), ["x", "y", "z"])
    rng = random.Random("gen4x3:1")
    mat = [[ring.linear_form([rng.randrange(32003) for _ in range(3)])
            for _ in range(3)] for _ in range(4)]
    return Ideal(ring, tuple(maximal_minors(mat, ring)))


def test_theorem_conclusions_on_generic_instance(gen4x3):
    rep = multiplicity_formula_checks(gen4x3)
    assert rep.is_true
    hyps = rep.certificate["hypotheses"]
    assert all(hyps.values())
    cond = rep.certificate["conditional"]
    assert cond["e_F"] == comb(4 - 1, 2) == 3
    assert cond["reduction_number"] == 2
    assert cond["fiber_3_linear"]


def test_map_degree_linearly_presented(gen4x3):
    rep = map_degree_via_formula(gen4x3)
    assert rep.is_true
    assert rep.certificate["rees_cm"] is True
    assert rep.certificate["map_degree"] == 1
    assert rep.certificate["linearly_presented"] is True


def test_map_degree_excludes_ci(R3):
    x, y, z = (R3.variable(i) for i in range(3))
    rep = map_degree_via_formula(Ideal(R3, (x, y)))
    # arithmetic runs; the CI has m = [1], sum_pairs = 0, d^2 - e = 0
    assert rep.certificate["sum_pairs"] == 0
    assert rep.certificate["identity_chain"]


def test_map_degree_sixgen_integral(sixgen):
    rep = map_degree_via_formula(sixgen)
    assert rep.certificate["identity_chain"]
    assert rep.certificate["generically_ci"] == "false"
    assert rep.certificate["map_degree"] == "not-applicable"
    assert rep.is_true


# ---------------------------------------------------------------------------
# crosschecks

def test_theorem_crosschecks_small():
    from fiberlab.corpus import compute_entry
    reports = [compute_entry(i) for i in ("ex-3-monomial4", "ex-3-binomial4")]
    out = theorem_crosschecks(crosscheck_bundles(reports))
    assert out, "expected some applicable checks"
    bad = [r for r in out if not r.is_true]
    assert bad == []
