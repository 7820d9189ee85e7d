"""Acceptance suite: one test per criterion, one printed verdict line
per criterion (run with -s or -rA to see them).

Criterion 4: Example 2.2 prints a 1 for gr_I(R).  That 1 is the grade
of gr_+, which the clause "grade gr+=1 (stated)" checks; the depth of
gr at its maximal homogeneous ideal is 2, checked as "depth gr=2
(certified)".  Both values carry a certificate independent of fiberlab
(tests/test_acceptance_certificate.py); the decisions ledger,
docs/decisions.md, records the analysis.
"""

import random
from math import comb

from fiberlab.blowup import IdealContext, fiber_presentation
from fiberlab.corpus import (CORPUS, CORPUS_BY_ID, compute_entry, load_entry_ideal,
                             lookup_path)
from fiberlab.depth import graded_depth
from fiberlab.fields import GF
from fiberlab.graded import minimal_generators, piece_span_of_polys
from fiberlab.groebner import normal_form
from fiberlab.ideals import Ideal
from fiberlab.parse import maximal_minors
from fiberlab.polyring import Ring
from fiberlab.predicates import generic_forms, is_perfect, multiplicity_formula_checks
from fiberlab.resolutions import minimal_resolution

from conftest import (crosscheck_bundles, joint_rank, mul_term, recheck_regularity,
                      relation_piece_dim, theorem_crosschecks)


def _verdict(name, clauses):
    ok = all(v for _, v in clauses)
    detail = ", ".join(f"{label}={'ok' if v else 'FAIL'}" for label, v in clauses)
    print(f"ACCEPT {name}: {'PASS' if ok else 'FAIL'} [{detail}]")
    return ok, detail


def get(report, path):
    value, found = lookup_path(report, path)
    assert found, f"report path missing: {path}"
    return value


def test_criterion_1_intersection_example():
    r = compute_entry("ex-1-intersection")
    clauses = [
        ("mu=4", get(r, "invariants.mu") == 4),
        ("dim_sym=5",
         get(r, "predicates.valla-dim.certificate.dim_symmetric_algebra") == 5),
    ]
    ok, detail = _verdict("C1 (intersection example)", clauses)
    assert ok, detail


def test_criterion_2_matrix_gs_three_seeds():
    verdicts = []
    for seed in (1, 2, 3):
        r = compute_entry("ex-1-matrix6x5", seeds=(seed,))
        verdicts.append((get(r, "predicates.gs-3.verdict"),
                         get(r, "predicates.gs-4.verdict")))
    clauses = [
        ("G3 true", all(v[0] == "true" for v in verdicts)),
        ("G4 false", all(v[1] == "false" for v in verdicts)),
        ("stable across seeds", len(set(verdicts)) == 1),
    ]
    ok, detail = _verdict("C2 (6x5 matrix G3/G4)", clauses)
    assert ok, detail


def test_criterion_3_sixgen():
    r = compute_entry("ex-2.1-sixgen")
    vv_fails_at_2 = all(
        get(r, f"predicates.vv:seed{s}.verdict") == "false"
        and get(r, f"predicates.vv:seed{s}.certificate.first_failure") == 2
        and get(r, f"predicates.vv:seed{s}.certificate.per_power.1") is True
        for s in (1, 2, 3))
    clauses = [
        ("ht=2", get(r, "invariants.height") == 2),
        ("perfect", get(r, "predicates.perfect.verdict") == "true"),
        ("depth F=2", get(r, "invariants.depth_fiber") == 2),
        ("depth gr=2", get(r, "invariants.depth_gr") == 2),
        ("VV fails at n=2, 3 seeds", vv_fails_at_2),
    ]
    ok, detail = _verdict("C3 (six-generator example)", clauses)
    assert ok, detail


def test_criterion_4_sevengen():
    r = compute_entry("ex-2.2-sevengen")
    tight_all = all(get(r, f"predicates.tight:seed{s}.verdict") == "true"
                    for s in (1, 2, 3))
    reduction_all = get(r, "invariants.reduction_numbers") == [2, 2, 2]
    clauses = [
        ("spread=3", get(r, "invariants.analytic_spread") == 3),
        ("tight at n=1, 3 seeds", tight_all),
        ("r_J=2", reduction_all),
        ("reg F=2", get(r, "invariants.regularity_fiber") == 2),
        ("F not CM", get(r, "invariants.fiber_cm") == "NOT_CM"),
        # the paper's 1 is the grade of gr+; the depth of gr is 2, with an
        # independent certificate -- see the decisions ledger,
        # docs/decisions.md
        ("grade gr+=1 (stated)", get(r, "invariants.grade_gr_plus") == 1),
        ("depth gr=2 (certified)", get(r, "invariants.depth_gr") == 2),
    ]
    ok, detail = _verdict("C4 (seven-generator example)", clauses)
    assert ok, detail


def test_criterion_5_monomial4():
    r = compute_entry("ex-3-monomial4")
    clauses = [
        ("not perfect", get(r, "predicates.perfect.verdict") == "false"),
        ("indeg(Q)=2", get(r, "invariants.indeg_Q") == 2),
        ("Rees CM", get(r, "invariants.rees_cm") == "CM"),
        ("r=1", get(r, "invariants.reduction_number") == 1),
    ]
    ok, detail = _verdict("C5 (x^2,xy,xz,yz)", clauses)
    assert ok, detail


def test_criterion_6_binomial4():
    r = compute_entry("ex-3-binomial4")
    cols = get(r, "invariants.presentation_column_degrees")
    clauses = [
        ("not perfect", get(r, "predicates.perfect.verdict") == "false"),
        ("generically CI", get(r, "predicates.gen-ci.verdict") == "true"),
        ("linear rank 3 (maximal)", get(r, "invariants.linear_rank") == 3),
        ("not linearly presented", cols == [3, 3, 3, 4]),
        ("Rees not CM", get(r, "invariants.rees_cm") == "NOT_CM"),
        ("r=2", get(r, "invariants.reduction_number") == 2),
        ("Q one cubic", get(r, "invariants.relation_dims.3") == 1
         and get(r, "invariants.relation_dims.2") == 0),
    ]
    ok, detail = _verdict("C6 (x^2-y^2,xy,xz,yz)", clauses)
    assert ok, detail


def test_criterion_7_matrix5x4():
    r = compute_entry("ex-3-matrix5x4")
    clauses = [
        ("G3 false", get(r, "predicates.gs-3.verdict") == "false"),
        ("not generically CI", get(r, "predicates.gen-ci.verdict") == "false"),
        ("F CM", get(r, "invariants.fiber_cm") == "CM"),
        ("fiber relations degree 3",
         get(r, "invariants.relation_dims.2") == 0
         and get(r, "invariants.relation_dims.3") == 3
         and get(r, "invariants.indeg_Q") == 3),
        ("linear rank 2", get(r, "invariants.linear_rank") == 2),
        ("Rees not CM", get(r, "invariants.rees_cm") == "NOT_CM"),
    ]
    ok, detail = _verdict("C7 (5x4 matrix example)", clauses)
    assert ok, detail


def test_criterion_8_multiplicity_formula_suite():
    clauses = []
    for eid in ("ex-2.1-sixgen", "ex-2.2-sevengen", "ex-1-matrix6x5",
                "ex-3-matrix5x4"):
        r = compute_entry(eid)
        rep = r["predicates"]["mult-formulas"]
        e = rep["certificate"]["e_RI"]
        closed = rep["certificate"]["closed_form"]
        clauses.append((f"{eid}: e(R/I)={e}", rep["verdict"] == "true"
                        and e == closed))
    # a generic linearly presented instance where all hypotheses verify
    ring = Ring(GF(32003), ["x", "y", "z"])
    rng = random.Random("gen4x3:1")
    mat = [[ring.linear_form([rng.randrange(32003) for _ in range(3)])
            for _ in range(3)] for _ in range(4)]
    gen = Ideal(ring, tuple(maximal_minors(mat, ring)))
    rep = multiplicity_formula_checks(gen)
    cond = rep.certificate["conditional"]
    clauses.append(("hypotheses-verified instance",
                    rep.is_true and all(rep.certificate["hypotheses"].values())))
    clauses.append(("e(F)=C(mu-1,2)", cond["e_F"] == comb(3, 2)))
    clauses.append(("r=2", cond["reduction_number"] == 2))
    ok, detail = _verdict("C8 (multiplicity formulas)", clauses)
    assert ok, detail


def test_criterion_9_theorem_crosschecks():
    reports = [compute_entry(e.id) for e in CORPUS]
    bundles = crosscheck_bundles(reports)
    assert len(bundles) == 5           # the five full-plan entries
    out = theorem_crosschecks(bundles)
    violations = [r for r in out if not r.is_true]
    names = sorted({r.predicate_name for r in out})
    # the bounded matrix entry: monotone tightness and the adjustment
    # bound from its own report
    r65 = compute_entry("ex-1-matrix6x5")
    bounded_ok = True
    for s in (1, 2, 3):
        prof = get(r65, f"predicates.tight:seed{s}.certificate.per_power")
        vals = [prof[k] for k in sorted(prof, key=int)]
        bounded_ok &= all(vals[i] <= vals[i + 1] for i in range(len(vals) - 1))
        adj = r65["predicates"][f"adjusted:seed{s}"]["certificate"]
        bounded_ok &= adj["mu_JI"] <= adj["bound"]
    clauses = [
        (f"zero violations in {len(out)} checks ({len(names)} kinds)",
         not violations),
        ("bounded entry checks", bounded_ok),
        ("fiber-cm equivalence exercised",
         any(r.predicate_name == "crosscheck:fiber-cm-equivalence" for r in out)),
        ("Q-inside-rees exercised",
         any(r.predicate_name == "crosscheck:Q-inside-rees" for r in out)),
    ]
    ok, detail = _verdict("C9 (theorem crosschecks)", clauses)
    if violations:
        for v in violations[:5]:
            print("  violation:", v.predicate_name, v.inputs, v.certificate)
    assert ok, detail


def test_criterion_10_kernel_oracles():
    clauses = []
    # (a) membership of 1000 random combinations
    sixgen = load_entry_ideal(CORPUS_BY_ID["ex-2.1-sixgen"])
    gb = sixgen.groebner()
    ring = sixgen.ring
    rng = random.Random("accept:membership")
    monos = ring.monomials_of_degree(2)
    failures = 0
    for _ in range(1000):
        h = ring.zero()
        for g in sixgen.generators:
            h = h + mul_term(g, monos[rng.randrange(len(monos))],
                             ring.field.random_raw(rng))
        if not normal_form(h, gb).is_zero():
            failures += 1
    clauses.append(("membership 1000 trials", failures == 0))

    # (b) the reported dim [Q]_n, read off [I^n]_{nd}, against the
    # eliminated presentation on every entry whose plan builds one
    piece_ok = True
    for e in CORPUS:
        if e.plan == "bounded-blowup":
            continue
        r = compute_entry(e.id)
        dims = r["invariants"].get("relation_dims")
        if dims is None:
            piece_ok &= e.id == "ex-1-intersection"   # not equigenerated
            continue
        fp = fiber_presentation(load_entry_ideal(e))
        piece_ok &= dims == {str(n): relation_piece_dim(fp, n) for n in range(1, 5)}
    clauses.append(("relation dims report vs eliminated presentation", piece_ok))

    # (c) Euler sums and the regularity certificate, rechecked on Groebner
    # quotients, of every complete resolution
    certified = True
    for e in CORPUS:
        ideal = load_entry_ideal(e)
        ideals = [ideal]
        if e.plan == "full":
            fp = fiber_presentation(ideal)
            if not fp.is_zero():
                ideals.append(fp)
        for j in ideals:
            table = minimal_resolution(j).table
            if table.complete:
                certified &= table.euler_ok() and recheck_regularity(
                    minimal_generators(j), j.ring, table.certificate)
    clauses.append(("Euler sums and regularity certificates", certified))

    # (d) rational cross-check of criteria 1, 3, 5, 6
    qq_ok = _rational_crosscheck()
    clauses.append(("QQ cross-check of C1/C3/C5/C6", qq_ok))

    ok, detail = _verdict("C10 (kernel oracles)", clauses)
    assert ok, detail


def _rational_crosscheck() -> bool:
    ok = True
    # C1 over QQ
    r1 = compute_entry("ex-1-intersection", field_char=0)
    ok &= get(r1, "invariants.mu") == 4
    ok &= get(r1, "predicates.valla-dim.certificate.dim_symmetric_algebra") == 5
    # C5, C6 over QQ: full pipeline is affordable
    r5 = compute_entry("ex-3-monomial4", field_char=0)
    ok &= get(r5, "predicates.perfect.verdict") == "false"
    ok &= get(r5, "invariants.indeg_Q") == 2
    ok &= get(r5, "invariants.rees_cm") == "CM"
    ok &= get(r5, "invariants.reduction_number") == 1
    r6 = compute_entry("ex-3-binomial4", field_char=0)
    ok &= get(r6, "predicates.perfect.verdict") == "false"
    ok &= get(r6, "predicates.gen-ci.verdict") == "true"
    ok &= get(r6, "invariants.linear_rank") == 3
    ok &= get(r6, "invariants.rees_cm") == "NOT_CM"
    ok &= get(r6, "invariants.reduction_number") == 2
    ok &= get(r6, "invariants.relation_dims.3") == 1
    # C3 over QQ, lean route: the full pipeline recomputes expensive
    # extras (fiber resolution, Rees CM) the criterion does not need
    I = load_entry_ideal(CORPUS_BY_ID["ex-2.1-sixgen"], field_char=0)
    ok &= I.height() == 2
    ok &= is_perfect(I).is_true
    ctx = IdealContext(I)               # one Rees elimination for both
    fp = ctx.fp
    dF = graded_depth(fp, seed="qq:depthF")
    ok &= dF.exact and dF.value == 2
    pres = ctx.pres
    dgr = graded_depth(pres.gr_ideal, seed="qq:depthgr")
    ok &= dgr.exact and dgr.value == 2
    gens = I.minimal_generators()
    I2 = Ideal(I.ring, tuple((Ideal(I.ring, tuple(gens)) *
                              Ideal(I.ring, tuple(gens))).minimal_generators()))
    for seed in (1, 2, 3):
        fs = generic_forms(I, 2, f"qq:forms:{seed}")
        prefix_piece = piece_span_of_polys(fs.forms, 12, I.ring)
        ipiece = piece_span_of_polys(I2.generators, 12, I.ring)
        lhs = prefix_piece.rank + ipiece.rank - joint_rank(prefix_piece, ipiece)
        rhs = piece_span_of_polys([a * b for a in fs.forms for b in gens],
                                  12, I.ring).rank
        ok &= lhs != rhs                 # VV fails at n=2 over QQ as well
    return ok
