"""Named predicates on equigenerated ideals, each with a re-checkable
certificate: the G_s condition via Fitting heights, the symmetric-algebra
dimension test, fiber relation degrees, analytic tightness and
adjustment, the Valabrega-Valla condition (decided through the
associated graded ring), generic complete intersections, perfectness
with Hilbert-Burch data, and the multiplicity / map-degree formulas.

Each predicate takes an ideal or its ``IdealContext``; called with the
report's context, it reuses the powers, presentations and ranks that the
other predicates built.

Tightness in power n compares the colon cap [(P : f) cap I^n]_{nd} with
the plain cap [P cap I^n]_{nd}, for P the prefix ideal and f the last
form.  Both are kernels of maps out of V = [I^n]_{nd} into the quotient
A = S/P: the colon cap of g -> f*g into A_{nd+e}, e = deg f, the plain
cap of the projection into A_{nd}.  So each is dim V minus a rank read
in A (``IdealContext.rank`` modulo P, from one Groebner basis of P and
one normal-form matrix per degree), and no piece of P is built; dim V
is mu(I^n), the number of minimal generators of I^n.  The
Valabrega-Valla cap [P cap I^n]_{nd} is the plain cap of its own prefix
(D4, D7 and D9 in docs/decisions.md).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field as dc_field
from math import comb

from .blowup import (IdealContext, equigenerated_data, minimal_reduction,
                     random_forms_in_degree)
from .depth import regular_prefix
from .ideals import Ideal
from .polyring import Ring, fresh_names
from .resolutions import BoundExceededError


@dataclass
class PredicateReport:
    predicate_name: str
    inputs: dict
    verdict: str                       # "true" | "false" | "unknown"
    bounds_used: dict = dc_field(default_factory=dict)
    certificate: dict = dc_field(default_factory=dict)

    @property
    def is_true(self):
        return self.verdict == "true"

    def to_json(self):
        return {
            "predicate": self.predicate_name,
            "inputs": self.inputs,
            "verdict": self.verdict,
            "bounds_used": self.bounds_used,
            "certificate": self.certificate,
        }


@dataclass
class FormSequence:
    """Forms in the generating degree, with their coordinates over the
    minimal generators when the sequence was drawn generically."""

    forms: list
    provenance: str
    coefficients: list | None = None   # rows over the minimal generators

    def __len__(self):
        return len(self.forms)


def ideal_fingerprint(ideal: Ideal) -> str:
    text = ";".join(sorted(str(g) for g in ideal.generators))
    text += f"|{ideal.ring!r}"
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def generic_forms(ideal, count: int, seed) -> FormSequence:
    forms, coeffs = random_forms_in_degree(ideal, count, seed)
    return FormSequence(forms, f"generic({seed})", coeffs)


# ---------------------------------------------------------------------------
# G_s and friends

def check_gs(ideal, s: int) -> PredicateReport:
    """G_s via Fitting-ideal heights: ht I_{r-i}(phi) >= i+1 for i < s,
    the ideals of minors from the context (``IdealContext.fitting_ideal``)."""
    ctx = IdealContext.of(ideal)
    ideal = ctx.ideal
    r = ctx.presentation.nrows
    heights = {}
    verdict = True
    for i in range(1, s):
        size = r - i
        minors, fitting = ctx.fitting_ideal(size)
        if size <= 0 or minors.is_unit():
            heights[i] = "inf"
            continue
        if minors.is_zero():
            heights[i] = 0
            verdict = False
            continue
        h = fitting.height()
        heights[i] = h
        if h < i + 1:
            verdict = False
    return PredicateReport(
        "gs", {"ideal": ideal_fingerprint(ideal), "s": s},
        "true" if verdict else "false",
        certificate={"fitting_heights": {str(i): h for i, h in heights.items()},
                     "generators": r})


def valla_dimension(ideal) -> PredicateReport:
    """dim of the symmetric algebra against max(dim R + 1, mu)."""
    ctx = IdealContext.of(ideal)
    ideal = ctx.ideal
    if ideal.is_zero() or ideal.height() < 1:
        raise ValueError("symmetric-algebra dimension needs grade >= 1")
    ring = ideal.ring
    pres = ctx.presentation
    gens = ctx.mingens
    r = len(gens)
    ynames = fresh_names("u", r, ring.names)
    # weight u_i by deg f_i so the linear-in-u relations are homogeneous
    big = Ring(ring.field, ring.names + tuple(ynames),
               ring.weights + tuple(g.homogeneous_degree() for g in gens))
    relations = []
    for k in range(pres.ncols):
        f = big.zero()
        for i in range(r):
            entry = pres.matrix[i][k]
            if not entry.is_zero():
                f = f + ring.embed(entry, big) * big.variable(ring.nvars + i)
        relations.append(f)
    sym = Ideal(big, tuple(relations))
    dim_sym = sym.krull_dimension() if relations else big.nvars
    bound = max(ring.nvars + 1, r)
    return PredicateReport(
        "valla-dim", {"ideal": ideal_fingerprint(ideal)},
        "true" if dim_sym == bound else "false",
        certificate={"dim_symmetric_algebra": dim_sym, "valla_bound": bound,
                     "mu": r, "dim_ring": ring.nvars})


def fiber_indeg(ideal, up_to: int = 6) -> PredicateReport:
    """Least degree of a fiber relation, from the relation dimensions
    ``IdealContext.relation_dim`` (cross-checked against the eliminated
    presentation unless the context's eliminations are out of budget)."""
    ctx = IdealContext.of(ideal)
    found = None
    dims = {}
    for n in range(1, up_to + 1):
        dims[str(n)] = ctx.relation_dim(n)
        if dims[str(n)] > 0:
            found = n
            break
    verdict = "true" if found is not None else "unknown"
    return PredicateReport(
        "indeg", {"ideal": ideal_fingerprint(ctx.ideal)},
        verdict,
        bounds_used={"up_to": up_to},
        certificate={"indeg": found if found is not None else f">= {up_to + 1}",
                     "relation_piece_dims": dims})


# ---------------------------------------------------------------------------
# tightness and adjustment

def analytically_tight(ideal, fs: FormSequence, n: int) -> PredicateReport:
    """Equality of the colon cap and the plain cap of the prefix ideal in
    [I^n]_{nd} (module docstring)."""
    ctx = IdealContext.of(ideal)
    ideal = ctx.ideal
    d = equigenerated_data(ctx)[1]
    prefix = fs.forms[:-1]
    last = fs.forms[-1]
    if last.is_zero():
        raise ValueError("the last form must be nonzero")
    dim = len(ctx.power_rows(n))
    if ctx.rank([last], n) != dim:
        raise AssertionError("multiplication by the last form must be injective")
    lhs = dim - ctx.rank([last], n, prefix)
    rhs = dim - ctx.rank([ctx.ring.one()], n, prefix)
    if lhs < rhs:
        raise AssertionError("colon cap must contain the plain cap")
    return PredicateReport(
        "tight", {"ideal": ideal_fingerprint(ideal), "forms": fs.provenance, "n": n},
        "true" if lhs == rhs else "false",
        certificate={"colon_cap_dim": lhs, "plain_cap_dim": rhs, "degree": n * d})


def tight_profile(ideal, fs: FormSequence, n_max: int) -> PredicateReport:
    """Per-power tightness plus the all-powers verdict.

    Tightness in one power propagates to all higher powers, so the
    sequence is analytically tight (every n >= 1) exactly when power 1
    is tight.
    """
    ctx = IdealContext.of(ideal)
    ideal = ctx.ideal
    equigenerated_data(ctx)
    per_n = {}
    for n in range(1, n_max + 1):
        per_n[n] = analytically_tight(ctx, fs, n).is_true
    for n in range(1, n_max):
        if per_n[n] and not per_n[n + 1]:
            raise AssertionError("tightness monotonicity violated")
    verdict = "true" if per_n[1] else "false"
    return PredicateReport(
        "tight-all", {"ideal": ideal_fingerprint(ideal), "forms": fs.provenance},
        verdict,
        bounds_used={"n_max": n_max, "upgrade": "monotonicity from n=1"},
        certificate={"per_power": {str(n): v for n, v in per_n.items()}})


def analytically_adjusted(ideal, fs: FormSequence) -> PredicateReport:
    """mu(JI) against l*mu(I) - C(l,2) for J spanned by the sequence."""
    ctx = IdealContext.of(ideal)
    ideal = ctx.ideal
    gens, d = equigenerated_data(ctx)
    if any(f.homogeneous_degree() != d for f in fs.forms):
        raise ValueError(f"forms must be nonzero of the generating degree {d}")
    if ctx.rank(fs.forms, 0) != len(fs.forms):
        raise ValueError("forms are k-linearly dependent")
    l = len(fs.forms)
    mu = len(gens)
    mu_ji = ctx.rank(fs.forms, 1)
    expected = l * mu - comb(l, 2)
    if mu_ji > expected:
        raise AssertionError("adjustment upper bound violated")
    return PredicateReport(
        "adjusted", {"ideal": ideal_fingerprint(ideal), "forms": fs.provenance,
                     "l": l},
        "true" if mu_ji == expected else "false",
        certificate={"mu_JI": mu_ji, "bound": expected, "mu": mu})


# ---------------------------------------------------------------------------
# Valabrega-Valla via the associated graded ring

def valabrega_valla(ideal, fs_prefix: FormSequence, n_max: int = 5) -> PredicateReport:
    """(f_1..f_g) cap I^n = (f_1..f_g) I^{n-1} for all n.

    The all-n verdict tests whether the images of the prefix (w-linear
    forms in the gr presentation, ``ReesPresentation.w_form``) are a
    regular sequence on gr, each step certified by the Hilbert-numerator
    identity; per-power piece comparisons at degree n*d give explicit
    failure witnesses.
    """
    ctx = IdealContext.of(ideal)
    ideal = ctx.ideal
    equigenerated_data(ctx)
    g = len(fs_prefix.forms)
    height = ctx.forms_ideal(fs_prefix.forms).height()
    if height != g:
        # a drawn prefix that missed general position: a bound, not bad input
        raise BoundExceededError(f"prefix {fs_prefix.provenance} is not a regular "
                                 f"sequence (height drop: {height} < {g})")
    if fs_prefix.coefficients is None:
        raise ValueError("prefix forms must come with generator coordinates")
    pres = ctx.pres

    # gr-route: cut gr by the images, demanding regularity at every step,
    # up to grade(gr+) when the context holds it exactly: the images lie in
    # gr+, so the cut after that many regular ones must fail (D20)
    images = [pres.w_form(row) for row in fs_prefix.coefficients]
    grade = vars(ctx).get("gr_plus_grade")      # held, never searched here
    bound = grade.value if grade and grade.exact else None
    regular = regular_prefix(pres.gr_ideal.groebner(), images, bound)
    regular_all = regular == len(images)
    failed_at_step = None if regular_all else regular + 1

    per_n = {}
    first_failure = None
    for n in range(1, n_max + 1):
        lhs = len(ctx.power_rows(n)) - ctx.rank([ctx.ring.one()], n, fs_prefix.forms)
        rhs = ctx.rank(fs_prefix.forms, n - 1)
        if lhs < rhs:
            raise AssertionError(f"VV piece check at n={n}: cap {lhs} below product {rhs}")
        per_n[n] = (lhs == rhs)
        if not per_n[n] and first_failure is None:
            first_failure = n

    if regular_all and first_failure is not None:
        raise AssertionError("gr-route and piece route disagree on VV")
    return PredicateReport(
        "vv", {"ideal": ideal_fingerprint(ideal), "forms": fs_prefix.provenance,
               "g": g},
        "true" if regular_all else "false",
        bounds_used={"n_max": n_max, "all_n": "regular sequence on gr"},
        certificate={"per_power": {str(n): v for n, v in per_n.items()},
                     "first_failure": first_failure,
                     "gr_regular_failed_at": failed_at_step})


def regular_in_gr(ideal, fs_prefix: FormSequence, n_max: int = 5) -> PredicateReport:
    """Images of the prefix form a regular sequence in gr; decided as VV."""
    rep = valabrega_valla(ideal, fs_prefix, n_max)
    return PredicateReport("reg-in-gr", rep.inputs, rep.verdict,
                           rep.bounds_used, rep.certificate)


# ---------------------------------------------------------------------------
# generic complete intersection, perfectness, formulas

def generically_ci(ideal) -> PredicateReport:
    """Height-2 Fitting criterion: ht(I + I_{r-2}(phi)) >= 3, the ideals
    from the context (``IdealContext.fitting_ideal``)."""
    ctx = IdealContext.of(ideal)
    ideal = ctx.ideal
    if ideal.height() != 2:
        return PredicateReport(
            "gen-ci", {"ideal": ideal_fingerprint(ideal)}, "unknown",
            certificate={"reason": "criterion restricted to height-2 ideals"})
    r = ctx.presentation.nrows
    minors, fitting = ctx.fitting_ideal(r - 2)
    if r - 2 <= 0 or minors.is_unit():
        return PredicateReport("gen-ci", {"ideal": ideal_fingerprint(ideal)}, "true",
                               certificate={"fitting_height": "inf"})
    h = fitting.height() if not minors.is_zero() else 0
    return PredicateReport(
        "gen-ci", {"ideal": ideal_fingerprint(ideal)},
        "true" if h >= 3 else "false",
        certificate={"fitting_height": h})


def is_perfect(ideal) -> PredicateReport:
    """pd(R/I) == ht(I); Hilbert-Burch data in height two."""
    ctx = IdealContext.of(ideal)
    ideal = ctx.ideal
    res = ctx.resolution
    if not res.table.complete:
        return PredicateReport(
            "perfect", {"ideal": ideal_fingerprint(ideal)}, "unknown",
            bounds_used={"cutoff": res.table.ceiling},
            certificate={"reason": "resolution incomplete"})
    pd = res.table.projective_dimension
    ht = ideal.height()
    cert = {"pd": pd, "ht": ht}
    verdict = pd == ht
    if verdict and ht == 2:
        d = ctx.degree
        if d is not None:
            ms = sorted(c - d for c in res.presentation.column_degrees)
            cert["hilbert_burch"] = {"d": d, "m": ms}
            if sum(ms) != d:
                raise AssertionError("Hilbert-Burch column degrees must sum to d")
    return PredicateReport("perfect", {"ideal": ideal_fingerprint(ideal)},
                           "true" if verdict else "false", certificate=cert)


def multiplicity_formula_checks(ideal) -> PredicateReport:
    """e(R/I) = (d^2 + sum m_i^2)/2, plus the fiber-side conclusions
    (e(F) = C(mu-1,2), r = 2, 3-linear fiber resolution) when the
    degree-3-relations + CM-Rees hypotheses verify."""
    ctx = IdealContext.of(ideal)
    ideal = ctx.ideal
    perfect = is_perfect(ctx)
    if not perfect.is_true or perfect.certificate.get("ht") != 2:
        raise ValueError("formula suite needs a height-2 perfect ideal")
    hb = perfect.certificate.get("hilbert_burch")
    if hb is None:
        raise ValueError("formula suite needs an equigenerated ideal")
    d, ms = hb["d"], hb["m"]
    e_ri = ideal.multiplicity()
    closed = (d * d + sum(m * m for m in ms))
    if closed % 2:
        raise AssertionError(f"d^2 + sum m_i^2 = {closed} is odd")
    formula_ok = e_ri == closed // 2
    cert = {"e_RI": e_ri, "closed_form": closed // 2, "d": d, "m": ms}

    # hypothesis chain, cheap to expensive; stop at the first failure so
    # entries outside the theorem's reach never build their blow-ups
    mu = len(ctx.mingens)
    hyps = {"dim_ring_3": ideal.ring.nvars == 3, "mu_ge_4": mu >= 4}
    applicable = all(hyps.values())
    if applicable:
        indeg = fiber_indeg(ctx)
        hyps["indeg_ge_3"] = isinstance(indeg.certificate["indeg"], int) \
            and indeg.certificate["indeg"] >= 3
        applicable = hyps["indeg_ge_3"]
    if applicable:
        hyps["spread_3"] = ctx.spread == 3
        applicable = hyps["spread_3"]
    if applicable:
        hyps["rees_cm"] = ctx.rees_cm
        applicable = hyps["rees_cm"]
    cert["hypotheses"] = hyps
    verdict = formula_ok
    if applicable:
        e_f = ctx.fp.multiplicity()
        red = minimal_reduction(ctx)
        fres = ctx.fiber_resolution
        linear3 = fres.table.complete and all(
            j - i == 2 for (i, j) in fres.table.entries if i >= 1)
        cert["conditional"] = {
            "e_F": e_f, "binom": comb(mu - 1, 2),
            "reduction_number": red.reduction_number,
            "fiber_3_linear": linear3,
        }
        verdict = verdict and e_f == comb(mu - 1, 2) \
            and red.reduction_number == 2 and linear3
    else:
        cert["conditional"] = "not-applicable"
    return PredicateReport(
        "mult-formulas", {"ideal": ideal_fingerprint(ideal)},
        "true" if verdict else "false", certificate=cert)


def map_degree_via_formula(ideal) -> PredicateReport:
    """Degree of the linear-system map from e(F)*deg = d^2 - e(R/I).

    The identity chain d^2 - e(R/I) = sum_{i<j} m_i m_j is evaluated for
    every height-2 perfect equigenerated input; the degree itself is
    asserted only under the generically-CI certificate the formula
    requires, and checked against the Rees CM verdict.
    """
    ctx = IdealContext.of(ideal)
    ideal = ctx.ideal
    perfect = is_perfect(ctx)
    if not perfect.is_true or perfect.certificate.get("ht") != 2:
        raise ValueError("map degree needs a height-2 perfect ideal")
    hb = perfect.certificate.get("hilbert_burch")
    if hb is None:
        raise ValueError("map degree needs an equigenerated ideal")
    d, ms = hb["d"], hb["m"]
    e_ri = ideal.multiplicity()
    pairs = sum(ms[i] * ms[j] for i in range(len(ms)) for j in range(i + 1, len(ms)))
    chain_ok = (d * d - e_ri) == pairs
    gci = generically_ci(ctx)
    e_f = ctx.fp.multiplicity()
    cert = {"d": d, "m": ms, "e_RI": e_ri, "sum_pairs": pairs,
            "identity_chain": chain_ok, "e_F": e_f,
            "generically_ci": gci.verdict}
    verdict = chain_ok
    if gci.is_true:
        num = d * d - e_ri
        integral = num % e_f == 0
        cert["map_degree"] = num // e_f if integral else None
        cert["integral"] = integral
        verdict = verdict and integral
        if len(ctx.mingens) > 2:
            linearly_presented = all(m == 1 for m in ms)
            cert["linearly_presented"] = linearly_presented
            cert["rees_cm"] = ctx.rees_cm
            if ctx.rees_cm and integral:
                if linearly_presented != (cert["map_degree"] == 1):
                    raise AssertionError(
                        "linear presentation vs degree-1 cross-check failed")
    else:
        cert["map_degree"] = "not-applicable"
    return PredicateReport(
        "map-degree", {"ideal": ideal_fingerprint(ideal)},
        "true" if verdict else "false", certificate=cert)
