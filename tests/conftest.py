import random

import pytest

from fiberlab import depth as depth_mod
from fiberlab.depth import regular_prefix
from fiberlab.fields import GF, QQ
from fiberlab.graded import piece_span_of_polys, spanning_rows
from fiberlab.groebner import eliminate, extend_basis
from fiberlab.hilbert import series_of_basis
from fiberlab.ideals import Ideal
from fiberlab.linalg import rank_of_rows
from fiberlab.polyring import Polynomial, Ring, RingError, _packing, fresh_names
from fiberlab.predicates import PredicateReport, analytically_adjusted, generic_forms


@pytest.fixture(scope="session")
def R3():
    return Ring(GF(32003), ["x", "y", "z"])


@pytest.fixture(scope="session")
def R3q():
    return Ring(QQ, ["x", "y", "z"])


def mono_ideal(ring, *exps):
    return Ideal(ring, tuple(ring.monomial(e) for e in exps))


@pytest.fixture(scope="session")
def sixgen(R3):
    # z^6, yz^5, y^2z^4, xy^2z^3, x^2y^2z^2, x^3y^3
    return mono_ideal(R3, (0, 0, 6), (0, 1, 5), (0, 2, 4),
                      (1, 2, 3), (2, 2, 2), (3, 3, 0))


@pytest.fixture(scope="session")
def sevengen(R3):
    # z^6, yz^5, xyz^4, xy^2z^3, xy^3z^2, x^2y^3z, x^3y^3
    return mono_ideal(R3, (0, 0, 6), (0, 1, 5), (1, 1, 4), (1, 2, 3),
                      (1, 3, 2), (2, 3, 1), (3, 3, 0))


@pytest.fixture(scope="session")
def monomial4(R3):
    x, y, z = (R3.variable(i) for i in range(3))
    return Ideal(R3, (x * x, x * y, x * z, y * z))


@pytest.fixture(scope="session")
def binomial4(R3):
    x, y, z = (R3.variable(i) for i in range(3))
    return Ideal(R3, (x * x - y * y, x * y, x * z, y * z))


def counting_cuts(monkeypatch):
    """The forms of every ``depth.regular_cut`` from here on, in order."""
    calls = []
    cut = depth_mod.regular_cut

    def counted(gb, hs, theta, memo=None):
        calls.append(theta)
        return cut(gb, hs, theta, memo)

    monkeypatch.setattr(depth_mod, "regular_cut", counted)
    return calls


def mul_term(p, mono, coeff):
    """p * coeff * mono, for a packed monomial mono."""
    ring = p.ring
    coeff = ring.field.raw(coeff)
    return p * Polynomial(ring, {mono: coeff}) if coeff else ring.zero()


def order_key(order):
    """Sort key of a monomial order on exponent tuples: the tuple packed
    for the order, so that keys sort as the monomials do."""
    return lambda m: _packing(order, len(m)).pack(m)


def total_betti(table, i):
    """Sum of the graded Betti numbers of a ``BettiTable`` in homological
    index i."""
    return sum(c for (h, _), c in table.entries.items() if h == i)


def random_poly(ring, degree, rng, terms=4):
    out = ring.zero()
    monos = ring.monomials_of_degree(degree)
    for _ in range(terms):
        c = ring.field.random_raw(rng)
        out = out + mul_term(ring.one(), monos[rng.randrange(len(monos))], c)
    return out


def exponent_terms(p):
    """The terms of p keyed by exponent tuples."""
    return {p.ring.exponents(m): c for m, c in p.terms.items()}


def leading_exponents(gb):
    """Exponent tuples of the leading monomials of a basis, in its order."""
    exps = gb.ring.exponents
    return [max(map(exps, g.terms), key=order_key(gb.order)) for g in gb.elements]


@pytest.fixture(scope="session")
def rng():
    return random.Random("fiberlab-tests")


def colength_cm(ideal, seed) -> bool:
    """Is S/ideal Cohen-Macaulay, by the colength criterion, independent
    of the depth descent behind ``IdealContext.fiber_cm`` and ``rees_cm``:
    for a linear system of parameters theta_1..theta_s (s = dim S/ideal),
    the length of S/(ideal, theta) is at least the multiplicity e, with
    equality exactly when S/ideal is CM.  A seeded draw of s linear forms
    is redrawn, at most four times, until the cut has dimension 0."""
    ring = ideal.ring
    hs = ideal.hilbert_series()
    gb = ideal.groebner()
    rng = random.Random(str(seed))
    for _ in range(4):
        thetas = [ring.linear_form([ring.field.random_raw(rng) for _ in range(ring.nvars)])
                  for _ in range(hs.dimension)]
        cut = series_of_basis(extend_basis(gb, thetas)) if thetas else hs
        if cut.dimension == 0:
            break
    else:
        raise AssertionError(f"no linear system of parameters in four draws ({seed})")
    length = sum(cut.coefficients(max((d for d, _ in cut.numerator), default=0)))
    if length < hs.multiplicity:
        raise AssertionError(f"colength {length} below the multiplicity {hs.multiplicity}")
    return length == hs.multiplicity


def recheck_regularity(gens, ring, certificate):
    """The Bayer-Stillman criterion for ``certificate`` = (m, forms), on
    dense echelons of the graded pieces instead of the Hilbert series of
    cuts that ``resolutions.certified_regularity`` reads: with J' = (gens,
    forms so far), h is injective from degree m to m+1 on S/J' iff
    rank(J'_{m+1} + h S_m) - rank J'_{m+1} = dim S_m - rank J'_m, and the
    last J'_m must be all of S_m."""
    m, forms = certificate.m, certificate.forms
    if any(g.homogeneous_degree() > m for g in gens):
        return False
    if any(h.homogeneous_degree() != 1 for h in forms):
        return False
    low = piece_span_of_polys(gens, m, ring)
    high = piece_span_of_polys(gens, m + 1, ring)
    for h in forms:
        if sum(high.extend(spanning_rows([h], m + 1, ring))) != low.width - low.rank:
            return False
        low.extend(spanning_rows([h], m, ring))
    return low.rank == low.width


def joint_rank(a, b):
    """dim of the sum of two graded pieces of one degree, from their
    echelons: the piece route that the tightness and Valabrega-Valla tests
    hold the ranks of ``IdealContext.rank`` modulo a prefix against."""
    if a.width != b.width:
        raise ValueError(f"pieces of widths {a.width} and {b.width}")
    return a.rank + rank_of_rows(a.reduce(b.rows), a.field, a.width)


def divide_exact(g, f):
    """Quotient g/f when f divides g exactly."""
    ring = g.ring
    field = ring.field
    guard = ring.packing.guard
    if g.is_zero():
        return g
    lt_f = max(f.terms)         # grevlex leading monomials
    lc_f = f.terms[lt_f]
    quotient = {}
    rest = g
    while rest.terms:
        lt_r = max(rest.terms)
        q = lt_r - lt_f
        if q & guard:
            raise ArithmeticError("division is not exact")
        c = field.mul(rest.terms[lt_r], field.inv(lc_f))
        quotient[q] = c
        rest = rest - mul_term(f, q, c)
    return Polynomial(ring, quotient)


def colon(ideal, f):
    """(I : f) = {g : g*f in I}, by Groebner elimination: I cap (f),
    divided by f.  The independent oracle of the tightness tests and of
    ``depth.annihilator_series``, which read the colon off graded pieces
    and Hilbert series."""
    if f.is_zero():
        raise ZeroDivisionError("colon by zero")
    if f.ring != ideal.ring:
        raise RingError("colon element outside the ring")
    inter = intersect(ideal, Ideal(ideal.ring, (f,)))
    return Ideal(ideal.ring, tuple(divide_exact(g, f) for g in inter.generators))


def intersect(a, b):
    """a cap b by Groebner elimination: the ideal t*a + (1 - t)*b of
    S[t], with t eliminated."""
    if a.ring != b.ring:
        raise RingError("ideals in different rings")
    ring = a.ring
    if a.is_zero() or b.is_zero():
        return Ideal(ring, ())
    aux = fresh_names("t", 1, ring.names)[0]
    big = Ring(ring.field, (aux,) + ring.names, (1,) + ring.weights)
    u = big.variable(0)
    gens = [u * ring.embed(g, big) for g in a.generators]
    gens += [(big.one() - u) * ring.embed(g, big) for g in b.generators]
    return Ideal(ring, tuple(big.restrict(g, ring) for g in eliminate(gens, 1)))


def power_gens(ideal, n):
    """Minimal generators of I^n (I^0 = (1)), from the polynomial products
    of the minimal generators of I^{n-1} with those of I: the product
    route that ``IdealContext.power_rows`` and ``IdealContext.rank``,
    which multiply coefficient rows, are held against."""
    gens = ideal.minimal_generators()
    power = [ideal.ring.one()]
    for _ in range(n):
        power = Ideal(ideal.ring, tuple(a * b for a in power for b in gens)).minimal_generators()
    return power


def products(ideal, forms, r):
    """The polynomial products f*g of the forms with ``power_gens(ideal,
    r)``: they generate (forms)·I^r."""
    return [f * g for f in forms for g in power_gens(ideal, r)]


def crosscheck_bundles(reports) -> list:
    """Bundles for the theorem crosscheck suite, from full-plan reports."""
    return [r["_objects"] for r in reports if "_objects" in r]


def x_first_copy(pres, ideal):
    """(ring, J, gr): the Rees and gr ideals of ``rees_and_gr`` copied
    into k[x.., w..], the x-variables of ``ideal`` first."""
    big = pres.rees_ideal.ring
    ring = Ring(big.field, ideal.ring.names + tuple(big.names[i] for i in pres.wvars))
    return (ring, *(Ideal(ring, tuple(big.embed(g, ring) for g in copy.generators))
                    for copy in (pres.rees_ideal, pres.gr_ideal)))


def relation_piece_dim(fp, n):
    """dim_k [Q]_n of the fiber relations Q, from their Hilbert series."""
    return fp.ring.dim_of_degree(n) - fp.hilbert_series().coefficients(n)[n]


def regular_sequence_on_fiber(fp, coeff_rows) -> bool:
    """Are the forms with the given generator coordinates a regular
    sequence on the fiber cone k[w]/fp?  Exact, via numerator identities."""
    forms = [fp.ring.linear_form(list(row)) for row in coeff_rows]
    return regular_prefix(fp.groebner(), forms) == len(forms)


def theorem_crosschecks(bundles) -> list:
    """Evaluate proved implications on prepared corpus bundles; any
    'false' verdict is a correctness bug in the artifact, not a finding
    about the mathematics."""
    reports = []

    def emit(name, ident, ok, cert):
        reports.append(PredicateReport(
            f"crosscheck:{name}", {"id": ident},
            "true" if ok else "false", certificate=cert))

    for b in bundles:
        ident = b["id"]
        ideal = b["ideal"]
        fp = b.get("fp")
        pres = b.get("rees")
        fiber_cm = b.get("fiber_cm")
        ht = ideal.height()

        if fp is not None and pres is not None:
            # irrelevant-ideal codimension never exceeds the height
            codim = pres.gr_plus_codimension()
            emit("ht-gr-plus", ident, codim <= ht, {"codim": codim, "ht": ht})
            # fiber relations embed into the Rees relations
            gb = pres.rees_ideal.groebner()
            ok = all(gb.contains(fp.ring.embed(q, pres.rees_ideal.ring))
                     for q in fp.generators)
            emit("Q-inside-rees", ident, ok, {"relations": len(fp.generators)})

        for seed in b.get("seeds", []):
            fs = b["forms"][seed]
            red = b["reductions"][seed]
            tight = b["tight"][seed]
            vv = b["vv_prefix"][seed]

            # tightness is monotone across powers
            per = [tight.certificate["per_power"][k]
                   for k in sorted(tight.certificate["per_power"], key=int)]
            mono = all(per[i] <= per[i + 1] for i in range(len(per) - 1))
            emit("tight-monotone", ident, mono, {"seed": seed, "profile": per})

            # deviation one + (a) VV prefix + (b) reduction: tight <=> fiber CM
            if fp is not None and fiber_cm is not None \
                    and fp.krull_dimension() == ht + 1:
                if vv.is_true and red.verified and red.reduction_number is not None:
                    agree = tight.is_true == fiber_cm
                    emit("fiber-cm-equivalence", ident, agree,
                         {"seed": seed, "tight": tight.verdict,
                          "fiber_cm": fiber_cm})
                # VV prefix regular on the fiber cone
                if vv.is_true and fs.coefficients is not None:
                    ok = regular_sequence_on_fiber(fp, fs.coefficients[:ht])
                    emit("vv-regular-on-fiber", ident, ok, {"seed": seed})

            adj = analytically_adjusted(ideal, fs)
            # CM fiber makes minimal-reduction generators adjusted
            if fiber_cm and red.verified:
                emit("cm-reduction-adjusted", ident, adj.is_true,
                     {"seed": seed, "mu_JI": adj.certificate["mu_JI"],
                      "bound": adj.certificate["bound"]})

            # mu(JI) never exceeds l*mu - C(l,2) (asserted inside adjusted)
            emit("mu-JI-bound", ident,
                 adj.certificate["mu_JI"] <= adj.certificate["bound"],
                 {"seed": seed})

        indeg = b.get("indeg")
        if indeg is not None and isinstance(indeg.certificate["indeg"], int) \
                and indeg.certificate["indeg"] >= 3:
            gens = ideal.minimal_generators()
            for l in (2, min(3, len(gens))):
                fs = generic_forms(ideal, l, f"noquad:{b['id']}:{l}")
                adj = analytically_adjusted(ideal, fs)
                emit("no-quadratics-adjusted", ident, adj.is_true,
                     {"l": l, "mu_JI": adj.certificate["mu_JI"]})
    return reports
