import random

import pytest

from fiberlab import depth as depth_mod
from fiberlab.fields import GF
from fiberlab.groebner import extend_basis
from fiberlab.hilbert import HilbertSeries, monomial_numerator, series_of_basis
from fiberlab.ideals import Ideal
from fiberlab.polyring import GREVLEX, Polynomial, Ring, _packing

from conftest import exponent_terms, leading_exponents, random_poly


def brute_hilbert_function(gens, nvars, weights, up_to):
    """Count standard monomials degree by degree, straight from the
    definition."""
    counts = []
    ring = Ring(GF(32003), [f"v{i}" for i in range(nvars)], weights)
    for d in range(up_to + 1):
        total = 0
        for m in map(ring.exponents, ring.monomials_of_degree(d)):
            if not any(all(a <= b for a, b in zip(g, m)) for g in gens):
                total += 1
        counts.append(total)
    return counts


def numerator(gens, weights):
    """``monomial_numerator`` of the ideal that the exponent tuples
    generate, packed in grevlex and cut to its minimal generators."""
    packing = _packing(GREVLEX, len(weights))
    packed = set(map(packing.pack, gens))
    minimal = [a for a in packed
               if not any(b != a and not (a - b) & packing.guard for b in packed)]
    return monomial_numerator(minimal, weights, packing)


def test_zero_ideal():
    hs = HilbertSeries.from_numerator({0: 1}, 3)
    assert hs.dimension == 3
    assert hs.multiplicity == 1
    assert hs.coefficients(3) == [1, 3, 6, 10]


def test_spec_example_x2_xy_y2():
    num = numerator([(2, 0, 0), (1, 1, 0), (0, 2, 0)], (1, 1, 1))
    hs = HilbertSeries.from_numerator(num, 3)
    reduced, cancelled = hs.reduced()
    assert reduced == {0: 1, 1: 2}          # 1 + 2t after cancelling
    assert hs.dimension == 1
    assert hs.multiplicity == 3
    assert hs.coefficients(5) == [1, 3, 3, 3, 3, 3]


def test_unit_ideal_conventions():
    num = numerator([(0, 0)], (1, 1))
    hs = HilbertSeries.from_numerator(num, 2)
    assert hs.dimension == -1
    assert hs.multiplicity == 0


def test_random_monomial_ideals_against_brute_force():
    rng = random.Random("hilbert")
    for _ in range(30):
        nvars = rng.randrange(2, 5)
        gens = []
        for _ in range(rng.randrange(1, 6)):
            gens.append(tuple(rng.randrange(4) for _ in range(nvars)))
        gens = [g for g in gens if any(g)]
        if not gens:
            continue
        weights = tuple(rng.choice((1, 1, 1, 2)) for _ in range(nvars))
        num = numerator(gens, weights)
        hs = HilbertSeries.from_numerator(num, nvars, weights)
        assert hs.coefficients(8) == brute_hilbert_function(gens, nvars, weights, 8)


def test_regular_cut_identity():
    # quotient by a regular linear form: numerator picks up (1 - t)
    num = numerator([(2, 0, 0)], (1, 1, 1))
    hs = HilbertSeries.from_numerator(num, 3)
    cut = hs * {0: 1, 1: -1}
    assert hs.equals_after_cut(cut, 1)
    assert not hs.equals_after_cut(hs, 1)


def test_series_matches_lead_term_ideal(sixgen):
    """Series of the ideal equals the series of its lead-term ideal by
    construction; check both against the brute count."""
    hs = sixgen.hilbert_series()
    leads = leading_exponents(sixgen.groebner())
    brute = brute_hilbert_function(leads, 3, (1, 1, 1), 9)
    assert hs.coefficients(9) == brute


def tuple_numerator(gens, weights):
    """Oracle on exponent tuples, sharing no code with the packed
    recursion: N(M) = N(M') - t^deg(m) * N(M' : m) for M = M' + (m)."""
    def minimal(monos):
        monos = sorted(set(monos), key=lambda m: (sum(m), m))
        out = []
        for m in monos:
            if not any(all(a <= b for a, b in zip(h, m)) for h in out):
                out.append(m)
        return tuple(out)

    def rec(gens):
        if not gens:
            return {0: 1}
        *rest, m = gens
        colon = minimal(tuple(max(a - b, 0) for a, b in zip(r, m)) for r in rest)
        shift = sum(w * e for w, e in zip(weights, m))
        out = dict(rec(tuple(rest)))
        for d, c in rec(colon).items():
            out[d + shift] = out.get(d + shift, 0) - c
        return {d: c for d, c in out.items() if c}

    return rec(minimal(tuple(g) for g in gens))


def test_packed_numerator_against_tuple_oracle():
    rng = random.Random("packed-numerator")
    for trial in range(60):
        nvars = rng.randrange(1, 6)
        gens = [tuple(rng.randrange(4) for _ in range(nvars))
                for _ in range(rng.randrange(1, 8))]
        gens = [g for g in gens if any(g)] or [(1,) * nvars]
        mixed = trial % 2
        weights = tuple(rng.choice((1, 2, 3)) if mixed else 1 for _ in range(nvars))
        num = numerator(gens, weights)
        assert num == tuple_numerator(gens, weights)
        hs = HilbertSeries.from_numerator(num, nvars, weights)
        assert hs.coefficients(7) == brute_hilbert_function(gens, nvars, weights, 7)


def test_numerator_of_zero_and_unit_ideals():
    assert numerator([], (1, 1, 1)) == {0: 1}
    assert numerator([(0, 0, 0)], (1, 2, 1)) == {}
    assert numerator([(0, 0, 0), (1, 2, 0)], (1, 1, 1)) == {}


def test_series_of_basis_reads_packed_leads():
    """A reduced basis hands over its packed leading monomials, in the
    packing of its own term order."""
    from fiberlab.groebner import buchberger
    from fiberlab.hilbert import series_of_basis
    from fiberlab.polyring import GREVLEX, LEX
    ring = Ring(GF(32003), ["a", "b", "c", "d"], (1, 2, 1, 3))
    rng = random.Random("series-of-basis")
    for order in (GREVLEX, LEX):
        for _ in range(3):
            gens = []
            for _ in range(3):
                monos = ring.monomials_of_degree(rng.randrange(2, 5))
                gens.append(Polynomial(ring, {monos[rng.randrange(len(monos))]:
                                              ring.field.random_raw(rng, nonzero=True)
                                              for _ in range(2)}))
            gb = buchberger(gens, order)
            hs = series_of_basis(gb)
            leads = leading_exponents(gb)
            assert hs.numerator_dict() == tuple_numerator(leads, ring.weights)
            assert hs.coefficients(8) == brute_hilbert_function(
                leads, 4, ring.weights, 8)


def fresh_series(gb):
    """The series of a basis's leading monomials from a new recursion with
    no memo, not the series that the basis keeps."""
    red = gb._reducers
    num = monomial_numerator(red.lts, gb.ring.weights, red.packing)
    return HilbertSeries.from_numerator(num, gb.ring.nvars, gb.ring.weights)


def test_series_of_basis_is_kept_on_the_basis():
    """The first call computes the series with the caller's memo; every
    later call returns the same object and leaves its memo untouched."""
    ring = Ring(GF(32003), ["a", "b", "c", "d"])
    rng = random.Random("kept-series")
    gb = Ideal(ring, tuple(random_poly(ring, d, rng) for d in (2, 2, 3))).groebner()
    memo, later = {}, {}
    hs = series_of_basis(gb, memo)
    assert memo and hs == fresh_series(gb)
    assert series_of_basis(gb) is hs
    assert series_of_basis(gb, later) is hs and not later
    assert Ideal(ring, gb.elements).hilbert_series() == hs


def sympy_standard_counts(gens, up_to):
    """Standard monomials per degree 0..up_to of sympy's reduced grevlex
    basis of the polynomials ``gens``, over F_p: no code shared with the
    engine or the recursion."""
    sympy = pytest.importorskip("sympy")
    ring = gens[0].ring
    p = ring.field.characteristic
    symbols = sympy.symbols(ring.names)
    exprs = [sum(c * sympy.prod([s ** e for s, e in zip(symbols, m)])
                 for m, c in exponent_terms(g).items()) for g in gens]
    basis = sympy.groebner(exprs, *symbols, modulus=p, order="grevlex")
    leads = [sympy.Poly(g, *symbols, modulus=p).monoms(order="grevlex")[0]
             for g in basis.exprs]
    return brute_hilbert_function(leads, ring.nvars, ring.weights, up_to)


@pytest.mark.parametrize("nvars", [4, 5])
def test_shared_memo_series_against_fresh_and_sympy(nvars):
    """Seeded ideals in one ring, each cut by two linear forms, all under
    one memo: every series equals a fresh recursion's and sympy's count
    of standard monomials through degree 7."""
    ring = Ring(GF(32003), [f"x{i}" for i in range(nvars)])
    rng = random.Random(f"shared-memo:{nvars}")
    memo = {}
    for _ in range(3):
        gens = [random_poly(ring, d, rng) for d in (2, 2, 3)]
        gb = Ideal(ring, tuple(gens)).groebner()
        for cuts in range(3):
            if cuts:
                gb = extend_basis(gb, (random_poly(ring, 1, rng, terms=2),))
            shared = series_of_basis(gb, memo)
            assert shared == fresh_series(gb)
            assert shared.coefficients(7) == sympy_standard_counts(gb.source_generators, 7)
    assert memo


def test_descent_cuts_share_one_memo_and_match_fresh_and_sympy(binomial4, monkeypatch):
    """Every cut of the depth descent on the gr of
    (x^2 - y^2, xy, xz, yz), regular or not, shares the descent's one
    memo; the series it reads equals a fresh recursion's and sympy's
    count through degree 6.  The descent runs with its annihilated-element
    check off (D19), so that it still makes the 26 cuts it made before
    the check, most of them failing."""
    from fiberlab.blowup import rees_and_gr
    gr = rees_and_gr(binomial4).gr_ideal
    cut, seen = depth_mod.regular_cut, []

    def recorded(gb, hs, theta, memo=None):
        out = cut(gb, hs, theta, memo)
        seen.append((out[1], out[2], memo))
        return out

    monkeypatch.setattr(depth_mod, "regular_cut", recorded)
    monkeypatch.setattr(depth_mod._AnnihilatedElements, "kills", lambda self, theta: False)
    rep = depth_mod.graded_depth(gr, seed="t")
    assert (rep.value, rep.exact) == (2, True)
    assert len(seen) > 10 and len({id(m) for *_, m in seen}) == 1 and seen[0][2]
    for gb, hs, _ in seen:
        assert hs == fresh_series(gb)
        assert hs.coefficients(6) == sympy_standard_counts(gb.source_generators, 6)


def test_corpus_series_and_first_cut_against_sympy():
    """The regularity certificate reads the series of R/I, of the fiber
    k[w]/Q and of their cuts.  For the 7 corpus ideals and the 5 fibers of
    the full-plan entries (sympy takes under 0.4 s on each), the series
    and that of the cut by the certificate's first form equal sympy's
    count of standard monomials through degree m + 3."""
    from fiberlab.blowup import fiber_presentation
    from fiberlab.corpus import CORPUS, load_entry_ideal
    from fiberlab.resolutions import certified_regularity
    checked = []
    for e in CORPUS:
        ideal = load_entry_ideal(e)
        cases = [(e.id, ideal)]
        if e.plan == "full":
            cases.append((f"{e.id}:fiber", fiber_presentation(ideal)))
        for label, j in cases:
            cert = certified_regularity(j, 60, "resolution")
            gb, hs, h = j.groebner(), j.hilbert_series(), cert.forms[0]
            cut_hs = depth_mod.regular_cut(gb, hs, h)[2]
            gens = list(j.generators)
            assert hs.coefficients(cert.m + 3) == \
                sympy_standard_counts(gens, cert.m + 3), label
            assert cut_hs.coefficients(cert.m + 3) == \
                sympy_standard_counts(gens + [h], cert.m + 3), label
            checked.append(label)
    assert len(checked) == 12
