import random

import pytest

from fiberlab.fields import GF, QQ
from fiberlab.ideals import Ideal
from fiberlab.linalg import rank_of_rows
from fiberlab.polyring import Polynomial, Ring, RingError


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


def random_poly(ring, degree, rng, terms=4):
    out = ring.zero()
    monos = ring.monomials_of_degree(degree)
    for _ in range(terms):
        c = ring.field.random_raw(rng)
        out = out + ring.one().mul_term(monos[rng.randrange(len(monos))], c)
    return out


def exponent_terms(p):
    """The terms of p keyed by exponent tuples."""
    return {p.ring.exponents(m): c for m, c in p.terms.items()}


def leading_exponents(gb):
    """Exponent tuples of the leading monomials of a basis, in its order."""
    exps = gb.ring.exponents
    return [max(map(exps, g.terms), key=gb.order.key) for g in gb.elements]


@pytest.fixture(scope="session")
def rng():
    return random.Random("fiberlab-tests")


def recheck_regularity(gens, ring, certificate):
    """The Bayer-Stillman criterion for ``certificate`` = (m, forms), read
    off Hilbert functions of Groebner quotients instead of the echelons
    ``resolutions.certified_regularity`` extends: h is injective from
    degree m to m+1 on S/K iff HF(S/(K,h), m+1) = HF(S/K, m+1) - HF(S/K, m),
    by the exact sequence 0 -> (0:h)_m -> (S/K)_m -> (S/K)_{m+1} ->
    (S/(K,h))_{m+1} -> 0."""
    m, forms = certificate.m, certificate.forms

    def hf(polys):
        return Ideal(ring, tuple(polys)).hilbert_series().coefficients(m + 1)[m:]

    if any(g.homogeneous_degree() > m for g in gens):
        return False
    if any(h.homogeneous_degree() != 1 for h in forms):
        return False
    for i, h in enumerate(forms):
        (low, high), (_, cut) = hf([*gens, *forms[:i]]), hf([*gens, *forms[:i + 1]])
        if cut != high - low:
            return False
    return hf([*gens, *forms])[0] == 0


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
        c = field.div(rest.terms[lt_r], lc_f)
        quotient[q] = c
        rest = rest - f.mul_term(q, c)
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
    inter = ideal.intersect(Ideal(ideal.ring, (f,)))
    return Ideal(ideal.ring, tuple(divide_exact(g, f) for g in inter.generators))
