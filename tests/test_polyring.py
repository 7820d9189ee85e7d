import random
from fractions import Fraction
from itertools import product
from operator import add, mul

import pytest

from fiberlab.fields import GF, QQ, FieldError
from fiberlab.polyring import (EXPONENT_LIMIT, GREVLEX, LEX, Elimination, Ring,
                               RingError, WeightThen)

from conftest import exponent_terms, order_key, random_poly


def test_basic_arithmetic(R3):
    x, y, z = (R3.variable(i) for i in range(3))
    assert (x + y) * (x - y) == x * x - y * y
    f = x * y + z * z
    assert (f + (-f)).is_zero()


def test_char_two_rejected():
    with pytest.raises(FieldError):
        Ring(GF(2), ["x"])


def compare_monomials(a, b, order):
    """"LT", "EQ" or "GT", read off the packed keys ``order_key(order)``."""
    ka, kb = order_key(order)(a), order_key(order)(b)
    return "LT" if ka < kb else ("GT" if ka > kb else "EQ")


def test_grevlex_example():
    # x^2 y vs x y z in three variables
    assert compare_monomials((2, 1, 0), (1, 1, 1), GREVLEX) == "GT"


def test_grevlex_exhaustive_oracle():
    """Compare the comparator against the definitional oracle on all
    degree-3 monomials in 3 variables."""
    def oracle(a, b):
        da, db = sum(a), sum(b)
        if da != db:
            return -1 if da < db else 1
        for i in reversed(range(3)):
            if a[i] != b[i]:
                # larger exponent in the last differing spot loses
                return -1 if a[i] > b[i] else 1
        return 0

    monos = [m for m in product(range(4), repeat=3) if sum(m) == 3]
    for a in monos:
        for b in monos:
            want = {-1: "LT", 0: "EQ", 1: "GT"}[oracle(a, b)]
            assert compare_monomials(a, b, GREVLEX) == want


def test_lex_and_eq():
    assert compare_monomials((1, 0), (0, 100), LEX) == "GT"
    for order in (GREVLEX, LEX, Elimination(1)):
        assert compare_monomials((2, 1), (2, 1), order) == "EQ"


def test_elimination_block_dominates():
    order = Elimination(2)
    # any monomial touching the first two variables beats any pure-tail one
    assert compare_monomials((1, 0, 0, 0), (0, 0, 9, 9), order) == "GT"
    assert compare_monomials((0, 1, 0, 0), (0, 0, 1, 0), order) == "GT"


@pytest.mark.parametrize("order", [GREVLEX, LEX, Elimination(2),
                                   WeightThen((2, 1, 1, 3))])
def test_order_axioms_randomized(order):
    rng = random.Random(f"orders:{order}")
    one = (0, 0, 0, 0)
    for _ in range(3000):
        a = tuple(rng.randrange(5) for _ in range(4))
        b = tuple(rng.randrange(5) for _ in range(4))
        c = tuple(rng.randrange(5) for _ in range(4))
        # multiplicative: a < b implies ac < bc
        if compare_monomials(a, b, order) == "LT":
            ac, bc = tuple(map(add, a, c)), tuple(map(add, b, c))
            assert compare_monomials(ac, bc, order) == "LT"
        # 1 is minimal
        if a != one:
            assert compare_monomials(one, a, order) == "LT"
        # total
        assert compare_monomials(a, b, order) in ("LT", "EQ", "GT")


def test_length_mismatch():
    """A ring packs only exponent tuples of its own length."""
    packing = Ring(GF(32003), ["x", "y"]).packing
    for bad in ((1, 0, 0), (1,), (1, -1)):
        with pytest.raises(RingError):
            packing.pack(bad)


def test_homogeneity_preserved(R3, rng):
    for _ in range(50):
        f = random_poly(R3, 3, rng)
        g = random_poly(R3, 3, rng)
        h = random_poly(R3, 5, rng)
        if f.is_zero() or g.is_zero() or h.is_zero():
            continue
        assert (f + g).is_zero() or (f + g).homogeneous_degree() == 3
        assert (f * h).homogeneous_degree() == 8


def test_weighted_degrees():
    ring = Ring(GF(32003), ["x", "w"], weights=(1, 6))
    x, w = ring.variable(0), ring.variable(1)
    assert (w - x ** 6).is_homogeneous()
    assert (w - x ** 5).is_homogeneous() is False
    assert ring.dim_of_degree(6) == 2    # x^6 and w


def test_homogeneous_degree(R3):
    x, y, z = (R3.variable(i) for i in range(3))
    assert (x * y + z * z).homogeneous_degree() == 2
    assert R3.zero().homogeneous_degree() == -1
    with pytest.raises(RingError):
        (x * y + z).homogeneous_degree()
    ring = Ring(GF(32003), ["x", "w"], weights=(1, 6))
    x, w = ring.variable(0), ring.variable(1)
    assert (w - x ** 6).homogeneous_degree() == 6
    with pytest.raises(RingError):
        (w - x ** 5).homogeneous_degree()


def test_monomial_helpers():
    """On packed monomials a divides b iff (b - a) & guard is 0, and the
    lcm on the exponent fields is the componentwise maximum."""
    packing = Ring(GF(32003), ["x", "y"]).packing
    pack, guard = packing.pack, packing.guard
    assert not (pack((2, 1)) - pack((1, 0))) & guard
    assert (pack((2, 1)) - pack((1, 2))) & guard
    assert packing.field_max(pack((1, 2)), pack((2, 1))) == pack((2, 2)) & packing.fields


def test_substitute(R3):
    x, y, z = (R3.variable(i) for i in range(3))
    f = x * x - y
    assert f.substitute([y, y * y, z], R3) == R3.zero()


def test_derivative(R3):
    x, y, z = (R3.variable(i) for i in range(3))
    f = x ** 3 + x * y
    assert f.derivative(0) == x * x * R3.constant(3) + y
    assert f.derivative(2).is_zero()


def _tuple_product(f, g):
    """Product by a plain loop over exponent tuples: the oracle for the
    packed ``Polynomial.__mul__``."""
    field = f.ring.field
    out = {}
    for m1, c1 in exponent_terms(f).items():
        for m2, c2 in exponent_terms(g).items():
            m = tuple(a + b for a, b in zip(m1, m2))
            out[m] = field.add(out.get(m, field.zero), field.mul(c1, c2))
    return {m: c for m, c in out.items() if c}


def _random_terms(ring, rng, nterms, emax):
    field = ring.field
    terms = {}
    for _ in range(nterms):
        m = tuple(rng.randrange(emax + 1) for _ in range(ring.nvars))
        if field.characteristic:
            terms[m] = field.random_raw(rng)
        else:
            terms[m] = Fraction(rng.randrange(-20, 21), rng.randrange(1, 7))
    return ring.from_terms(terms)


@pytest.mark.parametrize("field", [GF(32003), GF(67108859), QQ],
                         ids=["F32003", "F67108859", "QQ"])
@pytest.mark.parametrize("nvars", [1, 2, 3, 5, 10])
def test_packed_product_matches_tuple_loop(field, nvars):
    ring = Ring(field, [f"x{i}" for i in range(nvars)])
    rng = random.Random(f"packed-product:{field.characteristic}:{nvars}")
    zero = ring.zero()
    for _ in range(12):
        f = _random_terms(ring, rng, rng.randrange(1, 9), 4)
        g = _random_terms(ring, rng, rng.randrange(1, 30), 4)
        product_fg = f * g
        assert exponent_terms(product_fg) == _tuple_product(f, g)
        assert (g * f).terms == product_fg.terms
        assert (f * zero).is_zero() and (zero * f).is_zero()
    # cancellation: (x0 + 1)(x0 - 1) has no x0 term left
    x0, one = ring.variable(0), ring.one()
    assert exponent_terms((x0 + one) * (x0 - one)) == _tuple_product(x0 + one, x0 - one)
    assert len(((x0 + one) * (x0 - one)).terms) == 2


def test_packed_product_weighted_ring():
    ring = Ring(GF(32003), ["x", "y", "w"], weights=(1, 2, 3))
    rng = random.Random("packed-product:weighted")
    for _ in range(20):
        f = _random_terms(ring, rng, 6, 3)
        g = _random_terms(ring, rng, 6, 3)
        assert exponent_terms(f * g) == _tuple_product(f, g)
    x, y, w = (ring.variable(i) for i in range(3))
    f, g = x * y + w, x ** 3 + y * x + w
    assert (f * g).homogeneous_degree() == 6


@pytest.mark.parametrize("nvars", [1, 3, 10])
def test_packed_product_exponent_limit(nvars):
    """A product exponent of exactly EXPONENT_LIMIT is computed; one past
    it raises, in the first and in the last variable, and so does a
    constructor given one."""
    ring = Ring(GF(32003), [f"x{i}" for i in range(nvars)])
    for i in {0, nvars - 1}:
        def mono(e):
            return tuple(e if j == i else 0 for j in range(nvars))

        def power(e):
            return ring.monomial(mono(e))
        f = power(EXPONENT_LIMIT - 3) + ring.one()
        g = power(3) + ring.one()
        assert exponent_terms(f * g) == _tuple_product(f, g)
        assert exponent_terms(f * g)[mono(EXPONENT_LIMIT)] == 1
        with pytest.raises(RingError):
            f * power(4)
        with pytest.raises(RingError):
            ring.monomial(mono(EXPONENT_LIMIT + 1))
        with pytest.raises(RingError):
            ring.from_terms({mono(EXPONENT_LIMIT + 1): 1})


@pytest.mark.parametrize("field", [GF(32003), QQ], ids=["F32003", "QQ"])
def test_embed_restrict_round_trip(field):
    """embed puts each exponent at its variable's place in the target;
    restrict then returns the input, for targets with reordered, extra
    and weighted variables.  restrict refuses a variable the subring
    lacks."""
    ring = Ring(field, ["x", "y", "z"])
    targets = [Ring(field, ["z", "x", "y"]),
               Ring(field, ["t", "x", "u", "y", "z", "w"]),
               Ring(field, ["y", "w", "z", "x"], weights=(2, 1, 3, 1))]
    rng = random.Random(f"embed-restrict:{field.characteristic}")
    for _ in range(10):
        f = _random_terms(ring, rng, rng.randrange(1, 8), 4)
        for big in targets:
            g = ring.embed(f, big)
            want = {tuple(m[ring.index(n)] if n in ring.names else 0 for n in big.names): c
                    for m, c in exponent_terms(f).items()}
            assert exponent_terms(g) == want
            assert big.restrict(g, ring) == f
    for big in targets[1:]:
        with pytest.raises(RingError):
            big.restrict(big.variable("w"), ring)


@pytest.mark.parametrize("field", [GF(32003), QQ], ids=["F32003", "QQ"])
@pytest.mark.parametrize("weights", [(1, 1, 1, 1), (1, 2, 1, 3)])
def test_degrees_match_tuple_oracle(field, weights):
    """degree, is_homogeneous and homogeneous_degree read off the packed
    keys equal the weighted sums over exponent tuples, for mixed and for
    homogeneous polynomials."""
    ring = Ring(field, ["a", "b", "c", "d"], weights)
    rng = random.Random(f"degrees:{field.characteristic}:{weights}")
    polys = [_random_terms(ring, rng, rng.randrange(1, 6), 4) for _ in range(30)]
    polys += [random_poly(ring, d, rng) for d in range(8)] + [ring.zero()]
    for f in polys:
        degs = {sum(map(mul, weights, m)) for m in exponent_terms(f)}
        assert f.degree() == max(degs, default=-1)
        assert f.is_homogeneous() == (len(degs) <= 1)
        if len(degs) > 1:
            with pytest.raises(RingError):
                f.homogeneous_degree()
        else:
            assert f.homogeneous_degree() == max(degs, default=-1)
