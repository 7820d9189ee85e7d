import hashlib
import operator
import random
from functools import reduce

import numpy as np
import pytest

from fiberlab import groebner as groebner_mod
from fiberlab.fields import GF, QQ
from fiberlab.graded import degree_basis, vector_to_poly
from fiberlab.groebner import (buchberger, eliminate, extend_basis, normal_form,
                               normal_form_plan, normal_form_shape)
from fiberlab.ideals import Ideal
from fiberlab.linalg import normal_form_matrix
from fiberlab.polyring import (EXPONENT_LIMIT, GREVLEX, LEX, MAX_EXPONENT, Elimination,
                               Polynomial, Ring, RingError, WeightThen)

from conftest import exponent_terms, leading_exponents, mul_term, order_key, random_poly


def _lead(f, order):
    """(exponent tuple, coefficient) of the leading term of f in order."""
    terms = exponent_terms(f)
    m = max(terms, key=order_key(order))
    return m, terms[m]


def _divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def _quo(b, a):
    return tuple(y - x for x, y in zip(a, b))


def _shift(g, m, c):
    """c * x^m * g, for an exponent tuple m."""
    return g * g.ring.monomial(m, c)


def naive_buchberger(gens, order):
    """Textbook pair-by-pair Buchberger without any criteria, followed by
    interreduction, on exponent tuples; the differential oracle for the
    production engine."""
    ring = gens[0].ring
    field = ring.field

    def monic(f):
        return f.scale(field.inv(_lead(f, order)[1]))

    basis = [monic(g) for g in gens if not g.is_zero()]

    def reduce_full(f):
        rem = ring.zero()
        while not f.is_zero():
            lt, c = _lead(f, order)
            hit = next((g for g in basis if _divides(_lead(g, order)[0], lt)), None)
            if hit is None:
                t = ring.monomial(lt, c)
                rem = rem + t
                f = f - t
            else:
                f = f - _shift(hit, _quo(lt, _lead(hit, order)[0]), c)
        return rem

    pairs = [(i, j) for j in range(len(basis)) for i in range(j)]
    while pairs:
        i, j = pairs.pop(0)
        gi, gj = basis[i], basis[j]
        li, lj = _lead(gi, order)[0], _lead(gj, order)[0]
        lcm_ij = tuple(map(max, li, lj))
        s = _shift(gi, _quo(lcm_ij, li), field.one) - _shift(gj, _quo(lcm_ij, lj), field.one)
        r = reduce_full(s)
        if not r.is_zero():
            basis.append(monic(r))
            pairs.extend((k, len(basis) - 1) for k in range(len(basis) - 1))
    # interreduce
    changed = True
    while changed:
        changed = False
        for i in range(len(basis)):
            if basis[i].is_zero():
                continue
            others = [g for k, g in enumerate(basis) if k != i and not g.is_zero()]
            saved = basis[i]
            rem = saved     # reduce against the others
            while True:
                step = rem
                for g in others:
                    glt = _lead(g, order)[0]
                    terms = exponent_terms(step)
                    for m in sorted(terms, key=order_key(order), reverse=True):
                        if _divides(glt, m):
                            step = step - _shift(g, _quo(m, glt), terms[m])
                            break
                if step == rem:
                    break
                rem = step
            if rem != saved:
                changed = True
            basis[i] = monic(rem) if not rem.is_zero() else rem
    out = [g for g in basis if not g.is_zero()]
    # drop elements whose lead is divisible by another's
    final = []
    for g in out:
        lt = _lead(g, order)[0]
        if not any(h is not g and _divides(_lead(h, order)[0], lt) for h in out):
            final.append(g)
    final.sort(key=lambda g: order_key(order)(_lead(g, order)[0]))
    return final


def test_already_a_basis(R3):
    x, y, _ = (R3.variable(i) for i in range(3))
    gb = buchberger([x, y], GREVLEX)
    assert list(gb.elements) == [y, x]   # sorted by leading term, both kept


def test_lex_elimination_contains_y3_minus_z2(R3q):
    x, y, z = (R3q.variable(i) for i in range(3))
    gb = buchberger([x * x - y, x ** 3 - z], LEX)
    # oracle: substitute y = x^2, z = x^3 kills y^3 - z^2
    target = y ** 3 - z ** 2
    assert target.substitute([x, x * x, x ** 3], R3q).is_zero()
    assert target in gb.elements
    assert gb.contains(target)


def test_normal_form_membership(R3):
    x, y, z = (R3.variable(i) for i in range(3))
    gb = buchberger([x * x - y], GREVLEX)
    f = (x * x - y) * (x + z) + z
    assert normal_form(f, gb) == z
    assert normal_form(x, buchberger([y], GREVLEX)) == x
    # remainder differs from the input by an ideal element
    g = x * x * y * y
    r = normal_form(g, gb)
    assert gb.contains(g - r)
    assert not any(m[0] >= 2 for m in exponent_terms(r))   # no term divisible by x^2


def test_membership_soundness_random_combinations(sixgen, rng):
    """Random ring combinations of the generators reduce to zero: 1000
    trials, zero failures."""
    gb = sixgen.groebner()
    ring = sixgen.ring
    monos = ring.monomials_of_degree(2)
    failures = 0
    for _ in range(1000):
        h = ring.zero()
        for g in sixgen.generators:
            c = ring.field.random_raw(rng)
            m = monos[rng.randrange(len(monos))]
            h = h + mul_term(g, m, c)
        if not normal_form(h, gb).is_zero():
            failures += 1
    assert failures == 0


def test_gb_idempotence(sixgen, binomial4):
    for ideal in (sixgen, binomial4):
        gb = ideal.groebner()
        again = buchberger(list(gb.elements), GREVLEX)
        assert again.elements == gb.elements


def test_spolys_reduce_to_zero(binomial4):
    gb = binomial4.groebner()
    order = gb.order
    field = gb.ring.field
    for i, gi in enumerate(gb.elements):
        for gj in gb.elements[i + 1:]:
            li, lj = _lead(gi, order)[0], _lead(gj, order)[0]
            lcm_ij = tuple(map(max, li, lj))
            s = _shift(gi, _quo(lcm_ij, li), field.one) \
                - _shift(gj, _quo(lcm_ij, lj), field.one)
            assert normal_form(s, gb).is_zero()


def test_autoreduced_and_monic(sevengen):
    gb = sevengen.groebner()
    order = gb.order
    one = gb.ring.field.one
    leads = leading_exponents(gb)
    for i, g in enumerate(gb.elements):
        assert exponent_terms(g)[leads[i]] == one
        for j, lead in enumerate(leads):
            if i == j:
                continue
            for m in exponent_terms(g):
                assert not all(a <= b for a, b in zip(lead, m))


ORACLE_ORDERS = {"grevlex": GREVLEX, "lex": LEX, "elim1": Elimination(1),
                 "weight211": WeightThen((2, 1, 1))}
ORACLE_FIELDS = {"F32003": GF(32003), "QQ": QQ}


def _oracle_case(seed, order_name, field_name):
    # grevlex over F_32003 keeps its bare seed id
    plain = order_name == "grevlex" and field_name == "F32003"
    return pytest.param(seed, ORACLE_ORDERS[order_name], field_name,
                        id=str(seed) if plain else f"{order_name}-{field_name}-{seed}")


@pytest.mark.parametrize("seed,order,field_name", [
    _oracle_case(seed, order_name, field_name)
    for field_name in ORACLE_FIELDS for order_name in ORACLE_ORDERS
    for seed in (1, 2, 3, 4)])
def test_differential_against_naive(seed, order, field_name):
    """The Gebauer-Moeller criteria and the packed monomials of every
    order's key rows never change the reduced basis."""
    ring = Ring(ORACLE_FIELDS[field_name], ["x", "y", "z"])
    rng = random.Random(f"diff:{seed}")
    monos2 = ring.monomials_of_degree(2)
    monos3 = ring.monomials_of_degree(3)
    gens = []
    for _ in range(rng.randrange(2, 6)):
        pool = monos2 if rng.random() < 0.5 else monos3
        terms = {}
        for _ in range(rng.randrange(1, 4)):
            terms[pool[rng.randrange(len(pool))]] = ring.field.random_raw(rng, nonzero=True)
        gens.append(Polynomial(ring, terms))
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        pytest.skip("empty draw")
    fast = buchberger(gens, order)
    slow = naive_buchberger(gens, order)
    assert list(fast.elements) == slow


@pytest.mark.parametrize("field_name", list(ORACLE_FIELDS))
def test_divisor_memo_survives_retired_reducers(monkeypatch, field_name):
    """Inputs of mixed degree make a new leading monomial divide older
    ones mid-run, so reducers retire while the divisor memo of
    ``_nf_terms`` holds entries; a stale index would change the basis."""
    from fiberlab import groebner
    events = []
    retire = groebner._Reducers.retire_multiples

    def spy(self, lt):
        filled = len(self.first)
        gone = retire(self, lt)
        if gone and filled:
            events.append(filled)
        return gone

    monkeypatch.setattr(groebner._Reducers, "retire_multiples", spy)
    field = ORACLE_FIELDS[field_name]
    ring = Ring(field, ["x", "y", "z"])
    for seed in (0, 5, 8):
        rng = random.Random(f"retire:{seed}")
        gens = []
        for _ in range(rng.randrange(3, 6)):
            terms = {}
            for _ in range(rng.randrange(2, 4)):
                monos = ring.monomials_of_degree(rng.randrange(1, 4))
                terms[rng.choice(monos)] = field.random_raw(rng, nonzero=True)
            gens.append(Polynomial(ring, terms))
        events.clear()
        fast = buchberger(gens, GREVLEX)
        assert events, "no reducer retired while the memo held entries"
        assert list(fast.elements) == naive_buchberger(gens, GREVLEX)


def test_divisor_memo_cleared_on_retire():
    """A retired reducer shifts the indices after it, so the memo of
    first divisors must not outlive the retirement."""
    from fiberlab.groebner import _nf_terms, _Reducers
    from fiberlab.polyring import _packing
    packing = _packing(GREVLEX, 3)
    red = _Reducers(packing)
    red.append(0, packing.pack((3, 0, 0)), [])
    red.append(1, packing.pack((0, 2, 0)), [(packing.pack((0, 0, 2)), 1)])
    y2, minus_z2 = packing.pack((0, 2, 0)), {packing.pack((0, 0, 2)): 32002}
    assert _nf_terms({y2: 1}, red, 32003) == minus_z2
    assert red.retire_multiples(packing.pack((2, 0, 0))) == [0]
    assert _nf_terms({y2: 1}, red, 32003) == minus_z2


def test_eliminate_graph_is_zero(R3):
    x, y, z = (R3.variable(i) for i in range(3))
    kept = eliminate([x - y * y - z], 1)
    assert kept == []


def test_eliminate_koszul_syzygy():
    ring = Ring(GF(32003), ["t", "x", "y", "u", "v"])
    t, x, y, u, v = (ring.variable(i) for i in range(5))
    kept = eliminate([u - x * t, v - y * t], 1)
    assert len(kept) == 1
    assert kept[0] == y * u - x * v


def test_eliminate_quadric_relation():
    ring = Ring(GF(32003), ["x", "y", "z", "w1", "w2", "w3", "w4"],
                weights=(1, 1, 1, 2, 2, 2, 2))
    x, y, z, w1, w2, w3, w4 = (ring.variable(i) for i in range(7))
    gens = [w1 - x * x, w2 - x * y, w3 - x * z, w4 - y * z]
    kept = eliminate(gens, 3)
    assert len(kept) == 1
    assert kept[0] == w2 * w3 - w1 * w4


def test_extend_basis_matches_scratch(binomial4):
    gb = binomial4.groebner()
    x = binomial4.ring.variable(0)
    ext = extend_basis(gb, (x,))
    scratch = buchberger(list(binomial4.generators) + [x], GREVLEX)
    assert ext.elements == scratch.elements


def _warm_start_cases(field):
    """(prefix basis, extra generators) on seeded ideals in 4 and 5
    variables: a sparse linear form, a quadric, and the variable that
    divides the most leading monomials, whose leading term retires them."""
    for nvars in (4, 5):
        ring = Ring(field, [f"x{i}" for i in range(nvars)])
        rng = random.Random(f"warm-start:{nvars}")
        gb = buchberger([random_poly(ring, d, rng) for d in (2, 2, 3)])
        coeffs = [field.zero] * nvars
        coeffs[0], coeffs[-1] = field.one, field.random_raw(rng, nonzero=True)
        exps = leading_exponents(gb)
        var = max(range(nvars), key=lambda i: (sum(1 for e in exps if e[i]), -i))
        yield gb, (ring.linear_form(coeffs),)
        yield gb, (random_poly(ring, 2, rng),)
        yield gb, (ring.variable(var),)


@pytest.mark.parametrize("field", [GF(32003), GF(67108859), QQ],
                         ids=["F32003", "F67108859", "QQ"])
def test_warm_start_equals_the_basis_from_scratch(field):
    """extend_basis starts from the prefix's reducers, yet gives the basis
    buchberger builds from all the generators; the prefix's own reducers
    are left as they were.  One case retires prefix leading terms."""
    retired = False
    for gb, extra in _warm_start_cases(field):
        red = gb._reducers
        before = (list(red.lts), list(red.tails), list(red.tops), list(red.ids))
        ext = extend_basis(gb, extra)
        assert ext.elements == buchberger(gb.elements + extra).elements
        assert ext.source_generators == gb.elements + extra
        assert (red.lts, red.tails, red.tops, red.ids) == before
        retired |= not set(red.lts) <= set(ext._reducers.lts)
    assert retired


@pytest.mark.parametrize("field", [GF(32003), QQ], ids=["F32003", "QQ"])
def test_warm_start_self_check_catches_a_dropped_element(field, monkeypatch):
    """A final basis that lost an element fails the closing self-check:
    dropping the extra variable leaves that variable unreduced, and
    dropping an element that kept a prefix leading term leaves that
    prefix element unreduced (no other leading term divides it)."""
    gb, extra = list(_warm_start_cases(field))[2]
    ext = extend_basis(gb, extra)
    prefix_leads = {max(g.terms) for g in gb.elements}     # grevlex-packed
    kept = [g for g in ext.elements if max(g.terms) in prefix_leads]
    assert kept and extra[0] in ext.elements
    final_reduce = groebner_mod._final_reduce
    for lost in (extra[0], kept[0]):
        monkeypatch.setattr(groebner_mod, "_final_reduce",
                            lambda *a: [g for g in final_reduce(*a) if g != lost])
        with pytest.raises(AssertionError, match="source generator"):
            extend_basis(gb, extra)


def test_warm_start_refuses_another_order(binomial4):
    gb = binomial4.groebner()
    with pytest.raises(RingError, match="warm start"):
        buchberger([binomial4.ring.variable(0)], LEX, prefix=gb)


def test_determinism(sevengen):
    a = buchberger(list(sevengen.generators), GREVLEX)
    b = buchberger(list(sevengen.generators), GREVLEX)
    assert a.elements == b.elements


def test_source_generators_recorded(monomial4):
    gb = monomial4.groebner()
    assert gb.source_generators == monomial4.generators
    for g in gb.source_generators:
        assert gb.contains(g)


def test_qq_and_fp_leads_agree(sixgen, R3q):
    """Lead ideals over Q and F_32003 coincide on the corpus ideal."""
    exps = sixgen.ring.exponents
    gens_q = [R3q.monomial(exps(next(iter(g.terms)))) for g in sixgen.generators]
    gb_q = buchberger(gens_q, GREVLEX)
    gb_p = sixgen.groebner()
    assert leading_exponents(gb_q) == leading_exponents(gb_p)


@pytest.mark.parametrize("nvars", [5, 6, 7, 8])
def test_reduced_basis_matches_sympy(nvars):
    """Seeded sparse homogeneous ideals in 5-8 variables: the reduced
    grevlex basis over F_32003 equals sympy's, which shares no code."""
    sympy = pytest.importorskip("sympy")
    p = 32003
    ring = Ring(GF(p), [f"x{i}" for i in range(nvars)])
    symbols = sympy.symbols(ring.names)
    rng = random.Random(f"sympy-oracle:{nvars}:0")
    gens = []
    for _ in range(5):
        monos = ring.monomials_of_degree(rng.choice((2, 2, 3)))
        terms = {monos[rng.randrange(len(monos))]: ring.field.random_raw(rng, nonzero=True)
                 for _ in range(3)}
        gens.append(Polynomial(ring, terms))

    def to_sympy(g):
        return sum(c * sympy.prod([s ** e for s, e in zip(symbols, m)])
                   for m, c in exponent_terms(g).items())

    def monic_terms(poly):
        terms = {m: int(c) % p for m, c in poly.terms()}
        lead = max(terms, key=order_key(GREVLEX))
        inv = pow(terms[lead], -1, p)
        return {m: c * inv % p for m, c in terms.items()}

    theirs = sympy.groebner([to_sympy(g) for g in gens], *symbols,
                            modulus=p, order="grevlex")
    want = sorted((monic_terms(sympy.Poly(g, *symbols, modulus=p)) for g in theirs),
                  key=lambda t: order_key(GREVLEX)(max(t, key=order_key(GREVLEX))))
    have = [exponent_terms(g) for g in buchberger(gens, GREVLEX).elements]
    assert have == want


def test_exponent_overflow_raises():
    """An exponent past the engine's field raises, never wraps around."""
    ring = Ring(GF(32003), ["x", "y"])
    x, y = ring.variable(0), ring.variable(1)
    at_limit = ring.monomial((0, EXPONENT_LIMIT))
    gb = buchberger([x - at_limit], LEX)        # leading term x
    with pytest.raises(RingError):
        normal_form(x * y, gb)                  # would be y^(LIMIT + 1)
    with pytest.raises(RingError):
        buchberger([x - at_limit, x * y], LEX)
    with pytest.raises(RingError):
        buchberger([ring.monomial((EXPONENT_LIMIT + 1, 0))], GREVLEX)
    with pytest.raises(RingError):
        normal_form(ring.monomial((EXPONENT_LIMIT + 1, 0)), gb)


def test_exponents_at_parse_limit():
    """Inputs at polyring.MAX_EXPONENT compute correctly, also where the
    result doubles an exponent."""
    ring = Ring(GF(32003), ["x", "y", "z"])
    x, y = ring.variable(0), ring.variable(1)
    big_x = ring.monomial((MAX_EXPONENT, 0, 0))
    big_y = ring.monomial((0, MAX_EXPONENT, 0))
    gens = [big_x - big_y, x * y]
    assert list(buchberger(gens, GREVLEX).elements) == naive_buchberger(gens, GREVLEX)
    gb = buchberger([x - big_y], LEX)
    assert normal_form(x * big_y, gb) == ring.monomial((0, 2 * MAX_EXPONENT, 0))


# ---------------------------------------------------------------------------
# pair bookkeeping on the exponent fields

PACKING_ORDERS = {"grevlex": GREVLEX, "lex": LEX, "elim2": Elimination(2),
                  "weight2113": WeightThen((2, 1, 1, 3))}


def _edge_exponents(rng, nvars):
    """Seeded exponent tuples, with zeros and EXPONENT_LIMIT mixed in."""
    pool = (0, 0, 1, 2, 7, EXPONENT_LIMIT - 1, EXPONENT_LIMIT)
    return [tuple(rng.choice(pool) if rng.random() < 0.5 else rng.randrange(EXPONENT_LIMIT + 1)
                  for _ in range(nvars)) for _ in range(60)]


@pytest.mark.parametrize("order", list(PACKING_ORDERS.values()), ids=list(PACKING_ORDERS))
def test_field_max_matches_tuple_max(order):
    """The SWAR lcm on the exponent fields is the componentwise maximum
    of the exponent tuples, with no order row: for equal, zero and
    EXPONENT_LIMIT fields, on full packed monomials and on field-only
    values alike; folded over a list it is the reducers' overflow bound."""
    from fiberlab.polyring import _packing
    packing = _packing(order, 4)
    pack, fields = packing.pack, packing.fields
    rng = random.Random(f"field-max:{order}")
    exps = _edge_exponents(rng, 4) + [(0, 0, 0, 0), (EXPONENT_LIMIT,) * 4]
    for u in exps:
        a = pack(u)
        assert packing.field_max(a, a) == a & fields
        assert packing.field_max(a, 0) == a & fields
        for v in rng.sample(exps, 8) + [u]:
            b = pack(v)
            want = pack(tuple(map(max, u, v))) & fields
            assert packing.field_max(a, b) == packing.field_max(b, a) == want
            assert packing.field_max(a & fields, b & fields) == want
            assert packing.exponents(want) == tuple(map(max, u, v))
    for _ in range(20):
        group = rng.sample(exps, rng.randrange(1, 6))
        top = reduce(packing.field_max, map(pack, group), 0)
        assert packing.exponents(top) == tuple(max(col) for col in zip(*group))
        assert top == top & fields


@pytest.mark.parametrize("order", list(PACKING_ORDERS.values()), ids=list(PACKING_ORDERS))
def test_reducer_bounds_are_tail_field_maxima(order):
    """Each reducer's overflow bound is the field maximum of its tail, and
    the guard test with it flags exactly the quotients that would carry
    an exponent past EXPONENT_LIMIT."""
    from fiberlab.polyring import _packing
    ring = Ring(GF(32003), ["a", "b", "c", "d"])
    packing = _packing(order, 4)
    rng = random.Random(f"tops:{order}")
    gens = [random_poly(ring, d, rng) for d in (2, 2, 3)]
    red = buchberger(gens, order)._reducers
    assert red.packing is packing
    for tail, top in zip(red.tails, red.tops):
        exps = [packing.exponents(m) for m, _ in tail] or [(0,) * 4]
        want = tuple(max(col) for col in zip(*exps))
        assert top == top & packing.fields and packing.exponents(top) == want
        for k, unit in enumerate(packing.units):
            room = EXPONENT_LIMIT - want[k]
            assert not (room * unit + top) & packing.guard
            if want[k]:
                assert ((room + 1) * unit + top) & packing.guard


def _reference_pairs(heap, lead_exps, alive, lt_exps, t, packing, weights):
    """The Gebauer-Moeller update on exponent tuples, criterion M by
    comparing every lcm with every other: the set of heap entries after
    element t, with leading exponents lt_exps, enters."""
    pack = packing.pack

    def divides(u, v):
        return all(x <= y for x, y in zip(u, v))

    lcms = {i: tuple(map(max, lead_exps[i], lt_exps)) for i in range(t) if alive[i]}
    groups = {}
    for i, a in lcms.items():
        if not any(b != a and divides(b, a) for b in lcms.values()):
            groups.setdefault(a, []).append(i)
    new = {(sum(map(operator.mul, weights, a)), pack(a), group[0], t)
           for a, group in groups.items()
           if not any(all(min(x, y) == 0 for x, y in zip(lead_exps[i], lt_exps))
                      for i in group)}
    old = set()
    for d, a, i, j in heap:
        a_exps = packing.exponents(a)
        if (not divides(lt_exps, a_exps)
                or tuple(map(max, lead_exps[i], lt_exps)) == a_exps
                or tuple(map(max, lead_exps[j], lt_exps)) == a_exps):
            old.add((d, a, i, j))
    return old | new


def _pinned_pair_cases():
    """Three seeded ideals in five variables, each over F_p and Q, under
    grevlex, an elimination order and a weight order."""
    for seed, order in ((1, GREVLEX), (2, Elimination(2)), (3, WeightThen((1, 2, 1, 3, 2)))):
        for field in (GF(32003), QQ):
            yield pytest.param(seed, order, field, id=f"{seed}-{order}-{field}")


def _recording_pairs(monkeypatch):
    """Spy on ``_PairSet``: every update is checked against the tuple
    oracle; returns the record of elements added, pairs pushed and the
    sequence of pairs taken."""
    record = {"adds": 0, "pushed": 0, "taken": []}
    add, pop = groebner_mod._PairSet.add, groebner_mod._PairSet.pop

    def spy_add(self, lt, pair):
        t = len(self.fields)
        exps = [self.packing.exponents(f) for f in self.fields]
        heap, alive = list(self.heap), list(self.alive)
        add(self, lt, pair)
        record["adds"] += 1
        if pair:
            want = _reference_pairs(heap, exps, alive, self.packing.exponents(lt), t,
                                    self.packing, self.weights)
            assert set(self.heap) == want
            record["pushed"] += sum(1 for *_, j in self.heap if j == t)

    def spy_pop(self):
        out = pop(self)
        record["taken"].append(out)
        return out

    monkeypatch.setattr(groebner_mod._PairSet, "add", spy_add)
    monkeypatch.setattr(groebner_mod._PairSet, "pop", spy_pop)
    return record


def _digest(taken):
    return hashlib.sha256(repr(taken).encode()).hexdigest()[:16]


# (elements added, pairs pushed, pairs taken, digest of the taken (packed
# lcm, i, j) sequence).  Any change to the criteria, the tie-breaks or the
# selection order moves them; they were recorded with the pair criteria
# on unpacked exponent tuples, so the field-only criteria take every
# S-polynomial in the same order.  Since the descent skips a form whose
# cut already failed (D12), it makes 38 cuts where it made 48.  Each of
# the 38 takes exactly the pairs it took before, and the 10 it no longer
# makes are the repeated failures, so the descent's entry was recorded
# again: it was (2245, 4269, 4100, "8b81998a938f677c").  Since it also
# skips a form that kills an annihilated element of the stage's basis
# (D19), it makes 8 cuts where it made 38.  Each of the 8 takes exactly
# the pairs it took before, and the 30 it no longer makes are exactly the
# candidates such an element caught, so the entry was recorded again: it
# was (1802, 3539, 3405, "c7f176368b0ebdf9").
PINNED_PAIRS = {
    "1-grevlex-GF(32003)": (13, 29, 29, "52215305003afea0"),
    "1-grevlex-QQ": (17, 44, 44, "d4e50f81f8c85e7e"),
    "2-elimination(2)-GF(32003)": (24, 71, 71, "4a0b61be17c4f0ac"),
    "2-elimination(2)-QQ": (29, 89, 89, "04ce99a92f044a05"),
    "3-weight_then([1, 2, 1, 3, 2],grevlex)-GF(32003)": (20, 59, 59, "10531bb217930023"),
    "3-weight_then([1, 2, 1, 3, 2],grevlex)-QQ": (33, 109, 109, "a02a8d01832ccd17"),
    "sevengen-w-first-gr-descent": (402, 805, 790, "99fdab4f83855ef3"),
}


@pytest.mark.parametrize("seed,order,field", list(_pinned_pair_cases()))
def test_pair_sequence_pinned(seed, order, field, monkeypatch):
    """Every pair update equals the tuple oracle, and the pairs pushed and
    the S-pairs taken, in order, are the pinned ones."""
    ring = Ring(field, ["a", "b", "c", "d", "e"])
    rng = random.Random(f"pairs:{seed}")
    gens = [random_poly(ring, d, rng, terms=5) for d in (2, 2, 2, 3)]
    record = _recording_pairs(monkeypatch)
    buchberger(gens, order)
    adds, pushed, taken, digest = PINNED_PAIRS[f"{seed}-{order}-{field}"]
    assert (record["adds"], record["pushed"], len(record["taken"])) == (adds, pushed, taken)
    assert _digest(record["taken"]) == digest


def test_pair_sequence_pinned_on_sevengen_gr_descent(sevengen, monkeypatch):
    """The same on Example 2.2's gr ideal, in k[w.., x..]: its basis from
    the generators, then every cut of the report's depth descent."""
    from fiberlab.blowup import rees_and_gr
    from fiberlab.depth import graded_depth
    gr = rees_and_gr(sevengen).gr_ideal
    record = _recording_pairs(monkeypatch)
    graded_depth(buchberger(gr.generators, GREVLEX), seed="depthgr:ex-2.2-sevengen")
    adds, pushed, taken, digest = PINNED_PAIRS["sevengen-w-first-gr-descent"]
    assert (record["adds"], record["pushed"], len(record["taken"])) == (adds, pushed, taken)
    assert _digest(record["taken"]) == digest


# ---------------------------------------------------------------------------
# normal-form plans: the normal-form matrix N, forward and pushed down

@pytest.mark.parametrize("field", [GF(32003), GF(67108859), QQ],
                         ids=["F32003", "F67108859", "QQ"])
def test_normal_form_matrix_rows_are_normal_forms(field):
    """rows · N in both directions, in degrees 0-8, on seeded bases.
    Forward (no fewer rows than standard monomials), the unit rows give
    N, whose row for a monomial, read over the standard monomials, is its
    normal form.  Pushed down (fewer rows), up to four seeded rows of four
    terms give their products with N.  Over F_p also W + 2 seeded rows
    forward, and the unit rows pushed down W - 1 at a time, which give N
    again; over QQ, where the Fraction arithmetic is the cost, the test
    stops at the first two.  At p = 67108859 ``_submul`` takes the
    products of levels with more than two targets in chunks of two
    terms.  The bases: two with short tails; one of three quartics of 12
    terms, whose levels have several members and tails of dozens of
    terms, so that there are fewer products than non-standard monomials;
    and one with the monomial generator a^3, whose multiples have an
    empty tail."""
    ring = Ring(field, ["a", "b", "c", "d"])
    rng = random.Random("normal-form-matrix")
    a = ring.variable(0)
    bases = [tuple(random_poly(ring, rng.randrange(2, 4), rng) for _ in range(3))
             for _ in range(2)]
    bases.append(tuple(random_poly(ring, 4, rng, terms=12) for _ in range(3)))
    bases.append((a ** 3, random_poly(ring, 3, rng), random_poly(ring, 4, rng)))
    p = field.characteristic
    dtype = float if p else object
    counts, chunked = [], 0
    for gens in bases:
        ideal = Ideal(ring, gens)
        gb = ideal.groebner()
        made = reduced = 0
        for e in range(9):
            plan = normal_form_plan(gb, e)
            monos = degree_basis(ring, e)[0]
            width = len(plan.standard)
            assert width == ideal.hilbert_series().coefficients(e)[e]
            reduced += len(monos) - width
            made += len(plan.recursion.levels)
            chunked += any(level[1].size > 2 for level in plan.recursion.levels)
            unit = np.eye(len(monos), dtype=dtype)
            nf = plan.times(unit, gb, {})
            assert nf.shape == (len(monos), width)
            for m, row in zip(monos, nf):
                assert vector_to_poly(row, plan.standard, ring) == \
                    normal_form(mul_term(ring.one(), m, field.one), gb)
            few = max(min(width - 1, 4), 0)
            seeded = np.zeros((width + 2 if p else few, len(monos)), dtype=dtype)
            for row in seeded:
                for j in rng.sample(range(len(monos)), min(4, len(monos))):
                    row[j] = field.random_raw(rng, nonzero=True)
            exact = nf.astype(np.int64).astype(object) if p else nf
            want = np.zeros((len(seeded), width), dtype=object)
            for out, row in zip(want, seeded):
                for j in np.flatnonzero(row):
                    out += (int(row[j]) if p else row[j]) * exact[j]
            want = want % p if p else want
            pairs = [(seeded[:few], want[:few])]
            if p:
                pairs += [(seeded, want)] + [(unit[s:s + width - 1], nf[s:s + width - 1])
                                             for s in range(0, len(monos), max(width - 1, 1))]
            for rows, want in pairs:
                got = plan.times(rows, gb, {})
                assert got.shape == want.shape and (got == want).all()
        counts.append((made, reduced, max(map(len, gb._reducers.tails))))
        if gens is bases[3]:
            assert a ** 3 in gb.elements
    assert all(made <= reduced for made, reduced, _ in counts)
    made, reduced, longest = counts[2]
    assert made < reduced and longest > 30
    assert chunked > 0


def test_normal_form_matrix_edges(R3):
    """The zero ideal gives the identity over every monomial; an ideal
    that contains a whole degree gives a matrix of width zero there, in
    either direction."""
    gb = Ideal(R3, ()).groebner()
    plan = normal_form_plan(gb, 4)
    assert plan.standard == degree_basis(R3, 4)[0]
    unit = np.eye(len(plan.standard))
    assert (plan.times(unit, gb, {}) == unit).all()
    assert (plan.times(unit[:3], gb, {}) == unit[:3]).all()
    x, y, z = (R3.variable(i) for i in range(3))
    gb = Ideal(R3, (x * x, y * y, z * z, x * y, x * z, y * z)).groebner()
    plan = normal_form_plan(gb, 3)
    assert plan.standard == () and plan.times(np.eye(10), gb, {}).shape == (10, 0)
    assert len(normal_form_plan(gb, 1).standard) == 3


def test_normal_form_matrix_refuses_other_bases(R3):
    x, y, z = (R3.variable(i) for i in range(3))
    with pytest.raises(ValueError, match="grevlex"):
        normal_form_plan(buchberger([x * y - z * z], LEX), 2)
    with pytest.raises(ValueError, match="homogeneous"):
        normal_form_plan(buchberger([x * y - z]), 2)


def test_normal_form_matrix_hilbert_crosscheck(R3, monkeypatch):
    """A standard-monomial count the Hilbert function does not confirm
    raises."""
    x, y, z = (R3.variable(i) for i in range(3))
    gb = buchberger([x * y - z * z])
    wrong = Ideal(R3, (x, y * y)).hilbert_series()
    monkeypatch.setattr(groebner_mod, "series_of_basis", lambda _: wrong)
    with pytest.raises(AssertionError, match="Hilbert function"):
        normal_form_plan(gb, 3)


def test_normal_form_matrix_overflow_raises():
    """Weights (W, W + 1) keep the degree (W + 1)(LIMIT + 1) down to a few
    hundred monomials; x^(W+1) y^(LIMIT+1-W) rewrites by x^(W+1) - y^W to
    y^(LIMIT+1), past the packing limit: RingError."""
    w = 1 << 12
    ring = Ring(GF(32003), ["x", "y"], (w, w + 1))
    x, y = ring.variable(0), ring.variable(1)
    gb = buchberger([x ** (w + 1) - y ** w])
    with pytest.raises(RingError):
        normal_form_plan(gb, (w + 1) * (EXPONENT_LIMIT + 1))


def test_normal_form_plan_key_reads_only_the_shape(R3):
    """Two bases with the same leading monomials and tail supports but
    other coefficients have one shape; the plan of one gives each its own
    normal forms.  Another degree or another support is another shape."""
    x, y, z = (R3.variable(i) for i in range(3))
    one, two = (buchberger([x * x - (y * z).scale(c), y * y - (x * z).scale(d)])
                for c, d in ((2, 3), (5, 7)))
    assert one.elements != two.elements
    assert normal_form_shape(one, 4) == normal_form_shape(two, 4)
    assert normal_form_shape(one, 4) != normal_form_shape(one, 5)
    other = buchberger([x * x - (y * y).scale(2), y * y - (x * z).scale(3)])
    assert normal_form_shape(one, 4) != normal_form_shape(other, 4)
    plan = normal_form_plan(one, 4)
    monos = degree_basis(R3, 4)[0]
    unit = np.eye(len(monos))
    for gb in (one, two):
        for rows in (unit, unit[:len(plan.standard) - 1]):
            for row, out in zip(rows, plan.times(rows, gb, {})):
                assert vector_to_poly(out, plan.standard, R3) == \
                    normal_form(vector_to_poly(row, monos, R3), gb)
    assert (plan.times(unit, one, {}) != plan.times(unit, two, {})).any()


def test_forward_matrix_is_kept_per_basis(R3, monkeypatch):
    """With the caller's ``kept`` dict, rows no fewer than the standard
    monomials build N forward once per (plan, basis): more rows for the
    same basis reuse it, another basis of the plan's shape builds its own
    and replaces it, and fewer rows are pushed down without it.  Every
    product equals the one made without ``kept``."""
    x, y, z = (R3.variable(i) for i in range(3))
    one, two = (buchberger([x * x - (y * z).scale(c), y * y - (x * z).scale(d)])
                for c, d in ((2, 3), (5, 7)))
    plan = normal_form_plan(one, 4)
    built = []
    monkeypatch.setattr(groebner_mod, "normal_form_matrix",
                        lambda *args: built.append(1) or normal_form_matrix(*args))
    unit = np.eye(len(degree_basis(R3, 4)[0]))
    kept = {}
    for gb, rows, builds in ((one, unit, True), (one, unit[::-1], False),
                             (one, unit[:len(plan.standard) - 1], False),
                             (two, unit, True), (one, unit, True)):
        want = plan.times(rows, gb, {})
        built.clear()
        assert (plan.times(rows, gb, kept) == want).all()
        assert bool(built) is builds
    assert kept[plan][0] is one
