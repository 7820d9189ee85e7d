"""Buchberger engine: normal forms, reduced bases, block elimination.

Pair management follows Gebauer-Moeller (criteria M, F and the coprime
criterion, plus pruning of old pairs), with the normal selection
strategy: minimal lcm degree, ties broken by the lcm monomial and then
by insertion index, so runs are deterministic for a fixed input.

Inside the engine a monomial is one int (``polyring._Packing``, after
Monagan and Pearce, "Sparse polynomial division using a heap", 2011):
comparison, product and divisibility are single integer operations.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import cached_property

from .polyring import (_OVERFLOW, GREVLEX, Elimination, Polynomial, Ring, RingError,
                       TermOrder, _Packing, _packing, mono_lcm)


class _Reducers:
    """Packed reducing polynomials, scanned in insertion order.

    Per reducer: its leading monomial, its monic tail as (monomial,
    coefficient) pairs, and the componentwise maximum of the tail
    monomials, which bounds every product in one overflow test.

    ``first`` memoizes the divisor search of ``_nf_terms``: packed
    monomial -> index of the first reducer whose leading monomial divides
    it, or -1.  Any change to the reducer list clears it.
    """

    __slots__ = ("packing", "lts", "tails", "tops", "ids", "first")

    def __init__(self, packing: _Packing):
        self.packing = packing
        self.lts = []
        self.tails = []
        self.tops = []
        self.ids = []
        self.first = {}

    def append(self, ident, lt, tail):
        self.lts.append(lt)
        self.tails.append(tail)
        self.tops.append(self.packing.top([m for m, _ in tail]))
        self.ids.append(ident)
        self.first.clear()

    def retire_multiples(self, lt) -> list:
        """Drop the reducers whose leading monomial lt divides; returns
        their ids."""
        guard = self.packing.guard
        gone = [k for k, a in enumerate(self.lts) if not (a - lt) & guard]
        if gone:
            self.first.clear()
        for k in reversed(gone):
            del self.lts[k], self.tails[k], self.tops[k]
        return [self.ids.pop(k) for k in reversed(gone)]


def _monic_parts(terms: dict, field):
    """(leading monomial, monic tail items) of a nonzero packed map."""
    lt = max(terms)
    lc = terms[lt]
    if lc == field.one:
        return lt, [(m, c) for m, c in terms.items() if m != lt]
    inv = field.inv(lc)
    return lt, [(m, field.mul(c, inv)) for m, c in terms.items() if m != lt]


def _nf_terms(cur: dict, red: _Reducers, p: int) -> dict:
    """Normal form of a packed coefficient map, which it consumes."""
    guard = red.packing.guard
    lts, tails, tops, first = red.lts, red.tails, red.tops, red.first
    heappush, heappop = heapq.heappush, heapq.heappop
    heap = [-m for m in cur]
    heapq.heapify(heap)
    rem = {}
    while heap:
        m = -heappop(heap)
        c = cur.pop(m, 0)
        if not c:
            continue
        k = first.get(m)
        if k is None:
            for k, lt in enumerate(lts):
                if not (m - lt) & guard:
                    break
            else:
                k = -1
            first[m] = k
        if k < 0:
            rem[m] = c
            continue
        q = m - lts[k]
        if (q + tops[k]) & guard:
            raise RingError(_OVERFLOW)
        if p:
            for tm, tc in tails[k]:
                mm = q + tm
                old = cur.get(mm)
                if old is None:
                    v = (-c * tc) % p
                    if v:
                        cur[mm] = v
                        heappush(heap, -mm)
                else:
                    v = (old - c * tc) % p
                    if v:
                        cur[mm] = v
                    else:
                        del cur[mm]
        else:
            for tm, tc in tails[k]:
                mm = q + tm
                old = cur.get(mm)
                if old is None:
                    v = -c * tc
                    if v:
                        cur[mm] = v
                        heappush(heap, -mm)
                else:
                    v = old - c * tc
                    if v:
                        cur[mm] = v
                    else:
                        del cur[mm]
    return rem


def _strip_content(terms: dict, field):
    """Scale a Q-coefficient map to primitive integer form (unit change)."""
    if field.characteristic or not terms:
        return terms
    from math import gcd
    den = 1
    for c in terms.values():
        den = den * c.denominator // gcd(den, c.denominator)
    num = 0
    for c in terms.values():
        num = gcd(num, abs(c.numerator * (den // c.denominator)))
    if num in (0, 1) and den == 1:
        return terms
    from fractions import Fraction
    scale = Fraction(den, num)
    return {m: c * scale for m, c in terms.items()}


@dataclass(frozen=True)
class GroebnerBasis:
    """Reduced Groebner basis: monic, auto-reduced, sorted by leading term.

    ``degree_bound`` is None for a complete basis; otherwise the
    elements only present the ideal in weighted degrees <= the bound.
    """

    ring: Ring
    order: TermOrder
    elements: tuple
    source_generators: tuple
    degree_bound: int | None = None

    @cached_property
    def _reducers(self) -> _Reducers:
        """Packed reducer index of the elements, built once."""
        packing = _packing(self.order, self.ring.nvars)
        red = _Reducers(packing)
        for i, g in enumerate(self.elements):
            red.append(i, *_monic_parts(packing.pack_terms(g.terms), self.ring.field))
        return red

    @cached_property
    def leading_monomials(self):
        unpack = self._reducers.packing.unpack
        return tuple(unpack(lt) for lt in self._reducers.lts)

    def contains(self, f: Polynomial) -> bool:
        return normal_form(f, self).is_zero()


def normal_form(f: Polynomial, gb: GroebnerBasis) -> Polynomial:
    """Remainder of f modulo gb; zero iff f lies in the ideal."""
    if f.ring != gb.ring:
        raise RingError("polynomial not in the basis ring")
    if not f.terms:
        return f
    red = gb._reducers
    rem = _nf_terms(red.packing.pack_terms(f.terms), red, f.ring.field.characteristic)
    return Polynomial(f.ring, red.packing.unpack_terms(rem))


def buchberger(generators, order: TermOrder = GREVLEX, *,
               groebner_prefix: int = 0,
               degree_bound: int | None = None) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal generated by ``generators``.

    ``groebner_prefix=k`` promises that the first k generators already
    form a reduced Groebner basis for this order, so they enter the basis
    without reduction and pairs among them are skipped.

    ``degree_bound=D`` truncates the run: only S-pairs of weighted lcm
    degree <= D are processed.  Inputs must be homogeneous in the ring
    weights (pair degrees are then nondecreasing, so the truncation is a
    basis through degree D).  The result carries ``degree_bound`` and
    must not be treated as a full basis.

    Monomials are packed (``_Packing``) on entry and unpacked once on
    exit; only the pair selection order is kept on exponent tuples.
    """
    gens = [g for g in generators if g is not None and not g.is_zero()]
    if not gens:
        raise ValueError("no nonzero generators")
    ring = gens[0].ring
    if any(g.ring != ring for g in gens):
        raise RingError("generators live in different rings")
    if degree_bound is not None:
        if not all(g.is_homogeneous() for g in gens):
            raise RingError("degree-truncated runs need homogeneous input")
    field = ring.field
    packing = _packing(order, ring.nvars)
    guard = packing.guard
    p = field.characteristic
    work = [packing.pack_terms(g.terms) for g in gens]
    if not groebner_prefix:
        work.sort(key=max)      # by leading monomial; stable on ties
    wdeg = ring.mono_degree     # selection by graded degree: for inputs
    red = _Reducers(packing)    # homogeneous in the ring weights this is
    leads = []                  # true degree-by-degree processing
    lead_tuples = []
    tails = []
    tops = []
    alive = []
    pairs = []                  # heap of (lcm degree, lcm, i, j, packed lcm)

    def push_element(terms):
        lt, tail = _monic_parts(_strip_content(terms, field), field)
        lt_t = packing.unpack(lt)
        t = len(leads)
        # Gebauer-Moeller update of the pair set: divisibility tests on
        # packed lcms, selection order on exponent tuples.
        cand = []
        if t >= groebner_prefix:
            for i in range(t):
                if alive[i]:
                    lcm_i = mono_lcm(lead_tuples[i], lt_t)
                    cand.append((sum(lcm_i), lcm_i, i, packing.pack(lcm_i)))
        cand.sort()
        # criterion M: drop a pair whose lcm is properly divided by another's
        packed_lcms = [e[3] for e in cand]
        seen = {}
        for _, lcm_i, i, a in cand:
            for b in packed_lcms:
                if b != a and not (a - b) & guard:
                    break
            else:
                seen.setdefault(lcm_i, [a]).append(i)
        # criterion F: one pair per lcm value; a coprime member kills its group
        new_pairs = []
        for lcm_i in sorted(seen, key=lambda m: (sum(m), m)):
            a, *group = seen[lcm_i]
            if any(a == leads[i] + lt for i in group):
                continue
            new_pairs.append((wdeg(lcm_i), lcm_i, group[0], t, a))
        # criterion B: prune old pairs via the new leading term
        survivors = []
        for entry in pairs:
            _, lcm_ij, i, j, a = entry
            if (not (a - lt) & guard
                    and mono_lcm(lead_tuples[i], lt_t) != lcm_ij
                    and mono_lcm(lead_tuples[j], lt_t) != lcm_ij):
                continue
            survivors.append(entry)
        pairs.clear()
        pairs.extend(survivors)
        pairs.extend(new_pairs)
        heapq.heapify(pairs)
        # retire basis elements whose leading term became redundant
        for i in red.retire_multiples(lt):
            alive[i] = False
        red.append(t, lt, tail)
        leads.append(lt)
        lead_tuples.append(lt_t)
        tails.append(tail)
        tops.append(red.tops[-1])
        alive.append(True)

    for k, terms in enumerate(work):
        # a reduced prefix is irreducible by the elements before it
        rem = terms if k < groebner_prefix else _nf_terms(terms, red, p)
        if rem:
            push_element(rem)

    while pairs:
        top, _, i, j, lcm_p = heapq.heappop(pairs)
        if degree_bound is not None and top > degree_bound:
            break
        # s-polynomial of two monic elements: their leading terms cancel
        qi = lcm_p - leads[i]
        qj = lcm_p - leads[j]
        if (qi + tops[i]) & guard or (qj + tops[j]) & guard:
            raise RingError(_OVERFLOW)
        s = {qi + m: c for m, c in tails[i]}
        for m, c in tails[j]:
            mm = qj + m
            v = field.sub(s.get(mm, field.zero), c)
            if v:
                s[mm] = v
            else:
                s.pop(mm, None)
        if not s:
            continue
        rem = _nf_terms(s, red, p)
        if rem:
            push_element(rem)

    elements = _final_reduce(red, field, ring)
    gb = GroebnerBasis(ring, order, tuple(elements), tuple(gens),
                       degree_bound=degree_bound)
    for g in gens:
        if not gb.contains(g):
            raise AssertionError("source generator does not reduce to zero")
    return gb


def _final_reduce(red: _Reducers, field, ring):
    """Interreduce the live basis elements into the reduced basis.

    Live leading monomials divide none of each other, and none divides a
    monomial below it, so each element keeps its leading term and only
    its tail needs reducing, by the whole live set.
    """
    out = []
    for lt, tail in sorted(zip(red.lts, red.tails)):
        rem = _nf_terms(dict(tail), red, field.characteristic)
        terms = {red.packing.unpack(lt): field.one}
        terms.update(red.packing.unpack_terms(rem))
        out.append(Polynomial(ring, terms))
    return out


def extend_basis(gb: GroebnerBasis, extra) -> GroebnerBasis:
    """Basis of ideal(gb) + ideal(extra), reusing gb's pair bookkeeping."""
    extra = tuple(g for g in extra if not g.is_zero())
    if not extra:
        return gb
    if not gb.elements:
        return buchberger(extra, gb.order)
    return buchberger(gb.elements + extra, gb.order,
                      groebner_prefix=len(gb.elements))


# ---------------------------------------------------------------------------
# elimination

def eliminate(gens, drop_first_k: int, *, degree_bound: int | None = None):
    """Generators of ideal(gens) intersected with the subring that omits
    the first ``drop_first_k`` variables.

    Returns the Groebner basis elements free of the dropped variables,
    still expressed in the full ring; they form a reduced grevlex basis
    of the elimination ideal (through weighted degree ``degree_bound``
    when one is given; see ``buchberger``).
    """
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return []
    ring = gens[0].ring
    k = drop_first_k
    if k < 0 or k >= ring.nvars:
        raise RingError("elimination block out of range")
    gb = buchberger(gens, Elimination(k), degree_bound=degree_bound)
    kept = [g for g in gb.elements
            if all(all(e == 0 for e in m[:k]) for m in g.terms)]
    return kept
