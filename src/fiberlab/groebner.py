"""Buchberger engine: normal forms, reduced bases, block elimination.

Pair management follows Gebauer-Moeller (criteria M, F and the coprime
criterion, plus pruning of old pairs), with the normal selection
strategy: minimal lcm degree, ties broken by the lcm monomial in the
basis order and then by insertion index, so runs are deterministic for
a fixed input.

Inside the engine a monomial is one int packed for the basis order
(``polyring._Packing``): comparison, product and divisibility are single
integer operations.  For grevlex that is the packing the polynomials
store; any other order converts on entry and exit (``polyring.repack``).

The pair criteria read the exponent fields only (``_PairSet``):
divisibility, coprimality and lcm equality do not look at the order
rows, so each lcm is a SWAR field maximum (``_Packing.field_max``), and
the packed lcm with its rows and degree is built only for the pairs that
enter the heap.  The overflow bounds of the reducers are field maxima
too.  See D11 in docs/decisions.md.

``extend_basis`` starts the engine from a reduced basis's own reducer
index (``buchberger``'s ``prefix``): its elements enter as they stand,
with no pairs among them, and only the new generators are reduced.  See
D12.

``normal_form_plan`` writes the reduction of every monomial of one
degree as a recursion on levels, which ``linalg`` runs forward (the
normal-form matrix, ``normal_form_matrix``) or backwards (rows times it,
``normal_form_rows``).  A plan reads the leading monomials and tail
supports only, so the bases of one shape share it.  See D15.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import accumulate
from operator import mul

from .graded import degree_basis
from .hilbert import series_of_basis
from .linalg import (Recursion, normal_form_matrix, normal_form_rows, raw_rows,
                     reduction_recursion)
from .polyring import (_OVERFLOW, EXPONENT_LIMIT, GREVLEX, Elimination, Polynomial, Ring,
                       RingError, TermOrder, _Packing, _packing, repack)


class _Reducers:
    """Packed reducing polynomials, scanned in insertion order.

    Per reducer: its leading monomial, its monic tail as (monomial,
    coefficient) pairs, and the componentwise maximum of the tail
    monomials' exponent fields, which bounds every product in one
    overflow test (``(q + top) & guard`` reads no order row).

    ``first`` memoizes ``divisor``: packed monomial -> index of the first
    reducer whose leading monomial divides it, or -1.  Any change to the
    reducer list clears it.
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
        self.tops.append(reduce(self.packing.field_max, (m for m, _ in tail), 0))
        self.ids.append(ident)
        self.first.clear()

    def copy(self) -> "_Reducers":
        """The same reducers in new lists, with an empty ``first`` memo."""
        red = _Reducers(self.packing)
        red.lts, red.tails, red.tops, red.ids = (self.lts[:], self.tails[:], self.tops[:],
                                                 self.ids[:])
        return red

    def divisor(self, m) -> int:
        """Index of the first reducer whose leading monomial divides m, or
        -1; the value ``first`` memoizes."""
        guard = self.packing.guard
        for k, lt in enumerate(self.lts):
            if not (m - lt) & guard:
                return k
        return -1

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


class _PairSet:
    """The critical pairs still to reduce, under Gebauer-Moeller
    bookkeeping, in a heap of (weighted lcm degree, packed lcm, i, j),
    i < j: ``pop`` takes the pairs by the normal selection strategy.

    Element t is known by the exponent fields of its leading monomial,
    ``fields[t]``, and whether it is still live.  Every criterion reads
    those fields only, so a pair's lcm is ``field_max`` of two of them;
    the packed lcm, its order rows and its degree are built only for the
    pairs that enter the heap.
    """

    __slots__ = ("packing", "weights", "fields", "alive", "heap")

    def __init__(self, packing: _Packing, weights):
        self.packing = packing
        self.weights = weights
        self.fields = []
        self.alive = []
        self.heap = []

    def __bool__(self):
        return bool(self.heap)

    def add(self, lt, pair: bool):
        """Enter lt as the next element; with ``pair``, update the pairs."""
        packing, fields = self.packing, self.fields
        guard, mask, field_max = packing.guard, packing.fields, packing.field_max
        b = lt & mask
        t = len(fields)
        if pair:
            groups = {}
            for i in range(t):
                if self.alive[i]:
                    groups.setdefault(field_max(fields[i], b), []).append(i)
            # criterion M: keep the minimal lcms.  A proper divisor is a
            # smaller int on the fields, so in ascending order each value
            # meets the minimal ones below it before it is kept.
            minimal = []
            for a in sorted(groups):
                if all((a - m) & guard for m in minimal):
                    minimal.append(a)
            # criterion F: one pair per lcm; a coprime member kills its group
            new = []
            for a in minimal:
                group = groups[a]
                if not any(a == fields[i] + b for i in group):
                    exps = packing.exponents(a)
                    new.append((sum(map(mul, exps, self.weights)),
                                sum(map(mul, exps, packing.units)), group[0], t))
            # criterion B: prune old pairs via the new leading term
            heap = [(d, a, i, j) for d, a, i, j in self.heap
                    if (a - lt) & guard or field_max(fields[i], b) == a & mask
                    or field_max(fields[j], b) == a & mask]
            heap += new
            heapq.heapify(heap)
            self.heap = heap
        fields.append(b)
        self.alive.append(True)

    def retire(self, ids):
        for i in ids:
            self.alive[i] = False

    def pop(self):
        """(packed lcm, i, j) of the next pair."""
        _, a, i, j = heapq.heappop(self.heap)
        return a, i, j


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
            k = first[m] = red.divisor(m)
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


class _MonomialForms:
    """Normal forms of single packed monomials, each monomial reduced once.

    Calling it on a monomial returns its normal form as a packed map,
    shared between calls: read it, do not change it.  A monomial m that
    the first reducer lt + tail with lt | m rewrites is
    nf(m) = -sum c * nf((m / lt) * t) over the tail terms c * t, so each
    monomial met on the way, the called ones and every one their
    reductions pass through, is reduced once and stored.  The divisor
    search shares the reducers' ``first`` memo, and every step checks the
    exponent-overflow guard.  ``clear`` drops the stored forms; a caller
    that works degree by degree clears between degrees, so only one
    degree's forms are held at a time.
    """

    __slots__ = ("red", "one", "p", "forms")

    def __init__(self, red: _Reducers, field):
        self.red = red
        self.one = field.one
        self.p = field.characteristic
        self.forms = {}

    def __call__(self, m: int) -> dict:
        forms = self.forms
        red, p, one = self.red, self.p, self.one
        guard, lts, tails, tops, first = red.packing.guard, red.lts, red.tails, red.tops, red.first
        stack = [m]
        while stack:
            a = stack[-1]
            if a in forms:
                stack.pop()
                continue
            k = first.get(a)
            if k is None:
                k = first[a] = red.divisor(a)
            if k < 0:
                forms[a] = {a: one}
                stack.pop()
                continue
            q = a - lts[k]
            if (q + tops[k]) & guard:
                raise RingError(_OVERFLOW)
            todo = [q + tm for tm, _ in tails[k] if q + tm not in forms]
            if todo:
                stack += todo   # tail monomials are smaller: no cycle
                continue
            stack.pop()
            acc = {}
            for tm, tc in tails[k]:
                for b, c in forms[q + tm].items():
                    acc[b] = acc.get(b, 0) - tc * c
            if p:
                acc = {b: c % p for b, c in acc.items() if c % p}
            else:
                acc = {b: c for b, c in acc.items() if c}
            forms[a] = acc
        return forms[m]

    def clear(self):
        self.forms.clear()


def normal_form_shape(gb: GroebnerBasis, degree: int) -> tuple:
    """The key of ``normal_form_plan(gb, degree)``: the degree, and the
    leading monomials and tail supports of gb's reducers, all that a plan
    reads.  Bases of one shape, whatever their coefficients, share a plan."""
    red = gb._reducers
    return degree, tuple(red.lts), tuple(tuple(m for m, _ in tail) for tail in red.tails)


class NormalFormPlan:
    """The normal-form recursion of one degree for the bases of one shape
    (``normal_form_shape``), without their coefficients.

    ``standard`` lists the standard monomials of the degree,
    grevlex-descending.  The normal-form matrix N has a row per monomial
    of ``graded.degree_basis(ring, degree)``, over ``standard``: a unit
    row for a standard monomial and, for a monomial m whose first
    reducer is lt + sum c * t, N[m] = -sum c * N[(m / lt) * t].
    ``recursion`` holds that recursion level by level as index arrays
    (``linalg.reduction_recursion``), its coefficients read off the tails
    of the reducers, one after another."""

    __slots__ = ("standard", "recursion")

    def __init__(self, standard: tuple, recursion: Recursion):
        self.standard = standard
        self.recursion = recursion

    def times(self, rows, gb: GroebnerBasis, kept: dict):
        """rows · N for gb, a basis of the plan's shape: the normal forms of
        the coefficient rows (residues, over the monomials of the degree)
        written over ``standard`` (``linalg.normal_form_rows``).  Fewer
        rows than standard monomials are pushed down the recursion;
        otherwise N is built forward and multiplied, the narrower side
        (D15).  ``kept``, a dict of the caller's, keeps per plan the last
        basis whose N was built, with that N: more rows for the same basis
        are then only multiplied by it."""
        field = gb.ring.field
        coefficients = raw_rows([tc for tail in gb._reducers.tails for _, tc in tail], field)
        if len(rows) < len(self.standard):
            return normal_form_rows(rows, self.recursion, coefficients, field)
        last = kept.get(self)
        if last is None or last[0] is not gb:
            last = kept[self] = (gb, normal_form_matrix(self.recursion, coefficients, field))
        return normal_form_rows(rows, self.recursion, coefficients, field, last[1])


def normal_form_plan(gb: GroebnerBasis, degree: int) -> NormalFormPlan:
    """The plan of gb's normal-form matrix in ``degree``.

    A standard monomial has level 0.  A monomial m with first reducer
    lt + sum c * t reads the rows of the (m / lt) * t, all smaller than
    m, and has level 1 + the highest of their levels; with an empty tail
    (a multiple of a monomial generator) its row is zero and it has level
    0 too.  So every row a level reads lies on a lower level.  The
    divisor search shares the reducers' ``first`` memo and every step
    checks the exponent-overflow guard, as in ``_MonomialForms``.  The
    number of standard monomials is checked against the Hilbert function
    of S/ideal.  All three read only the shape, so they hold for every
    basis that shares the plan.
    """
    if gb.order != GREVLEX:
        raise ValueError("normal-form plans need a grevlex basis")
    red = gb._reducers
    guard, lts, tails, tops, first = red.packing.guard, red.lts, red.tails, red.tops, red.first
    monos, index = degree_basis(gb.ring, degree)
    firsts = []
    for m in monos:
        k = first.get(m)
        if k is None:
            k = first[m] = red.divisor(m)
        firsts.append(k)
    offsets = list(accumulate(map(len, tails), initial=0))
    supports = [[tm for tm, _ in tail] for tail in tails]
    levels = [0] * len(monos)
    members = []            # level L, as ``linalg.reduction_recursion`` reads it, at L - 1
    for j in range(len(monos) - 1, -1, -1):
        k = firsts[j]
        if k < 0:
            continue
        q = monos[j] - lts[k]
        if (q + tops[k]) & guard:
            raise RingError(_OVERFLOW)
        try:
            sources = [index[q + tm] for tm in supports[k]]
        except KeyError:
            raise ValueError("normal-form plans need a homogeneous basis") from None
        if not sources:
            continue
        level = levels[j] = 1 + max(map(levels.__getitem__, sources))
        if level > len(members):
            members.append(([], [], [], []))
        out, counts, reads, positions = members[level - 1]
        out.append(j)
        counts.append(len(sources))
        reads += sources
        positions += range(offsets[k], offsets[k] + len(sources))
    columns = [j for j, k in enumerate(firsts) if k < 0]
    if len(columns) != series_of_basis(gb).coefficients(degree)[degree]:
        raise AssertionError(f"{len(columns)} standard monomials in degree {degree} "
                             "against the Hilbert function")
    return NormalFormPlan(tuple(monos[j] for j in columns),
                          reduction_recursion(len(monos), columns, members))


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
    """Reduced Groebner basis: monic, auto-reduced, sorted by leading term."""

    ring: Ring
    order: TermOrder
    elements: tuple
    source_generators: tuple

    @cached_property
    def _reducers(self) -> _Reducers:
        """Reducer index of the elements, packed for the order, built once."""
        packing = _packing(self.order, self.ring.nvars)
        red = _Reducers(packing)
        for i, g in enumerate(self.elements):
            terms = repack(g.terms, self.ring.packing, packing)
            red.append(i, *_monic_parts(terms, self.ring.field))
        return red

    def contains(self, f: Polynomial) -> bool:
        return normal_form(f, self).is_zero()


def normal_form(f: Polynomial, gb: GroebnerBasis) -> Polynomial:
    """Remainder of f modulo gb; zero iff f lies in the ideal."""
    if f.ring != gb.ring:
        raise RingError("polynomial not in the basis ring")
    if not f.terms:
        return f
    red, packing = gb._reducers, f.ring.packing
    rem = _nf_terms(repack(f.terms, packing, red.packing), red, f.ring.field.characteristic)
    return Polynomial(f.ring, repack(rem, red.packing, packing))


def buchberger(generators, order: TermOrder = GREVLEX, *,
               prefix: GroebnerBasis | None = None) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal generated by ``generators``.

    ``prefix``, a reduced basis for ``order`` in the same ring, is a warm
    start: the basis is that of ideal(prefix) + ideal(generators), and
    the engine starts from ``prefix._reducers`` as they stand, with no
    pairs among them.  A reduced basis is monic and none of its leading
    monomials divides another, so its elements need no reduction, no
    rescaling and retire nothing (D12 in docs/decisions.md).

    Polynomials enter and leave packed for ``order`` (``polyring.repack``).
    The closing self-check reduces every source generator, the prefix's
    included, to 0 modulo the result, on the packed maps.
    """
    gens = [g for g in generators if g is not None and not g.is_zero()]
    if not gens:
        raise ValueError("no nonzero generators")
    ring = gens[0].ring
    if any(g.ring != ring for g in gens):
        raise RingError("generators live in different rings")
    if prefix is not None and (prefix.ring != ring or prefix.order != order):
        raise RingError("warm start from a basis of another ring or order")
    field = ring.field
    packing = _packing(order, ring.nvars)
    guard = packing.guard
    p = field.characteristic
    work = [repack(g.terms, ring.packing, packing) for g in gens]
    # selection by weighted lcm degree: for inputs homogeneous in the ring
    # weights this is true degree-by-degree processing
    pairs = _PairSet(packing, ring.weights)
    if prefix is None:
        work.sort(key=max)      # by leading monomial; stable on ties
        red = _Reducers(packing)
    else:
        # the prefix enters as its reducers stand, with no pairs among them
        red = prefix._reducers.copy()
        for lt in red.lts:
            pairs.add(lt, pair=False)
    leads = red.lts[:]
    tails = red.tails[:]
    tops = red.tops[:]

    def push_element(terms):
        lt, tail = _monic_parts(_strip_content(terms, field), field)
        t = len(leads)
        pairs.add(lt, pair=True)
        # retire basis elements whose leading term became redundant
        pairs.retire(red.retire_multiples(lt))
        red.append(t, lt, tail)
        leads.append(lt)
        tails.append(tail)
        tops.append(red.tops[-1])

    for terms in work:
        rem = _nf_terms(dict(terms), red, p)
        if rem:
            push_element(rem)

    while pairs:
        lcm_p, i, j = pairs.pop()
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
    sources = tuple(gens) if prefix is None else prefix.elements + tuple(gens)
    gb = GroebnerBasis(ring, order, tuple(elements), sources)
    if prefix is not None:
        seed = prefix._reducers
        for lt, tail in zip(seed.lts, seed.tails):
            terms = dict(tail)
            terms[lt] = field.one
            work.append(terms)
    final = gb._reducers
    for terms in work:
        if _nf_terms(terms, final, p):
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
        terms = {lt: field.one}
        terms.update(_nf_terms(dict(tail), red, field.characteristic))
        out.append(Polynomial(ring, repack(terms, red.packing, ring.packing)))
    return out


def extend_basis(gb: GroebnerBasis, extra) -> GroebnerBasis:
    """Basis of ideal(gb) + ideal(extra), warm-started from gb's reducers."""
    extra = tuple(g for g in extra if not g.is_zero())
    if not extra:
        return gb
    return buchberger(extra, gb.order, prefix=gb if gb.elements else None)


# ---------------------------------------------------------------------------
# elimination

def eliminate(gens, drop_first_k: int):
    """Generators of ideal(gens) intersected with the subring that omits
    the first ``drop_first_k`` variables.

    Returns the Groebner basis elements free of the dropped variables,
    still expressed in the full ring; they form a reduced grevlex basis
    of the elimination ideal.
    """
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return []
    ring = gens[0].ring
    k = drop_first_k
    if k < 0 or k >= ring.nvars:
        raise RingError("elimination block out of range")
    gb = buchberger(gens, Elimination(k))
    dropped = sum(EXPONENT_LIMIT << s for s in ring.packing.shifts[:k])
    return [g for g in gb.elements if not any(m & dropped for m in g.terms)]
