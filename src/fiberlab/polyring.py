"""Monomials, term orders, and exact multivariate polynomials.

A monomial is one int (``_Packing``, after Monagan and Pearce, "Sparse
polynomial division using a heap", 2011): exponent fields, and above
them the rows of a term order, so that integer comparison is the order
and the product of two monomials is one integer addition.  A Polynomial
maps its monomials, packed for grevlex (``Ring.packing``), to nonzero
raw coefficients (see fields.py), together with its Ring.  Arithmetic,
the Buchberger engine (groebner.py), the Macaulay rows (graded.py) and
the Hilbert recursion (hilbert.py) read these keys as stored.  Exponent
tuples appear only at the edges: ``Ring.monomial`` and
``Ring.from_terms`` take them, and ``Ring.exponents`` gives them back,
for printing, ring maps and substitution.

Values are immutable by convention: nothing mutates ``terms`` after
construction, so rings, orders and polynomials are safe to share across
threads.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, reduce
from operator import mul, or_

from .fields import FieldSpec

MAX_EXPONENT = 10**6
EXPONENT_BITS = 21
EXPONENT_LIMIT = (1 << EXPONENT_BITS) - 1   # over twice MAX_EXPONENT


class RingError(ValueError):
    """Mixed-ring arithmetic or malformed ring construction."""


# ---------------------------------------------------------------------------
# term orders

class TermOrder:
    """Total multiplicative monomial order with 1 minimal.

    A subclass defines only ``rows(n)``, the order on n variables as a
    nonnegative integer matrix: comparing the row values
    ``sum(r[i] * m[i])`` lexicographically, first row first, compares
    monomials in the order.  The packed monomials of ``_Packing`` compare
    as these rows do.
    """

    name = "order"

    def rows(self, nvars: int):
        raise NotImplementedError

    def __repr__(self):
        return self.name

    def __eq__(self, other):
        return repr(self) == repr(other)

    def __hash__(self):
        return hash(repr(self))


class GrevLex(TermOrder):
    name = "grevlex"

    def rows(self, nvars):
        return _grevlex_rows(nvars, 0, nvars)


class Lex(TermOrder):
    name = "lex"

    def rows(self, nvars):
        return [tuple(int(i == j) for j in range(nvars)) for i in range(nvars)]


class Elimination(TermOrder):
    """Block order: grevlex on the first ``block_size`` variables, then
    grevlex on the rest.  Any monomial touching the first block beats
    every monomial in the tail variables.
    """

    def __init__(self, block_size: int):
        if block_size < 1:
            raise RingError("elimination block must have >= 1 variable")
        self.block_size = block_size
        self.name = f"elimination({block_size})"

    def rows(self, nvars):
        k = min(self.block_size, nvars)
        return _grevlex_rows(nvars, 0, k) + _grevlex_rows(nvars, k, nvars)


class WeightThen(TermOrder):
    """Weighted total degree first, ties broken by a base order."""

    def __init__(self, weights, base: TermOrder | None = None):
        self.weights = tuple(int(w) for w in weights)
        if any(w <= 0 for w in self.weights):
            raise RingError("order weights must be positive")
        self.base = base or GrevLex()
        self.name = f"weight_then({list(self.weights)},{self.base.name})"

    def rows(self, nvars):
        if len(self.weights) != nvars:
            raise RingError("need one order weight per variable")
        return [self.weights] + self.base.rows(nvars)


def _grevlex_rows(nvars, lo, hi):
    """Grevlex on variables lo..hi-1: their degree, then the degrees of
    ever shorter prefixes (a smaller last exponent wins a degree tie)."""
    return [tuple(int(lo <= j < end) for j in range(nvars))
            for end in range(hi, lo, -1)]


GREVLEX = GrevLex()
LEX = Lex()


# ---------------------------------------------------------------------------
# packed monomials

class _Packing:
    """Monomials of one ring packed into ints, for one term order.

    The low bits hold one EXPONENT_BITS-wide field per variable, each
    with a guard bit above it.  Above them sit the order's key rows
    (``TermOrder.rows``), first row highest (from bit ``first_row``),
    each wide enough for its value at EXPONENT_LIMIT.  Integer comparison
    is then the term order, ``a + b`` is the product, and a divides b iff
    ``(b - a) & guard`` is 0.  A guard bit set in a sum means an exponent
    passed the limit.  Every packing of n variables puts the exponent
    fields at the same ``shifts``; ``fields`` masks them.

    The low bits of a sum or difference depend only on the low bits of
    its operands, so divisibility and the guard test read the exponent
    fields alone, and so does ``field_max``, the lcm on the fields.
    """

    __slots__ = ("units", "shifts", "guard", "fields", "first_row")

    def __init__(self, order: TermOrder, nvars: int):
        step = EXPONENT_BITS + 1
        self.shifts = tuple(range(0, nvars * step, step))
        self.guard = sum(1 << (s + EXPONENT_BITS) for s in self.shifts)
        self.fields = sum(EXPONENT_LIMIT << s for s in self.shifts)
        units = [1 << s for s in self.shifts]
        offset = nvars * step
        for row in reversed(order.rows(nvars)):
            self.first_row = offset
            for i, w in enumerate(row):
                units[i] += w << offset
            offset += (sum(row) * EXPONENT_LIMIT).bit_length()
        self.units = tuple(units)

    def pack(self, m) -> int:
        """An exponent tuple, packed; RingError when it is malformed or
        has an exponent past EXPONENT_LIMIT."""
        if len(m) != len(self.units) or min(m) < 0:
            raise RingError("bad exponent vector")
        if max(m) > EXPONENT_LIMIT:
            raise RingError(_OVERFLOW)
        return sum(map(mul, m, self.units))

    def exponents(self, a) -> tuple:
        return tuple([(a >> s) & EXPONENT_LIMIT for s in self.shifts])

    def field_max(self, a, b) -> int:
        """Componentwise maximum of the exponent fields of a and b, with
        the order rows left out.

        SWAR on all fields at once: with a guard bit set above each field
        of a, subtracting b leaves that bit set exactly where a's exponent
        is at least b's, and no field borrows from the next; the bit minus
        itself shifted down to the field's base fills that field's mask.
        """
        a &= self.fields
        b &= self.fields
        ge = ((a | self.guard) - b) & self.guard
        mask = ge - (ge >> EXPONENT_BITS)
        return (a & mask) | (b & ~mask)

    def degree(self, a, weights) -> int:
        """Weighted degree, from the exponent fields."""
        return sum(map(mul, weights, self.exponents(a)))


@lru_cache(maxsize=64)
def _packing(order: TermOrder, nvars: int) -> _Packing:
    return _Packing(order, nvars)


def repack(terms: dict, src: _Packing, dst: _Packing) -> dict:
    """A new coefficient map: the monomials of ``terms``, packed by src,
    packed by dst instead.  The one conversion between term orders."""
    if src is dst:
        return dict(terms)
    exps, units = src.exponents, dst.units
    return {sum(map(mul, exps(a), units)): c for a, c in terms.items()}


_OVERFLOW = f"exponent above the packing limit {EXPONENT_LIMIT}"


# ---------------------------------------------------------------------------
# rings

class Ring:
    """Polynomial ring: field, ordered variable names, positive weights.

    Weights define the grading only; term orders are independent of
    them (block eliminations always compare raw exponents).  ``packing``
    is the grevlex packing of the ring's polynomials.
    """

    def __init__(self, field: FieldSpec, names, weights=None):
        names = tuple(names)
        if not names:
            raise RingError("ring needs at least one variable")
        if len(set(names)) != len(names):
            raise RingError("duplicate variable names")
        self.field = field
        self.names = names
        self.nvars = len(names)
        self.weights = tuple(int(w) for w in (weights or (1,) * self.nvars))
        if len(self.weights) != self.nvars or any(w <= 0 for w in self.weights):
            raise RingError("need one positive weight per variable")
        self._index = {n: i for i, n in enumerate(names)}
        self.packing = _packing(GREVLEX, self.nvars)
        # in the standard grading the first grevlex row is the degree
        self._standard = all(w == 1 for w in self.weights)

    def __eq__(self, other):
        return (isinstance(other, Ring) and self.field == other.field
                and self.names == other.names and self.weights == other.weights)

    def __hash__(self):
        return hash((self.field, self.names, self.weights))

    def __repr__(self):
        w = "" if all(w == 1 for w in self.weights) else f", weights={list(self.weights)}"
        return f"Ring({self.field}, {','.join(self.names)}{w})"

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise RingError(f"unknown variable {name!r}") from None

    def exponents(self, a) -> tuple:
        """The exponent tuple of a packed monomial."""
        return self.packing.exponents(a)

    def mono_degree(self, a) -> int:
        """Weighted degree of a packed monomial."""
        if self._standard:
            return a >> self.packing.first_row
        return self.packing.degree(a, self.weights)

    # -- polynomial constructors ------------------------------------
    def zero(self) -> "Polynomial":
        return Polynomial(self, {})

    def one(self) -> "Polynomial":
        return Polynomial(self, {0: self.field.one})

    def constant(self, c) -> "Polynomial":
        c = self.field.raw(c)
        return Polynomial(self, {0: c} if c else {})

    def variable(self, name_or_index) -> "Polynomial":
        i = name_or_index if isinstance(name_or_index, int) else self.index(name_or_index)
        return Polynomial(self, {self.packing.units[i]: self.field.one})

    def monomial(self, expo, coeff=1) -> "Polynomial":
        c = self.field.raw(coeff)
        a = self.packing.pack(tuple(int(e) for e in expo))
        return Polynomial(self, {a: c} if c else {})

    def from_terms(self, terms: dict) -> "Polynomial":
        """The polynomial of a map from exponent tuple to coefficient."""
        pack = self.packing.pack
        return Polynomial(self, {pack(m): c for m, c in terms.items() if c})

    def linear_form(self, coeffs) -> "Polynomial":
        """sum coeffs[i] * x_i."""
        terms = {}
        for u, c in zip(self.packing.units, coeffs):
            c = self.field.raw(c)
            if c:
                terms[u] = c
        return Polynomial(self, terms)

    def monomials_of_degree(self, degree: int):
        """The packed monomials of weighted degree ``degree``, grevlex-descending."""
        units = self.packing.units
        return sorted((sum(map(mul, m, units))
                       for m in _weighted_monomials(self.weights, degree)), reverse=True)

    def dim_of_degree(self, degree: int) -> int:
        return len(_weighted_monomials(self.weights, degree))

    # -- ring maps ----------------------------------------------------
    def embed(self, poly: "Polynomial", target: "Ring") -> "Polynomial":
        """Rename-preserving inclusion into a ring containing our variables."""
        return self._move(poly, target, [target.index(n) for n in self.names])

    def restrict(self, poly: "Polynomial", target: "Ring") -> "Polynomial":
        """Project onto a subring; variables outside it must not occur."""
        return self._move(poly, target, [target._index.get(n, -1) for n in self.names])

    def _move(self, poly, target, idx):
        """poly with our variable i sent to the target's variable idx[i];
        -1 marks a variable the target lacks."""
        units = [target.packing.units[j] if j >= 0 else None for j in idx]
        raw = target.field.raw
        terms = {}
        for m, c in poly.terms.items():
            a = 0
            for i, e in enumerate(self.exponents(m)):
                if e:
                    if units[i] is None:
                        raise RingError(f"variable {self.names[i]} not in target ring")
                    a += e * units[i]
            c = raw(c)
            if c:
                terms[a] = c
        return Polynomial(target, terms)


def fresh_names(base: str, count: int, taken) -> list:
    """``count`` names base1, base2, ... skipping those in ``taken``: the
    auxiliary variables of an elimination ring."""
    out = []
    k = 1
    while len(out) < count:
        cand = f"{base}{k}"
        if cand not in taken:
            out.append(cand)
        k += 1
    return out


@lru_cache(maxsize=4096)
def _weighted_monomials(weights, degree):
    if degree < 0:
        return ()
    n = len(weights)

    def rec(i, left):
        if i == n - 1:
            if left % weights[i] == 0:
                yield (left // weights[i],)
            return
        w = weights[i]
        for e in range(left // w + 1):
            for rest in rec(i + 1, left - w * e):
                yield (e,) + rest

    return tuple(rec(0, degree))


# ---------------------------------------------------------------------------
# polynomials

class Polynomial:
    __slots__ = ("ring", "terms", "_hash")

    def __init__(self, ring: Ring, terms: dict):
        self.ring = ring
        self.terms = terms
        self._hash = None

    # -- basics -------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return (isinstance(other, Polynomial) and self.ring == other.ring
                and self.terms == other.terms)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.ring, frozenset(self.terms.items())))
        return self._hash

    def _check(self, other):
        if self.ring != other.ring:
            raise RingError("mixed rings")

    # -- arithmetic ----------------------------------------------------
    def __add__(self, other):
        self._check(other)
        f = self.ring.field
        res = dict(self.terms)
        for m, c in other.terms.items():
            v = f.add(res.get(m, 0), c) if m in res else c
            if v:
                res[m] = v
            else:
                res.pop(m, None)
        return Polynomial(self.ring, res)

    def __sub__(self, other):
        self._check(other)
        f = self.ring.field
        res = dict(self.terms)
        for m, c in other.terms.items():
            v = f.sub(res.get(m, f.zero), c)
            if v:
                res[m] = v
            else:
                res.pop(m, None)
        return Polynomial(self.ring, res)

    def __neg__(self):
        f = self.ring.field
        return Polynomial(self.ring, {m: f.neg(c) for m, c in self.terms.items()})

    def __mul__(self, other):
        """Every monomial product is one int addition, and F_p
        coefficients are reduced once per result term."""
        if not isinstance(other, Polynomial):
            return self.scale(other)
        self._check(other)
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        b = list(b.items())
        res = {}
        get = res.get
        for m1, c1 in a.items():
            for m2, c2 in b:
                mm = m1 + m2
                res[mm] = get(mm, 0) + c1 * c2
        if reduce(or_, res, 0) & self.ring.packing.guard:
            raise RingError(_OVERFLOW)
        p = self.ring.field.characteristic
        if p:
            res = {m: c % p for m, c in res.items()}
        return Polynomial(self.ring, {m: c for m, c in res.items() if c})

    def scale(self, c):
        f = self.ring.field
        c = f.raw(c)
        if not c:
            return self.ring.zero()
        return Polynomial(self.ring, {m: f.mul(v, c) for m, v in self.terms.items()})

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        result = self.ring.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    # -- grading --------------------------------------------------------
    def _degree_range(self):
        """(least, greatest) weighted degree of the terms; in the standard
        grading grevlex keys sort by degree first."""
        md = self.ring.mono_degree
        if self.ring._standard:
            return md(min(self.terms)), md(max(self.terms))
        degs = list(map(md, self.terms))
        return min(degs), max(degs)

    def degree(self) -> int:
        """Max weighted degree; -1 for the zero polynomial."""
        return self._degree_range()[1] if self.terms else -1

    def is_homogeneous(self) -> bool:
        if not self.terms:
            return True
        lo, hi = self._degree_range()
        return lo == hi

    def homogeneous_degree(self) -> int:
        """The weighted degree of every term; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        lo, hi = self._degree_range()
        if lo != hi:
            raise RingError("polynomial is not homogeneous")
        return hi

    def derivative(self, var_index: int) -> "Polynomial":
        f = self.ring.field
        unit = self.ring.packing.units[var_index]
        shift = self.ring.packing.shifts[var_index]
        terms = {}
        for m, c in self.terms.items():
            e = (m >> shift) & EXPONENT_LIMIT
            if e:
                v = f.mul(c, f.raw(e))
                if v:
                    terms[m - unit] = v
        return Polynomial(self.ring, terms)

    # -- substitution ------------------------------------------------------
    def substitute(self, images, target: Ring | None = None) -> "Polynomial":
        """Evaluate at ``images[i]`` for variable i (polynomials in ``target``)."""
        tgt = target or (images[0].ring if images else self.ring)
        if len(images) != self.ring.nvars:
            raise RingError("need one image per variable")
        pow_cache = [{} for _ in range(self.ring.nvars)]

        def power(i, e):
            cache = pow_cache[i]
            if e not in cache:
                cache[e] = images[i] ** e
            return cache[e]

        result = tgt.zero()
        for m, c in self.terms.items():
            part = tgt.constant(c)
            for i, e in enumerate(self.ring.exponents(m)):
                if e:
                    part = part * power(i, e)
            result = result + part
        return result

    def evaluate(self, point):
        """The value at a point given as raw field elements."""
        f = self.ring.field
        total = f.zero
        for m, c in self.terms.items():
            v = c
            for e, x in zip(self.ring.exponents(m), point):
                for _ in range(e):
                    v = f.mul(v, x)
            total = f.add(total, v)
        return total

    # -- printing -----------------------------------------------------------
    def __repr__(self):
        return poly_to_string(self)


def poly_to_string(p: Polynomial) -> str:
    """Canonical text form, grevlex-descending; parses back via parse.py."""
    if not p.terms:
        return "0"
    names = p.ring.names
    parts = []
    for m in sorted(p.terms, reverse=True):
        c = p.terms[m]
        factors = []
        for n, e in zip(names, p.ring.exponents(m)):
            if e == 1:
                factors.append(n)
            elif e > 1:
                factors.append(f"{n}^{e}")
        body = "*".join(factors)
        if isinstance(c, Fraction) and c.denominator == 1:
            c = c.numerator
        if not body:
            text = f"{c}"
        elif c == 1:
            text = body
        elif c == -1:
            text = f"-{body}"
        else:
            text = f"{c}*{body}"
        parts.append(text)
    out = parts[0]
    for t in parts[1:]:
        out += t if t.startswith("-") else "+" + t
    return out
