"""Monomials, term orders, and exact multivariate polynomials.

At the API monomials are plain exponent tuples.  A Polynomial is a map
from monomial to nonzero raw coefficient (see fields.py) together with
its Ring.  Values are immutable by convention: nothing mutates ``terms``
after construction, so rings, orders and polynomials are safe to share
across threads.

Inside products a monomial is one int (``_Packing``, after Monagan and
Pearce, "Sparse polynomial division using a heap", 2011), so that the
product of two monomials is one integer addition.  The same packing
serves the Buchberger engine (groebner.py) and the Macaulay rows of
graded pieces (graded.py).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, reduce
from operator import mul, or_

from .fields import FieldSpec, FieldError

MAX_EXPONENT = 10**6
EXPONENT_BITS = 21
EXPONENT_LIMIT = (1 << EXPONENT_BITS) - 1   # over twice MAX_EXPONENT


class RingError(ValueError):
    """Mixed-ring arithmetic or malformed ring construction."""


# ---------------------------------------------------------------------------
# monomial helpers (exponent tuples)

def mono_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def mono_divides(a, b):
    """a | b componentwise."""
    return all(x <= y for x, y in zip(a, b))


def mono_div(b, a):
    return tuple(y - x for x, y in zip(a, b))


def mono_lcm(a, b):
    return tuple(x if x > y else y for x, y in zip(a, b))


# ---------------------------------------------------------------------------
# term orders

class TermOrder:
    """Total multiplicative monomial order with 1 minimal.

    ``key(m)`` returns a tuple that sorts ascending in the order.
    ``rows(n)`` writes the order on n variables as a nonnegative integer
    matrix: comparing the row values ``sum(r[i] * m[i])`` lexicographically,
    first row first, compares monomials in the order.
    """

    name = "order"

    def key(self, m):
        raise NotImplementedError

    def rows(self, nvars: int):
        raise NotImplementedError

    def compare(self, a, b) -> int:
        if len(a) != len(b):
            raise RingError("monomial length mismatch")
        ka, kb = self.key(a), self.key(b)
        return (ka > kb) - (ka < kb)

    def __repr__(self):
        return self.name

    def __eq__(self, other):
        return repr(self) == repr(other)

    def __hash__(self):
        return hash(repr(self))


class GrevLex(TermOrder):
    name = "grevlex"

    def key(self, m):
        return (sum(m), tuple(-e for e in reversed(m)))

    def rows(self, nvars):
        return _grevlex_rows(nvars, 0, nvars)


class Lex(TermOrder):
    name = "lex"

    def key(self, m):
        return m

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

    def key(self, m):
        k = self.block_size
        head, tail = m[:k], m[k:]
        return (sum(head), tuple(-e for e in reversed(head)),
                sum(tail), tuple(-e for e in reversed(tail)))

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

    def key(self, m):
        return (sum(w * e for w, e in zip(self.weights, m)), self.base.key(m))

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


def compare_monomials(a, b, order: TermOrder) -> str:
    c = order.compare(a, b)
    return "LT" if c < 0 else ("GT" if c > 0 else "EQ")


# ---------------------------------------------------------------------------
# packed monomials

class _Packing:
    """Monomials of one ring packed into ints, for one term order.

    The low bits hold one EXPONENT_BITS-wide field per variable, each
    with a guard bit above it.  Above them sit the order's key rows
    (``TermOrder.rows``), first row highest, each wide enough for its
    value at EXPONENT_LIMIT.  Integer comparison is then the term order,
    ``a + b`` is the product, and a divides b iff ``(b - a) & guard``
    is 0.  A guard bit set in a sum means an exponent passed the limit.
    """

    __slots__ = ("units", "shifts", "guard")

    def __init__(self, order: TermOrder, nvars: int):
        step = EXPONENT_BITS + 1
        self.shifts = tuple(range(0, nvars * step, step))
        self.guard = sum(1 << (s + EXPONENT_BITS) for s in self.shifts)
        units = [1 << s for s in self.shifts]
        offset = nvars * step
        for row in reversed(order.rows(nvars)):
            for i, w in enumerate(row):
                units[i] += w << offset
            offset += (sum(row) * EXPONENT_LIMIT).bit_length()
        self.units = tuple(units)

    def pack(self, m) -> int:
        if max(m) > EXPONENT_LIMIT:
            raise RingError(_OVERFLOW)
        return sum(map(mul, m, self.units))

    def pack_terms(self, terms: dict) -> dict:
        if terms and max(map(max, terms)) > EXPONENT_LIMIT:
            raise RingError(_OVERFLOW)
        units = self.units
        return {sum(map(mul, m, units)): c for m, c in terms.items()}

    def unpack(self, a) -> tuple:
        return tuple([(a >> s) & EXPONENT_LIMIT for s in self.shifts])

    def unpack_terms(self, terms: dict) -> dict:
        unpack = self.unpack
        return {unpack(a): c for a, c in terms.items()}

    def top(self, monos) -> int:
        """Packed componentwise maximum of packed monomials (0 if none)."""
        if not monos:
            return 0
        return sum(max((a >> s) & EXPONENT_LIMIT for a in monos) * u
                   for s, u in zip(self.shifts, self.units))


@lru_cache(maxsize=64)
def _packing(order: TermOrder, nvars: int) -> _Packing:
    return _Packing(order, nvars)


_OVERFLOW = f"exponent above the packing limit {EXPONENT_LIMIT}"


# ---------------------------------------------------------------------------
# rings

class Ring:
    """Polynomial ring: field, ordered variable names, positive weights.

    Weights define the grading only; term orders are independent of
    them (block eliminations always compare raw exponents).
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
        self._zero_mono = (0,) * self.nvars

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

    def mono_degree(self, m) -> int:
        return sum(map(mul, self.weights, m))

    # -- polynomial constructors ------------------------------------
    def zero(self) -> "Polynomial":
        return Polynomial(self, {})

    def one(self) -> "Polynomial":
        return Polynomial(self, {self._zero_mono: self.field.one})

    def constant(self, c) -> "Polynomial":
        c = self.field.raw(c)
        return Polynomial(self, {self._zero_mono: c} if c else {})

    def variable(self, name_or_index) -> "Polynomial":
        i = name_or_index if isinstance(name_or_index, int) else self.index(name_or_index)
        m = tuple(1 if j == i else 0 for j in range(self.nvars))
        return Polynomial(self, {m: self.field.one})

    def monomial(self, expo, coeff=1) -> "Polynomial":
        c = self.field.raw(coeff)
        expo = tuple(int(e) for e in expo)
        if len(expo) != self.nvars or any(e < 0 for e in expo):
            raise RingError("bad exponent vector")
        return Polynomial(self, {expo: c} if c else {})

    def from_terms(self, terms: dict) -> "Polynomial":
        clean = {m: c for m, c in terms.items() if c}
        return Polynomial(self, clean)

    def linear_form(self, coeffs) -> "Polynomial":
        """sum coeffs[i] * x_i."""
        terms = {}
        for i, c in enumerate(coeffs):
            c = self.field.raw(c)
            if c:
                m = tuple(1 if j == i else 0 for j in range(self.nvars))
                terms[m] = c
        return Polynomial(self, terms)

    def monomials_of_degree(self, degree: int):
        """All exponent tuples of weighted degree ``degree``, grevlex-descending."""
        monos = _weighted_monomials(self.weights, degree)
        return sorted(monos, key=GREVLEX.key, reverse=True)

    def dim_of_degree(self, degree: int) -> int:
        return len(_weighted_monomials(self.weights, degree))

    # -- ring maps ----------------------------------------------------
    def embed(self, poly: "Polynomial", target: "Ring") -> "Polynomial":
        """Rename-preserving inclusion into a ring containing our variables."""
        idx = [target.index(n) for n in self.names]
        terms = {}
        for m, c in poly.terms.items():
            mm = [0] * target.nvars
            for i, e in enumerate(m):
                mm[idx[i]] = e
            terms[tuple(mm)] = target.field.raw(c)
        return target.from_terms(terms)

    def restrict(self, poly: "Polynomial", target: "Ring") -> "Polynomial":
        """Project onto a subring; variables outside it must not occur."""
        idx = []
        for i, n in enumerate(self.names):
            idx.append(target._index.get(n, -1))
        terms = {}
        for m, c in poly.terms.items():
            mm = [0] * target.nvars
            for i, e in enumerate(m):
                if e:
                    if idx[i] < 0:
                        raise RingError(f"variable {self.names[i]} not in target ring")
                    mm[idx[i]] = e
            terms[tuple(mm)] = target.field.raw(c)
        return target.from_terms(terms)


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

    def coefficient(self, mono):
        return self.terms.get(tuple(mono), self.ring.field.zero)

    def num_terms(self) -> int:
        return len(self.terms)

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
        """Product on packed monomials: each operand is packed once, every
        monomial product is one int addition, and F_p coefficients are
        reduced once per result term."""
        if not isinstance(other, Polynomial):
            return self.scale(other)
        self._check(other)
        packing = _packing(GREVLEX, self.ring.nvars)
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        b = list(packing.pack_terms(b).items())
        res = {}
        get = res.get
        for m1, c1 in packing.pack_terms(a).items():
            for m2, c2 in b:
                mm = m1 + m2
                res[mm] = get(mm, 0) + c1 * c2
        if reduce(or_, res, 0) & packing.guard:
            raise RingError(_OVERFLOW)
        p = self.ring.field.characteristic
        if p:
            res = {m: c % p for m, c in res.items()}
        unpack = packing.unpack
        return Polynomial(self.ring, {unpack(m): c for m, c in res.items() if c})

    def scale(self, c):
        f = self.ring.field
        c = f.raw(c)
        if not c:
            return self.ring.zero()
        return Polynomial(self.ring, {m: f.mul(v, c) for m, v in self.terms.items()})

    def mul_term(self, mono, coeff):
        f = self.ring.field
        coeff = f.raw(coeff)
        if not coeff:
            return self.ring.zero()
        return Polynomial(self.ring,
                          {mono_mul(m, mono): f.mul(v, coeff) for m, v in self.terms.items()})

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
    def degree(self) -> int:
        """Max weighted degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        md = self.ring.mono_degree
        return max(md(m) for m in self.terms)

    def is_homogeneous(self) -> bool:
        if not self.terms:
            return True
        md = self.ring.mono_degree
        it = iter(self.terms)
        d = md(next(it))
        return all(md(m) == d for m in it)

    def homogeneous_degree(self) -> int:
        """The weighted degree of every term; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        md = self.ring.mono_degree
        it = iter(self.terms)
        d = md(next(it))
        for m in it:
            if md(m) != d:
                raise RingError("polynomial is not homogeneous")
        return d

    # -- leading data -----------------------------------------------------
    def leading_monomial(self, order: TermOrder):
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        return max(self.terms, key=order.key)

    def leading_coefficient(self, order: TermOrder):
        return self.terms[self.leading_monomial(order)]

    def monic(self, order: TermOrder) -> "Polynomial":
        lc = self.leading_coefficient(order)
        f = self.ring.field
        if lc == f.one:
            return self
        inv = f.inv(lc)
        return Polynomial(self.ring, {m: f.mul(c, inv) for m, c in self.terms.items()})

    def derivative(self, var_index: int) -> "Polynomial":
        f = self.ring.field
        terms = {}
        for m, c in self.terms.items():
            e = m[var_index]
            if e:
                mm = m[:var_index] + (e - 1,) + m[var_index + 1:]
                v = f.add(terms.get(mm, f.zero), f.mul(c, f.raw(e)))
                if v:
                    terms[mm] = v
                else:
                    terms.pop(mm, None)
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
            for i, e in enumerate(m):
                if e:
                    part = part * power(i, e)
            result = result + part
        return result

    # -- printing -----------------------------------------------------------
    def __repr__(self):
        return poly_to_string(self)


def poly_to_string(p: Polynomial) -> str:
    """Canonical text form, grevlex-descending; parses back via parse.py."""
    if not p.terms:
        return "0"
    names = p.ring.names
    parts = []
    for m in sorted(p.terms, key=GREVLEX.key, reverse=True):
        c = p.terms[m]
        factors = []
        for n, e in zip(names, m):
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
