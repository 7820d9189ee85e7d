"""Hilbert series of graded quotients via the monomial-ideal recursion.

The numerator N(t) of R/M over (1-t)^n (weighted: over prod 1/(1-t^w))
is computed from the minimal generators of a monomial ideal by pivoting
on a variable x occurring in a generator:

    N(M) = N(M + (x)) + t^deg(x) * N(M : x)

with complete-intersection and variable-disjoint splits as base cases
(Bigatti, "Computation of Hilbert-Poincare series", 1997).  The
recursion runs on ``polyring._Packing`` ints, the engine's one monomial
packing, so a reduced basis hands over its packed leading monomials.
"""

from __future__ import annotations

from dataclasses import dataclass

from .polyring import EXPONENT_BITS, EXPONENT_LIMIT


def _poly_mul(a: dict, b: dict) -> dict:
    res = {}
    for da, ca in a.items():
        for db, cb in b.items():
            d = da + db
            v = res.get(d, 0) + ca * cb
            if v:
                res[d] = v
            else:
                del res[d]
    return res


def _poly_add(a: dict, b: dict) -> dict:
    res = dict(a)
    for d, c in b.items():
        v = res.get(d, 0) + c
        if v:
            res[d] = v
        else:
            del res[d]
    return res


def monomial_numerator(gens, weights, packing, memo: dict | None = None) -> dict:
    """Numerator (degree -> coefficient) for the quotient by a monomial
    ideal.  ``gens`` are ``packing``'s ints (a ``polyring._Packing``) and
    must generate minimally, as the leading monomials of a reduced basis
    do.

    ``memo`` is a dict the caller keeps, to share the recursion's nodes
    between calls: a node's numerator depends only on its generators, the
    packing and the weights, so one memo serves every call with the same
    packing and weights, such as the cuts of one depth descent."""
    memo = {} if memo is None else memo
    return _PackedRecursion(packing, tuple(weights), memo).numerator(tuple(sorted(gens)))


class _PackedRecursion:
    """The pivot recursion on packed monomials, memoized in ``memo``.

    A node is a sorted tuple of minimal generators.  Divisibility is
    ``(b - a) & guard == 0`` and division by x_v is ``a - units[v]``.
    Adding ``low`` to the exponent fields sets a field's guard bit
    exactly when its exponent is nonzero, which gives the support of a
    monomial as a mask of guard bits.
    """

    def __init__(self, packing, weights, memo: dict):
        self.units = packing.units
        self.shifts = packing.shifts
        self.guard = packing.guard
        self.low = packing.fields
        self.bits = [1 << (s + EXPONENT_BITS) for s in self.shifts]
        self.var_of = {b: v for v, b in enumerate(self.bits)}
        self.weights = weights
        self.memo = memo

    def numerator(self, gens: tuple) -> dict:
        if not gens:
            return {0: 1}
        if gens[0] == 0:
            return {}       # the unit ideal
        hit = self.memo.get(gens)
        if hit is None:
            hit = self.memo[gens] = self._split(gens)
        return hit

    def _split(self, gens: tuple) -> dict:
        shifts, weights, guard, low = self.shifts, self.weights, self.guard, self.low
        masks = [((a & low) + low) & guard for a in gens]
        mixed = [m for m in masks if m & (m - 1)]
        if not mixed:
            # pure powers of distinct variables: a complete intersection
            result = {0: 1}
            for a, m in zip(gens, masks):
                v = self.var_of[m]
                deg = weights[v] * ((a >> shifts[v]) & EXPONENT_LIMIT)
                result = _poly_mul(result, {0: 1, deg: -1})
            return result

        if len(gens) > 2:
            groups = []         # variable-disjoint (support, generators)
            for a, m in zip(gens, masks):
                members = [a]
                rest = []
                for g in groups:
                    if g[0] & m:
                        m |= g[0]
                        members += g[1]
                    else:
                        rest.append(g)
                rest.append((m, members))
                groups = rest
            if len(groups) > 1:
                result = {0: 1}
                for _, members in groups:
                    result = _poly_mul(result, self.numerator(tuple(sorted(members))))
                return result

        # pivot: the variable in most generators of mixed support, the
        # first such; counts add up in the exponent fields
        counts = sum(m >> EXPONENT_BITS for m in mixed)
        pivot = max(range(len(shifts)),
                    key=lambda v: ((counts >> shifts[v]) & EXPONENT_LIMIT, -v))
        bit, unit, shift = self.bits[pivot], self.units[pivot], shifts[pivot]
        free = [a for a, m in zip(gens, masks) if not m & bit]
        # M + (x_v) is minimal as it stands
        plus = tuple(sorted(free + [unit]))
        # M : x_v: only a generator free of x_v can become redundant, and
        # only by a generator whose x_v-exponent was 1
        divided = [a - unit for a, m in zip(gens, masks) if m & bit]
        lowered = [a for a in divided if not (a >> shift) & EXPONENT_LIMIT]
        colon = divided + [f for f in free if all((f - a) & guard for a in lowered)]
        n_plus = self.numerator(plus)
        n_colon = self.numerator(tuple(sorted(colon)))
        w = weights[pivot]
        return _poly_add(n_plus, {d + w: c for d, c in n_colon.items()})


def series_of_basis(gb, memo: dict | None = None) -> "HilbertSeries":
    """Hilbert series of S/ideal from a reduced basis's packed leading
    monomials, computed once per basis and kept on it, as
    ``functools.cached_property`` keeps a value; ``memo``, as in
    ``monomial_numerator``, serves that first computation."""
    series = gb.__dict__.get("_series")
    if series is None:
        ring = gb.ring
        if gb.elements:
            red = gb._reducers
            num = monomial_numerator(red.lts, ring.weights, red.packing, memo)
        else:
            num = {0: 1}
        series = gb.__dict__["_series"] = HilbertSeries.from_numerator(
            num, ring.nvars, ring.weights)
    return series


@dataclass(frozen=True)
class HilbertSeries:
    """H(t) = numerator / prod_i (1 - t^{w_i}); exact integer data."""

    numerator: tuple          # ((degree, coeff), ...) sorted
    num_ring_vars: int
    weights: tuple

    @classmethod
    def from_numerator(cls, num: dict, nvars: int, weights=None) -> "HilbertSeries":
        weights = tuple(weights or (1,) * nvars)
        return cls(tuple(sorted(num.items())), nvars, weights)

    def numerator_dict(self) -> dict:
        return dict(self.numerator)

    def reduced(self):
        """(reduced numerator dict, number of cancelled (1-t) factors)."""
        num = self.numerator_dict()
        if not num:
            return {}, 0
        cancelled = 0
        while sum(num.values()) == 0:
            # divide by (1 - t): running prefix sums
            deg = max(num)
            coeffs = [num.get(i, 0) for i in range(deg + 1)]
            out = []
            acc = 0
            for c in coeffs[:-1]:
                acc += c
                out.append(acc)
            num = {i: c for i, c in enumerate(out) if c}
            cancelled += 1
            if not num:
                break
        return num, cancelled

    @property
    def dimension(self) -> int:
        """Krull dimension of the quotient; -1 for the zero ring.

        Weighted variables contribute via the pole order of the full
        rational function at t = 1.
        """
        num = self.numerator_dict()
        if not num:
            return -1
        _, cancelled = self.reduced()
        return self.num_ring_vars - cancelled

    @property
    def multiplicity(self) -> int:
        if any(w != 1 for w in self.weights):
            raise ValueError("multiplicity is only taken in the standard grading")
        num, _ = self.reduced()
        if not num:
            return 0
        e = sum(num.values())
        if e <= 0:
            raise AssertionError("reduced numerator must be positive at t=1")
        return e

    def coefficients(self, up_to: int):
        """Hilbert function values in degrees 0..up_to."""
        series = [0] * (up_to + 1)
        for d, c in self.numerator:
            if d <= up_to:
                series[d] += c
        for w in self.weights:
            for j in range(w, up_to + 1):
                series[j] += series[j - w]
        return series

    def __mul__(self, factor: dict) -> "HilbertSeries":
        num = _poly_mul(self.numerator_dict(), factor)
        return HilbertSeries(tuple(sorted(num.items())), self.num_ring_vars, self.weights)

    def equals_after_cut(self, other: "HilbertSeries", cut_degree: int) -> bool:
        """other == self * (1 - t^cut_degree), the regular-element identity."""
        expected = _poly_mul(self.numerator_dict(), {0: 1, cut_degree: -1})
        return expected == other.numerator_dict()
