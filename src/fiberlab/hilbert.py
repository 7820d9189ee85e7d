"""Hilbert series of graded quotients via the monomial-ideal recursion.

The numerator N(t) of R/M over (1-t)^n (weighted: over prod 1/(1-t^w))
is computed from the minimal generators of a monomial ideal by pivoting
on a variable x occurring in a generator:

    N(M) = N(M + (x)) + t^deg(x) * N(M : x)

with complete-intersection and variable-disjoint splits as base cases.
"""

from __future__ import annotations

from dataclasses import dataclass


def _minimalize(gens):
    gens = sorted(set(gens), key=lambda m: (sum(m), m))
    out = []
    for g in gens:
        if not any(all(a <= b for a, b in zip(h, g)) for h in out):
            out.append(g)
    return out


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


def _components(gens):
    """Partition generators into variable-disjoint groups."""
    n = len(gens[0])
    parent = list(range(len(gens)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    by_var = {}
    for idx, g in enumerate(gens):
        for v in range(n):
            if g[v]:
                by_var.setdefault(v, []).append(idx)
    for idxs in by_var.values():
        for other in idxs[1:]:
            parent[find(other)] = find(idxs[0])
    groups = {}
    for idx in range(len(gens)):
        groups.setdefault(find(idx), []).append(gens[idx])
    return list(groups.values())


def monomial_numerator(gens, weights) -> dict:
    """Numerator (degree -> coefficient) for the quotient by a monomial ideal."""
    gens = _minimalize(tuple(tuple(g) for g in gens))
    return _numerator(tuple(gens), tuple(weights), {})


def _numerator(gens, weights, memo) -> dict:
    if not gens:
        return {0: 1}
    if any(all(e == 0 for e in g) for g in gens):
        return {}
    key = gens
    hit = memo.get(key)
    if hit is not None:
        return hit

    def wdeg(m):
        return sum(w * e for w, e in zip(weights, m))

    supports = [tuple(i for i, e in enumerate(g) if e) for g in gens]
    if all(len(s) == 1 for s in supports):
        # pure powers of distinct variables: a complete intersection
        result = {0: 1}
        for g in gens:
            result = _poly_mul(result, {0: 1, wdeg(g): -1})
        memo[key] = result
        return result

    if len(gens) > 2:
        comps = _components(list(gens))
        if len(comps) > 1:
            result = {0: 1}
            for comp in comps:
                result = _poly_mul(result, _numerator(tuple(sorted(comp)), weights, memo))
            memo[key] = result
            return result

    counts = {}
    for g, s in zip(gens, supports):
        if len(s) > 1:
            for v in s:
                counts[v] = counts.get(v, 0) + 1
    pivot = max(sorted(counts), key=lambda v: counts[v])

    plus = [g for g in gens if g[pivot] == 0]
    unit = tuple(1 if i == pivot else 0 for i in range(len(weights)))
    plus.append(unit)
    colon = [g[:pivot] + (max(g[pivot] - 1, 0),) + g[pivot + 1:] for g in gens]
    n_plus = _numerator(tuple(_minimalize(plus)), weights, memo)
    n_colon = _numerator(tuple(_minimalize(colon)), weights, memo)
    result = _poly_add(n_plus, {d + weights[pivot]: c for d, c in n_colon.items()})
    memo[key] = result
    return result


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
