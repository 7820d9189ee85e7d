"""Depth of standard graded quotients by exact regular-element descent.

A homogeneous form theta of degree c is a nonzerodivisor on A = S/J
exactly when the Hilbert numerators satisfy N_{J+(theta)} =
(1 - t^c) * N_J, and quotienting a graded ring by a regular form drops
depth by exactly one.  So the engine cuts by candidate linear forms
whose regularity is certified by that numerator identity (no
genericity needed for soundness), and certifies the final depth-0 stage
by exhibiting a socle element: a nonzero h with h * x_i in J for all i.

Resolutions stay the depth route for small ambients; this engine covers
the quotients whose ambient is too large for dense degreewise kernels.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dc_field

from .groebner import GroebnerBasis, buchberger, extend_basis, normal_form
from .hilbert import HilbertSeries, monomial_numerator
from .linalg import nullspace, sparse_rows
from .polyring import Polynomial, Ring


@dataclass
class DepthReport:
    """Outcome of the descent; ``exact`` is False only when neither a
    regular form nor a socle witness could be found within bounds."""

    value: int
    dimension: int
    exact: bool
    regular_forms: list = dc_field(default_factory=list)
    witness: Polynomial | None = None
    socle_bound_used: int = 0
    seed: str = ""

    @property
    def is_cohen_macaulay(self) -> bool | None:
        if not self.exact:
            return None
        return self.value == self.dimension


def series_of_basis(gb: GroebnerBasis) -> HilbertSeries:
    ring = gb.ring
    num = monomial_numerator(gb.leading_monomials, ring.weights) \
        if gb.elements else {0: 1}
    return HilbertSeries.from_numerator(num, ring.nvars, ring.weights)


def regular_cut(gb: GroebnerBasis, hs: HilbertSeries, theta: Polynomial):
    """(theta regular on S/ideal?, basis and series of the quotient)."""
    new_gb = extend_basis(gb, (theta,))
    new_hs = series_of_basis(new_gb)
    return hs.equals_after_cut(new_hs, theta.homogeneous_degree()), new_gb, new_hs


def standard_monomials(gb: GroebnerBasis, degree: int):
    leads = gb.leading_monomials
    out = []
    for m in gb.ring.monomials_of_degree(degree):
        if not any(all(a <= b for a, b in zip(lm, m)) for lm in leads):
            out.append(m)
    return out


def socle_witness(gb: GroebnerBasis, max_degree: int) -> Polynomial | None:
    """Nonzero h in (0 : m) of S/ideal in some degree <= max_degree.

    Such an h certifies depth 0; None only means no witness below the
    bound.
    """
    ring = gb.ring
    field = ring.field
    n = ring.nvars
    variables = [ring.variable(i) for i in range(n)]
    for e in range(0, max_degree + 1):
        std = standard_monomials(gb, e)
        if not std:
            if series_of_basis(gb).dimension == 0 and e > 0:
                return None     # Artinian part exhausted, socle was earlier
            continue
        std_up = standard_monomials(gb, e + 1)
        up_index = {m: i for i, m in enumerate(std_up)}
        # multiplication by the variables, one row per (variable, standard
        # monomial of degree e + 1): its kernel is the socle in degree e
        entries = [[] for _ in range(n * len(std_up))]
        for col, u in enumerate(std):
            for i in range(n):
                prod = normal_form(ring.monomial(u) * variables[i], gb)
                for m, c in prod.terms.items():
                    entries[i * len(std_up) + up_index[m]].append((col, c))
        kernel = nullspace(sparse_rows(entries, len(std), field), field, len(std))
        if len(kernel):
            v = kernel[0]
            terms = {}
            for m, c in zip(std, v):
                c = field.raw(int(c)) if field.characteristic else c
                if c:
                    terms[m] = c
            h = Polynomial(ring, terms)
            for x in variables:
                if not normal_form(h * x, gb).is_zero():
                    raise AssertionError("socle witness failed recheck")
            if normal_form(h, gb).is_zero():
                raise AssertionError("socle witness is zero in the quotient")
            return h
    return None


def _candidate_forms(ring: Ring, rng, dense_count=2):
    """Deterministic schedule: single variables, then sparse pairs and
    mid-support forms, then dense forms.  Sparse first keeps the
    incremental bases small; exactness never depends on the choice."""
    n = ring.nvars
    field = ring.field
    for i in range(n - 1, -1, -1):
        yield ring.variable(i)
    for _ in range(2 * n):
        i, j = rng.sample(range(n), 2)
        coeffs = [field.zero] * n
        coeffs[i] = field.one
        coeffs[j] = field.random_raw(rng, nonzero=True)
        yield ring.linear_form(coeffs)
    for _ in range(3):
        support = rng.sample(range(n), max(2, (n + 1) // 2))
        coeffs = [field.zero] * n
        for i in support:
            coeffs[i] = field.random_raw(rng, nonzero=True)
        yield ring.linear_form(coeffs)
    for _ in range(dense_count):
        yield ring.linear_form([field.random_raw(rng, nonzero=True)
                                for _ in range(n)])


def bounded_ideal_grade(gb: GroebnerBasis, var_range, *, seed="grade:1",
                        max_candidate_degree: int = 3,
                        per_degree: int = 6) -> dict:
    """Grade of the subideal generated by the given variables, searched
    among its homogeneous elements of bounded degree.

    The value is an exact lower bound (every cut is certified); "exact"
    is only claimed for the stop when candidates through the degree
    bound all fail, so the result records the bound used.
    """
    ring = gb.ring
    field = ring.field
    rng = random.Random(str(seed))
    hs = series_of_basis(gb)
    grade = 0
    cur_gb, cur_hs = gb, hs
    while True:
        found = False
        cands = []
        for i in var_range:
            cands.append(ring.variable(i))
        for _ in range(per_degree):
            coeffs = [field.zero] * ring.nvars
            for i in var_range:
                coeffs[i] = field.random_raw(rng)
            lin = ring.linear_form(coeffs)
            if not lin.is_zero():
                cands.append(lin)
        for deg in range(2, max_candidate_degree + 1):
            base = [ring.variable(i) for i in var_range]
            for _ in range(per_degree):
                f = ring.zero()
                for _ in range(deg + 2):
                    term = ring.constant(field.random_raw(rng, nonzero=True))
                    for _ in range(deg):
                        term = term * base[rng.randrange(len(base))]
                    f = f + term
                if not f.is_zero() and f.is_homogeneous():
                    cands.append(f)
        for theta in cands:
            ok, ngb, nhs = regular_cut(cur_gb, cur_hs, theta)
            if ok:
                grade += 1
                cur_gb, cur_hs = ngb, nhs
                found = True
                break
        if not found:
            return {"value": grade, "candidate_degree_bound": max_candidate_degree,
                    "seed": str(seed)}


def graded_depth(ideal_or_gb, *, seed="depth:1", socle_bound=None,
                 max_value=None) -> DepthReport:
    """Depth of S/J for a standard graded quotient, by certified descent."""
    if isinstance(ideal_or_gb, GroebnerBasis):
        gb = ideal_or_gb
    else:
        ideal = ideal_or_gb
        gb = ideal.groebner()
    ring = gb.ring
    if any(w != 1 for w in ring.weights):
        raise ValueError("descent depth needs the standard grading")
    rng = random.Random(str(seed))
    hs = series_of_basis(gb)
    dim_total = hs.dimension
    if dim_total < 0:
        raise ValueError("depth of the zero ring is undefined")
    limit = dim_total if max_value is None else min(max_value, dim_total)

    depth = 0
    forms = []
    cur_gb, cur_hs = gb, hs
    while True:
        if depth >= limit:
            return DepthReport(depth, dim_total, True, forms, None, 0, str(seed))
        max_lead = max((sum(m) for m in cur_gb.leading_monomials), default=1)
        bound = socle_bound if socle_bound is not None else 2 * max_lead + 4
        found_regular = False
        if cur_hs.dimension > 0:
            for theta in _candidate_forms(ring, rng):
                ok, new_gb, new_hs = regular_cut(cur_gb, cur_hs, theta)
                if ok:
                    forms.append(theta)
                    cur_gb, cur_hs = new_gb, new_hs
                    depth += 1
                    found_regular = True
                    break
        if found_regular:
            continue
        w = socle_witness(cur_gb, bound)
        if w is None and socle_bound is None:
            bound *= 2
            w = socle_witness(cur_gb, bound)
        if w is not None:
            return DepthReport(depth, dim_total, True, forms, w, bound, str(seed))
        return DepthReport(depth, dim_total, False, forms, None, bound, str(seed))
