"""Minimal graded free resolutions by degreewise kernels, cut on the
diagonal that a regularity certificate proves.

The certificate is the criterion of Bayer and Stillman ("A criterion
for detecting m-regularity", Invent. Math. 87, 1987, Thm 1.10).  Let J
be generated in degrees <= m in S = k[x_1..x_n], standard graded.  J is
m-regular when there are linear forms h_1..h_j such that multiplication
by h_i is injective from degree m to degree m+1 of S/(J, h_1..h_{i-1})
for each i, and (S/(J, h_1..h_j))_m = 0.  Any forms that pass prove the
bound; generic ones pass exactly when J is m-regular.
``certified_regularity`` tries seeded random forms for m = the top
generator degree, m + 1, ... up to a ceiling, on the echelons of J_m and
J_{m+1}, which each form only extends.

An m-regular J has beta_{i,j}(S/J) = 0 for j > i + m - 1, so step i + 1
of the resolution is computed through degree i + m and no further.  A
table is complete when the certificate holds and a step comes back
empty; it then also must have pd <= n and alternating Betti sums equal
to the Hilbert numerator, cross-checks that raise ``AssertionError``.
When no m up to the ceiling is certified, the steps are cut at
m = ceiling and the table is flagged incomplete, never silently
truncated.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .graded import (PresentationMatrix, piece_span_of_polys, spanning_rows,
                     syzygies_degreewise)


class BoundExceededError(RuntimeError):
    """A bounded search ran out without an answer: a resolution whose
    regularity is not certified below its ceiling, or a fixed number of
    random draws that all missed.  ``fiberlab`` exits with code 3 on it;
    a failed self-check stays an internal error."""


class IncompleteResolutionError(BoundExceededError):
    def __init__(self, message, table=None):
        super().__init__(message)
        self.table = table


@dataclass(frozen=True)
class RegularityCertificate:
    """Linear forms h_1..h_j that pass the Bayer-Stillman criterion at m:
    the ideal is m-regular, so reg(S/J) <= m - 1."""

    m: int
    forms: tuple


@dataclass
class BettiTable:
    """Graded Betti numbers of R/I over its polynomial ambient."""

    entries: dict                 # (homological index, internal degree) -> count
    projective_dimension: int
    complete: bool
    nvars: int
    ceiling: int                  # the bound on m given to the certificate search
    numerator: dict               # Hilbert numerator of R/I, degree -> coefficient
    certificate: RegularityCertificate | None

    def euler_ok(self) -> bool:
        sums = {}
        for (i, j), c in self.entries.items():
            sums[j] = sums.get(j, 0) + (c if i % 2 == 0 else -c)
        sums = {j: c for j, c in sums.items() if c}
        return sums == {j: c for j, c in self.numerator.items() if c}

    def regularity(self) -> int:
        if not self.complete:
            raise IncompleteResolutionError("regularity needs a complete table")
        return max(j - i for (i, j) in self.entries)

    def rows(self):
        """(i, j, count) sorted for reporting."""
        return sorted((i, j, c) for (i, j), c in self.entries.items())


@dataclass
class Resolution:
    table: BettiTable
    presentation: PresentationMatrix


DEFAULT_CEILING = 60


def certified_regularity(gens, ring, ceiling: int,
                         seed: str) -> RegularityCertificate | None:
    """The least m <= ``ceiling``, from the top degree of ``gens`` up, at
    which seeded random linear forms certify that (gens) is m-regular,
    with those forms; None when no m up to the ceiling is certified."""
    if any(w != 1 for w in ring.weights):
        raise ValueError("the regularity criterion needs the standard grading")
    rng = random.Random(f"regularity:{seed}")
    m = max([1] + [g.homogeneous_degree() for g in gens])
    low = piece_span_of_polys(gens, m, ring)
    while m <= ceiling:
        high = piece_span_of_polys(gens, m + 1, ring)
        forms = _regular_forms(low.copy(), high.copy(), m, ring, rng)
        if forms is not None:
            return RegularityCertificate(m, forms)
        low, m = high, m + 1
    return None


def _regular_forms(low, high, m, ring, rng):
    """Random linear forms that pass the criterion at m, extending the
    echelons ``low`` = J'_m and ``high`` = J'_{m+1} of J' = (J, forms so
    far) in place; None once a form is not injective from degree m.

    h is injective there iff rank(J'_{m+1} + h S_m) - rank J'_{m+1}
    = dim S_m - rank J'_m.  With n independent forms (S/J')_m = 0, so
    n forms that do not get there were dependent: None as well."""
    forms = []
    while low.rank < low.width:
        if len(forms) == ring.nvars:
            return None
        h = ring.linear_form([ring.field.random_raw(rng) for _ in range(ring.nvars)])
        if sum(high.extend(spanning_rows([h], m + 1, ring))) != low.width - low.rank:
            return None
        low.extend(spanning_rows([h], m, ring))
        forms.append(h)
    return tuple(forms)


def minimal_resolution(ideal, ceiling: int = DEFAULT_CEILING) -> Resolution:
    """Minimal free resolution data of R/ideal, each step cut on the
    diagonal that ``certified_regularity`` proves.  Its forms have one
    fixed seed: any forms that pass prove the same bound, and Betti
    numbers are unique, so no seed can change the table."""
    ring = ideal.ring
    gens = ideal.minimal_generators()
    if gens and ideal.is_unit():
        raise ValueError("resolution of the zero module is not meaningful here")
    cert = certified_regularity(gens, ring, ceiling, "resolution")
    m = cert.m if cert else ceiling

    gen_degs = [g.homogeneous_degree() for g in gens]
    entries = {(0, 0): 1}
    for d in gen_degs:
        entries[(1, d)] = entries.get((1, d), 0) + 1
    cod_degs, cols, dom_degs = [0], [[g] for g in gens], gen_degs
    i = 1
    while True:
        syz, syz_degs = syzygies_degreewise(cols, cod_degs, ring, i + m)
        if i == 1:
            presentation = PresentationMatrix(
                matrix=[[s[k] for s in syz] for k in range(len(gens))],
                row_degrees=gen_degs, column_degrees=list(syz_degs))
        if not syz:
            break
        i += 1
        if i > ring.nvars:
            if cert:
                raise AssertionError(f"certified resolution has pd {i} > "
                                     f"{ring.nvars} variables")
            break       # a cut below the regularity: not exact, incomplete
        for d in syz_degs:
            entries[(i, d)] = entries.get((i, d), 0) + 1
        cod_degs, cols, dom_degs = dom_degs, syz, syz_degs

    pd = max(h for (h, _) in entries)
    table = BettiTable(entries, pd, cert is not None, ring.nvars, ceiling,
                       ideal.hilbert_series().numerator_dict(), cert)
    if cert and not table.euler_ok():
        raise AssertionError("certified Betti table does not reproduce the "
                             "Hilbert numerator")
    return Resolution(table, presentation)
