"""Minimal graded free resolutions by degreewise kernels, cut on the
diagonal that a regularity certificate proves.

The certificate is the criterion of Bayer and Stillman ("A criterion
for detecting m-regularity", Invent. Math. 87, 1987, Thm 1.10).  Let J
be generated in degrees <= m in S = k[x_1..x_n], standard graded.  J is
m-regular when there are linear forms h_1..h_j such that multiplication
by h_i is injective from degree m to degree m+1 of S/(J, h_1..h_{i-1})
for each i, and (S/(J, h_1..h_j))_m = 0.  Any forms that pass prove the
bound; generic ones pass exactly when J is m-regular.  h is injective
from degree m where its kernel 0 :_A h is 0, and that kernel's series
comes from the series of the cut (``depth.annihilator_series``; D18 in
``docs/decisions.md``).

An m-regular J has beta_{i,j}(S/J) = 0 for j > i + m - 1, so step i + 1
of the resolution is computed through degree i + m and no further, until
a step comes back empty.  pd <= n - r, for the r leading forms that are
a regular sequence on S/J, and alternating Betti sums equal to the
Hilbert numerator are cross-checks that raise ``AssertionError``.
Without a certificate no syzygy is computed and the table is flagged
incomplete.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .depth import annihilator_series, regular_cut
from .graded import PresentationMatrix, syzygies_degreewise
from .hilbert import series_of_basis


class BoundExceededError(RuntimeError):
    """A bounded search ran out without an answer: a resolution whose
    regularity is not certified below its ceiling, or a fixed number of
    random draws that all missed.  ``fiberlab`` exits with code 3 on it;
    a failed self-check stays an internal error."""


class IncompleteResolutionError(BoundExceededError):
    """A value read off a table that no certificate made complete."""


@dataclass(frozen=True)
class RegularityCertificate:
    """Linear forms h_1..h_j that pass the Bayer-Stillman criterion at m:
    the ideal is m-regular, so reg(S/J) <= m - 1.  The first ``regular``
    forms are a regular sequence on S/J, so pd(S/J) <= n - regular."""

    m: int
    forms: tuple
    regular: int


@dataclass
class BettiTable:
    """Graded Betti numbers of R/I over its polynomial ambient."""

    entries: dict                 # (homological index, internal degree) -> count
    projective_dimension: int
    complete: bool
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
    presentation: PresentationMatrix | None     # None when the table is incomplete


DEFAULT_CEILING = 60
REGULARITY_REDRAWS = 8     # draws whose kernel has positive dimension, at most


def certified_regularity(ideal, ceiling: int,
                         seed: str) -> RegularityCertificate | None:
    """The least m <= ``ceiling``, from max(1, top degree of a minimal
    generator) up, at which seeded random linear forms certify that the
    ideal is m-regular, with those forms; None above the ceiling, or after
    ``REGULARITY_REDRAWS`` redraws.

    The forms cut the ideal's grevlex basis until the quotient has
    dimension 0.  A form whose kernel has positive dimension is drawn
    again, so every kernel kept, and the last quotient, is 0 in all high
    degrees; m is the least at which they all are."""
    ring = ideal.ring
    if any(w != 1 for w in ring.weights):
        raise ValueError("the regularity criterion needs the standard grading")
    m = max([1] + [g.homogeneous_degree() for g in ideal.minimal_generators()])
    if m > ceiling:
        return None
    rng = random.Random(f"regularity:{seed}")
    memo = {}
    gb = ideal.groebner()
    hs = series_of_basis(gb, memo)
    forms, nonzero, regular, redraws = [], set(), 0, 0
    while hs.dimension > 0:
        h = ring.linear_form([ring.field.random_raw(rng) for _ in range(ring.nvars)])
        ok, cut_gb, cut_hs = (False, gb, hs) if h.is_zero() else regular_cut(gb, hs, h, memo)
        kernel = annihilator_series(hs, cut_hs)
        if kernel.dimension > 0:
            redraws += 1
            if redraws > REGULARITY_REDRAWS:
                return None
            continue
        if ok and regular == len(forms):
            regular += 1
        nonzero.update(kernel.reduced()[0])
        forms.append(h)
        gb, hs = cut_gb, cut_hs
    nonzero.update(hs.reduced()[0])
    while m in nonzero:
        m += 1
    return RegularityCertificate(m, tuple(forms), regular) if m <= ceiling else None


def minimal_resolution(ideal, ceiling: int = DEFAULT_CEILING) -> Resolution:
    """Minimal free resolution data of R/ideal, each step cut on the
    diagonal that ``certified_regularity`` proves.  Its forms have one
    fixed seed: any forms that pass prove the same bound, and Betti
    numbers are unique, so no seed can change the table.  Without a
    certificate the table holds steps 0 and 1 only, and no presentation."""
    ring = ideal.ring
    gens = ideal.minimal_generators()
    if gens and ideal.is_unit():
        raise ValueError("resolution of the zero module is not meaningful here")
    cert = certified_regularity(ideal, ceiling, "resolution")
    gen_degs = [g.homogeneous_degree() for g in gens]
    entries = {(0, 0): 1}
    for d in gen_degs:
        entries[(1, d)] = entries.get((1, d), 0) + 1
    numerator = ideal.hilbert_series().numerator_dict()
    if cert is None:
        return Resolution(BettiTable(entries, 1 if gens else 0, False, ceiling,
                                     numerator, None), None)

    bound = ring.nvars - cert.regular
    cod_degs, cols, dom_degs = [0], [[g] for g in gens], gen_degs
    i = 1
    while True:
        syz, syz_degs = syzygies_degreewise(cols, cod_degs, ring, i + cert.m)
        if i == 1:
            presentation = PresentationMatrix(
                matrix=[[s[k] for s in syz] for k in range(len(gens))],
                row_degrees=gen_degs, column_degrees=list(syz_degs))
        if not syz:
            break
        i += 1
        if i > bound:
            raise AssertionError(
                f"certified resolution has pd >= {i}, but {cert.regular} forms are "
                f"a regular sequence on S/J in {ring.nvars} variables")
        for d in syz_degs:
            entries[(i, d)] = entries.get((i, d), 0) + 1
        cod_degs, cols, dom_degs = dom_degs, syz, syz_degs

    table = BettiTable(entries, max(h for (h, _) in entries), True, ceiling,
                       numerator, cert)
    if not table.euler_ok():
        raise AssertionError("certified Betti table does not reproduce the "
                             "Hilbert numerator")
    return Resolution(table, presentation)
