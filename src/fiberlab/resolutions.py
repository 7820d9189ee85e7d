"""Minimal graded free resolutions by degreewise kernels, with the
Euler-characteristic completeness certificate.

A table is accepted as complete only when (a) the last computed step has
no syzygies through the cutoff, (b) the homological length respects the
ambient variable count, and (c) the alternating Betti sums reproduce the
Hilbert-series numerator degree by degree.  Cutoffs grow until the
certificate holds or a hard ceiling is reached; a partial table is
returned flagged, never silently truncated.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .graded import PresentationMatrix, minimal_generators, syzygies_degreewise


class IncompleteResolutionError(RuntimeError):
    def __init__(self, message, table=None):
        super().__init__(message)
        self.table = table


@dataclass
class BettiTable:
    """Graded Betti numbers of R/I over its polynomial ambient."""

    entries: dict                 # (homological index, internal degree) -> count
    projective_dimension: int
    complete: bool
    nvars: int
    cutoff: int
    numerator: dict = dc_field(default_factory=dict)

    def betti(self, i: int, j: int) -> int:
        return self.entries.get((i, j), 0)

    def total(self, i: int) -> int:
        return sum(c for (h, _), c in self.entries.items() if h == i)

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
    presentation: PresentationMatrix | None


DEFAULT_CEILING = 60


def _cutoff_ladder(start: int, nvars: int, ceiling: int):
    cuts = []
    for inc in (2, 4, nvars):
        cuts.append(start + inc)
    c = cuts[-1]
    while c < ceiling:
        c = min(2 * c, ceiling)
        cuts.append(c)
    out = []
    for c in cuts:
        c = min(c, ceiling)
        if not out or c > out[-1]:
            out.append(c)
    return out


def minimal_resolution(ideal, cutoff: int | None = None,
                       ceiling: int = DEFAULT_CEILING) -> Resolution:
    """Minimal free resolution data of R/ideal, adaptively cut off."""
    ring = ideal.ring
    gens = minimal_generators(ideal)
    if not gens:
        table = BettiTable({(0, 0): 1}, 0, True, ring.nvars, 0,
                           ideal.hilbert_series().numerator_dict())
        return Resolution(table, None)
    if ideal.is_unit():
        raise ValueError("resolution of the zero module is not meaningful here")
    numerator = ideal.hilbert_series().numerator_dict()
    ladder = [cutoff] if cutoff is not None else \
        _cutoff_ladder(max(g.homogeneous_degree() for g in gens), ring.nvars, ceiling)
    best = None
    for cut in ladder:
        res = _resolve_once(ideal, gens, numerator, cut)
        best = res
        if res.table.complete:
            return res
    return best


def _resolve_once(ideal, gens, numerator, cutoff) -> Resolution:
    ring = ideal.ring
    entries = {(0, 0): 1}
    gen_degs = [g.homogeneous_degree() for g in gens]
    for d in gen_degs:
        entries[(1, d)] = entries.get((1, d), 0) + 1

    cod_degs = [0]
    cols = [[g] for g in gens]
    dom_degs = gen_degs
    pres_cols, pres_degs = [], []
    i = 1
    exhausted = False
    while True:
        syz, syz_degs = syzygies_degreewise(cols, cod_degs, ring, cutoff)
        if not syz:
            break
        i += 1
        if i > ring.nvars:
            # Hilbert syzygy bound: anything deeper means the cutoff
            # produced a non-exact truncation, so report incomplete.
            exhausted = True
            break
        for d in syz_degs:
            entries[(i, d)] = entries.get((i, d), 0) + 1
        if i == 2:
            pres_cols, pres_degs = syz, syz_degs
        cod_degs, cols, dom_degs = dom_degs, syz, syz_degs

    pd = max(h for (h, _) in entries)
    table = BettiTable(entries, pd, False, ring.nvars, cutoff, dict(numerator))
    table.complete = (not exhausted) and table.euler_ok()
    presentation = PresentationMatrix(
        matrix=[[s[k] for s in pres_cols] for k in range(len(gens))],
        row_degrees=gen_degs,
        column_degrees=list(pres_degs))
    return Resolution(table, presentation)


def depth_via_resolution(ideal, cutoff=None, ceiling=DEFAULT_CEILING) -> int:
    """depth of R/ideal over the polynomial ambient (Auslander-Buchsbaum)."""
    res = minimal_resolution(ideal, cutoff, ceiling)
    if not res.table.complete:
        bound = ideal.ring.nvars - res.table.projective_dimension
        raise IncompleteResolutionError(
            f"resolution incomplete at cutoff {res.table.cutoff}; depth unknown, "
            f"<= {bound}", table=res.table)
    return ideal.ring.nvars - res.table.projective_dimension
