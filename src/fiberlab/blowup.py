"""Blow-up algebras of an equigenerated ideal: special fiber, Rees
algebra, associated graded ring, reductions and Cohen-Macaulay verdicts.

Both presentations come from one elimination.  With generators f_1..f_m
of common degree d, the Rees relations J are the kernel of w_i -> f_i t,
by eliminating t, and the fiber relations Q in k[w_1..w_m] (kernel of
w_i -> f_i) are Q = J ∩ k[w], read off J by eliminating the x-variables
(D5 in docs/decisions.md).  The presentations are plain ideals: Q of
k[w], and J and gr = J + I·S[w] of k[w.., x..], with the w-variables
first, where every cut of the depth descents, the grade search and the
Valabrega-Valla route keeps its grevlex bases smaller.  The
eliminations work in k[x.., w..], where their own bases are the smaller
ones; only ``rees_and_gr`` knows the order (D14).  J is bigraded, so its
generators are homogeneous for the standard regrading in which every
variable has weight one; all dimension, multiplicity and depth
computations run in that regrading (verified generator by generator).

The fiber and the Rees algebra are standard graded quotients, so each is
Cohen-Macaulay exactly when its depth equals its dimension: both
verdicts are read off the certified depth descent (``is_cm_graded``,
D21).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from math import comb

from .depth import DepthReport, bounded_ideal_grade, graded_depth
from .graded import degree_basis, generic_rank, minors_ideal, product_rows
from .groebner import eliminate, normal_form_plan, normal_form_shape
from .ideals import Ideal
from .linalg import echelon_from_rows, independent_rows, rank_of_rows
from .polyring import Polynomial, Ring, fresh_names
from .resolutions import (DEFAULT_CEILING, BoundExceededError, IncompleteResolutionError,
                          minimal_resolution)

REES_CHECK_DEGREE = 4   # J is held to the powers of I through this total degree


def _is_bihomogeneous(p: Polynomial, wvars) -> bool:
    """One x-degree and one w-degree (w the variables ``wvars``):
    homogeneous with w weighing one and with w weighing two."""
    ring = p.ring
    regraded = Ring(ring.field, ring.names,
                    tuple(2 if i in wvars else 1 for i in range(ring.nvars)))
    return p.is_homogeneous() and ring.embed(p, regraded).is_homogeneous()


@dataclass
class ReesPresentation:
    """The Rees ideal J and the gr ideal J + I·S[w], both in k[w.., x..]
    with the standard regrading (all weights one); ``wvars`` are the
    indices of w_1..w_m, the generators of gr+.  Their bases are built
    on first use."""

    rees_ideal: Ideal
    gr_ideal: Ideal
    wvars: range

    def w_form(self, coeffs) -> Polynomial:
        """sum c_i w_i, the image in gr of the form sum c_i f_i."""
        ring = self.gr_ideal.ring
        full = [ring.field.zero] * ring.nvars
        for i, c in zip(self.wvars, coeffs):
            full[i] = c
        return ring.linear_form(full)

    def gr_plus_codimension(self) -> int:
        """Codimension of the irrelevant ideal of gr (an upper bound for
        its height), after checking dim gr = dim R."""
        gr = self.gr_ideal
        dim = gr.krull_dimension()
        if dim != gr.ring.nvars - len(self.wvars):
            raise AssertionError("gr quotient has unexpected dimension")
        top = Ideal(gr.ring, gr.generators + tuple(gr.ring.variable(i) for i in self.wvars))
        return dim - top.krull_dimension()


class _Power:
    """[I^n]_{nd} as ``IdealContext.power_rows`` builds it: its basis
    ``rows``, with ``ends[i]`` of them from the blocks of the generators
    g_0..g_i, and the pivot columns of their reduced echelon basis."""

    __slots__ = ("rows", "ends", "pivots")

    def __init__(self, rows, ends, pivots):
        self.rows = rows
        self.ends = ends
        self.pivots = pivots


class IdealContext:
    """One ideal and the expensive objects built from it, each built once.

    Every routine below that takes an ideal also takes its context
    (``IdealContext.of`` wraps a bare ideal in a fresh one), so a report
    that passes one context around builds the minimal generators, the
    powers I^n, the Fitting ideals, the ideals of prefix forms, one
    normal-form plan per shape of their bases, the ranks of product pieces
    (``rank``), the fiber and Rees presentations, the resolution of R/I,
    the depths of the fiber and the Rees algebra and the analytic spread
    once.  It keeps I^n as coefficient rows (``power_rows``) and product
    pieces as ranks: dim_k [I^n]_{nd} is ``len(power_rows(n))``.
    ``label`` names the ideal in the seeds of its randomized tests.
    With ``bounded`` the Rees elimination is out of budget: ``fp``,
    ``pres``, the depths and the CM verdicts are None and the spread
    comes from the Jacobian squeeze (None unless that is exact).
    """

    def __init__(self, ideal: Ideal, label: str = "", *,
                 cutoff: int = DEFAULT_CEILING, bounded: bool = False):
        self.ideal = ideal
        self.ring = ideal.ring
        self.label = label
        self.cutoff = cutoff
        self.bounded = bounded
        self._powers = None
        self._fitting = {}
        self._forms_ideals = {}
        self._inside = {}
        self._plans = {}
        self._forward = {}
        self._ranks = {}
        self._rows = {}

    @classmethod
    def of(cls, ideal) -> "IdealContext":
        return ideal if isinstance(ideal, cls) else cls(ideal)

    @cached_property
    def mingens(self) -> list:
        return self.ideal.minimal_generators()

    @cached_property
    def degree(self) -> int | None:
        """Common degree of the minimal generators, or None."""
        degs = {g.homogeneous_degree() for g in self.mingens}
        return degs.pop() if len(degs) == 1 else None

    def power_rows(self, n: int):
        """A basis of [I^n]_{nd} as coefficient rows over
        ``degree_basis(ring, nd)`` (I^0 = (1)), built incrementally from
        generator prefixes: the generator g_i multiplies only the rows of
        I^{n-1} kept from the blocks of g_0..g_i, and the rows among these
        products that are independent of those before them are kept, block
        after block.  Labelled by monomials in w_0..w_{m-1}, w_i standing
        for g_i, the kept rows are the degree-n standard monomials of the
        fiber relations for lex with w_{m-1} > ... > w_0, in increasing
        order; standard monomials are closed under division, so every one
        of them is such a product, and they span [I^n]_{nd} (D16 in
        docs/decisions.md).
        The minimal generators of the equigenerated I^n are a basis of
        [I^n]_{nd}, so mu(I^n) is their count."""
        d = equigenerated_data(self)[1]
        ring = self.ring
        if self._powers is None:    # I^0: the row of 1 in S_0
            one = product_rows([ring.one()], [[ring.field.one]], 0, ring)
            self._powers = [_Power(one, [1] * len(self.mingens), [0])]
        while len(self._powers) <= n:
            r = len(self._powers) - 1
            low = self._powers[r]
            blocks = (product_rows([g], low.rows[:end], r * d, ring)
                      for g, end in zip(self.mingens, low.ends))
            self._powers.append(_Power(*independent_rows(
                blocks, ring.field, len(degree_basis(ring, (r + 1) * d)[0]))))
        return self._powers[n].rows

    def fitting_ideal(self, size: int) -> tuple:
        """(the ideal of the size x size minors of the minimal
        presentation, I + that ideal), built once each: the Fitting ideals
        that ``check_gs`` and ``generically_ci`` read heights off."""
        pair = self._fitting.get(size)
        if pair is None:
            minors = minors_ideal(self.presentation, size, self.ideal)
            pair = self._fitting[size] = (minors, self.ideal + minors)
        return pair

    def forms_ideal(self, forms) -> Ideal:
        """The ideal the forms generate, memoized on the forms with its
        Groebner basis: the prefix ideal P of tightness and
        Valabrega-Valla."""
        key = tuple(forms)
        ideal = self._forms_ideals.get(key)
        if ideal is None:
            ideal = self._forms_ideals[key] = Ideal(self.ring, key)
        return ideal

    @cached_property
    def _generating_piece(self):
        """[I]_d as a reduced echelon basis, from ``power_rows(1)``."""
        d = equigenerated_data(self)[1]
        return echelon_from_rows(self.power_rows(1), self.ring.field,
                                 len(degree_basis(self.ring, d)[0]))

    def _in_generating_degree(self, forms: tuple) -> bool:
        """Do the forms lie in I_d?  Certified once per forms tuple: their
        rows in S_d reduce to zero against [I]_d's echelon basis."""
        inside = self._inside.get(forms)
        if inside is None:
            inside = forms[0].homogeneous_degree() == equigenerated_data(self)[1]
            if inside:
                rows = product_rows(forms, self.power_rows(0), 0, self.ring)
                inside = not self._generating_piece.reduce(rows).any()
            self._inside[forms] = inside
        return inside

    def rank(self, forms, r: int, modulo=()) -> int:
        """Rank of the coefficient rows of (forms)·[I^r], the products of
        the forms, nonzero of one degree, with ``power_rows(r)``
        (``graded.product_rows``), in S_e / [P]_e for e the degree of the
        products and P the ideal of the forms ``modulo``.

        With no such forms it is the rank in S_e.  When the forms lie in
        I_d (certified once per forms tuple) and I^{r+1} is already built,
        the products lie in V = [I^{r+1}]_{(r+1)d}, so they are C·E for
        E the reduced echelon basis of V, and their columns at E's pivots
        are C: only those columns are made, and their rank is the rank
        (D16 in docs/decisions.md).  Otherwise the rank is read on all of
        S_e.  Modulo P it is the rank of the rows times the normal-form
        matrix of P's basis in degree e, which the basis's normal-form
        plan applies to them (``groebner.NormalFormPlan``), so neither a
        piece of P nor the matrix is built, but for an N built forward,
        which is kept for more rows of the same basis.

        (1)·[I^r] is [I^r] itself, and no forms give rank 0.  Memoized on
        (forms, r, modulo), the plan on its shape
        (``groebner.normal_form_shape``), which the prefix bases of
        different seeds share, and the full rows of the last (forms, r):
        tightness ranks them with and without its prefix."""
        forms, modulo = tuple(forms), tuple(modulo)
        if not forms:
            return 0
        key = (forms, r, modulo)
        rank = self._ranks.get(key)
        if rank is None:
            ring, field = self.ring, self.ring.field
            d = equigenerated_data(self)[1]
            e = r * d + forms[0].homogeneous_degree()
            if modulo:
                gb = self.forms_ideal(modulo).groebner()
                shape = normal_form_shape(gb, e)
                plan = self._plans.get(shape)
                if plan is None:
                    plan = self._plans[shape] = normal_form_plan(gb, e)
                rows = plan.times(self._full_rows(forms, r), gb, self._forward)
                rank = rank_of_rows(rows, field, len(plan.standard))
            elif len(self._powers or ()) > r + 1 and self._in_generating_degree(forms):
                pivots = self._powers[r + 1].pivots
                rows = product_rows(forms, self.power_rows(r), r * d, ring, pivots)
                rank = rank_of_rows(rows, field, len(pivots))
            else:
                rank = rank_of_rows(self._full_rows(forms, r), field,
                                    len(degree_basis(ring, e)[0]))
            self._ranks[key] = rank
        return rank

    def _full_rows(self, forms: tuple, r: int):
        """The rows of (forms)·[I^r] on all of S_e, kept for the last
        (forms, r)."""
        rows = self._rows.get((forms, r))
        if rows is None:
            self._rows.clear()
            rows = self._rows[forms, r] = product_rows(
                forms, self.power_rows(r), r * equigenerated_data(self)[1], self.ring)
        return rows

    def relation_dim(self, n: int) -> int:
        """dim_k [Q]_n.  The fiber is k[I_d], whose degree-n piece is
        [I^n]_{nd}, so this is C(mu+n-1, n) - mu(I^n): the minimal
        generators of I^n, all of degree nd, are a basis of [I^n]_{nd}.
        Checked against the eliminated presentation when the plan builds
        one."""
        gens = equigenerated_data(self)[0]
        dim = comb(len(gens) + n - 1, n) - len(self.power_rows(n))
        if self.fp is not None:
            eliminated = (self.fp.ring.dim_of_degree(n)
                          - self.fp.hilbert_series().coefficients(n)[n])
            if dim != eliminated:
                raise AssertionError(f"fiber piece mismatch at n={n}: "
                                     f"formula {dim} vs eliminated {eliminated}")
        return dim

    def forget(self, *, keep_powers: int | None = None):
        """Drop the memoized product rows, forms ideals, ranks, forward
        normal-form matrices and certificates of forms in I_d; with
        ``keep_powers`` None also the power rows and the normal-form
        plans, and otherwise the powers above I^keep_powers only.  A
        report calls this between stages that share none of them, so that
        one seed's prefix ideals and the high powers of a reduction search
        do not stay in memory while the next stage runs; all are cheap to
        build again.  Between stages it keeps the powers that the later
        stages read, which no seed changes, and the plans, which hold no
        coefficients and serve every seed's prefix bases of their shape.
        The Fitting ideals belong to the ideal and stay."""
        if keep_powers is None:
            self._powers = None
            self._plans.clear()
        elif self._powers is not None:
            del self._powers[keep_powers + 1:]
        self._forms_ideals.clear()
        self._inside.clear()
        self._forward.clear()
        self._ranks.clear()
        self._rows.clear()

    @cached_property
    def fp(self) -> Ideal | None:
        """Q, the fiber relations, as an ideal of k[w]."""
        return None if self.bounded else fiber_presentation(self)

    @cached_property
    def pres(self) -> "ReesPresentation | None":
        return None if self.bounded else rees_and_gr(self)

    @cached_property
    def gr_plus_grade(self) -> DepthReport | None:
        """grade(gr+, gr) from the seeded grade search
        (``depth.bounded_ideal_grade``, seed ``grade:<label>``): a lower
        bound, exact when a socle witness ends it.  Held once built, so
        that ``predicates.valabrega_valla`` stops its gr route at it; that
        route reads it only when it is held, and never starts the search
        (D20)."""
        if self.bounded:
            return None
        return bounded_ideal_grade(self.pres.gr_ideal.groebner(), self.pres.wvars,
                                   seed=f"grade:{self.label}")

    @cached_property
    def gr_plus_codim(self) -> int | None:
        """dim gr - dim gr/gr+ (``ReesPresentation.gr_plus_codimension``)."""
        return None if self.bounded else self.pres.gr_plus_codimension()

    @cached_property
    def gr_depth(self) -> DepthReport | None:
        """depth gr, by the certified descent (seed ``depthgr:<label>``).

        A Cohen-Macaulay graded ring has grade = height = codimension for
        every homogeneous ideal (Bruns-Herzog 2.1.4, at the homogeneous
        maximal ideal).  So when the exact grade of gr+ is below its
        codimension, gr is not CM, its depth is at most dim gr - 1, and
        the descent stops there (D23)."""
        if self.bounded:
            return None
        grade, bound = self.gr_plus_grade, None
        if grade.exact and grade.value < self.gr_plus_codim:
            bound = grade.dimension - 1
        return graded_depth(self.pres.gr_ideal, seed=f"depthgr:{self.label}", bound=bound)

    @cached_property
    def jacobian_spread(self) -> tuple:
        return spread_via_jacobian(self, seed=f"jac:{self.label}")

    @cached_property
    def spread(self) -> int | None:
        """Analytic spread: the fiber dimension, or the exact Jacobian
        squeeze when the plan is bounded."""
        if not self.bounded:
            return self.fp.krull_dimension()
        lower, exact = self.jacobian_spread
        return lower if exact else None

    @cached_property
    def resolution(self):
        return minimal_resolution(self.ideal, ceiling=self.cutoff)

    @property
    def presentation(self):
        """Minimal presentation of I, from the certified resolution."""
        res = self.resolution
        if not res.table.complete:
            raise IncompleteResolutionError("presentation not certified complete")
        return res.presentation

    @cached_property
    def fiber_resolution(self):
        return minimal_resolution(self.fp, ceiling=self.cutoff)

    @cached_property
    def fiber_depth(self) -> "DepthReport | None":
        """depth F(I), by the CM test's certified descent (``is_cm_graded``,
        seed ``cm:<label>:fiber:depth``)."""
        return None if self.bounded else is_cm_graded(
            self.fp, f"cm:{self.label}:fiber:depth")

    @cached_property
    def rees_depth(self) -> "DepthReport | None":
        """depth R(I), by the certified descent (seed ``cm:<label>:rees:depth``)."""
        return None if self.bounded else is_cm_graded(
            self.pres.rees_ideal, f"cm:{self.label}:rees:depth")

    @property
    def fiber_cm(self) -> bool | None:
        """Is F(I) Cohen-Macaulay: is its depth its dimension (D21)?"""
        rep = self.fiber_depth
        return None if rep is None else rep.value == rep.dimension

    @property
    def rees_cm(self) -> bool | None:
        """Is R(I) Cohen-Macaulay: is its depth its dimension (D21)?"""
        rep = self.rees_depth
        return None if rep is None else rep.value == rep.dimension


def is_cm_graded(ideal: Ideal, seed: str) -> DepthReport:
    """Cohen-Macaulay test of S/ideal: its depth by the descent
    (``depth.graded_depth``), which must end with a certificate.  S/ideal
    is Cohen-Macaulay exactly when the returned depth is its dimension;
    an inexact descent gives only a lower bound, so no verdict."""
    rep = graded_depth(ideal, seed=seed)
    if not rep.exact:
        raise BoundExceededError(f"depth descent {seed} found neither a regular "
                                 "form nor a socle witness within bounds")
    return rep


def equigenerated_data(ideal):
    """(minimal generators, common degree); rejects mixed degrees and the
    unit ideal."""
    ctx = IdealContext.of(ideal)
    if not ctx.mingens:
        raise ValueError("zero ideal is not equigenerated")
    if ctx.degree is None:
        degs = sorted({g.homogeneous_degree() for g in ctx.mingens})
        raise ValueError(f"ideal is not equigenerated: degrees {degs}")
    if ctx.degree == 0:
        raise ValueError("the unit ideal has no blow-up algebras")
    return ctx.mingens, ctx.degree


def fiber_presentation(ideal) -> Ideal:
    """Relations Q of the fiber cone, the kernel of w_i -> f_i, as an ideal
    of k[w]: Q = J ∩ k[w] for the Rees ideal J, by eliminating the
    x-variables from J in k[x.., w..]."""
    ctx = IdealContext.of(ideal)
    pres = ctx.pres
    big = pres.rees_ideal.ring
    fiber_ring = Ring(big.field, tuple(big.names[i] for i in pres.wvars))
    work = Ring(big.field, ctx.ring.names + fiber_ring.names)
    relations = tuple(work.restrict(g, fiber_ring) for g in eliminate(
        [big.embed(g, work) for g in pres.rees_ideal.generators], ctx.ring.nvars))
    for q in relations:
        if not q.substitute(ctx.mingens, ctx.ring).is_zero():
            raise AssertionError("fiber relation does not vanish on the generators")
    return Ideal(fiber_ring, relations)


def fiber_truncated(ideal, n_max: int) -> dict:
    """{n: dim_k [Q]_n for 1 <= n <= n_max}, the fiber relations known
    through degree n_max, read off mu(I^n) = dim_k [I^n]_{nd}
    (``IdealContext.relation_dim``) without an elimination."""
    ctx = IdealContext.of(ideal)
    return {n: ctx.relation_dim(n) for n in range(1, n_max + 1)}


def spread_via_jacobian(ideal, seed="jac") -> tuple:
    """(lower bound for the analytic spread, exact flag).

    The Jacobian rank of the generators at a random point bounds the
    transcendence degree of k[I_d] from below; when the bound meets
    dim R it is exact.  The bound is the best of five points.
    """
    ring = ideal.ring
    gens = IdealContext.of(ideal).mingens
    jac = [[g.derivative(j) for j in range(ring.nvars)] for g in gens]
    best = generic_rank(jac, [f"{seed}:{trial}" for trial in range(5)])
    return best, best == ring.nvars


def rees_and_gr(ideal) -> ReesPresentation:
    """Rees and associated graded presentations in k[w.., x..], by
    eliminating t from (w_i - f_i t) in k[t, x.., w..]."""
    ctx = IdealContext.of(ideal)
    ring = ctx.ring
    gens, d = equigenerated_data(ctx)
    if ctx.ideal.height() < 1:
        raise ValueError("Rees presentation needs grade >= 1")
    m = len(gens)
    taken = set(ring.names)
    tname = fresh_names("t", 1, taken)[0]
    wnames = tuple(fresh_names("w", m, taken | {tname}))
    elim_ring = Ring(ring.field, (tname,) + ring.names + wnames,
                     (1,) + ring.weights + (d + 1,) * m)
    t = elim_ring.variable(0)
    work = [elim_ring.variable(1 + ring.nvars + i) - ring.embed(f, elim_ring) * t
            for i, f in enumerate(gens)]
    kept = eliminate(work, 1)
    big_ring = Ring(ring.field, wnames + ring.names)
    rees_ideal = Ideal(big_ring, tuple(elim_ring.restrict(g, big_ring) for g in kept))
    gr_ideal = Ideal(big_ring, rees_ideal.generators
                     + tuple(ring.embed(f, big_ring) for f in gens))
    pres = ReesPresentation(rees_ideal, gr_ideal, range(m))
    _verify_rees(ctx, pres, elim_ring)
    return pres


def _verify_rees(ctx: IdealContext, pres: ReesPresentation, elim_ring: Ring):
    """Every Rees relation is bihomogeneous and vanishes under w -> f t,
    dim R(I) = dim R + 1, and through total degree ``REES_CHECK_DEGREE``
    J has the Hilbert function of R(I), whose (a, b) piece is
    [I^b]_{a+bd}, the rank of S_a·I^b: so J is the Rees ideal there (D17
    in docs/decisions.md)."""
    ring, gens = ctx.ring, ctx.mingens
    t = elim_ring.variable(0)
    images = ([ring.embed(f, elim_ring) * t for f in gens]
              + [elim_ring.variable(name) for name in ring.names])
    for g in pres.rees_ideal.generators:
        if not _is_bihomogeneous(g, pres.wvars):
            raise AssertionError("Rees relation is not bihomogeneous")
        if not g.substitute(images, elim_ring).is_zero():
            raise AssertionError("Rees relation does not vanish under w -> f t")
    series = pres.rees_ideal.hilbert_series()
    if series.dimension != ring.nvars + 1:
        raise AssertionError("Rees quotient has unexpected dimension")
    for total, value in enumerate(series.coefficients(REES_CHECK_DEGREE)):
        pieces = sum(ctx.rank([Polynomial(ring, {m: ring.field.one})
                               for m in degree_basis(ring, a)[0]], total - a)
                     for a in range(total + 1))
        if value != pieces:
            raise AssertionError(f"Rees piece mismatch at total degree {total}: "
                                 f"J gives {value}, the powers of I {pieces}")


# ---------------------------------------------------------------------------
# minimal reductions and reduction numbers

@dataclass
class ReductionData:
    reduction_generators: list
    seed: str
    reduction_number: int | None
    verified: bool
    spread: int
    degree: int


def random_forms_in_degree(ideal, count: int, seed) -> tuple:
    """Seeded k-linear combinations of the minimal generators, with a
    linear-independence recheck: (forms, their coefficient rows)."""
    gens = IdealContext.of(ideal).mingens
    if count > len(gens):
        raise ValueError(f"cannot draw {count} independent forms "
                         f"from mu = {len(gens)}")
    ring = ideal.ring
    field = ring.field
    rng = random.Random(str(seed))
    for _ in range(16):
        matrix = [[field.random_raw(rng) for _ in gens] for _ in range(count)]
        if rank_of_rows(matrix, field, len(gens)) == count:
            break
    else:
        raise BoundExceededError("no independent coefficient rows in 16 draws")
    forms = []
    for row in matrix:
        f = ring.zero()
        for c, g in zip(row, gens):
            f = f + g.scale(c)
        forms.append(f)
    return forms, matrix


def minimal_reduction(ideal, seed="red:1", r_max: int = 12,
                      forms=None) -> ReductionData:
    """Candidate minimal reduction by random combinations (or the given
    forms), plus the least verified reduction number r with
    J I^r = I^{r+1}."""
    ctx = IdealContext.of(ideal)
    gens, d = equigenerated_data(ctx)
    spread = ctx.spread
    if spread is None:
        raise ValueError("a minimal reduction needs the analytic spread")
    if forms is None and spread == len(gens):
        return ReductionData(list(gens), str(seed), 0, True, spread, d)
    if forms is None:
        forms = random_forms_in_degree(ctx, spread, seed)[0]
    elif len(forms) != spread:
        raise ValueError("a minimal reduction needs analytic-spread many forms")
    elif any(f.homogeneous_degree() != d for f in forms):
        raise ValueError(f"forms must be nonzero of the generating degree {d}")
    for r in range(0, r_max + 1):
        mu = len(ctx.power_rows(r + 1))     # built first: the rank projects on it
        if ctx.rank(forms, r) == mu:
            return ReductionData(forms, str(seed), r, True, spread, d)
    return ReductionData(forms, str(seed), None, False, spread, d)

