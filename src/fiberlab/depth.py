"""Depth and grade of standard graded quotients, by chains of certified
regular cuts.

A homogeneous form theta of degree c is a nonzerodivisor on A = S/J
exactly when the Hilbert numerators satisfy N_{J+(theta)} = (1 - t^c) *
N_J, so each cut is certified by that identity, with no genericity needed
for soundness.  Quotienting a graded ring by a regular form drops its
depth, and the grade of an ideal that holds the form, by exactly one.

``CutChain`` holds one chain of such cuts, with what lets it pass over
a cut that must fail (D12, D19).  Three schedules run over it, and every
cut they make is a ``regular_cut``:

- ``graded_depth``: the depth, ended by a socle witness (D6), or by a
  caller's certified bound (D23);
- ``bounded_ideal_grade``: the grade of the ideal of some variables,
  ended by a witness relative to them;
- ``regular_prefix``: how many leading forms of a given list are a
  regular sequence (D20).

The reports read the Cohen-Macaulay verdicts of the fiber and the Rees
algebra off this engine, as depth = dimension (``blowup.is_cm_graded``),
and take the depths of the Rees algebra and of gr from it, whose ambients
are too large for dense degreewise kernels; the depth of the fiber
comes from its certified resolution (Auslander-Buchsbaum), held to the
fiber's descent.
``blowup.rees_and_gr`` presents both in k[w.., x..]: no value depends on
the order of the variables, but with w first the grevlex bases of the
cuts stay smaller.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dc_field

from .groebner import GroebnerBasis, _MonomialForms, _nf_terms, extend_basis, normal_form
from .hilbert import HilbertSeries, series_of_basis
from .linalg import nullspace, sparse_rows
from .polyring import EXPONENT_LIMIT, GREVLEX, Polynomial, Ring


@dataclass
class DepthReport:
    """Outcome of a chain of cuts: ``value`` regular forms (the depth, or
    the grade of an ideal) on S/J, of dimension ``dimension``.  ``exact``
    is False only when neither a regular form nor a socle witness was
    found within bounds: the value is then a lower bound.  An exact
    report with no witness has ``value`` = ``dimension``, or ``value`` =
    the certified upper bound that the caller passed (``graded_depth``'s
    ``bound``, D23)."""

    value: int
    dimension: int
    exact: bool
    regular_forms: list = dc_field(default_factory=list)
    witness: Polynomial | None = None
    socle_bound_used: int = 0
    seed: str = ""


def regular_cut(gb: GroebnerBasis, hs: HilbertSeries, theta: Polynomial,
                memo: dict | None = None):
    """(theta regular on S/ideal?, basis and series of the quotient).

    ``memo`` is the Hilbert recursion's memo (``hilbert.monomial_numerator``)
    that the cuts of one ``CutChain`` share."""
    new_gb = extend_basis(gb, (theta,))
    new_hs = series_of_basis(new_gb, memo)
    return hs.equals_after_cut(new_hs, theta.homogeneous_degree()), new_gb, new_hs


def annihilator_series(hs: HilbertSeries, cut_hs: HilbertSeries) -> HilbertSeries:
    """Series of K = 0 :_A theta for a linear form theta, from the series
    of A and of A/theta A.

    The exact sequence 0 -> K(-1) -> A(-1) -> A -> A/theta A -> 0 gives
    H_K = (H_{A/theta A} - (1 - t) H_A) / t: no Groebner work beyond the
    cut itself.
    """
    num = cut_hs.numerator_dict()
    for d, c in (hs * {0: 1, 1: -1}).numerator:
        num[d] = num.get(d, 0) - c
    if num.get(0):
        raise AssertionError("a cut changed the series in degree 0")
    return HilbertSeries.from_numerator({d - 1: c for d, c in num.items() if c},
                                        hs.num_ring_vars, hs.weights)


def regular_prefix(gb: GroebnerBasis, forms, bound: int | None = None) -> int:
    """How many leading forms are a regular sequence on S/ideal: cut by
    one form after another and stop at the first that is not regular.

    ``bound`` is the exact grade on S/ideal of a homogeneous ideal that
    holds the forms, homogeneous of positive degree.  Every maximal
    regular sequence in that ideal has that length (Bruns-Herzog 1.2.5),
    so once the first ``bound`` forms are regular the next one is not,
    and only the first ``bound`` forms are cut (D20)."""
    chain = CutChain(gb)
    for theta in list(forms)[:bound]:
        if not chain.cut(theta)[0]:
            break
    return len(chain.forms)


def _standard_layers(gb: GroebnerBasis):
    """Packed standard monomials of S/ideal, one degree after another, each
    degree sorted grevlex-descending.

    Standard monomials are closed under division, so each one of degree
    e + 1 is u * x_i with u standard of degree e; taking i = the last
    variable of the product makes each product once.  A leading monomial
    that divides u * x_i but not u has that same last variable, so only
    those leading monomials are tested.
    """
    ring = gb.ring
    if gb.order != GREVLEX or any(w != 1 for w in ring.weights):
        raise ValueError("standard monomials by degree need a grevlex basis "
                         "in the standard grading")
    red = gb._reducers
    guard, units, shifts = red.packing.guard, red.packing.units, red.packing.shifts
    by_last = [[] for _ in range(ring.nvars)]
    for lt in red.lts:
        if not lt:
            return          # the unit ideal
        last = max(i for i, s in enumerate(shifts) if (lt >> s) & EXPONENT_LIMIT)
        by_last[last].append(lt)
    layer = [(0, 0)]        # (packed monomial, its last variable)
    while layer:
        yield sorted((a for a, _ in layer), reverse=True)
        grown = []
        for u, last in layer:
            for i in range(last, ring.nvars):
                prod = u + units[i]
                if all((prod - lt) & guard for lt in by_last[i]):
                    grown.append((prod, i))
        layer = grown


def socle_witness(gb: GroebnerBasis, max_degree: int, var_range=None,
                  within: HilbertSeries | None = None) -> Polynomial | None:
    """Nonzero h of degree <= max_degree in S/ideal with h * x_i = 0 for
    every variable x_i, or only for i in ``var_range`` when given.

    Such an h certifies depth 0; relative to ``var_range`` it certifies
    that the ideal of those variables lies in ann(h), so it has grade 0.
    None only means no witness below the bound.

    ``within`` is the series of a graded module that contains that socle,
    such as K = 0 :_A theta of a failed cut by a linear form theta in the
    variables of ``var_range``: h * theta = 0 puts h in K.  The search
    skips the degrees where it is 0, so it finds the same first degree
    and there the same witness.
    """
    ring = gb.ring
    field = ring.field
    red = gb._reducers
    units = red.packing.units
    nf = _MonomialForms(red, field)
    idx = range(ring.nvars) if var_range is None else list(var_range)
    sizes = None if within is None else within.coefficients(max_degree)
    layers = _standard_layers(gb)
    std = next(layers, [])
    for e in range(max_degree + 1):
        if not std:
            return None     # every higher degree is empty too
        std_up = next(layers, [])
        if sizes is not None and not sizes[e]:
            std = std_up
            continue
        up_index = {a: k for k, a in enumerate(std_up)}
        width = len(std_up)
        # multiplication by the variables, one row per (variable, standard
        # monomial of degree e + 1): its kernel is the socle in degree e
        entries = [[] for _ in range(len(idx) * width)]
        for col, u in enumerate(std):
            for r, i in enumerate(idx):
                prod = u + units[i]
                k = up_index.get(prod)
                if k is not None:
                    entries[r * width + k].append((col, field.one))
                    continue
                for m, c in nf(prod).items():
                    entries[r * width + up_index[m]].append((col, c))
        nf.clear()      # the next degree's products meet none of these forms
        # an empty row changes no kernel, so it is not streamed
        kernel = nullspace(sparse_rows((row for row in entries if row), len(std), field),
                           field, len(std))
        if len(kernel):
            terms = {}
            for a, c in zip(std, kernel[0]):
                c = field.raw(c)
                if c:
                    terms[a] = c
            h = Polynomial(ring, terms)
            for i in idx:
                if not normal_form(h * ring.variable(i), gb).is_zero():
                    raise AssertionError("socle witness failed recheck")
            if normal_form(h, gb).is_zero():
                raise AssertionError("socle witness is zero in the quotient")
            return h
        std = std_up
    return None


def _socle_bound(gb: GroebnerBasis) -> int:
    """Default degree bound of a socle search: 2 * (top leading degree) + 4."""
    return 2 * max(map(gb.ring.mono_degree, gb._reducers.lts), default=1) + 4


def _candidate_forms(ring: Ring, rng):
    """Deterministic schedule: single variables, then sparse pairs and
    mid-support forms, then two dense forms.  Sparse first keeps the
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
    for _ in range(2):
        yield _dense_form(ring, rng)


def _dense_form(ring: Ring, rng) -> Polynomial:
    """A linear form with every coefficient drawn nonzero."""
    return ring.linear_form([ring.field.random_raw(rng, nonzero=True)
                             for _ in range(ring.nvars)])


GRADE_CANDIDATE_DEGREE = 3     # highest degree of a grade-search candidate
GRADE_CANDIDATES_PER_DEGREE = 6


def bounded_ideal_grade(gb: GroebnerBasis, var_range, *, seed="grade:1") -> DepthReport:
    """Grade on S/ideal of the ideal I generated by the given variables.

    Every cut is certified by the numerator identity, so the value is a
    lower bound.  grade(I, A) = 0 exactly when (0 :_A I) != 0
    (Bruns-Herzog, Cohen-Macaulay Rings, 1.2.5), so a socle witness
    relative to the variables (h not in J', h * x_i in J' for every i in
    var_range) makes the value exact.  Each stage draws its seeded
    candidates, then cuts by the first random linear form.  When that form
    is not regular, the witness is searched in the degrees where its
    annihilator is nonzero.  Without one, the stage tries the variables
    and the other candidates, through degree ``GRADE_CANDIDATE_DEGREE``; a
    stop there is only bounded, and ``exact`` is False.
    """
    ring = gb.ring
    field = ring.field
    rng = random.Random(str(seed))
    var_range = list(var_range)
    base = [ring.variable(i) for i in var_range]
    chain = CutChain(gb)
    while True:
        linear = []
        for _ in range(GRADE_CANDIDATES_PER_DEGREE):
            coeffs = [field.zero] * ring.nvars
            for i in var_range:
                coeffs[i] = field.random_raw(rng)
            lin = ring.linear_form(coeffs)
            if not lin.is_zero():
                linear.append(lin)
        higher = []
        for deg in range(2, GRADE_CANDIDATE_DEGREE + 1):
            for _ in range(GRADE_CANDIDATES_PER_DEGREE):
                f = ring.zero()
                for _ in range(deg + 2):
                    term = ring.constant(field.random_raw(rng, nonzero=True))
                    for _ in range(deg):
                        term = term * base[rng.randrange(len(base))]
                    f = f + term
                if not f.is_zero() and f.is_homogeneous():
                    higher.append(f)
        if linear:
            ok, cut_hs = chain.cut(linear[0])
            if ok:
                continue
            bound = _socle_bound(chain.gb)
            w = socle_witness(chain.gb, bound, var_range=var_range,
                              within=annihilator_series(chain.hs, cut_hs))
            if w is not None:
                return chain.report(seed, True, w, bound)
        if not chain.first_regular(base + linear[1:] + higher):
            return chain.report(seed, False)


class _AnnihilatedElements:
    """Elements h = g / x_i of S/J, one for each element g of J's reduced
    basis and each variable x_i that divides every term of g, and the
    variables that kill them (D19).

    h is not in J: lt(h) properly divides lt(g), a minimal generator of
    in(J).  x_i * h = g is in J.  So a form theta all of whose variables
    kill h has theta * h in J, and is a zero-divisor (Bruns-Herzog 1.2):
    its cut would fail.  ``kills`` computes nf(x_j * h) once per
    (element, variable), when a form first asks for it, and rechecks
    nf(h) != 0 the first time an element certifies a form.
    """

    __slots__ = ("red", "p", "elements", "rechecked")

    def __init__(self, gb: GroebnerBasis):
        red = self.red = gb._reducers
        self.p = gb.ring.field.characteristic
        guard, one = red.packing.guard, gb.ring.field.one
        # (h, {j: x_j * h in J}), x_i * h = g known
        self.elements = [({m - u: c for m, c in ((lt, one), *tail)}, {i: True})
                         for lt, tail in zip(red.lts, red.tails)
                         for i, u in enumerate(red.packing.units)
                         if all(not (m - u) & guard for m in (lt, *(tm for tm, _ in tail)))]
        self.rechecked = set()

    def kills(self, theta: Polynomial) -> bool:
        """True when every variable of theta kills one element h: then
        theta * h is in J with h not in J, so theta is a zero-divisor."""
        units, shifts = self.red.packing.units, self.red.packing.shifts
        support = {i for m in theta.terms for i, s in enumerate(shifts)
                   if (m >> s) & EXPONENT_LIMIT}
        for k, (h, zero) in enumerate(self.elements):
            for i in support:
                if i not in zero:
                    zero[i] = not _nf_terms({m + units[i]: c for m, c in h.items()},
                                            self.red, self.p)
                if not zero[i]:
                    break
            else:
                if k not in self.rechecked:
                    if not _nf_terms(dict(h), self.red, self.p):
                        raise AssertionError("an annihilated element lies in the ideal")
                    self.rechecked.add(k)
                return True
        return False


class CutChain:
    """A chain of certified cuts of S/J: the basis ``gb`` and series ``hs``
    of the stage S/(J, theta_1..theta_k), the regular forms theta_i
    (``forms``), the forms known to be zero-divisors on the stage, the
    stage's ``_AnnihilatedElements``, and the memo of the Hilbert
    recursion that its cuts share, dropped with the chain (D12).

    A zero-divisor stays one at every later stage.  If x * a = 0 in A with
    a != 0 homogeneous and theta is a regular form of positive degree,
    write a = theta^k * a' with a' not in theta * A; then x * a' = 0, so x
    is a zero-divisor on A/theta A (D12).
    """

    def __init__(self, gb: GroebnerBasis):
        self.memo = {}
        self.gb, self.hs = gb, series_of_basis(gb, self.memo)
        self.dimension = self.hs.dimension
        self.forms = []
        self.zero_divisors = set()
        self.annihilated = None     # built when a schedule first filters the stage

    def cut(self, theta: Polynomial):
        """(theta regular on the stage?, series of the stage cut by theta).
        A regular theta starts the next stage; any other is a known
        zero-divisor from here on."""
        ok, gb, hs = regular_cut(self.gb, self.hs, theta, self.memo)
        if ok:
            self.forms.append(theta)
            self.gb, self.hs, self.annihilated = gb, hs, None
        else:
            self.zero_divisors.add(theta)
        return ok, hs

    def first_regular(self, forms) -> bool:
        """Cut by the first of ``forms`` that is regular on the stage; False
        when none is.  A known zero-divisor, or a form that kills an
        annihilated element of the stage (D19), is passed over without a
        cut, which would fail.  The forms are drawn all the same, so the
        seeded draws, and with them the regular forms and the witnesses,
        do not depend on what is passed over."""
        if self.annihilated is None:
            self.annihilated = _AnnihilatedElements(self.gb)
        for theta in forms:
            if theta in self.zero_divisors:
                continue
            if self.annihilated.kills(theta):
                self.zero_divisors.add(theta)
            elif self.cut(theta)[0]:
                return True
        return False

    def report(self, seed, exact: bool, witness: Polynomial | None = None,
               bound: int = 0) -> DepthReport:
        """The chain's regular forms, then a socle witness found within
        degree ``bound``, or none."""
        return DepthReport(len(self.forms), self.dimension, exact, self.forms,
                           witness, bound, str(seed))


def graded_depth(ideal_or_gb, *, seed="depth:1", bound: int | None = None) -> DepthReport:
    """Depth of S/J for a standard graded quotient, by certified descent.

    Each stage cuts by a regular form from the candidate schedule, and a
    stage with none ends on a socle witness: a nonzero h with h * x_i in
    J' for all i.  A stage whose quotient A has dimension 1 first makes
    one parameter cut by a dense linear form theta (D6).  If theta is not
    regular and K = 0 :_A theta has dimension 0, theta is a parameter and
    K, nonzero of finite length, lies in H^0_m(A), so depth A = 0; the top
    degree of K is killed by every variable, so the socle search through
    that degree must find a witness.  Only when K has dimension 1 (theta
    in a one-dimensional associated prime) does the stage try the
    schedule.  Searching the socle before any cut costs far more where
    the stage is regular: a failed search runs to its full degree bound.

    ``bound`` is a certified upper bound on the depth, as in
    ``regular_prefix``: once that many forms are regular they are the
    depth, and the report is exact with no witness (D23).
    """
    gb = ideal_or_gb if isinstance(ideal_or_gb, GroebnerBasis) else ideal_or_gb.groebner()
    ring = gb.ring
    if any(w != 1 for w in ring.weights):
        raise ValueError("descent depth needs the standard grading")
    rng = random.Random(str(seed))
    chain = CutChain(gb)
    if chain.dimension < 0:
        raise ValueError("depth of the zero ring is undefined")
    # each regular form drops the stage's dimension by one, so it is
    # positive until the depth reaches the dimension
    top = chain.dimension if bound is None else min(bound, chain.dimension)
    while len(chain.forms) < top:
        if chain.hs.dimension == 1:
            ok, cut_hs = chain.cut(_dense_form(ring, rng))
            if ok:
                continue
            kernel = annihilator_series(chain.hs, cut_hs)
            if kernel.dimension == 0:
                top = max(kernel.reduced()[0])
                w = socle_witness(chain.gb, top, within=kernel)
                if w is None:
                    raise AssertionError(f"no socle element through degree {top}, "
                                         "the top degree of a finite-length 0 :_A theta")
                return chain.report(seed, True, w, top)
        if chain.first_regular(_candidate_forms(ring, rng)):
            continue
        bound = _socle_bound(chain.gb)
        w = socle_witness(chain.gb, bound)
        if w is None:
            bound *= 2
            w = socle_witness(chain.gb, bound)
        return chain.report(seed, w is not None, w, bound)
    return chain.report(seed, True)
