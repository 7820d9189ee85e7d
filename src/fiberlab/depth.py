"""Depth of standard graded quotients by exact regular-element descent.

A homogeneous form theta of degree c is a nonzerodivisor on A = S/J
exactly when the Hilbert numerators satisfy N_{J+(theta)} =
(1 - t^c) * N_J, and quotienting a graded ring by a regular form drops
depth by exactly one.  So the engine cuts by candidate linear forms
whose regularity is certified by that numerator identity (no
genericity needed for soundness), and certifies the final depth-0 stage
by exhibiting a socle element: a nonzero h with h * x_i in J for all i.

A stage whose quotient A has dimension 1 makes one parameter cut by a
dense linear form theta.  If theta is not regular, K = 0 :_A theta has
the series (H_{A/theta A} - (1 - t) H_A) / t, read off the two series the
cut already computed.  When K has dimension 0, theta is a parameter and
K, nonzero of finite length, lies in H^0_m(A), so depth A = 0; the top
degree of K is killed by every variable, so the socle search through
that degree must find a witness.  The socle lies in K (h * x_i = 0 for
every i gives h * theta = 0), so the search skips the degrees where K
is 0.  Only when K has dimension 1 (theta in a one-dimensional
associated prime) does the stage try the candidate schedule.  Searching
the socle before any cut costs far more where the stage is regular: a
failed search runs to its full degree bound.

A form whose cut failed is not cut again later in the same descent.  If
x * a = 0 in A with a != 0 homogeneous and theta is a regular form, write
a = theta^k * a' with a' not in theta * A; then x * a' = 0, so x is a
zero-divisor on A/theta A too.  The schedule still draws every
candidate, so the seeded draws, and with them the regular forms and the
witness, stay the same.  The cuts of one descent share one memo of the
Hilbert recursion, dropped when the descent returns (D12).

Most candidates that fail are caught before any cut, by the stage's own
reduced basis.  If a variable x_i divides every term of a basis element
g, then h = g / x_i is not in J (lt(h) properly divides lt(g), a minimal
generator of in(J)) and x_i * h = g is.  A form all of whose variables
kill h has theta * h in J, so it is a zero-divisor (Bruns-Herzog 1.2):
the candidate loop skips it as it skips a failed form, and its cut would
have failed.  The cut path stays for every regular form and for the
failures no such element catches, and the schedule still draws every
candidate, so no report moves (D19).

The socle witness, taken relative to a subset of the variables, ends the
grade search: grade(I, A) = 0 exactly when (0 :_A I) != 0 (Bruns-Herzog,
Cohen-Macaulay Rings, 1.2.5).  The search follows a failed cut by a
linear form in those variables, and skips the degrees where that form's
annihilator is 0, for the same reason.

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
    """Outcome of the descent; ``exact`` is False only when neither a
    regular form nor a socle witness could be found within bounds."""

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
    that the cuts of one descent share; the descent drops it when it
    returns."""
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
    memo = {}
    hs = series_of_basis(gb, memo)
    forms = list(forms)[:bound]
    for k, theta in enumerate(forms):
        ok, gb, hs = regular_cut(gb, hs, theta, memo)
        if not ok:
            return k
    return len(forms)


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


def bounded_ideal_grade(gb: GroebnerBasis, var_range, *, seed="grade:1") -> dict:
    """Grade on S/ideal of the ideal generated by the given variables.

    Every cut is certified by the numerator identity, so the value is a
    lower bound.  Each stage draws its seeded candidates, then tries the
    first random linear form.  When that form is not regular, a relative
    socle witness (h not in J', h * x_i in J' for every i in var_range),
    searched in the degrees where the form's annihilator is nonzero,
    shows that every element of the ideal is a zero-divisor, and the
    value is exact.  Without a witness the stage tries the variables and
    the other candidates, through degree ``GRADE_CANDIDATE_DEGREE``; a stop
    there is only bounded, and "exact" is False.
    """
    ring = gb.ring
    field = ring.field
    rng = random.Random(str(seed))
    var_range = list(var_range)
    forms = []
    memo = {}
    cur_gb, cur_hs = gb, series_of_basis(gb, memo)

    def result(witness):
        return {"value": len(forms), "candidate_degree_bound": GRADE_CANDIDATE_DEGREE,
                "seed": str(seed), "exact": witness is not None,
                "regular_forms": forms, "witness": witness}

    while True:
        base = [ring.variable(i) for i in var_range]
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
            ok, ngb, nhs = regular_cut(cur_gb, cur_hs, linear[0], memo)
            if ok:
                forms.append(linear[0])
                cur_gb, cur_hs = ngb, nhs
                continue
            w = socle_witness(cur_gb, _socle_bound(cur_gb), var_range=var_range,
                              within=annihilator_series(cur_hs, nhs))
            if w is not None:
                return result(w)
        for theta in base + linear[1:] + higher:
            ok, ngb, nhs = regular_cut(cur_gb, cur_hs, theta, memo)
            if ok:
                forms.append(theta)
                cur_gb, cur_hs = ngb, nhs
                break
        else:
            return result(None)


class _AnnihilatedElements:
    """Elements h = g / x_i of S/J, one for each element g of J's reduced
    basis and each variable x_i that divides every term of g, and the
    variables that kill them (D19).

    h is not in J: lt(h) properly divides lt(g), a minimal generator of
    in(J).  x_i * h = g is in J.  ``kills`` computes nf(x_j * h) once per
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


def graded_depth(ideal_or_gb, *, seed="depth:1") -> DepthReport:
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
    memo = {}
    hs = series_of_basis(gb, memo)
    dim_total = hs.dimension
    if dim_total < 0:
        raise ValueError("depth of the zero ring is undefined")

    depth = 0
    forms = []
    # forms whose cut failed: zero-divisors at every later stage too
    zero_divisors = set()
    cur_gb, cur_hs = gb, hs
    while True:
        if depth >= dim_total:
            return DepthReport(depth, dim_total, True, forms, None, 0, str(seed))
        if cur_hs.dimension == 1:
            # one parameter cut: regular, or its annihilator ends the descent
            theta = _dense_form(ring, rng)
            ok, new_gb, new_hs = regular_cut(cur_gb, cur_hs, theta, memo)
            if ok:
                forms.append(theta)
                cur_gb, cur_hs = new_gb, new_hs
                depth += 1
                continue
            zero_divisors.add(theta)
            kernel = annihilator_series(cur_hs, new_hs)
            if kernel.dimension == 0:
                top = max(kernel.reduced()[0])
                w = socle_witness(cur_gb, top, within=kernel)
                if w is None:
                    raise AssertionError(f"no socle element through degree {top}, "
                                         "the top degree of a finite-length 0 :_A theta")
                return DepthReport(depth, dim_total, True, forms, w, top, str(seed))
        bound = _socle_bound(cur_gb)
        found_regular = False
        if cur_hs.dimension > 0:
            annihilated = _AnnihilatedElements(cur_gb)
            for theta in _candidate_forms(ring, rng):
                if theta in zero_divisors:
                    continue
                if annihilated.kills(theta):
                    zero_divisors.add(theta)
                    continue
                ok, new_gb, new_hs = regular_cut(cur_gb, cur_hs, theta, memo)
                if ok:
                    forms.append(theta)
                    cur_gb, cur_hs = new_gb, new_hs
                    depth += 1
                    found_regular = True
                    break
                zero_divisors.add(theta)
        if found_regular:
            continue
        w = socle_witness(cur_gb, bound)
        if w is None:
            bound *= 2
            w = socle_witness(cur_gb, bound)
        if w is not None:
            return DepthReport(depth, dim_total, True, forms, w, bound, str(seed))
        return DepthReport(depth, dim_total, False, forms, None, bound, str(seed))
