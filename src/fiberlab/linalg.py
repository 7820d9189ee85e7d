"""Exact dense linear algebra over F_p and Q, on numpy rows.

Everything returns canonical reduced row-echelon data so that callers
(graded pieces, resolutions, kernels) are deterministic.

One block kernel does the work over both fields, after Dumas, Giorgi and
Pernet (FFLAS-FFPACK, 2008): a block of rows is reduced against the
basis with a matrix product, eliminated within the block, live rows
only, and back-substituted into the basis with another.  Rows are numpy
arrays of dtype ``_dtype(p)`` everywhere; this module alone knows the
field, in five places: that dtype, ``_residues``, ``_submul``, the pivot
steps of ``_gauss_jordan`` and the reduction steps of ``multiply_rows``,
which builds the rows of products from the rows of their factors, all
their columns or only the columns asked for (the pivot columns of a
piece that holds the products, where their rank can be read:
``docs/decisions.md`` D16).  ``independent_rows`` keeps the rows of
blocks that add to the span, with the pivots of their echelon basis.
``normal_form_rows`` multiplies rows by a normal-form matrix through the
reduction recursion that defines it, one coefficient matrix per level:
pushed down, or by the matrix that ``normal_form_matrix`` builds
forward; their products are ``_submul`` calls too, so they add no sixth
place.

Over F_p residues in [0, p) sit in float64 arrays, and reduction mod p
waits until a product is complete.  This is exact: a product sums
nonnegative terms, so while the total is an integer below 2**53 every
partial sum is too, in any order of summation.  The inner dimension of
a product is therefore cut into chunks of (2**53 - p) // (p - 1)**2
terms: 8.6M at p = 32003, 2 at p = 67108859, the largest prime below
``fields.MAX_PRIME`` = 2**26.  Residues are x - p*floor(x/p), exact for
integers |x| <= 2**53 - p (see ``_residues``).  Every product is one
``@`` on one OpenBLAS thread: the products are panels of at most
``_BLOCK`` rows, too thin to pay for a thread pool, so the module sets
OPENBLAS_NUM_THREADS to 1 before numpy loads, unless it is set already
(``docs/decisions.md`` D13).

Over Q rows are ``object`` arrays of ``Fraction`` (and the exact integer
zeros of ``zeros``).  An operation on an entry costs a Python call
whether the entry is zero or not, so a product skips the zero
coefficients of each row and an elimination step touches only the
nonzero columns of its pivot row: with dense products instead, the
QQ oracle tests take four times as long (``docs/decisions.md`` D8).
"""

from __future__ import annotations

import os
from fractions import Fraction
from itertools import islice

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")     # read once, when numpy loads

import numpy as np  # noqa: E402

from .fields import FieldSpec

_EXACT = 1 << 53        # float64 represents every integer up to here
_BLOCK = 64             # rows per block in ``Echelon.extend`` and ``reduce``
_GATHER = 1 << 16       # most entries in one gather of ``normal_form_rows``


def _dtype(p: int):
    """The row dtype: float64 residues over F_p, ``Fraction`` objects over Q."""
    return np.float64 if p else object


def _residues(x: np.ndarray, p: int) -> np.ndarray:
    """``x`` mod p in [0, p), in place; exact for integers |x| <= 2**53 - p.
    Over Q (p = 0) ``x`` itself.

    x/p is rounded by at most half an ulp, which is below 1/p, while a
    quotient that is not an integer lies at least 1/p from every integer;
    so floor(x/p) is exact, and so are p*floor(x/p) and the difference."""
    if not p:
        return x
    q = np.divide(x, p)
    x -= np.multiply(np.floor(q, out=q), p, out=q)
    return x


def _submul(b: np.ndarray, terms, p: int) -> np.ndarray:
    """Residues of b - sum(c @ m for c, m in terms), for residues b, c, m;
    ``b`` is left as it is.

    Over F_p products add up unreduced while they hold at most
    (2**53 - p) // (p - 1)**2 inner terms.  Over Q each row of c meets
    only the rows of m at its nonzero coefficients."""
    if not p:
        b = b.copy()
        for c, m in terms:
            for i, row in enumerate(c):
                nz = np.flatnonzero(row)
                if nz.size:
                    b[i] -= row[nz] @ m[nz]
        return b
    step = (_EXACT - p) // (p - 1) ** 2
    acc, count = None, 0
    for c, m in terms:
        for s in range(0, c.shape[1], step):
            cs, ms = c[:, s:s + step], m[s:s + step]
            if count + cs.shape[1] > step:
                b, acc, count = _residues(np.subtract(b, acc, out=acc), p), None, 0
            prod = cs @ ms
            acc = prod if acc is None else np.add(acc, prod, out=acc)
            count += cs.shape[1]
    return b if acc is None else _residues(np.subtract(b, acc, out=acc), p)


def _gauss_jordan(block: np.ndarray, p: int):
    """Reduce the rows of ``block``, residues, to RREF among themselves in
    row order; rows dependent on earlier ones end zero.  Returns a flag
    per row, True where it was independent, those rows reduced, and
    their pivots.

    A row that is zero on entry stays zero, so only the live rows are
    visited and eliminated, in place when every row is live and in a
    copy of them otherwise.  A pivot's column is gathered only where
    another row can be nonzero: a column nonzero in two rows on entry,
    or in a pivot row that has updated other rows.  A row's residues are
    taken only once an update has touched it.  The update subtracts the
    pivot row times its column scaled by the pivot's inverse, and the
    pivot rows are scaled once, at the end.  Over F_p an update
    subtracts at most (p - 1)**2 from each other row, so the rows are
    reduced only every (2**53 - p) // (p - 1)**2 updates.  Over Q a step
    changes only the pivot row's nonzero columns."""
    step = (_EXACT - p) // (p - 1) ** 2
    live = np.flatnonzero(block.any(axis=1))
    rows = block if len(live) == len(block) else block[live]
    meet = np.count_nonzero(rows, axis=0) > 1    # columns two rows may share
    touched = np.zeros(len(rows), dtype=bool)
    grew = np.zeros(len(rows), dtype=bool)
    pivots, inverses, updates = [], [], 0
    for i, row in enumerate(rows):
        nz = np.flatnonzero(_residues(row, p) if touched[i] else row)
        if not nz.size:
            continue
        c = int(nz[0])
        inv = pow(int(row[c]), -1, p) if p else 1 / Fraction(row[c])
        grew[i] = True
        pivots.append(c)
        inverses.append(inv)
        if not meet[c]:
            continue
        col = _residues(rows[:, c].copy(), p)
        col[i] = 0
        hit = np.flatnonzero(col)
        if not hit.size:
            continue
        if updates and updates % step == 0:
            _residues(rows, p)
        updates += 1
        scale = _residues(np.multiply(col[hit], inv), p)
        if p:
            rows[hit] -= np.outer(scale, row)
        else:
            rows[np.ix_(hit, nz)] -= np.outer(scale, row[nz])
        touched[hit] = True
        meet[nz] = True
    flags = np.zeros(len(block), dtype=bool)
    flags[live[grew]] = True
    out = _residues(rows[grew], p)
    scales = np.array(inverses, dtype=_dtype(p))[:, None]
    return flags, _residues(np.multiply(out, scales, out=out), p), pivots


class Echelon:
    """Incrementally maintained reduced row-echelon basis of a subspace.

    Rows are kept fully reduced (RREF), so the row set is a canonical
    invariant of the subspace and ``reduce`` is a normal form.  ``rows``
    and ``pivots`` list them in pivot order.  The rows are kept in
    insertion order as panels of at most ``_BLOCK`` rows: growth appends
    a panel instead of copying the basis, and an update replaces a panel
    instead of changing it.
    """

    def __init__(self, field: FieldSpec, width: int):
        self.field = field
        self.width = width
        self._panels = []
        self._panel_pivots = []

    @property
    def rank(self) -> int:
        return len(self.pivots)

    @property
    def pivots(self) -> np.ndarray:
        """Pivot columns, ascending."""
        return np.sort(self._insertion_pivots())

    @property
    def rows(self) -> np.ndarray:
        """Basis rows in pivot order, as a new array."""
        return self._ordered(np.arange(self.width))

    def _insertion_pivots(self) -> np.ndarray:
        return np.concatenate([np.zeros(0, dtype=np.intp), *self._panel_pivots])

    def _ordered(self, cols) -> np.ndarray:
        """Columns ``cols`` of the basis rows in pivot order, as a new array."""
        at = np.argsort(np.argsort(self._insertion_pivots()))
        out = np.empty((len(at), len(cols)), dtype=_dtype(self.field.characteristic))
        start = 0
        for panel in self._panels:
            out[at[start:start + len(panel)]] = panel[:, cols]
            start += len(panel)
        return out

    def _block(self, rows) -> np.ndarray:
        p = self.field.characteristic
        return _residues(np.array(rows, dtype=_dtype(p)), p)

    def _reduce_block(self, block: np.ndarray) -> np.ndarray:
        # In RREF the coefficient of basis row i in a residual is the
        # entry at pivot i, and subtracting row i leaves the other pivot
        # entries alone, so all coefficients are read off the block as
        # given and the products are subtracted together.
        terms = ((block[:, pivots], panel)
                 for panel, pivots in zip(self._panels, self._panel_pivots))
        return _submul(block, (t for t in terms if t[0].any()), self.field.characteristic)

    def _insert(self, rows: np.ndarray, pivots: np.ndarray) -> None:
        """Back-substitute new RREF rows (zero in the current pivots) into
        the basis, then append them, topping up the last panel."""
        p = self.field.characteristic
        for i, panel in enumerate(self._panels):
            coeffs = panel[:, pivots]
            if coeffs.any():
                self._panels[i] = _submul(panel, [(coeffs, rows)], p)
        if self._panels and len(self._panels[-1]) < _BLOCK:
            rows = np.concatenate([self._panels.pop(), rows])
            pivots = np.concatenate([self._panel_pivots.pop(), pivots])
        for s in range(0, len(rows), _BLOCK):
            self._panels.append(rows[s:s + _BLOCK])
            self._panel_pivots.append(pivots[s:s + _BLOCK])

    def reduce(self, vec) -> np.ndarray:
        """Residual of the vector ``vec`` modulo the current row space.
        Given a 2-D array or any other iterable of rows, the residuals of
        the rows as one array, read one block at a time as in ``extend``."""
        if np.ndim(vec) == 1:
            return self.reduce([vec])[0]
        blocks = []
        vec = iter(vec)
        while rows := list(islice(vec, _BLOCK)):
            blocks.append(self._reduce_block(self._block(rows)))
        if not blocks:
            return zeros(self.field, (0, self.width))
        return np.concatenate(blocks)

    def add(self, vec) -> bool:
        """Insert ``vec``; returns True if the rank grew."""
        return self.extend([vec])[0]

    def extend(self, vectors) -> list:
        """Insert the rows of ``vectors`` (any iterable) in order; one flag
        per row, True where the rank grew (as for a sequence of ``add``
        calls).  Rows are read one block at a time."""
        flags = []
        vectors = iter(vectors)
        while rows := list(islice(vectors, _BLOCK)):
            block = self._reduce_block(self._block(rows))
            grew, new, pivots = _gauss_jordan(block, self.field.characteristic)
            if pivots:
                self._insert(new, np.array(pivots, dtype=np.intp))
            flags.extend(grew.tolist())
        return flags


def zeros(field: FieldSpec, shape) -> np.ndarray:
    """Zero rows of the field's dtype, to fill with raw values."""
    return np.zeros(shape, dtype=_dtype(field.characteristic))


def raw_rows(rows, field: FieldSpec) -> np.ndarray:
    """Raw values (any nested sequence) as rows of the field's dtype, made
    once for rows that enter many products."""
    return np.asarray(rows, dtype=_dtype(field.characteristic))


class Recursion:
    """A normal-form recursion as index arrays (``reduction_recursion``)
    over ``size`` monomials, of which those at the positions ``standard``
    are standard.  Each entry of ``levels`` is one run of members of a level,
    as (members, targets, cells, positions): N[members] = -K @ N[targets]
    for the coefficient matrix K (members x targets) whose entry at each
    term's cell, row-major, is the coefficient at its position."""

    __slots__ = ("size", "standard", "levels")

    def __init__(self, size: int, standard: np.ndarray, levels: list):
        self.size = size
        self.standard = standard
        self.levels = levels


def reduction_recursion(size: int, standard, levels) -> Recursion:
    """The normal-form recursion over ``size`` monomials, with the
    positions ``standard`` of the standard monomials, for
    ``normal_form_rows``.  ``levels`` lists the levels 1, 2, ..., each as
    (members, counts, sources, positions): member i, a monomial, has
    counts[i] >= 1 terms, the next counts[i] entries of ``sources`` and
    ``positions``, and the row N[member] = -sum c[position] * N[source]
    over them, every source of a lower level.

    The members of one level read no row of their own level, so a level
    may be split anywhere.  It is split into runs of whole members where
    members x max(terms, standard monomials) would pass ``_GATHER``, which
    bounds each K and the members' rows (a run of one member excepted)."""
    width = len(standard)
    firsts, run = [], []    # the first member of each run; each member's run
    for members, counts, sources, _ in levels:
        firsts.append(len(run))
        a, terms = 0, 0
        for i, count in enumerate(counts):
            terms += count
            if i > a and (i + 1 - a) * max(terms, width) > _GATHER:
                firsts.append(len(run))
                a, terms = i, count
            run.append(len(firsts) - 1)
    members, counts, sources, positions = (
        np.asarray([v for level in levels for v in level[i]], dtype=np.intp) for i in range(4))
    run, firsts = np.asarray(run, dtype=np.intp), np.asarray(firsts, dtype=np.intp)
    term_run = np.repeat(run, counts)
    row = np.repeat(np.arange(len(members)) - firsts[run], counts)
    keys, column = np.unique(term_run * size + sources, return_inverse=True)
    breadth = np.bincount(keys // size, minlength=len(firsts))     # targets per run
    first_target = np.cumsum(breadth) - breadth
    cells = row * breadth[term_run] + column - first_target[term_run]
    first_term = (np.cumsum(counts) - counts)[firsts]
    m, t, v = (np.append(starts, total).tolist() for starts, total in
               ((firsts, len(members)), (first_target, len(keys)), (first_term, len(sources))))
    runs = [(members[m[i]:m[i + 1]], keys[t[i]:t[i + 1]] % size, cells[v[i]:v[i + 1]],
             positions[v[i]:v[i + 1]]) for i in range(len(firsts))]
    return Recursion(size, np.asarray(standard, dtype=np.intp), runs)


def _levels(rec: Recursion, coefficients, field: FieldSpec, width: int, downward: bool):
    """Each run of the recursion's levels, top level first when
    ``downward``, as its members and the pieces (K[:, s], targets[s]) of
    its coefficient matrix K, the targets taken in pieces of at most
    ``_GATHER`` entries of rows ``width`` wide."""
    span = max(_GATHER // max(width, 1), 1)
    for members, targets, cells, positions in (reversed(rec.levels) if downward
                                                else rec.levels):
        k = zeros(field, (members.size, targets.size))
        k.flat[cells] = coefficients[positions]
        yield members, [(k[:, s:s + span], targets[s:s + span])
                        for s in range(0, targets.size, span)]


def normal_form_matrix(rec: Recursion, coefficients, field: FieldSpec) -> np.ndarray:
    """The normal-form matrix N whose recursion ``rec`` holds (see
    ``normal_form_rows``), built forward, one product per level."""
    p = field.characteristic
    width = len(rec.standard)
    values = zeros(field, (rec.size, width))
    values[rec.standard, np.arange(width)] = 1
    for members, pieces in _levels(rec, coefficients, field, width, False):
        values[members] = _submul(zeros(field, (members.size, width)),
                                  [(ks, values[at]) for ks, at in pieces], p)
    return values


def normal_form_rows(rows, rec: Recursion, coefficients, field: FieldSpec,
                     matrix=None) -> np.ndarray:
    """rows · N, for residue rows over the ``rec.size`` monomials and the
    normal-form matrix N whose recursion ``rec`` holds: N[m] is the unit
    row of m for a standard monomial, -sum c * N[source] over its terms
    for a member (c read off ``coefficients``), and zero for any other
    monomial.

    Given ``matrix``, N itself (``normal_form_matrix``), the rows are
    multiplied by it.  Otherwise they are pushed down: the recursion runs
    backwards, top level first, and the columns of the rows at each
    level's targets lose K^T times those at its members, so that rows · N
    is read off the standard monomials without N (the transposition
    principle; ``docs/decisions.md`` D15).  Every product is one
    ``_submul``, so both are exact over both fields; the targets are
    taken in pieces of at most ``_GATHER`` gathered entries."""
    p = field.characteristic
    rows = np.asarray(rows, dtype=_dtype(p))
    if matrix is None:
        values = rows.T.copy()
        for members, pieces in _levels(rec, coefficients, field, len(rows), True):
            read = values[members]
            for ks, at in pieces:
                values[at] = _submul(values[at], [(ks.T, read)], p)
        return values[rec.standard].T
    out = _submul(zeros(field, (len(rows), len(rec.standard))), [(rows, matrix)], p)
    return _residues(np.negative(out, out=out), p)


def index_array(columns) -> np.ndarray:
    """A sequence of column indices as the index array ``multiply_rows``
    takes, to be made once and cached by the caller."""
    return np.asarray(columns, dtype=np.intp)


def multiply_rows(rows, forms, width: int, field: FieldSpec, columns=None) -> np.ndarray:
    """The rows (residues, or any nested sequence of them) times the
    multiplication matrix of each form, stacked form after form, as rows
    of ``width`` columns.  A form is given as one (columns, raw
    coefficient) pair per term c*t: entry k of a row lands at
    ``columns[k]`` times c.  The columns of one term are distinct, so each
    term is one vectorized scatter-add; it runs on the transposes, where
    it moves whole rows, three times as fast as moving columns.

    With ``columns``, a sequence of distinct columns of the products, only
    those are made, in that order: each term reads the output position of
    its columns, -1 where a column is not needed, and moves only the
    entries that land on one.

    Over F_p a term adds at most (p - 1)**2 to an entry, so the sums are
    reduced once they hold (2**53 - p) // (p - 1)**2 such terms, a
    residue counting as one: the bound of ``_submul``.  Over Q the rows
    are ``Fraction`` objects."""
    p = field.characteristic
    by_column = np.asarray(rows, dtype=_dtype(p)).T.copy()
    term = np.empty_like(by_column)
    at = None
    if columns is not None:
        at = np.full(width, -1, dtype=np.intp)
        at[np.asarray(columns, dtype=np.intp)] = np.arange(len(columns))
        width = len(columns)
    step = (_EXACT - p) // (p - 1) ** 2 if p else None
    blocks = []
    for terms in forms:
        block, load = zeros(field, (width, by_column.shape[1])), 0
        for cols, c in terms:
            if load == step:    # never over Q
                _residues(block, p)
                load = 1
            if at is None:
                block[cols] += np.multiply(by_column, c, out=term)
            else:
                to = at[cols]
                hit = np.flatnonzero(to >= 0)
                block[to[hit]] += np.multiply(by_column[hit], c)
            load += 1
        blocks.append(_residues(block, p).T)
    return np.concatenate(blocks) if blocks else zeros(field, (0, width))


def independent_rows(blocks, field: FieldSpec, width: int):
    """The rows of the blocks (arrays of rows, read in order) that are
    independent of the rows before them, as one array: a basis of their
    span made of their own rows.  Also, per block, the number of rows
    kept from it and the blocks before it, and the pivot columns of the
    span's reduced echelon basis, ascending."""
    e = Echelon(field, width)
    kept = [block[e.extend(block)] for block in blocks]
    rows = np.concatenate(kept) if kept else zeros(field, (0, width))
    return rows, np.cumsum([len(k) for k in kept], dtype=np.intp).tolist(), e.pivots


def sparse_rows(entries, ncols: int, field: FieldSpec):
    """Dense rows from per-row lists of (column, raw value) pairs, made one
    at a time, so that no sparse matrix is ever held dense; values at the
    same column add up."""
    for pairs in entries:
        vec = zeros(field, ncols)
        for j, v in pairs:
            vec[j] += v
        yield vec


def echelon_from_rows(rows, field: FieldSpec, width: int) -> Echelon:
    e = Echelon(field, width)
    e.extend(rows)
    return e


def rank_of_rows(rows, field: FieldSpec, width: int) -> int:
    return echelon_from_rows(rows, field, width).rank


def nullspace(rows, field: FieldSpec, width: int) -> np.ndarray:
    """Canonical kernel basis of the linear map with the given matrix rows.

    Solves A x = 0 where A has ``width`` columns; each basis vector has a
    1 in its defining free coordinate.  The basis is the rows of an array
    (test it with ``len``)."""
    e = echelon_from_rows(rows, field, width)
    pivots = e.pivots
    free = np.ones(width, dtype=bool)
    free[pivots] = False
    free = np.flatnonzero(free)     # not setdiff1d, which loads numpy.ma
    r_free = e._ordered(free)
    del e   # the basis goes before the kernel is allocated: a lower peak
    kernel = zeros(field, (len(free), width))
    kernel[np.arange(len(free)), free] = 1
    kernel[:, pivots] = _residues(np.negative(r_free, out=r_free), field.characteristic).T
    return kernel
