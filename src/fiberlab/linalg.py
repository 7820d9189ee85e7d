"""Exact dense linear algebra over F_p (numpy float64) and Q (Fraction).

Everything returns canonical reduced row-echelon data so that callers
(graded pieces, resolutions, kernels) are deterministic.

Over F_p one block kernel does the work, after Dumas, Giorgi and Pernet
(FFLAS-FFPACK, 2008): residues in [0, p) sit in float64 arrays, a block
of rows is reduced against the basis with a matrix product, eliminated
within the block, and back-substituted into the basis with another, and
reduction mod p waits until a product is complete.  This is exact: a
product sums nonnegative terms, so while the total is an integer below
2**53 every partial sum is too.  The inner dimension of a product is
therefore cut into chunks of (2**53 - p) // (p - 1)**2 terms: 8.6M at
p = 32003, 2 at p = 67108859, the largest prime below
``fields.MAX_PRIME`` = 2**26.  Residues are x - p*floor(x/p), exact for
integers |x| <= 2**53 - p (see ``_residues``).  Over Q rows stay lists
of ``Fraction`` reduced one at a time.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice

import numpy as np

from .fields import FieldSpec

_EXACT = 1 << 53        # float64 represents every integer up to here
_BLOCK = 64             # rows per block in ``Echelon.extend`` and ``reduce``
_BLAS_MIN = 8           # thinner products run as einsum, off the BLAS thread pool


def _residues(x: np.ndarray, p: int) -> np.ndarray:
    """``x`` mod p in [0, p), in place; exact for integers |x| <= 2**53 - p.

    x/p is rounded by at most half an ulp, which is below 1/p, while a
    quotient that is not an integer lies at least 1/p from every integer;
    so floor(x/p) is exact, and so are p*floor(x/p) and the difference."""
    q = np.divide(x, p)
    x -= np.multiply(np.floor(q, out=q), p, out=q)
    return x


def _submul(b: np.ndarray, terms, p: int) -> np.ndarray:
    """Residues of b - sum(c @ m for c, m in terms), for residues b, c, m.

    Products add up unreduced while they hold at most (2**53 - p) //
    (p - 1)**2 inner terms; thin ones go through einsum, because OpenBLAS
    wakes its thread pool for them too, at a cost of milliseconds on a
    busy host."""
    step = (_EXACT - p) // (p - 1) ** 2
    acc, count = None, 0
    for c, m in terms:
        for s in range(0, c.shape[1], step):
            cs, ms = c[:, s:s + step], m[s:s + step]
            if count + cs.shape[1] > step:
                b, acc, count = _residues(np.subtract(b, acc, out=acc), p), None, 0
            if min(cs.shape) >= _BLAS_MIN:
                prod = cs @ ms
            else:
                prod = np.einsum("ik,kj->ij", cs, ms)
            acc = prod if acc is None else np.add(acc, prod, out=acc)
            count += cs.shape[1]
    return b if acc is None else _residues(np.subtract(b, acc, out=acc), p)


def _gauss_jordan(block: np.ndarray, p: int):
    """Reduce the rows of ``block`` to RREF among themselves, in place and
    in row order; rows dependent on earlier ones end zero.  Returns a
    flag per row, True where it was independent, and the new pivots.

    A pivot subtracts at most (p - 1)**2 from each other row, so the
    block is reduced only every (2**53 - p) // (p - 1)**2 pivots."""
    step = (_EXACT - p) // (p - 1) ** 2
    grew = np.zeros(len(block), dtype=bool)
    pivots = []
    for i, row in enumerate(block):
        nz = np.flatnonzero(_residues(row, p))
        if not nz.size:
            continue
        c = int(nz[0])
        _residues(np.multiply(row, pow(int(row[c]), -1, p), out=row), p)
        if pivots and len(pivots) % step == 0:
            _residues(block, p)
        col = _residues(block[:, c].copy(), p)
        col[i] = 0
        hit = np.flatnonzero(col)
        block[hit] -= np.outer(col[hit], row)
        grew[i] = True
        pivots.append(c)
    _residues(block, p)
    return grew, pivots


class Echelon:
    """Incrementally maintained reduced row-echelon basis of a subspace.

    Rows are kept fully reduced (RREF), so the row set is a canonical
    invariant of the subspace and ``reduce`` is a normal form.  ``rows``
    and ``pivots`` list them in pivot order.  Over F_p the rows are kept
    in insertion order as float64 panels of at most ``_BLOCK`` rows:
    growth appends a panel instead of copying the basis, and an update
    replaces a panel instead of changing it, so copies share panels.
    """

    def __init__(self, field: FieldSpec, width: int):
        self.field = field
        self.width = width
        if field.characteristic:
            self._panels = []
            self._panel_pivots = []
        else:
            self._rows = []
            self._pivots = []

    @property
    def rank(self) -> int:
        return len(self.pivots)

    @property
    def pivots(self):
        """Pivot columns, ascending."""
        if self.field.characteristic:
            return np.sort(self._insertion_pivots())
        return self._pivots

    @property
    def rows(self):
        """Basis rows in pivot order; over F_p a new float64 array."""
        if self.field.characteristic:
            return self._ordered(np.arange(self.width))
        return self._rows

    def row_blocks(self):
        """The basis rows in blocks, in no fixed order; shared, not copied."""
        if self.field.characteristic:
            return iter(self._panels)
        return iter([self._rows] if self._rows else [])

    def _insertion_pivots(self) -> np.ndarray:
        return np.concatenate([np.zeros(0, dtype=np.intp), *self._panel_pivots])

    def _ordered(self, cols) -> np.ndarray:
        """Columns ``cols`` of the basis rows in pivot order, as a new array."""
        at = np.argsort(np.argsort(self._insertion_pivots()))
        out = np.empty((len(at), len(cols)))
        start = 0
        for panel in self._panels:
            out[at[start:start + len(panel)]] = panel[:, cols]
            start += len(panel)
        return out

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

    def _reduce_qq(self, vec):
        vec = [Fraction(v) for v in vec]
        for pos, row in zip(self._pivots, self._rows):
            c = vec[pos]
            if c:
                vec = [a - c * b for a, b in zip(vec, row)]
        return vec

    def _add_qq(self, vec) -> bool:
        vec = self._reduce_qq(vec)
        pos = next((i for i, v in enumerate(vec) if v != 0), None)
        if pos is None:
            return False
        inv = 1 / vec[pos]
        vec = [v * inv for v in vec]
        for i, row in enumerate(self._rows):
            c = row[pos]
            if c:
                self._rows[i] = [a - c * b for a, b in zip(row, vec)]
        at = next((i for i, q in enumerate(self._pivots) if q > pos), len(self._pivots))
        self._rows.insert(at, vec)
        self._pivots.insert(at, pos)
        return True

    def reduce(self, vec):
        """Residual of the vector ``vec`` modulo the current row space.
        Given a 2-D array or any other iterable of rows, the residuals of
        the rows, read one block at a time as in ``extend``: one array
        over F_p, a list of rows over Q."""
        p = self.field.characteristic
        if np.ndim(vec) == 1:
            return self.reduce([vec])[0]
        if not p:
            return [self._reduce_qq(v) for v in vec]
        blocks = []
        vec = iter(vec)
        while rows := list(islice(vec, _BLOCK)):
            blocks.append(self._reduce_block(
                _residues(np.array(rows, dtype=np.float64), p)))
        return np.concatenate(blocks) if blocks else np.zeros((0, self.width))

    def contains(self, vec) -> bool:
        return not np.any(self.reduce(vec))

    def add(self, vec) -> bool:
        """Insert ``vec``; returns True if the rank grew."""
        return self.extend([vec])[0]

    def extend(self, vectors) -> list:
        """Insert the rows of ``vectors`` (any iterable) in order; one flag
        per row, True where the rank grew (as for a sequence of ``add``
        calls).  Rows are read one block at a time."""
        p = self.field.characteristic
        if not p:
            return [self._add_qq(v) for v in vectors]
        flags = []
        vectors = iter(vectors)
        while rows := list(islice(vectors, _BLOCK)):
            block = self._reduce_block(_residues(np.array(rows, dtype=np.float64), p))
            grew, pivots = _gauss_jordan(block, p)
            if pivots:
                self._insert(block[grew], np.array(pivots, dtype=np.intp))
            flags.extend(grew.tolist())
        return flags

    def copy(self) -> "Echelon":
        """Independent copy; rows are shared, since they are replaced
        instead of changed."""
        other = Echelon(self.field, self.width)
        if self.field.characteristic:
            other._panels = list(self._panels)
            other._panel_pivots = list(self._panel_pivots)
        else:
            other._rows = list(self._rows)
            other._pivots = list(self._pivots)
        return other


def zero_vector(field: FieldSpec, n: int):
    """Zero vector to fill with raw values: float64 over F_p, a list over Q."""
    return np.zeros(n) if field.characteristic else [field.zero] * n


def negated_product(a, b, field: FieldSpec, width: int):
    """-(a @ b) for raw matrices a (r x k) and b (k x ``width``): float64
    residues over F_p, exact for every p up to ``fields.MAX_PRIME`` (one
    ``_submul``), lists of ``Fraction`` rows over Q."""
    p = field.characteristic
    if p:
        a = np.asarray(a, dtype=np.float64)
        out = np.zeros((len(a), width))
        return _submul(out, [(a, b)], p) if a.size else out
    out = []
    for row in a:
        acc = [Fraction(0)] * width
        for c, brow in zip(row, b):
            if c:
                acc = [x - c * y for x, y in zip(acc, brow)]
        out.append(acc)
    return out


def sparse_rows(entries, ncols: int, field: FieldSpec):
    """Dense rows from per-row lists of (column, raw value) pairs, made one
    at a time, so that no sparse matrix is ever held dense; values at the
    same column add up."""
    for pairs in entries:
        vec = zero_vector(field, ncols)
        for j, v in pairs:
            vec[j] += v
        yield vec


def echelon_from_rows(rows, field: FieldSpec, width: int) -> Echelon:
    e = Echelon(field, width)
    e.extend(rows)
    return e


def rank_of_rows(rows, field: FieldSpec, width: int) -> int:
    return echelon_from_rows(rows, field, width).rank


def nullspace(rows, field: FieldSpec, width: int):
    """Canonical kernel basis of the linear map with the given matrix rows.

    Solves A x = 0 where A has ``width`` columns; each basis vector has a
    1 in its defining free coordinate.  Over F_p the basis is the rows of
    a float64 array of residues (test it with ``len``); over Q a list.
    """
    e = echelon_from_rows(rows, field, width)
    pivots = e.pivots
    free = np.setdiff1d(np.arange(width), pivots)
    p = field.characteristic
    if not p:
        basis = []
        for j in free:
            vec = [field.zero] * width
            vec[j] = field.one
            for pc, row in zip(pivots, e.rows):
                if row[j]:
                    vec[pc] = -row[j]
            basis.append(vec)
        return basis
    r_free = e._ordered(free)
    del e   # the basis goes before the kernel is allocated: a lower peak
    kernel = np.zeros((len(free), width))
    kernel[np.arange(len(free)), free] = 1
    kernel[:, pivots] = _residues(np.negative(r_free, out=r_free), p).T
    return kernel
