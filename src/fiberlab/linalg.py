"""Exact dense linear algebra over F_p (numpy int64) and Q (Fraction).

Everything returns canonical reduced row-echelon data so that callers
(graded pieces, resolutions, kernels) are deterministic.  Entries over
F_p stay below p < 2**26, so products fit comfortably in int64.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .fields import FieldSpec


class Echelon:
    """Incrementally maintained reduced row-echelon basis of a subspace.

    Rows are kept fully reduced (RREF), so the row set is a canonical
    invariant of the subspace and ``reduce`` is a normal form.
    """

    def __init__(self, field: FieldSpec, width: int):
        self.field = field
        self.width = width
        self.rows = []          # list of vectors (np.int64 arrays or Fraction lists)
        self.pivots = []        # pivot column per row, strictly increasing order kept

    @property
    def rank(self) -> int:
        return len(self.rows)

    def _reduce_fp(self, vec):
        p = self.field.characteristic
        vec = np.asarray(vec, dtype=np.int64) % p
        for pos, row in zip(self.pivots, self.rows):
            c = vec[pos]
            if c:
                vec = (vec - c * row) % p
        return vec

    def _reduce_qq(self, vec):
        vec = [Fraction(v) for v in vec]
        for pos, row in zip(self.pivots, self.rows):
            c = vec[pos]
            if c:
                vec = [a - c * b for a, b in zip(vec, row)]
        return vec

    def reduce(self, vec):
        """Residual of ``vec`` modulo the current row space."""
        if self.field.characteristic:
            return self._reduce_fp(vec)
        return self._reduce_qq(vec)

    def contains(self, vec) -> bool:
        r = self.reduce(vec)
        if self.field.characteristic:
            return not r.any()
        return all(v == 0 for v in r)

    def add(self, vec) -> bool:
        """Insert ``vec``; returns True if the rank grew."""
        p = self.field.characteristic
        vec = self.reduce(vec)
        if p:
            nz = np.nonzero(vec)[0]
            if nz.size == 0:
                return False
            pos = int(nz[0])
            vec = (vec * pow(int(vec[pos]), -1, p)) % p
            for i, row in enumerate(self.rows):
                c = row[pos]
                if c:
                    self.rows[i] = (row - c * vec) % p
        else:
            pos = next((i for i, v in enumerate(vec) if v != 0), None)
            if pos is None:
                return False
            inv = 1 / vec[pos]
            vec = [v * inv for v in vec]
            for i, row in enumerate(self.rows):
                c = row[pos]
                if c:
                    self.rows[i] = [a - c * b for a, b in zip(row, vec)]
        at = next((i for i, q in enumerate(self.pivots) if q > pos), len(self.pivots))
        self.rows.insert(at, vec)
        self.pivots.insert(at, pos)
        return True

    def copy(self) -> "Echelon":
        """Independent copy; rows are shared, since ``add`` replaces
        rows instead of changing them in place."""
        other = Echelon(self.field, self.width)
        other.rows = list(self.rows)
        other.pivots = list(self.pivots)
        return other

    def extend(self, vectors) -> int:
        added = 0
        for v in vectors:
            if self.add(v):
                added += 1
        return added

    def basis_rows(self):
        """Canonical RREF rows as plain Python lists of raw field values."""
        if self.field.characteristic:
            return [[int(v) for v in row] for row in self.rows]
        return [list(row) for row in self.rows]


def echelon_from_rows(rows, field: FieldSpec, width: int) -> Echelon:
    e = Echelon(field, width)
    for r in rows:
        e.add(r)
    return e


def rank_of_rows(rows, field: FieldSpec, width: int) -> int:
    if field.characteristic and rows:
        return _rank_fp(np.asarray(list(rows), dtype=np.int64), field.characteristic)
    return echelon_from_rows(rows, field, width).rank


def _rank_fp(A: np.ndarray, p: int) -> int:
    A = A % p
    nrows, ncols = A.shape
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        nz = np.nonzero(A[r:, c])[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            A[[r, pr]] = A[[pr, r]]
        inv = pow(int(A[r, c]), -1, p)
        A[r] = (A[r] * inv) % p
        col = A[r + 1:, c]
        mask = np.nonzero(col)[0]
        if mask.size:
            A[r + 1 + mask] = (A[r + 1 + mask] - np.outer(col[mask], A[r])) % p
        r += 1
    return r


def rref(rows, field: FieldSpec, width: int):
    """Full reduced row echelon form; returns (rows, pivot columns)."""
    e = echelon_from_rows(rows, field, width)
    return e.basis_rows(), list(e.pivots)


def nullspace(rows, field: FieldSpec, width: int):
    """Canonical kernel basis of the linear map with the given matrix rows.

    Solves A x = 0 where A has ``width`` columns; each basis vector has a
    1 in its defining free coordinate.
    """
    rr, pivots = rref(rows, field, width)
    pivot_set = set(pivots)
    free = [j for j in range(width) if j not in pivot_set]
    basis = []
    one, zero = field.one, field.zero
    for j in free:
        vec = [zero] * width
        vec[j] = one
        for i, pc in enumerate(pivots):
            v = rr[i][j]
            if v:
                vec[pc] = field.neg(v if not field.characteristic else int(v))
        basis.append(vec)
    return basis
