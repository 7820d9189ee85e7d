"""Degreewise exact linear algebra on ideals and free-module maps.

Macaulay rows come from two builders.  ``spanning_columns`` writes the
rows of polynomials, as their columns and coefficients (``spanning_rows``
makes them dense); ``product_rows`` writes the rows of f*b for a form f
and rows b already built, the products of the powers I^n and of the
product pieces (forms)·I^r, without building f*b as a polynomial, and
with all their columns or only the pivot columns of a piece that holds
them, where their rank is read (D16 in docs/decisions.md).

The degree-e piece of a free module with generator degrees
(d_1, ..., d_r) has one block of columns per generator, laid out by
``module_basis``: block i starts at the sum of the widths before it and
is the ``degree_basis(ring, e - d_i)`` index of the packed monomials,
grevlex-descending.  An ideal is the rank-one case d_1 = 0.
``spanning_columns`` writes the row of m*s for every monomial m of
degree e - deg s, grevlex-descending, by one lookup per term of s, on
the packed keys the polynomials store.  Graded pieces, minimal
generators and both matrices of the degreewise syzygies are made of
these rows: the map's rows, collected by codomain column, and the
multiples of the syzygies already found.  ``product_rows`` moves each
entry of b at monomial m to the column of t*m for each term c*t of f,
from one cached index array per (ring, degree, t) (``shifted_columns``);
given columns, only the entries that land on them move.

Graded pieces are represented by canonical reduced row-echelon bases
over the monomial basis of the ambient degree, so dimensions, piece
memberships and complements are deterministic.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache

from .linalg import (Echelon, index_array, multiply_rows, nullspace, rank_of_rows,
                     sparse_rows, zeros)
from .polyring import Polynomial, Ring


@lru_cache(maxsize=4096)
def degree_basis(ring: Ring, degree: int):
    """(packed monomials sorted grevlex-descending, their column index)."""
    monos = tuple(ring.monomials_of_degree(degree))
    return monos, {m: i for i, m in enumerate(monos)}


@lru_cache(maxsize=4096)
def shifted_columns(ring: Ring, degree: int, mono: int):
    """The column of mono*m in the degree piece of mono*m, for each
    monomial m of ``degree_basis(ring, degree)`` in order: the columns of
    one term of a form's multiplication matrix (``product_rows``)."""
    monos = degree_basis(ring, degree)[0]
    index = degree_basis(ring, degree + ring.mono_degree(mono))[1]
    return index_array([index[mono + m] for m in monos])


def module_basis(ring: Ring, degree: int, shifts=(0,)):
    """Column layout of the degree piece of the free module whose
    generators have degrees ``shifts``: one (offset, monomials, index)
    block per generator, from ``degree_basis(ring, degree - shift)``,
    and the total width."""
    blocks, width = [], 0
    for d in shifts:
        monos, index = degree_basis(ring, degree - d)
        blocks.append((width, monos, index))
        width += len(monos)
    return blocks, width


def vector_to_poly(vec, monos, ring: Ring) -> Polynomial:
    field = ring.field
    terms = {}
    for m, v in zip(monos, vec):
        c = field.raw(v)
        if c:
            terms[m] = c
    return Polynomial(ring, terms)


def _element_degree(parts, shifts):
    """Degree of a free-module element: shift + degree, the same for
    every nonzero component; None for the zero element."""
    degs = {d + p.homogeneous_degree() for d, p in zip(shifts, parts) if p.terms}
    if len(degs) > 1:
        raise ValueError("module element is not homogeneous")
    return degs.pop() if degs else None


def spanning_columns(elements, degree: int, ring: Ring, shifts=(0,)):
    """The Macaulay rows of all monomial multiples m*s landing in the
    degree piece of the free module with generator degrees ``shifts``
    (``module_basis``), made one at a time as (columns, coefficients):
    per element, m runs over the monomials of the complementary degree,
    grevlex-descending.  An element is a sequence of polynomials, one
    per generator; a polynomial is an element of the rank-one module.
    Zero elements give no rows."""
    blocks = module_basis(ring, degree, shifts)[0]
    for s in elements:
        if isinstance(s, Polynomial):
            s = (s,)
        d = _element_degree(s, shifts)
        if d is None or d > degree:
            continue
        terms, coeffs = [], []
        for (offset, _, index), p in zip(blocks, s):
            for t, c in p.terms.items():
                terms.append((offset, index, t))
                coeffs.append(c)
        for m in degree_basis(ring, degree - d)[1]:
            yield [offset + index[t + m] for offset, index, t in terms], coeffs


def spanning_rows(elements, degree: int, ring: Ring, shifts=(0,)):
    """The rows of ``spanning_columns``, dense, made one at a time."""
    width = module_basis(ring, degree, shifts)[1]
    for columns, coeffs in spanning_columns(elements, degree, ring, shifts):
        vec = zeros(ring.field, width)
        for j, c in zip(columns, coeffs):
            vec[j] = c
        yield vec


def product_rows(forms, rows, degree: int, ring: Ring, columns=None):
    """The rows of f*b over ``degree_basis(ring, degree + deg f)`` for each
    of the forms f, all nonzero of one degree, and each of the rows b over
    ``degree_basis(ring, degree)``, form after form: each term c*t of f
    adds c*b at the columns of t times b's monomials
    (``linalg.multiply_rows``), so no product is built as a polynomial.
    With ``columns`` only those columns of the products are made, in that
    order: the pivot columns of a piece that holds the products, on which
    their rank can be read (``IdealContext.rank``)."""
    degrees = {f.homogeneous_degree() for f in forms}
    if len(degrees) != 1 or -1 in degrees:
        raise ValueError(f"products need nonzero forms of one degree, not {sorted(degrees)}")
    width = len(degree_basis(ring, degree + degrees.pop())[0])
    terms = [[(shifted_columns(ring, degree, t), c) for t, c in f.terms.items()]
             for f in forms]
    return multiply_rows(rows, terms, width, ring.field, columns)


def graded_piece(ideal, degree: int) -> Echelon:
    return piece_span_of_polys(ideal.generators, degree, ideal.ring)


def piece_span_of_polys(polys, degree: int, ring: Ring) -> Echelon:
    """Echelonized basis of the degree piece of the ideal the polynomials
    generate, over ``degree_basis(ring, degree)``; its rank is the
    dimension."""
    ech = Echelon(ring.field, len(degree_basis(ring, degree)[0]))
    ech.extend(spanning_rows(polys, degree, ring))
    return ech


def minimal_generators(ideal):
    """Minimal homogeneous generating set, degree by degree.

    New generators in degree e span the complement of R_1 * [I]_{e-1}
    inside the degree-e part generated so far.
    """
    ring = ideal.ring
    gens = [g for g in ideal.generators if not g.is_zero()]
    if not gens:
        return []
    if not all(g.is_homogeneous() for g in gens):
        raise ValueError("minimal generators need a homogeneous ideal")
    by_degree = {}
    for g in gens:
        by_degree.setdefault(g.homogeneous_degree(), []).append(g)
    chosen = []
    for e in sorted(by_degree):
        ech = Echelon(ring.field, len(degree_basis(ring, e)[0]))
        ech.extend(spanning_rows(chosen, e, ring))
        new = ech.extend(spanning_rows(by_degree[e], e, ring))
        chosen += [g for g, grew in zip(by_degree[e], new) if grew]
    return chosen


# ---------------------------------------------------------------------------
# syzygies of a tuple of free-module elements, degree by degree

@dataclass
class PresentationMatrix:
    """Minimal presentation: rows = generators, columns = first syzygies."""

    matrix: list            # matrix[i][k]: Polynomial entry (row i, column k)
    row_degrees: list
    column_degrees: list

    @property
    def nrows(self):
        return len(self.row_degrees)

    @property
    def ncols(self):
        return len(self.column_degrees)


def syzygies_degreewise(columns, codomain_degrees, ring: Ring, max_degree: int):
    """Minimal generating syzygies among module elements, up to max_degree.

    ``columns[k]`` is a vector of polynomials over a free module whose
    generator degrees are ``codomain_degrees``; each column must be
    homogeneous (entry i has degree col_degree - codomain_degrees[i]).
    In degree e the domain is the free module on the columns, with
    generator degrees col_degree, and the row of its coordinate
    (k, m) is the builder's row of m * columns[k].
    Returns (list of syzygy vectors, their degrees).
    """
    field = ring.field
    col_degrees = [_element_degree(col, codomain_degrees) for col in columns]
    if None in col_degrees:
        raise ValueError("zero column")

    syzygies = []
    syzygy_degrees = []
    min_e = min(col_degrees, default=0) + 1
    for e in range(min_e, max_degree + 1):
        blocks, width = module_basis(ring, e, col_degrees)
        if not width:
            continue
        # the map's rows, collected by codomain column: the kernel of the
        # transposed matrix is the left kernel, streamed one row at a time,
        # the empty rows left out (they change no kernel)
        entries = [[] for _ in range(module_basis(ring, e, codomain_degrees)[1])]
        for r, (cols, coeffs) in enumerate(
                spanning_columns(columns, e, ring, codomain_degrees)):
            for j, c in zip(cols, coeffs):
                entries[j].append((r, c))
        rows = sparse_rows((row for row in entries if row), width, field)
        del entries     # read once, then freed before the kernel is allocated
        kernel = nullspace(rows, field, width)
        if not len(kernel):
            continue
        # known syzygies generate a sub; take the complement inside the kernel
        known = Echelon(field, width)
        known.extend(spanning_rows(syzygies, e, ring, col_degrees))
        for v, grew in zip(kernel, known.extend(kernel)):
            if grew:
                syzygies.append([vector_to_poly(v[o:o + len(monos)], monos, ring)
                                 for o, monos, _ in blocks])
                syzygy_degrees.append(e)
    return syzygies, syzygy_degrees


def minors_ideal(pres: PresentationMatrix, size: int, ideal) -> "object":
    """Ideal of size x size minors of the presentation matrix."""
    from .ideals import Ideal
    from .parse import minors
    ring = ideal.ring
    if size <= 0:
        return Ideal(ring, (ring.one(),))
    if size > min(pres.nrows, pres.ncols):
        return Ideal(ring, ())
    return Ideal(ring, tuple(minors(pres.matrix, size, ring)))


def linear_rank(pres: PresentationMatrix) -> int:
    """Generic rank of the linear-column submatrix, by random evaluation
    (``generic_rank``, five points)."""
    d = pres.row_degrees[0]
    linear_cols = [k for k, cd in enumerate(pres.column_degrees) if cd == d + 1]
    if not linear_cols:
        return 0
    matrix = [[row[k] for k in linear_cols] for row in pres.matrix]
    return generic_rank(matrix, [f"linear-rank:{seed}" for seed in range(11, 16)])


def generic_rank(matrix, seeds) -> int:
    """The best rank of a nonempty matrix of polynomials at the points
    drawn with the given seeds, one point per seed.  Each point finds the
    generic rank with failure probability at most (degree / |field|)."""
    ring = matrix[0][0].ring
    field = ring.field
    best = 0
    for seed in seeds:
        rng = random.Random(seed)
        point = [field.random_raw(rng) for _ in range(ring.nvars)]
        rows = [[entry.evaluate(point) for entry in row] for row in matrix]
        best = max(best, rank_of_rows(rows, field, len(matrix[0])))
    return best
