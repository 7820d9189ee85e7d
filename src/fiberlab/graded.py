"""Degreewise exact linear algebra on ideals and free-module maps.

Graded pieces are represented by canonical reduced row-echelon bases
over the monomial basis of the ambient degree, so dimensions, piece
memberships and complements are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .linalg import Echelon, nullspace, rank_of_rows, sparse_rows, zero_vector
from .polyring import GREVLEX, Polynomial, Ring, _packing, mono_mul


@lru_cache(maxsize=4096)
def degree_basis(ring: Ring, degree: int):
    """(monomials sorted grevlex-descending, column index map keyed by the
    packed grevlex monomial, ``polyring._packing(GREVLEX, nvars)``)."""
    monos = tuple(ring.monomials_of_degree(degree))
    pack = _packing(GREVLEX, ring.nvars).pack
    return monos, {pack(m): i for i, m in enumerate(monos)}


def poly_to_vector(p: Polynomial, index, width):
    """Coordinates of p over a ``degree_basis`` column index."""
    vec = zero_vector(p.ring.field, width)
    for m, c in _packing(GREVLEX, p.ring.nvars).pack_terms(p.terms).items():
        vec[index[m]] = c
    return vec


def vector_to_poly(vec, monos, ring: Ring) -> Polynomial:
    field = ring.field
    terms = {}
    for m, v in zip(monos, vec):
        c = field.raw(int(v)) if field.characteristic else v
        if c:
            terms[m] = c
    return Polynomial(ring, terms)


@dataclass
class GradedPieceBasis:
    """Echelonized basis of the degree-d piece of a homogeneous ideal."""

    degree: int
    ambient_monomials: tuple
    echelon: Echelon

    @property
    def dim(self) -> int:
        return self.echelon.rank

    def basis_polynomials(self, ring: Ring):
        return [vector_to_poly(row, self.ambient_monomials, ring)
                for row in self.echelon.rows]


def spanning_rows(gens, degree: int, ring: Ring):
    """Vectors of all monomial multiples m*g landing in the given degree,
    made one at a time: per generator, m runs over the monomials of the
    complementary degree, grevlex-descending.  Each generator is packed
    once, and the column of a term of m*g is looked up by the packed sum
    in the ``degree_basis`` index."""
    packing = _packing(GREVLEX, ring.nvars)
    columns = degree_basis(ring, degree)[1]
    for g in gens:
        d = g.homogeneous_degree()
        if d > degree:
            continue
        terms = packing.pack_terms(g.terms).items()
        for m in degree_basis(ring, degree - d)[1]:
            vec = zero_vector(ring.field, len(columns))
            for t, c in terms:
                vec[columns[t + m]] = c
            yield vec


def graded_piece(ideal, degree: int) -> GradedPieceBasis:
    return piece_span_of_polys(ideal.generators, degree, ideal.ring)


def piece_span_of_polys(polys, degree: int, ring: Ring) -> GradedPieceBasis:
    monos, _ = degree_basis(ring, degree)
    ech = Echelon(ring.field, len(monos))
    ech.extend(spanning_rows(polys, degree, ring))
    return GradedPieceBasis(degree, monos, ech)


def joint_rank(a: GradedPieceBasis, b: GradedPieceBasis) -> int:
    """dim of the sum of two pieces of the same degree."""
    if a.degree != b.degree:
        raise ValueError(f"pieces of degrees {a.degree} and {b.degree}")
    residuals = (row for block in b.echelon.row_blocks()
                 for row in a.echelon.reduce(block))
    return a.dim + rank_of_rows(residuals, a.echelon.field, a.echelon.width)


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
        monos, index = degree_basis(ring, e)
        ech = Echelon(ring.field, len(monos))
        ech.extend(spanning_rows(chosen, e, ring))
        new = ech.extend([poly_to_vector(g, index, len(monos)) for g in by_degree[e]])
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

    def column(self, k):
        return [self.matrix[i][k] for i in range(self.nrows)]


def syzygies_degreewise(columns, codomain_degrees, ring: Ring, max_degree: int):
    """Minimal generating syzygies among module elements, up to max_degree.

    ``columns[k]`` is a vector of polynomials over a free module whose
    generator degrees are ``codomain_degrees``; each column must be
    homogeneous (entry i has degree col_degree - codomain_degrees[i]).
    Returns (list of syzygy vectors, their degrees).
    """
    field = ring.field
    col_degrees = []
    for col in columns:
        degs = {codomain_degrees[i] + entry.homogeneous_degree()
                for i, entry in enumerate(col) if not entry.is_zero()}
        if len(degs) != 1:
            raise ValueError("column is not homogeneous")
        col_degrees.append(degs.pop())

    syzygies = []
    syzygy_degrees = []
    min_e = min(col_degrees, default=0) + 1
    for e in range(min_e, max_degree + 1):
        # domain coordinates: (column k, monomial of degree e - col_degrees[k])
        dom = []
        for k, dk in enumerate(col_degrees):
            if e - dk < 0:
                continue
            for m in ring.monomials_of_degree(e - dk):
                dom.append((k, m))
        if not dom:
            continue
        # codomain coordinates: (row i, monomial of degree e - codomain_degrees[i])
        cod_index = {}
        for i, di in enumerate(codomain_degrees):
            if e - di < 0:
                continue
            for m in ring.monomials_of_degree(e - di):
                cod_index[(i, m)] = len(cod_index)
        kernel = nullspace(_transposed_map(columns, dom, cod_index, field), field,
                           len(dom))
        if not len(kernel):
            continue
        # known syzygies generate a sub; take the complement inside the kernel
        known = Echelon(field, len(dom))
        known.extend(_multiples(syzygies, syzygy_degrees, e, dom, ring))
        for v, grew in zip(kernel, known.extend(kernel)):
            if grew:
                # materialize the new syzygy as a polynomial vector
                parts = [dict() for _ in columns]
                for (k, m), c in zip(dom, v):
                    c = field.raw(int(c)) if field.characteristic else c
                    if c:
                        parts[k][m] = field.add(parts[k].get(m, field.zero), c) \
                            if m in parts[k] else c
                syzygies.append([Polynomial(ring, t) for t in parts])
                syzygy_degrees.append(e)
    return syzygies, syzygy_degrees


def _transposed_map(columns, dom, cod_index, field):
    """Rows of the map's matrix on the domain coordinates ``dom``, one per
    codomain coordinate, so that its kernel is the left kernel."""
    entries = [[] for _ in cod_index]
    for col, (k, m) in enumerate(dom):
        for i, entry in enumerate(columns[k]):
            for em, ec in entry.terms.items():
                entries[cod_index[(i, mono_mul(em, m))]].append((col, ec))
    return sparse_rows(entries, len(dom), field)


def _multiples(syzygies, degrees, e, dom, ring):
    """Coordinate vectors of all monomial multiples of the syzygies in
    degree e, made one at a time."""
    dom_index = {t: i for i, t in enumerate(dom)}
    entries = ([(dom_index[(k, mono_mul(em, m))], ec)
                for k, entry in enumerate(s) for em, ec in entry.terms.items()]
               for s, ds in zip(syzygies, degrees) if e >= ds
               for m in ring.monomials_of_degree(e - ds))
    return sparse_rows(entries, len(dom), ring.field)


def minors_ideal(pres: PresentationMatrix, size: int, ideal) -> "object":
    """Ideal of size x size minors of the presentation matrix."""
    from itertools import combinations

    from .ideals import Ideal
    from .parse import determinant
    ring = ideal.ring
    if size <= 0:
        return Ideal(ring, (ring.one(),))
    if size > min(pres.nrows, pres.ncols):
        return Ideal(ring, ())
    gens = []
    for rsel in combinations(range(pres.nrows), size):
        for csel in combinations(range(pres.ncols), size):
            sub = [[pres.matrix[i][k] for k in csel] for i in rsel]
            gens.append(determinant(sub, ring))
    gens = [g for g in gens if not g.is_zero()]
    return Ideal(ring, tuple(gens))


def linear_rank(pres: PresentationMatrix, field, seeds=(11, 12, 13, 14, 15)) -> int:
    """Generic rank of the linear-column submatrix, by random evaluation.

    Five independent evaluations; the maximum observed rank is the
    answer with failure probability at most (degree/|field|) per trial.
    """
    d = pres.row_degrees[0]
    linear_cols = [k for k, cd in enumerate(pres.column_degrees) if cd == d + 1]
    if not linear_cols:
        return 0
    import random
    best = 0
    ring0 = pres.matrix[0][linear_cols[0]].ring if pres.nrows else None
    for seed in seeds:
        rng = random.Random(f"linear-rank:{seed}")
        point = [field.random_raw(rng) for _ in range(ring0.nvars)]
        rows = []
        for i in range(pres.nrows):
            row = []
            for k in linear_cols:
                row.append(_evaluate(pres.matrix[i][k], point, field))
            rows.append(row)
        best = max(best, rank_of_rows(rows, field, len(linear_cols)))
    return best


def _evaluate(p: Polynomial, point, field):
    total = field.zero
    for m, c in p.terms.items():
        v = c
        for e, x in zip(m, point):
            for _ in range(e):
                v = field.mul(v, x)
        total = field.add(total, v)
    return total
