import os
import random
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from fiberlab.fields import GF, QQ
from fiberlab import linalg as linalg_mod
from fiberlab.linalg import (Echelon, echelon_from_rows, index_array, multiply_rows,
                             normal_form_matrix, normal_form_rows, nullspace, rank_of_rows,
                             reduction_recursion)


def rref_rows(e):
    """The basis rows as lists: ints over F_p; over Q the exact entries
    themselves, which must be Fractions or integer zeros, never floats."""
    rows = e.rows
    if e.field.characteristic:
        return rows.astype(np.int64).tolist()
    assert rows.dtype == object
    assert all(type(v) is Fraction or v == 0 and type(v) is int
               for row in rows for v in row)
    return rows.tolist()


def random_matrix(rng, rows, cols, p=None):
    if p:
        return [[rng.randrange(p) for _ in range(cols)] for _ in range(rows)]
    return [[Fraction(rng.randrange(-9, 10)) for _ in range(cols)]
            for _ in range(rows)]


def test_rank_matches_fraction_oracle():
    """F_p rank via numpy agrees with plain Fraction elimination when the
    integer matrix has no structure tied to the characteristic."""
    rng = random.Random("rank-oracle")
    for _ in range(40):
        rows, cols = rng.randrange(1, 8), rng.randrange(1, 8)
        m = [[rng.randrange(-4, 5) for _ in range(cols)] for _ in range(rows)]
        rq = rank_of_rows([[Fraction(v) for v in row] for row in m], QQ, cols)
        rp = rank_of_rows([[v % 32003 for v in row] for row in m], GF(32003), cols)
        assert rq == rp


def test_echelon_is_canonical_rref():
    rng = random.Random("rref")
    field = GF(32003)
    for _ in range(30):
        m = random_matrix(rng, 6, 5, 32003)
        e1 = echelon_from_rows(m, field, 5)
        e2 = echelon_from_rows(list(reversed(m)), field, 5)
        assert rref_rows(e1) == rref_rows(e2)   # row order can't matter
        rows = rref_rows(e1)
        for i, p in enumerate(e1.pivots):
            assert rows[i][p] == 1
            for j in range(len(rows)):
                if j != i:
                    assert rows[j][p] == 0


def test_nullspace_solves():
    rng = random.Random("kernel")
    for field in (GF(32003), QQ):
        for _ in range(25):
            rows_n, cols_n = rng.randrange(1, 7), rng.randrange(1, 7)
            m = random_matrix(rng, rows_n, cols_n,
                              32003 if field.characteristic else None)
            basis = nullspace(m, field, cols_n)
            for v in basis:
                for row in m:
                    acc = field.zero
                    for a, b in zip(row, v):
                        acc = field.add(acc, field.mul(field.raw(a), b))
                    assert acc == field.zero


def test_nullspace_dimension():
    rng = random.Random("kernel-dim")
    field = GF(32003)
    for _ in range(25):
        rows_n, cols_n = rng.randrange(1, 7), rng.randrange(1, 7)
        m = random_matrix(rng, rows_n, cols_n, 32003)
        basis = nullspace(m, field, cols_n)
        # rank-nullity against the row rank of the transpose
        col_rank = rank_of_rows([list(r) for r in zip(*m)], field, rows_n)
        assert len(basis) == cols_n - col_rank


def test_membership_and_reduce():
    field = GF(32003)
    e = Echelon(field, 3)
    e.add([1, 2, 3])
    e.add([0, 1, 1])
    assert not e.reduce([1, 3, 4]).any()
    assert e.reduce([0, 0, 1]).any()
    assert e.rank == 2


# ---------------------------------------------------------------------------
# the block kernel against plain Python Gauss-Jordan, over F_p and Q

PRIMES = (5, 32003, 67108859)   # 67108859 is the largest prime below 2**26
FIELDS = (*PRIMES, 0)           # 0: the rationals


def field_of(p):
    return GF(p) if p else QQ


def oracle_insert(basis, row, p):
    """Insert ``row`` into ``basis`` (dict pivot -> RREF row) with Python
    ints mod p, or with Fractions over Q (p = 0); True if the rank grew."""
    exact = (lambda v: v % p) if p else Fraction
    row = [exact(v) for v in row]
    for pos, b in basis.items():
        c = row[pos]
        if c:
            row = [exact(x - c * y) for x, y in zip(row, b)]
    pos = next((j for j, v in enumerate(row) if v), None)
    if pos is None:
        return False
    inv = pow(row[pos], -1, p) if p else 1 / row[pos]
    row = [exact(v * inv) for v in row]
    for q, b in basis.items():
        c = b[pos]
        if c:
            basis[q] = [exact(x - c * y) for x, y in zip(b, row)]
    basis[pos] = row
    return True


def oracle_rref(rows, p):
    """(RREF rows in pivot order, pivots, per-row rank-growth flags)."""
    basis = {}
    flags = [oracle_insert(basis, row, p) for row in rows]
    return [basis[q] for q in sorted(basis)], sorted(basis), flags


def random_entry(rng, p):
    return rng.randrange(p) if p else Fraction(rng.randrange(-9, 10), rng.randrange(1, 4))


def low_rank_rows(rng, nrows, ncols, rank, p, zero_rows=0):
    """Rows of a random nrows x ncols matrix of rank <= rank, with some
    rows replaced by zeros.  Over F_p some entries are pushed to p - 1.
    Over Q (p = 0) both factors are Fractions with half their entries
    zero, so that pivot rows have zero columns, and the rank is at most
    12: RREF entries over Q grow with the rank (to 200 digits at rank 60),
    and so does the oracle's time."""
    if p:
        left = [[rng.randrange(p) for _ in range(rank)] for _ in range(nrows)]
        right = [[rng.choice((rng.randrange(p), p - 1)) for _ in range(ncols)]
                 for _ in range(rank)]
    else:
        rank = min(rank, 12)
        left = [[rng.choice((random_entry(rng, 0), 0)) for _ in range(rank)]
                for _ in range(nrows)]
        right = [[rng.choice((random_entry(rng, 0), 0)) for _ in range(ncols)]
                 for _ in range(rank)]
    rows = [[sum(a * b for a, b in zip(lr, col)) for col in zip(*right)]
            for lr in left]
    if p:
        rows = [[v % p for v in row] for row in rows]
    for i in rng.sample(range(nrows), zero_rows):
        rows[i] = [0] * ncols
    return rows


def combinations(rng, rows, count, p):
    """``count`` random linear combinations of ``rows``, exact mod p or
    over Q."""
    out = []
    for _ in range(count):
        coeffs = [random_entry(rng, p) for _ in rows]
        combo = [sum(c * v for c, v in zip(coeffs, col)) for col in zip(*rows)]
        out.append([v % p for v in combo] if p else combo)
    return out


def kernel_cases(rng, p):
    """Row lists for the block kernel, made as they are read: one of more
    rows than one block, rank-deficient, with zero rows; a square one, of
    full rank over F_p; and one whose blocks of 64 rows take the three
    shapes of ``_gauss_jordan``'s live-row loop: rows that die inside
    their block (block 1, 12 rows of rank at most 8, then combinations of
    them), a block that is zero on entry (block 2, in the span of block
    1) and a block whose only live row is its last (block 3)."""
    for nrows, ncols, rank, zeros in ((150, 40, 23, 9), (70, 90, 60, 3), (30, 30, 30, 0)):
        yield low_rank_rows(rng, nrows, ncols, rank, p, zeros)
    base = low_rank_rows(rng, 12, 20, 8, p)
    yield (base + combinations(rng, base, 52 + 64 + 63, p)
           + [[random_entry(rng, p) for _ in range(20)]])


@pytest.mark.parametrize("p", FIELDS)
def test_block_kernel_matches_oracle(p):
    rng = random.Random(f"block-kernel:{p}")
    field = field_of(p)
    for case, rows in enumerate(kernel_cases(rng, p)):
        ncols = len(rows[0])
        want_rows, want_pivots, want_flags = oracle_rref(rows, p)
        if case == 3:
            assert not any(want_flags[12:191]) and want_flags[191]
        e = Echelon(field, ncols)
        assert e.extend(rows) == want_flags
        assert e.rank == len(want_pivots)
        assert rref_rows(e) == want_rows
        assert list(e.pivots) == want_pivots
        assert rank_of_rows(np.array(rows), field, ncols) == len(want_pivots)
        for row in rows[:5]:
            assert not e.reduce(row).any()
        residual = e.reduce([[random_entry(rng, p) for _ in range(ncols)]])
        assert residual.shape == (1, ncols)
        assert all(residual[0, q] == 0 for q in want_pivots)


@pytest.mark.parametrize("p", FIELDS)
def test_single_adds_mixed_with_extend(p):
    rng = random.Random(f"mixed:{p}")
    field = field_of(p)
    rows = low_rank_rows(rng, 140, 50, 35, p, zero_rows=6)
    want_rows, want_pivots, want_flags = oracle_rref(rows, p)
    e = Echelon(field, 50)
    flags = []
    i = 0
    while i < len(rows):
        step = rng.choice((1, 1, 3, 64, 70))
        if step == 1:
            flags.append(e.add(rows[i]))
        else:
            flags.extend(e.extend(iter(rows[i:i + step])))
        i += step
    assert flags == want_flags
    assert rref_rows(e) == want_rows
    assert list(e.pivots) == want_pivots


@pytest.mark.parametrize("p", FIELDS)
def test_nullspace_of_transpose_view(p):
    rng = random.Random(f"kernel-view:{p}")
    field = field_of(p)
    rows = low_rank_rows(rng, 90, 45, 30, p, zero_rows=4)
    a = np.array(rows, dtype=np.float64 if p else object)
    kernel = nullspace(a.T, field, 90)      # left kernel of a, from a view
    rref, pivots, _ = oracle_rref([list(col) for col in zip(*rows)], p)
    want = []
    for j in (j for j in range(90) if j not in pivots):
        vec = [0] * 90
        vec[j] = 1
        for q, row in zip(pivots, rref):
            vec[q] = -row[j] % p if p else -row[j]
        want.append(vec)
    assert (kernel.astype(np.int64) if p else kernel).tolist() == want
    assert len(want) == 90 - len(pivots)


def oracle_block(rows, p):
    """(per-row rank-growth flags, RREF rows and their pivots in the order
    the pivots were found): ``_gauss_jordan``'s answer, from the oracle.
    A dict keeps its keys in insertion order."""
    basis = {}
    flags = [oracle_insert(basis, row, p) for row in rows]
    return flags, list(basis.values()), list(basis)


def trim_blocks(rng, p):
    """Blocks for the trims of ``_gauss_jordan``, each of them a case that
    one trim alone gets wrong: untouched rows, each the only row nonzero
    at its lead (no column is gathered), with zero rows among them; fill-in
    (the update of row 1 by row 0 makes column 1 of row 1 nonzero, so
    row 0, the only row nonzero there on entry, must be cleared at row
    1's pivot); repeated leads, with rows that are multiples of an earlier
    one mod p but not as integers (they die only once reduced); and
    sparse low-rank blocks, where some pivot columns meet one row only."""
    def entry():
        return random_entry(rng, p) or 1

    yield [[0, entry(), 0, 0, 0], [0] * 5, [entry(), 0, 0, 0, 0],
           [0, 0, 0, 0, entry()], [0, 0, entry(), 0, 0]]
    yield [[1, 3, 0, 0], [1, 0, 1, 0], [0, 0, 0, 1], [0, 0, 2, 5]]
    lead = [entry() for _ in range(6)]
    multiples = [[(c * v) % p if p else c * v for v in lead] for c in (2, 3, p - 1 if p else -1)]
    yield [lead, *multiples, [entry() for _ in range(6)], [1, 1, 0, 0, 0, 0],
           [entry(), 0, entry(), 0, entry(), 0]]
    for _ in range(3):
        base = [[entry() if rng.random() < 0.3 else 0 for _ in range(24)] for _ in range(7)]
        block = base + combinations(rng, base[:3], 5, p)
        rng.shuffle(block)
        yield block


@pytest.mark.parametrize("p", FIELDS)
def test_gauss_jordan_trims_match_oracle(p):
    """``_gauss_jordan`` gathers a pivot column only where another row can
    be nonzero, reduces a row only once an update has touched it, and
    scales the pivot rows at the end; on the cases of ``trim_blocks`` the
    flags, the rows and the order of the pivots are the oracle's, at
    p = 67108859 (rows reduced every two updates) too."""
    rng = random.Random(f"gauss-jordan-trims:{p}")
    for rows in trim_blocks(rng, p):
        want_flags, want_rows, want_pivots = oracle_block(rows, p)
        block = np.array(rows, dtype=np.float64 if p else object)
        if not p:
            block = np.vectorize(Fraction, otypes=[object])(block)
        flags, got, pivots = linalg_mod._gauss_jordan(block, p)
        assert flags.tolist() == want_flags
        assert pivots == want_pivots
        assert (got.astype(np.int64) if p else got).tolist() == want_rows


@pytest.mark.parametrize("p", FIELDS)
def test_multiply_rows_matches_oracle(p):
    """Each term (columns, c) of a form adds c times every row at its
    columns, form after form, against sums of Python ints (Fractions over
    Q).  The columns of different terms overlap, and over F_p half the
    entries and coefficients are p - 1, so that at p = 67108859 nine
    unreduced terms would pass 2**53 at a shared column.  Given columns,
    in any order, only those are made, in that order."""
    rng = random.Random(f"multiply-rows:{p}")
    field = field_of(p)
    nrows, ncols, width = 5, 7, 12

    def entry():
        return rng.choice((p - 1, random_entry(rng, p))) if p else random_entry(rng, 0)

    rows = [[entry() for _ in range(ncols)] for _ in range(nrows)]
    forms = [[(rng.sample(range(width), ncols), entry()) for _ in range(count)]
             for count in (1, 3, 9)]
    got = multiply_rows(rows, [[(index_array(cols), c) for cols, c in terms]
                               for terms in forms], width, field)
    want = []
    for terms in forms:
        for row in rows:
            out = [0] * width
            for cols, c in terms:
                for j, v in zip(cols, row):
                    out[j] += c * v
            want.append([v % p for v in out] if p else out)
    assert got.tolist() == want
    assert multiply_rows(rows, [], width, field).shape == (0, width)
    for columns in (rng.sample(range(width), 5), [3], []):
        at = multiply_rows(rows, [[(index_array(cols), c) for cols, c in terms]
                                  for terms in forms], width, field, columns)
        assert at.tolist() == [[row[j] for j in columns] for row in want]


# ---------------------------------------------------------------------------
# normal-form products, forward and pushed down

def random_recursion(rng, size, p):
    """A normal-form recursion over ``size`` monomials, as
    ``linalg.reduction_recursion`` takes it, with its rows N over the
    standard monomials as Python ints mod p (Fractions over Q), and its
    coefficients.  A monomial is standard, or reads up to six distinct
    smaller monomials (its terms), or none (a zero row); its level is 1 +
    the highest level it reads.  The terms share a coefficient vector of
    nine entries, as the tails of a basis do."""
    coefficients = [rng.choice((p - 1, random_entry(rng, p))) if p else random_entry(rng, 0)
                    for _ in range(9)]
    standard, level, rows, levels = [], [0] * size, [None] * size, []
    for j in range(size):
        kind = rng.random()
        if j < 3 or kind < 0.2:
            standard.append(j)
            continue
        if kind < 0.3:
            continue
        sources = rng.sample(range(j), rng.randrange(1, min(6, j) + 1))
        positions = [rng.randrange(9) for _ in sources]
        level[j] = 1 + max(level[s] for s in sources)
        while len(levels) < level[j]:
            levels.append(([], [], [], []))
        members, counts, reads, coefs = levels[level[j] - 1]
        members.append(j)
        counts.append(len(sources))
        reads += sources
        coefs += positions
        rows[j] = (sources, positions)
    width = len(standard)
    nf = [None] * size
    for j in range(size):
        if j in standard:
            nf[j] = [int(j == s) for s in standard]
        elif rows[j] is None:
            nf[j] = [0] * width
        else:
            sources, positions = rows[j]
            nf[j] = [-sum(coefficients[q] * nf[s][i] for s, q in zip(sources, positions))
                     for i in range(width)]
            nf[j] = [v % p for v in nf[j]] if p else nf[j]
    return (size, standard, levels), nf, coefficients


@pytest.mark.parametrize("gather", [None, 40], ids=["whole", "split"])
@pytest.mark.parametrize("p", FIELDS)
def test_normal_form_rows_match_oracle(p, gather, monkeypatch):
    """N from ``normal_form_matrix`` is the oracle's N, and rows · N from
    ``normal_form_rows``, pushed down and multiplied by that N, equals the
    product with it, with W - 1 and W + 3 rows, against sums of Python
    ints (Fractions over Q).  Over F_p half the
    coefficients and entries are p - 1, so that at p = 67108859 two
    unreduced products would pass 2**53.  With a gather bound of 40
    entries the levels are split into runs and the targets into pieces."""
    if gather:
        monkeypatch.setattr(linalg_mod, "_GATHER", gather)
    rng = random.Random(f"normal-form-rows:{p}")
    field = field_of(p)
    (size, standard, levels), nf, coefficients = random_recursion(rng, 60, p)
    rec = reduction_recursion(size, standard, levels)
    if gather:
        assert len(rec.levels) > len(levels)
    width = len(standard)
    coefficients = np.asarray(coefficients, dtype=float if p else object)
    matrix = normal_form_matrix(rec, coefficients, field)
    assert matrix.tolist() == nf
    for nrows in (width - 1, width + 3):
        rows = [[rng.choice((p - 1, random_entry(rng, p))) if p else random_entry(rng, 0)
                 for _ in range(size)] for _ in range(nrows)]
        want = [[sum(r[j] * nf[j][i] for j in range(size)) for i in range(width)]
                for r in rows]
        for got in (normal_form_rows(rows, rec, coefficients, field),
                    normal_form_rows(rows, rec, coefficients, field, matrix)):
            assert got.tolist() == ([[v % p for v in row] for row in want] if p else want)


# ---------------------------------------------------------------------------
# the BLAS thread count

SEEN_AT_NUMPY_IMPORT = """
import os, sys
class Spy:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy":
            print(os.environ.get("OPENBLAS_NUM_THREADS"))
sys.meta_path.insert(0, Spy())
import fiberlab
"""


@pytest.mark.parametrize("preset, seen", [(None, "1"), ("3", "3")])
def test_blas_thread_count_is_set_before_numpy_loads(preset, seen):
    """A fresh interpreter that imports fiberlab loads numpy, and with it
    OpenBLAS, with OPENBLAS_NUM_THREADS = 1, unless the variable was
    already set: then its value is kept."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if preset:
        env["OPENBLAS_NUM_THREADS"] = preset
    out = subprocess.run([sys.executable, "-c", SEEN_AT_NUMPY_IMPORT], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.split() == [seen]


def test_a_report_loads_no_numpy_ma():
    """A cold report loads no module that it does not use: the kernels take
    the free columns of ``nullspace`` from a mask, not from
    ``np.setdiff1d``, whose ``np.unique`` imports ``numpy.ma`` the first
    time it runs under numpy 2 (about 10 ms of the first report)."""
    script = ("import sys\n"
              "from fiberlab.corpus import compute_entry\n"
              "before = set(sys.modules)\n"
              "compute_entry('ex-1-matrix6x5')\n"
              "print(sorted(m for m in set(sys.modules) - before\n"
              "             if m == 'numpy.ma' or m.startswith('numpy.ma.')))\n")
    out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, check=True)
    assert out.stdout.split() == ["[]"]
