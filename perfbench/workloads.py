"""Workload definitions, the seeded input generator and independent oracles.

Nothing here imports fiberlab: the generator and the oracles work on
exponent vectors only, so a bug in the program cannot hide in them.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

CORPUS_WORKLOADS = {
    "corpus-sevengen": "ex-2.2-sevengen",
    "corpus-matrix6x5": "ex-1-matrix6x5",
}
GEN_WORKLOAD = "gen-monomial"
WORKLOADS = (*CORPUS_WORKLOADS, GEN_WORKLOAD)

VARIABLES = ("x", "y", "z")
CHARACTERISTIC = 32003

# One slot per ideal of a gen-monomial batch: (generator count, degree,
# common power or None).  When every generator carries the same power c
# of one variable, the exponent vectors lie on one line of the plane
# where that variable is c, which forces analytic spread 2.
GEN_SHAPES = (
    (4, 3, None), (5, 3, None), (6, 3, None), (7, 3, None),
    (4, 4, None), (5, 4, None), (6, 4, None), (7, 4, None),
    (4, 3, 0), (4, 4, 0), (5, 4, 0), (4, 4, 1),
)


def monomials_of_degree(d: int, nvars: int = 3):
    """Exponent vectors of total degree d, in a fixed order."""
    return [e for e in itertools.product(range(d + 1), repeat=nvars)
            if sum(e) == d]


def generate_batch(seed: int, rounds: int) -> list:
    """``rounds`` copies of the GEN_SHAPES mix, monomials drawn from seed.

    The seed picks the monomials (and, for a common power, the variable
    that carries it), so every batch has the same mix of shapes.
    """
    rng = random.Random(f"gen-monomial:{seed}")
    batch = []
    for _ in range(rounds):
        for count, degree, cpow in GEN_SHAPES:
            if cpow is None:
                pool = monomials_of_degree(degree)
            else:
                v = rng.randrange(3)
                pool = [e[:v] + (cpow,) + e[v:]
                        for e in monomials_of_degree(degree - cpow, 2)]
            batch.append(sorted(rng.sample(pool, count)))
    return batch


def ideal_text(exponents) -> str:
    """The program's input language for a monomial ideal in x, y, z."""
    def mono(e):
        parts = [v if k == 1 else f"{v}^{k}"
                 for v, k in zip(VARIABLES, e) if k]
        return "*".join(parts) or "1"
    gens = ", ".join(mono(e) for e in exponents)
    return (f"ring {', '.join(VARIABLES)} over {CHARACTERISTIC};\n"
            f"ideal {gens};\n")


# ---------------------------------------------------------------------------
# oracles

def _divides(a, b) -> bool:
    return all(x <= y for x, y in zip(a, b))


def minimal_monomials(exponents) -> list:
    """Generators not divisible by another generator (duplicates once)."""
    gens = sorted(set(map(tuple, exponents)))
    return [g for g in gens
            if not any(h != g and _divides(h, g) for h in gens)]


def min_vertex_cover(exponents) -> int:
    """Height of a monomial ideal: the fewest variables meeting every
    generator's support."""
    supports = [{i for i, e in enumerate(g) if e}
                for g in minimal_monomials(exponents)]
    nvars = len(exponents[0])
    for k in range(nvars + 1):
        for cover in itertools.combinations(range(nvars), k):
            if all(s & set(cover) for s in supports):
                return k
    raise ValueError("the unit ideal has no vertex cover")


def exponent_rank(exponents) -> int:
    """Rank over Q of the exponent matrix: the dimension of the toric
    fiber ring, so the analytic spread of an equigenerated monomial ideal."""
    rows = [[Fraction(e) for e in g] for g in minimal_monomials(exponents)]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col] / rows[rank][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def expected_invariants(exponents) -> dict:
    return {"mu": len(minimal_monomials(exponents)),
            "height": min_vertex_cover(exponents),
            "analytic_spread": exponent_rank(exponents)}
