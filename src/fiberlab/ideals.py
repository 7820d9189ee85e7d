"""Ideal-level operations, each reducible to Groebner or graded data.

Dimension, height and multiplicity come from the Hilbert series of the
grevlex lead-term ideal.
"""

from __future__ import annotations

from .groebner import GREVLEX, GroebnerBasis, buchberger
from .hilbert import HilbertSeries, series_of_basis
from .polyring import Polynomial, Ring, RingError


class Ideal:
    """Homogeneous-friendly ideal with per-order cached reduced bases."""

    def __init__(self, ring: Ring, generators):
        self.ring = ring
        gens = []
        for g in generators:
            if g.ring != ring:
                raise RingError("generator outside the ring")
            if not g.is_zero():
                gens.append(g)
        self.generators = tuple(gens)
        self._gb_cache = {}
        self._mingens = None

    # -- basics ----------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.generators

    def is_homogeneous(self) -> bool:
        return all(g.is_homogeneous() for g in self.generators)

    def groebner(self, order=GREVLEX) -> GroebnerBasis:
        key = repr(order)
        gb = self._gb_cache.get(key)
        if gb is None:
            if self.is_zero():
                gb = GroebnerBasis(self.ring, order, (), ())
            else:
                gb = buchberger(self.generators, order)
            self._gb_cache[key] = gb
        return gb

    def contains(self, f: Polynomial) -> bool:
        if f.is_zero():
            return True
        if self.is_zero():
            return False
        return self.groebner().contains(f)

    def __eq__(self, other):
        if not isinstance(other, Ideal) or self.ring != other.ring:
            return NotImplemented
        return self.groebner().elements == other.groebner().elements

    def __hash__(self):
        return hash((self.ring, self.groebner().elements))

    def __repr__(self):
        gens = ", ".join(str(g) for g in self.generators[:6])
        more = ", ..." if len(self.generators) > 6 else ""
        return f"Ideal({gens}{more})"

    def minimal_generators(self) -> list:
        """``graded.minimal_generators``, computed once: every call returns
        the same list."""
        if self._mingens is None:
            from .graded import minimal_generators
            self._mingens = minimal_generators(self)
        return self._mingens

    # -- arithmetic --------------------------------------------------------
    def __add__(self, other: "Ideal") -> "Ideal":
        self._check(other)
        return Ideal(self.ring, self.generators + other.generators)

    def __mul__(self, other: "Ideal") -> "Ideal":
        self._check(other)
        if self.is_zero() or other.is_zero():
            return Ideal(self.ring, ())
        return Ideal(self.ring, tuple(a * b for a in self.generators
                                      for b in other.generators))

    def _check(self, other):
        if self.ring != other.ring:
            raise RingError("ideals in different rings")

    # -- numeric invariants ---------------------------------------------------
    def hilbert_series(self) -> HilbertSeries:
        """Series of R/I in the ring's grading, kept on the grevlex basis."""
        if not self.is_homogeneous():
            raise RingError("Hilbert series needs a homogeneous ideal")
        return series_of_basis(self.groebner())

    def krull_dimension(self) -> int:
        """dim(R/I); -1 when I is the unit ideal."""
        return self.hilbert_series().dimension

    def height(self) -> int:
        """ht(I) in the polynomial ambient; nvars for the unit ideal."""
        d = self.krull_dimension()
        return self.ring.nvars if d < 0 else self.ring.nvars - d

    def is_unit(self) -> bool:
        return bool(self.generators) and self.krull_dimension() == -1

    def multiplicity(self) -> int:
        """e(R/I) from the Hilbert series."""
        return self.hilbert_series().multiplicity
