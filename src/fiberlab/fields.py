"""Exact coefficient arithmetic over Q and over odd prime fields F_p.

Every other module stores coefficients *raw* (``int`` residues for F_p,
``fractions.Fraction`` for Q) and routes arithmetic through a FieldSpec,
which keeps the hot loops free of wrapper objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

DEFAULT_PRIME = 32003

# The dense F_p kernel (linalg) sums products a*b with a, b < p exactly in
# float64, which needs (p - 1)**2 < 2**53 with room for at least two terms.
MAX_PRIME = 1 << 26


class FieldError(ValueError):
    """Bad field construction."""


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


@dataclass(frozen=True)
class FieldSpec:
    """Ground field: Q (characteristic 0) or F_p for an odd prime p."""

    characteristic: int = DEFAULT_PRIME

    def __post_init__(self):
        p = self.characteristic
        if p == 0:
            return
        if p == 2:
            raise FieldError("characteristic must be odd or 0")
        if not _is_prime(p):
            raise FieldError(f"characteristic {p} is not prime")
        if p > MAX_PRIME:
            raise FieldError(f"prime {p} too large for exact dense kernels")

    @property
    def kind(self) -> str:
        return "rationals" if self.characteristic == 0 else "prime_field"

    # raw representation: canonical residue in [0, p) or reduced Fraction
    def raw(self, value) -> "int | Fraction":
        if self.characteristic == 0:
            return Fraction(value)
        return int(value) % self.characteristic

    @property
    def zero(self):
        return Fraction(0) if self.characteristic == 0 else 0

    @property
    def one(self):
        return Fraction(1) if self.characteristic == 0 else 1

    def add(self, a, b):
        if self.characteristic == 0:
            return a + b
        return (a + b) % self.characteristic

    def sub(self, a, b):
        if self.characteristic == 0:
            return a - b
        return (a - b) % self.characteristic

    def mul(self, a, b):
        if self.characteristic == 0:
            return a * b
        return (a * b) % self.characteristic

    def neg(self, a):
        if self.characteristic == 0:
            return -a
        return (-a) % self.characteristic

    def inv(self, a):
        if self.characteristic == 0:
            if a == 0:
                raise ZeroDivisionError("inverse of 0")
            return 1 / a
        if a % self.characteristic == 0:
            raise ZeroDivisionError("inverse of 0")
        return pow(a, -1, self.characteristic)

    def random_raw(self, rng, nonzero=False):
        """Uniform raw element; over Q a small integer (keeps GB coefficients tame)."""
        if self.characteristic == 0:
            v = rng.randrange(-99, 100)
            while nonzero and v == 0:
                v = rng.randrange(-99, 100)
            return Fraction(v)
        v = rng.randrange(self.characteristic)
        while nonzero and v == 0:
            v = rng.randrange(self.characteristic)
        return v

    def __repr__(self):
        return "QQ" if self.characteristic == 0 else f"GF({self.characteristic})"


QQ = FieldSpec(0)


def GF(p: int) -> FieldSpec:
    return FieldSpec(p)
