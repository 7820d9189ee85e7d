import random
from fractions import Fraction

import pytest

from fiberlab.fields import GF, QQ, FieldError, FieldSpec


def test_modular_identities():
    f5 = GF(5)
    assert f5.add(3, 4) == 2
    big = GF(32003)
    assert big.add(32002, 1) == 0


def test_rational_identities():
    assert QQ.mul(Fraction(1, 2), Fraction(2, 3)) == Fraction(1, 3)
    assert QQ.inv(Fraction(-3, 7)) == Fraction(-7, 3)


def test_inverse_small():
    assert GF(5).inv(2) == 3


def test_inverse_extended_euclid_oracle():
    # oracle: extended Euclid, frozen answer for p = 32003
    def xgcd(a, b):
        x0, x1, y0, y1 = 1, 0, 0, 1
        while b:
            q, a, b = a // b, b, a % b
            x0, x1 = x1, x0 - q * x1
            y0, y1 = y1, y0 - q * y1
        return a, x0, y0

    p = 32003
    g, x, _ = xgcd(2, p)
    assert g == 1 and x % p == 16002
    assert GF(p).inv(2) == 16002


@pytest.mark.parametrize("spec", [GF(32003), GF(5), QQ])
def test_field_axioms_randomized(spec):
    rng = random.Random(f"axioms:{spec}")
    for _ in range(10_000):
        a = spec.random_raw(rng)
        b = spec.random_raw(rng)
        c = spec.random_raw(rng)
        assert spec.add(spec.add(a, b), c) == spec.add(a, spec.add(b, c))
        assert spec.mul(spec.mul(a, b), c) == spec.mul(a, spec.mul(b, c))
        assert spec.mul(a, spec.add(b, c)) == spec.add(spec.mul(a, b), spec.mul(a, c))
        if a != 0:
            assert spec.mul(a, spec.inv(a)) == spec.one


def test_rational_canonical_form():
    rng = random.Random("canonical")
    for _ in range(2000):
        a = Fraction(rng.randrange(-500, 500), rng.randrange(1, 500))
        b = Fraction(rng.randrange(-500, 500), rng.randrange(1, 500))
        from math import gcd
        for v in (QQ.add(a, b), QQ.mul(a, b), QQ.sub(a, b)):
            assert v.denominator > 0
            assert gcd(abs(v.numerator), v.denominator) == 1


def test_prime_field_canonical_residues():
    p = GF(32003)
    rng = random.Random("residues")
    for _ in range(2000):
        a, b = rng.randrange(32003), rng.randrange(32003)
        for v in (p.add(a, b), p.mul(a, b), p.sub(a, b), p.neg(a)):
            assert 0 <= v < 32003


def test_characteristic_validation():
    with pytest.raises(FieldError):
        FieldSpec(2)            # char must be odd or 0
    with pytest.raises(FieldError):
        FieldSpec(15)
    with pytest.raises(FieldError):
        FieldSpec(1 << 40)
    assert FieldSpec(0).kind == "rationals"
    assert FieldSpec().characteristic == 32003


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        GF(5).inv(0)
    with pytest.raises(ZeroDivisionError):
        QQ.inv(Fraction(0))
