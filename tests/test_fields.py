"""Coefficient fields and monomial arithmetic."""

import random
from fractions import Fraction

import pytest

from persmod import (
    Monomial,
    PrimeField,
    QQ,
    Rationals,
    field_from_string,
)


class TestRationals:
    def test_parse_and_format_round_trip(self):
        for text in ["0", "1", "-1", "3/4", "-22/7"]:
            assert QQ.format(QQ.parse(text)) == text

    def test_arithmetic_is_exact(self):
        a = QQ.parse("1/3")
        b = QQ.parse("1/6")
        assert QQ.add(a, b) == Fraction(1, 2)
        assert QQ.sub(a, b) == Fraction(1, 6)
        assert QQ.mul(a, b) == Fraction(1, 18)
        assert QQ.div(a, b) == Fraction(2)

    def test_inverse(self):
        assert QQ.inv(Fraction(3, 4)) == Fraction(4, 3)
        with pytest.raises(ZeroDivisionError):
            QQ.inv(QQ.zero)

    def test_characteristic_zero(self):
        assert QQ.char == 0

    def test_instances_compare_equal(self):
        assert Rationals() == QQ
        assert hash(Rationals()) == hash(QQ)


class TestPrimeField:
    def test_rejects_composite_and_small(self):
        for bad in [0, 1, 4, 6, 9, 15, 91]:
            with pytest.raises(ValueError):
                PrimeField(bad)

    def test_accepts_primes(self):
        for p in [2, 3, 5, 7, 97, 101]:
            assert PrimeField(p).char == p

    def test_scalar_normalizes(self):
        f = PrimeField(7)
        assert f.scalar(10) == 3
        assert f.scalar(-1) == 6

    def test_inverse(self):
        f = PrimeField(7)
        for a in range(1, 7):
            assert f.mul(a, f.inv(a)) == f.one
        with pytest.raises(ZeroDivisionError):
            f.inv(0)

    def test_field_axioms_random(self):
        rng = random.Random(11)
        f = PrimeField(13)
        for _ in range(200):
            a = rng.randrange(13)
            b = rng.randrange(13)
            c = rng.randrange(13)
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
            assert f.sub(a, b) == f.add(a, f.neg(b))
            if b:
                assert f.mul(f.div(a, b), b) == a

    def test_parse_and_format(self):
        f = PrimeField(5)
        assert f.parse("7") == 2
        assert f.format(3) == "3"


class TestFieldFromString:
    def test_rationals(self):
        assert field_from_string("Q") == QQ

    def test_prime_field(self):
        assert field_from_string("Zp:7") == PrimeField(7)

    def test_bad_specs(self):
        for bad in ["R", "Zp:4", "Zp:", "Zp:x", "q", ""]:
            with pytest.raises(ValueError):
                field_from_string(bad)


class TestMonomial:
    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            Monomial(Fraction(1), -1)

    def test_zero_normalizes_exponent(self):
        assert Monomial(Fraction(0), 5) == Monomial(Fraction(0), 0)
        assert Monomial(Fraction(0), 5).is_zero
